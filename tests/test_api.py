"""The package's public surface: each name listed once, and each resolves."""

import segembed as se

PUBLIC = [
    "ComponentParams", "Corpus", "CosineGapReport", "DisentangleConfig",
    "DisentangledModel", "DistanceCounter", "Document", "DocumentIndex", "MiniBatch",
    "ModelDims", "OptimState", "PairSets", "QuerySpec", "RefineModel", "Segment",
    "SiameseConfig", "SynthConfig", "accuracy_curve", "adversarial_loss",
    "build_retrieval_task", "cluster_accuracy", "confusion_matrix", "contrastive_loss",
    "cosine", "derive_seed", "discriminator_loss", "effective_speakers", "embed_corpus",
    "encode", "grad_step", "intra_inter_stats", "kmeans", "knn_graph_pairs",
    "linear_probe_accuracy", "load_checkpoint", "load_corpus", "load_embeddings",
    "make_batches", "mean_average_precision", "pairwise_distances", "phonetic_embeddings",
    "rank_documents", "reconstruction_loss", "relevance_score", "run_retrieval",
    "save_checkpoint", "save_corpus", "save_embeddings", "select_top_labels",
    "speaker_contrastive_loss", "speaker_embeddings", "split_corpus", "synth_corpus",
    "tfidf_select_queries", "topk_global_pairs", "train_disentangle", "train_joint",
    "train_refine",
]


def test_all_is_sorted_without_duplicates():
    assert se.__all__ == sorted(set(se.__all__))


def test_all_is_the_public_surface():
    assert len(PUBLIC) == 58
    assert se.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in se.__all__:
        assert getattr(se, name) is not None, name
