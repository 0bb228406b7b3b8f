"""segembed: unsupervised refinement of acoustic segment embeddings.

A desk-scale, fully deterministic numpy implementation of
speaker-disentangled autoencoding of variable-length segment features,
within-mini-batch positive/negative pair mining, contrastive training
(joint and post-hoc refinement), and three evaluation protocols:
intra/inter cosine-gap analysis, k-means clustering accuracy, and
spoken term detection scored by mean average precision.

Typical flow::

    from segembed import (
        SynthConfig, synth_corpus, DisentangleConfig, SiameseConfig,
        train_disentangle, train_refine, embed_corpus, intra_inter_stats,
    )

    corpus = synth_corpus(SynthConfig(n_units=10, n_speakers=4), seed=0)
    model, log = train_disentangle(corpus, DisentangleConfig(epochs=10,
                                                             embed_dim=32))
    refine, _ = train_refine(corpus, model, SiameseConfig(epochs=10))
    entries = embed_corpus(model, corpus, "d", refine)

Every randomized operation takes an explicit seed; identical inputs and
seeds reproduce results bit-for-bit.
"""

from .corpus import (
    Corpus,
    MiniBatch,
    Segment,
    SynthConfig,
    load_corpus,
    load_embeddings,
    make_batches,
    save_corpus,
    save_embeddings,
    split_corpus,
    synth_corpus,
)
from .disentangle import (
    DisentangleConfig,
    DisentangledModel,
    adversarial_loss,
    discriminator_loss,
    effective_speakers,
    linear_probe_accuracy,
    phonetic_embeddings,
    reconstruction_loss,
    speaker_contrastive_loss,
    speaker_embeddings,
    train_disentangle,
)
from .evalcluster import (
    CosineGapReport,
    accuracy_curve,
    cluster_accuracy,
    confusion_matrix,
    cosine,
    intra_inter_stats,
    kmeans,
    select_top_labels,
)
from .evalstd import (
    Document,
    DocumentIndex,
    QuerySpec,
    build_retrieval_task,
    mean_average_precision,
    rank_documents,
    relevance_score,
    run_retrieval,
    tfidf_select_queries,
)
from .neuralcore import (
    ComponentParams,
    ModelDims,
    OptimState,
    encode,
    grad_step,
    gradient_check,
    load_checkpoint,
    save_checkpoint,
)
from .pairmine import (
    DistanceCounter,
    PairSets,
    knn_graph_pairs,
    pairwise_distances,
    topk_global_pairs,
)
from .seeding import derive_seed
from .siamese import (
    RefineModel,
    SiameseConfig,
    contrastive_loss,
    embed_corpus,
    train_joint,
    train_refine,
)

__all__ = [
    "ComponentParams",
    "Corpus",
    "CosineGapReport",
    "DisentangleConfig",
    "DisentangledModel",
    "DistanceCounter",
    "Document",
    "DocumentIndex",
    "MiniBatch",
    "ModelDims",
    "OptimState",
    "PairSets",
    "QuerySpec",
    "RefineModel",
    "Segment",
    "SiameseConfig",
    "SynthConfig",
    "accuracy_curve",
    "adversarial_loss",
    "build_retrieval_task",
    "cluster_accuracy",
    "confusion_matrix",
    "contrastive_loss",
    "cosine",
    "derive_seed",
    "discriminator_loss",
    "effective_speakers",
    "embed_corpus",
    "encode",
    "grad_step",
    "gradient_check",
    "intra_inter_stats",
    "kmeans",
    "knn_graph_pairs",
    "linear_probe_accuracy",
    "load_checkpoint",
    "load_corpus",
    "load_embeddings",
    "make_batches",
    "mean_average_precision",
    "pairwise_distances",
    "phonetic_embeddings",
    "rank_documents",
    "reconstruction_loss",
    "relevance_score",
    "run_retrieval",
    "save_checkpoint",
    "save_corpus",
    "save_embeddings",
    "select_top_labels",
    "speaker_contrastive_loss",
    "speaker_embeddings",
    "split_corpus",
    "synth_corpus",
    "tfidf_select_queries",
    "topk_global_pairs",
    "train_disentangle",
    "train_joint",
    "train_refine",
]

__version__ = "0.1.0"
