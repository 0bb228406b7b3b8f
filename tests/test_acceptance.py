"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line (run with -s to see
them live). Criteria 6-8 share trained pipelines through a module fixture;
everything is seeded, so reruns are reproducible bit-for-bit.
"""

import hashlib
import math
import time

import numpy as np
import pytest

import segembed as se
from segembed.disentangle import write_loss_log
from segembed.evalcluster import write_accuracy_curve_csv, write_cosine_gap_csv
from segembed.evalstd import write_map_csv
from segembed.pairmine import DistanceCounter

from gradcheck import gradient_check

# -- shared experiment configuration (desk-scale) ---------------------------

SYNTH = dict(
    n_units=20, n_speakers=8, instances_per_unit_speaker=20,
    length_range=(6, 12), feature_dim=12,
    speaker_shift_scale=0.6, noise_scale=0.05,
)
BASE = dict(
    epochs=40, batch_size=64, embed_dim=16, enc_hidden=32, dec_hidden=32,
    disc_hidden=64, learning_rate=1e-3,
)
ADVERSARIAL = dict(
    disc_learning_rate=1e-2, disc_steps=3, disc_warmup_epochs=10, alpha_adv=0.5,
)
SIAMESE = dict(
    epochs=40, batch_size=64, k=32, learning_rate=1e-2, refine_hidden=32,
    margin=6.0,
)
MASTER_SEEDS = (0, 1, 2)
TEST_FRACTION = 0.25
N_CLUSTER_LABELS = SYNTH["n_units"]
N_DOCUMENTS = 40
N_QUERIES = 20
RETRIEVAL_TOP_K = 5


def report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# -- criterion 1: gradient correctness ---------------------------------------


def test_criterion_1_gradient_correctness():
    start = time.time()
    worst = 0.0
    for component in ("E_p", "E_s", "Dec", "D_s", "refine"):
        for seed in (0, 1, 2):
            worst = max(worst, gradient_check(component, seed))
    elapsed = time.time() - start
    ok = worst < 1e-4 and elapsed < 10.0
    report(1, ok, f"max relative gradient error {worst:.2e} in {elapsed:.1f}s")


# -- criterion 2: loss oracles -----------------------------------------------


def _brute_contrastive(vectors, pairs, margin):
    total = 0.0
    for i, j in pairs.positives:
        total += sum((a - b) ** 2 for a, b in zip(vectors[i], vectors[j]))
    for i, j in pairs.negatives:
        dist = math.sqrt(sum((a - b) ** 2 for a, b in zip(vectors[i], vectors[j])))
        total += max(margin - dist, 0.0) ** 2
    return total / (len(pairs.positives) + len(pairs.negatives))


def _brute_speaker_contrastive(vectors, speakers, margin):
    total, count = 0.0, 0
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            dist = math.sqrt(
                sum((a - b) ** 2 for a, b in zip(vectors[i], vectors[j]))
            )
            total += dist**2 if speakers[i] == speakers[j] else max(margin - dist, 0.0) ** 2
            count += 1
    return total / count


def _brute_bce(probs, flags, flip):
    total = 0.0
    for p, same in zip(probs, flags):
        target = (not same) if flip else bool(same)
        total += -math.log(p) if target else -math.log(1.0 - p)
    return total / len(probs)


def _brute_mse(x, y):
    total, count = 0.0, 0
    for row_x, row_y in zip(x, y):
        for a, b in zip(row_x, row_y):
            total += (a - b) ** 2
            count += 1
    return total / count


def test_criterion_2_loss_oracles():
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        vectors = rng.normal(size=(n, int(rng.integers(1, 5))))
        margin = float(rng.uniform(0.2, 2.0))

        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        cut = int(rng.integers(0, len(all_pairs) + 1))
        pairs = se.PairSets(
            tuple(sorted(all_pairs[:cut])), tuple(sorted(all_pairs[cut:]))
        )
        if len(pairs.positives) + len(pairs.negatives):
            worst = max(worst, abs(
                se.contrastive_loss(vectors, pairs, margin)
                - _brute_contrastive(vectors, pairs, margin)))

        speakers = [str(rng.integers(3)) for _ in range(n)]
        worst = max(worst, abs(
            se.speaker_contrastive_loss(vectors, speakers, margin)
            - _brute_speaker_contrastive(vectors, speakers, margin)))

        probs = rng.uniform(0.01, 0.99, size=int(rng.integers(1, 8)))
        flags = list(rng.integers(0, 2, size=probs.size).astype(bool))
        worst = max(worst, abs(
            se.discriminator_loss(probs, flags) - _brute_bce(probs, flags, False)))
        worst = max(worst, abs(
            se.adversarial_loss(probs, flags) - _brute_bce(probs, flags, True)))

        t, f = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        x, y = rng.normal(size=(t, f)), rng.normal(size=(t, f))
        worst = max(worst, abs(se.reconstruction_loss(x, y) - _brute_mse(x, y)))

    # the documented examples
    v = np.array([0.3, -0.2, 0.9])
    examples_ok = (
        se.contrastive_loss([v, v], se.PairSets(((0, 1),), ()), 1.0) == 0.0
        and se.contrastive_loss([v, v], se.PairSets((), ((0, 1),)), 1.0) == 1.0
        and abs(se.contrastive_loss(
            [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.5, 0.0])],
            se.PairSets(((0, 1),), ((0, 2),)), 1.0) - 0.625) < 1e-12
        and se.speaker_contrastive_loss([v, v], ["s", "s"], 1.0) == 0.0
        and se.speaker_contrastive_loss([v, v], ["s", "t"], 1.0) == 1.0
        and se.speaker_contrastive_loss(
            [np.array([0.0, 0.0]), np.array([2.0, 0.0])], ["s", "t"], 1.0) == 0.0
        and abs(se.discriminator_loss([0.5], [True]) - math.log(2)) < 1e-12
        and abs(se.discriminator_loss([0.9], [False]) + math.log(0.1)) < 1e-12
        and abs(se.adversarial_loss([0.9], [True]) + math.log(0.1)) < 1e-12
        and se.reconstruction_loss(np.zeros((1, 2)), np.array([[1.0, 1.0]])) == 1.0
    )
    ok = worst < 1e-10 and examples_ok
    report(2, ok, f"loss-oracle max deviation {worst:.2e}, examples {examples_ok}")


# -- criterion 3: pair-mining oracles ----------------------------------------


def _brute_knn_positives(points, k):
    n = len(points)
    positives = set()
    for i in range(n):
        order = sorted(
            (j for j in range(n) if j != i),
            key=lambda j: (float(np.linalg.norm(points[i] - points[j])), j),
        )
        for j in order[:k]:
            positives.add((min(i, j), max(i, j)))
    return positives


def _brute_topk_positives(points, k):
    n = len(points)
    ranked = sorted(
        (float(np.linalg.norm(points[i] - points[j])), i, j)
        for i in range(n) for j in range(i + 1, n)
    )
    return [(i, j) for _, i, j in ranked[:k]]


def test_criterion_3_pair_mining_oracles():
    rng = np.random.default_rng(200)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(4, 13))
        points = rng.normal(size=(n, int(rng.integers(1, 4))))
        k_knn = int(rng.integers(1, n))
        got = se.knn_graph_pairs(points, k_knn)
        expected = _brute_knn_positives(points, k_knn)
        all_pairs = {(i, j) for i in range(n) for j in range(i + 1, n)}
        positives = set(map(tuple, got.positives.tolist()))
        negatives = set(map(tuple, got.negatives.tolist()))
        if positives != expected or negatives != all_pairs - expected:
            mismatches += 1
        k_top = int(rng.integers(1, n * (n - 1) // 4 + 1))
        got = se.topk_global_pairs(points, k_top, seed=int(rng.integers(10_000)))
        positives = list(map(tuple, got.positives.tolist()))
        if positives != _brute_topk_positives(points, k_top):
            mismatches += 1
        negatives = set(map(tuple, got.negatives.tolist()))
        if len(got.negatives) != k_top or negatives & set(positives):
            mismatches += 1

    corpus = se.synth_corpus(se.SynthConfig(**SYNTH), seed=0)
    batch_size = BASE["batch_size"]
    counter = DistanceCounter()
    batches = se.make_batches(corpus, batch_size, seed=0, drop_last=True)
    for i, batch in enumerate(batches):
        vectors = np.stack([corpus[j].features.mean(axis=0) for j in batch])
        se.topk_global_pairs(vectors, SIAMESE["k"], seed=i, counter=counter)
    bound = len(corpus) * batch_size
    ok = mismatches == 0 and counter.count <= bound
    report(
        3, ok,
        f"{mismatches} mining mismatches; epoch distance evals "
        f"{counter.count} <= M*|B| = {bound}",
    )


# -- criterion 4: clustering-metric oracle -----------------------------------


def test_criterion_4_cluster_accuracy_oracle():
    rng = np.random.default_rng(300)
    worst = 0.0
    for _ in range(500):
        m = int(rng.integers(1, 11))
        n = int(rng.integers(1, 21))
        counts = rng.integers(0, 8, size=(m, n))
        if counts.sum() == 0:
            counts[int(rng.integers(m)), int(rng.integers(n))] = 1
        expected = counts.max(axis=1).sum() / counts.sum()
        worst = max(worst, abs(se.cluster_accuracy(counts) - expected))
    degenerate = se.cluster_accuracy([[5, 0], [5, 0]])
    ok = worst == 0.0 and degenerate == 1.0
    report(4, ok, f"500 random matrices, max deviation {worst:.1e}; "
                  f"one-cluster case = {degenerate}")


# -- criterion 5: retrieval oracles -------------------------------------------


def _brute_cosine(a, b):
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(x * x for x in b))
    return dot / (na * nb)


def _brute_relevance(query, word_vectors, k):
    sims = sorted((_brute_cosine(w, query) for w in word_vectors), reverse=True)
    k_eff = min(k, len(sims))
    return sum(sims[:k_eff]) / k_eff


def _brute_ap(ranked, relevant):
    terms = []
    for doc in relevant:
        rank = ranked.index(doc) + 1
        hits = sum(1 for d in ranked[:rank] if d in relevant)
        terms.append(hits / rank)
    return sum(terms) / len(relevant)


def _map_of(ranked, relevant):
    """MAP of one query's ranked ids against its relevant set."""
    hits = [[doc_id in relevant for doc_id in ranked]]
    return se.mean_average_precision(["q"], hits, [len(relevant)]).map


def test_criterion_5_retrieval_oracles():
    rng = np.random.default_rng(400)
    worst = 0.0
    for _ in range(100):
        n_docs = int(rng.integers(1, 6))
        dim = int(rng.integers(2, 4))
        query_vec = rng.normal(size=dim)
        k = int(rng.integers(1, 8))
        word_lists = [rng.normal(size=(int(rng.integers(1, 7)), dim)) for _ in range(n_docs)]
        doc_ids = [f"doc{d}" for d in range(n_docs)]
        # each document is a one-document index over its own rows
        for doc_id, words in zip(doc_ids, word_lists):
            doc = se.DocumentIndex([doc_id], words, [np.arange(len(words))])
            (got,) = se.relevance_score(query_vec, doc, k)
            worst = max(worst, abs(got - _brute_relevance(query_vec, words, k)))
        ends = np.cumsum([len(words) for words in word_lists])
        members = [np.arange(end - len(words), end) for end, words in zip(ends, word_lists)]
        index = se.DocumentIndex(doc_ids, np.concatenate(word_lists), members)
        query = se.QuerySpec("q", query_vec)
        positions, _ = se.rank_documents(query, index, k)
        ranked = index.doc_ids[positions].tolist()
        n_rel = int(rng.integers(1, n_docs + 1))
        relevant = set(rng.choice(doc_ids, n_rel, replace=False))
        got_map = _map_of(ranked, relevant)
        worst = max(worst, abs(got_map - _brute_ap(ranked, relevant)))

    hand = _map_of(["rel1", "non1", "rel2"], {"rel1", "rel2"})
    hand_ok = abs(hand - 5.0 / 6.0) < 1e-12
    ok = worst < 1e-12 and hand_ok
    report(5, ok, f"retrieval max deviation {worst:.1e}; "
                  f"AP hand example = {hand:.4f}")


# -- criteria 6-8: end-to-end pipelines ---------------------------------------


def _run_pipeline(master, out_dir):
    """Train variants a/b/d for one master seed, write every artifact, and
    return the evaluation statistics."""
    corpus = se.synth_corpus(se.SynthConfig(**SYNTH), se.derive_seed(master, "synth"))
    train, test = se.split_corpus(corpus, TEST_FRACTION, se.derive_seed(master, "split"))
    se.save_corpus(out_dir / "corpus.jsonl", corpus)

    cfg_a = se.DisentangleConfig(
        seed=se.derive_seed(master, "train:a"), alpha_spk=0.0, alpha_adv=0.0, **BASE
    )
    model_a, rows_a = se.train_disentangle(train, cfg_a)
    cfg_b = se.DisentangleConfig(
        seed=se.derive_seed(master, "train:b"), **BASE, **ADVERSARIAL
    )
    model_b, rows_b = se.train_disentangle(train, cfg_b)
    cfg_s = se.SiameseConfig(seed=se.derive_seed(master, "refine"), **SIAMESE)
    refined, rows_r = se.train_refine(train, model_b, cfg_s)

    from segembed.disentangle import save_model
    from segembed.siamese import save_refine_model

    save_model(out_dir / "model_a.json", model_a, {"variant": "a"})
    save_model(out_dir / "model_b.json", model_b, {"variant": "b"})
    save_refine_model(out_dir / "refine.json", refined)
    write_loss_log(out_dir / "loss_a.csv", rows_a)
    write_loss_log(out_dir / "loss_b.csv", rows_b)
    write_loss_log(out_dir / "refine_log.csv", rows_r)

    labels = {s.segment_id: s.unit_label for s in test.segments}
    stats, gap_rows, curves, map_table = {}, [], {}, {}
    for variant, model, ref in (
        ("a", model_a, None), ("b", model_b, None), ("d", model_b, refined),
    ):
        ids, vectors = se.embed_corpus(model, test, variant, ref)
        se.save_embeddings(out_dir / f"embeddings_{variant}.jsonl", ids, vectors)
        labs = [labels[sid] for sid in ids]
        gap = se.intra_inter_stats(vectors, labs)
        curve = dict(
            se.accuracy_curve(
                vectors, labs, m=N_CLUSTER_LABELS,
                n_values=(N_CLUSTER_LABELS, 2 * N_CLUSTER_LABELS),
                seed=se.derive_seed(master, "eval-cluster"),
            )
        )
        index, queries = se.build_retrieval_task(
            ids, vectors, labels, N_DOCUMENTS, N_QUERIES, se.derive_seed(master, "eval-std")
        )
        retrieval = se.run_retrieval(index, queries, RETRIEVAL_TOP_K)
        stats[variant] = {"delta": gap.delta, "acc": curve, "map": retrieval.map}
        gap_rows.append((variant, corpus.level, gap))
        curves[variant] = sorted(curve.items())
        map_table[variant] = {RETRIEVAL_TOP_K: retrieval.map}
    write_cosine_gap_csv(out_dir / "cosine_gap.csv", gap_rows)
    write_accuracy_curve_csv(out_dir / "cluster_accuracy.csv", curves)
    write_map_csv(out_dir / "retrieval_map.csv", map_table, (RETRIEVAL_TOP_K,))

    speakers = se.effective_speakers(corpus)
    probe_seed = se.derive_seed(master, "probe")
    acc_s = se.linear_probe_accuracy(
        se.speaker_embeddings(model_b, corpus), speakers, probe_seed
    )
    acc_p = se.linear_probe_accuracy(
        se.phonetic_embeddings(model_b, corpus), speakers, probe_seed
    )
    (out_dir / "probe.csv").write_text(
        f"representation,accuracy\nspeaker_vector,{acc_s!r}\n"
        f"phonetic_vector,{acc_p!r}\n",
        encoding="utf-8",
    )
    return {"stats": stats, "probe": (acc_s, acc_p), "out_dir": out_dir}


@pytest.fixture(scope="module")
def pipelines(tmp_path_factory):
    cache = {}

    def get(master, fresh: bool = False):
        if not fresh and master in cache:
            return cache[master]
        out_dir = tmp_path_factory.mktemp(
            f"seed{master}{'_rerun' if fresh else ''}"
        )
        result = _run_pipeline(master, out_dir)
        if not fresh:
            cache[master] = result
        return result

    return get


def test_criterion_6_end_to_end_ordering(pipelines):
    start = time.time()
    failures = []
    for master in MASTER_SEEDS:
        stats = pipelines(master)["stats"]
        m, two_m = N_CLUSTER_LABELS, 2 * N_CLUSTER_LABELS
        if not (stats["d"]["delta"] > stats["a"]["delta"]
                and stats["d"]["delta"] > stats["b"]["delta"]):
            failures.append(f"seed {master}: delta ordering")
        if not (stats["d"]["acc"][m] > stats["a"]["acc"][m]
                and stats["d"]["acc"][two_m] > stats["a"]["acc"][two_m]):
            failures.append(f"seed {master}: accuracy ordering")
        if not stats["d"]["map"] >= stats["a"]["map"]:
            failures.append(f"seed {master}: MAP ordering")
    elapsed = time.time() - start
    ok = not failures and elapsed < 900.0
    report(
        6, ok,
        f"variant (d) dominance on {len(MASTER_SEEDS)} seeds in {elapsed:.0f}s"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_7_disentanglement_probe(pipelines):
    gaps = []
    for master in MASTER_SEEDS:
        acc_s, acc_p = pipelines(master)["probe"]
        gaps.append(acc_s - acc_p)
    ok = all(gap >= 0.10 for gap in gaps)
    report(
        7, ok,
        "speaker-probe gap (v_s - v_p) per seed: "
        + ", ".join(f"{100 * g:.1f}pp" for g in gaps),
    )


def test_criterion_8_byte_identical_artifacts(pipelines):
    first = pipelines(MASTER_SEEDS[0])["out_dir"]
    second = pipelines(MASTER_SEEDS[0], fresh=True)["out_dir"]
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    diffs = [
        name for name in names
        if hashlib.sha256((first / name).read_bytes()).hexdigest()
        != hashlib.sha256((second / name).read_bytes()).hexdigest()
    ]
    ok = not diffs
    report(
        8, ok,
        f"{len(names)} artifacts byte-identical across reruns"
        + (f"; differing: {diffs}" if diffs else ""),
    )
