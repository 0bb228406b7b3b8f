"""Contrastive loss oracle and the joint/refinement training regimes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segembed import autodiff as ad
from segembed._trainer import contrastive_graph
from segembed.corpus import SynthConfig, synth_corpus
from segembed.disentangle import DisentangleConfig, train_disentangle
from segembed.errors import ConfigError, DataError
from segembed.neuralcore import init_refine, refine_forward
from segembed.pairmine import PairSets
from segembed.siamese import (
    RefineModel,
    SiameseConfig,
    contrastive_loss,
    embed_corpus,
    train_joint,
    train_refine,
)

RNG = np.random.default_rng(31)


def brute_contrastive(vectors, pairs, margin):
    total = 0.0
    for i, j in pairs.positives:
        total += sum((a - b) ** 2 for a, b in zip(vectors[i], vectors[j]))
    for i, j in pairs.negatives:
        dist = math.sqrt(sum((a - b) ** 2 for a, b in zip(vectors[i], vectors[j])))
        total += max(margin - dist, 0.0) ** 2
    return total / (len(pairs.positives) + len(pairs.negatives))


def random_pairsets(rng, n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    cut = int(rng.integers(0, len(pairs) + 1))
    return PairSets(tuple(sorted(pairs[:cut])), tuple(sorted(pairs[cut:])))


class TestContrastiveLoss:
    def test_identical_positive_pair_is_zero(self):
        v = RNG.normal(size=3)
        pairs = PairSets(((0, 1),), ())
        assert contrastive_loss([v, v], pairs, margin=1.0) == 0.0

    def test_coincident_negative_pair_hits_margin(self):
        v = RNG.normal(size=3)
        pairs = PairSets((), ((0, 1),))
        assert contrastive_loss([v, v], pairs, margin=1.0) == 1.0

    def test_hand_example(self):
        vectors = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.5, 0.0])]
        pairs = PairSets(((0, 1),), ((0, 2),))
        assert contrastive_loss(vectors, pairs, margin=1.0) == pytest.approx(0.625)

    @pytest.mark.parametrize("margin", [0.0, math.nan])
    def test_margin_not_positive_rejected(self, margin):
        with pytest.raises(ConfigError, match="margin must be > 0"):
            contrastive_loss([np.zeros(2), np.ones(2)], PairSets((), ((0, 1),)), margin)

    def test_empty_pairsets_rejected(self):
        with pytest.raises(DataError):
            contrastive_loss(RNG.normal(size=(3, 2)), PairSets((), ()), 1.0)

    def test_matches_brute_force(self):
        for _ in range(100):
            n = int(RNG.integers(2, 7))
            vectors = RNG.normal(size=(n, 3))
            pairs = random_pairsets(RNG, n)
            if len(pairs.positives) + len(pairs.negatives) == 0:
                continue
            margin = float(RNG.uniform(0.2, 2.0))
            assert contrastive_loss(vectors, pairs, margin) == pytest.approx(
                brute_contrastive(vectors, pairs, margin), abs=1e-10
            )

    def test_rotation_invariance(self):
        vectors = RNG.normal(size=(5, 3))
        pairs = random_pairsets(np.random.default_rng(1), 5)
        theta = 0.7
        rot = np.array(
            [
                [math.cos(theta), -math.sin(theta), 0.0],
                [math.sin(theta), math.cos(theta), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        a = contrastive_loss(vectors, pairs, 1.0)
        b = contrastive_loss(vectors @ rot.T, pairs, 1.0)
        assert a == pytest.approx(b, abs=1e-9)

    def test_graph_version_agrees(self):
        vectors = RNG.normal(size=(6, 4))
        pairs = random_pairsets(np.random.default_rng(2), 6)
        graph_value = contrastive_graph(ad.constant(vectors), pairs, 1.0).item()
        assert graph_value == pytest.approx(
            brute_contrastive(vectors, pairs, 1.0), abs=1e-12
        )

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 8), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_brute_force_and_permutation(self, n, dim, seed):
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(n, dim))
        pairs = random_pairsets(rng, n)
        if len(pairs.positives) + len(pairs.negatives) == 0:
            return
        margin = float(rng.uniform(0.2, 2.0))
        value = contrastive_loss(vectors, pairs, margin)
        assert value == pytest.approx(brute_contrastive(vectors, pairs, margin), abs=1e-10)

        perm = rng.permutation(n)  # new row r holds old row perm[r]
        new_index = np.argsort(perm)

        def relabel(pair_list):
            moved = (sorted((int(new_index[i]), int(new_index[j]))) for i, j in pair_list)
            return tuple(sorted(tuple(p) for p in moved))

        permuted = PairSets(relabel(pairs.positives), relabel(pairs.negatives))
        assert contrastive_loss(vectors[perm], permuted, margin) == pytest.approx(
            value, abs=1e-12
        )

    def test_vanishing_margin_with_no_positives_gives_zero(self):
        rng = np.random.default_rng(3)
        vectors = rng.normal(size=(5, 3))  # distinct points
        negatives = tuple((i, j) for i in range(5) for j in range(i + 1, 5))
        pairs = PairSets((), negatives)
        assert contrastive_loss(vectors, pairs, margin=1e-12) == 0.0


def _corpus(seed=0):
    return synth_corpus(
        SynthConfig(
            n_units=4, n_speakers=3, instances_per_unit_speaker=6,
            length_range=(4, 7), feature_dim=6,
            speaker_shift_scale=0.6, noise_scale=0.05,
        ),
        seed=seed,
    )


def _cfg_d(**kw):
    defaults = dict(
        epochs=4, batch_size=12, embed_dim=8, enc_hidden=12, dec_hidden=12,
        disc_hidden=12, seed=0, learning_rate=3e-3,
    )
    defaults.update(kw)
    return DisentangleConfig(**defaults)


def _cfg_s(**kw):
    defaults = dict(epochs=8, batch_size=12, k=4, seed=0, refine_hidden=12,
                    learning_rate=3e-3)
    defaults.update(kw)
    return SiameseConfig(**defaults)


def _assert_models_equal(m1, m2):
    for c1, c2 in (
        (m1.e_p, m2.e_p), (m1.e_s, m2.e_s), (m1.dec, m2.dec), (m1.d_s, m2.d_s),
    ):
        for key in c1.arrays:
            assert np.array_equal(c1.arrays[key], c2.arrays[key])


class TestTrainJoint:
    def test_gamma_zero_reproduces_disentangle_bitwise(self):
        corpus = _corpus()
        cfg_d = _cfg_d()
        joint_model, _ = train_joint(corpus, cfg_d, _cfg_s(gamma=0.0))
        plain_model, _ = train_disentangle(corpus, cfg_d)
        _assert_models_equal(joint_model, plain_model)

    def test_loss_decreases(self):
        corpus = _corpus()
        _, rows = train_joint(corpus, _cfg_d(epochs=10), _cfg_s())
        total = lambda r: r["recon"] + r["spk"] + r["adv"] + r["contrastive"]
        assert total(rows[-1]) < total(rows[0])

    def test_determinism(self):
        corpus = _corpus()
        m1, _ = train_joint(corpus, _cfg_d(epochs=2), _cfg_s(epochs=2))
        m2, _ = train_joint(corpus, _cfg_d(epochs=2), _cfg_s(epochs=2))
        _assert_models_equal(m1, m2)

    def test_pair_mining_counter_within_bound(self):
        corpus = _corpus()
        cfg_d = _cfg_d(epochs=2)
        cfg_s = _cfg_s(epochs=2)
        _, rows = train_joint(corpus, cfg_d, cfg_s)
        bound = len(corpus) * cfg_d.batch_size
        assert all(row["dist_evals"] <= bound for row in rows)


class TestTrainRefine:
    def test_loss_decreases(self):
        # tiny corpus -> noisy per-epoch means; compare trailing mean to start
        corpus = _corpus()
        base, _ = train_disentangle(corpus, _cfg_d(epochs=6))
        _, rows = train_refine(corpus, base, _cfg_s(epochs=12))
        trailing = np.mean([row["contrastive"] for row in rows[-4:]])
        assert trailing < rows[0]["contrastive"]

    def test_determinism(self):
        corpus = _corpus()
        base, _ = train_disentangle(corpus, _cfg_d(epochs=2))
        r1, _ = train_refine(corpus, base, _cfg_s(epochs=2))
        r2, _ = train_refine(corpus, base, _cfg_s(epochs=2))
        for key in r1.params.arrays:
            assert np.array_equal(r1.params.arrays[key], r2.params.arrays[key])

    def test_counter_within_complexity_bound(self):
        corpus = _corpus()
        base, _ = train_disentangle(corpus, _cfg_d(epochs=2))
        cfg_s = _cfg_s(epochs=3)
        _, rows = train_refine(corpus, base, cfg_s)
        bound = len(corpus) * cfg_s.batch_size
        assert all(row["dist_evals"] <= bound for row in rows)


class TestEmbedCorpus:
    def test_counting_and_dimension(self):
        corpus = _corpus()
        model, _ = train_disentangle(corpus, _cfg_d(epochs=2))
        ids, vectors = embed_corpus(model, corpus, "b")
        assert len(ids) == len(corpus)
        assert vectors.shape == (len(corpus), 8)
        assert ids == sorted(ids)

    def test_identity_refine_reproduces_variant_b(self):
        corpus = _corpus()
        model, _ = train_disentangle(corpus, _cfg_d(epochs=2))
        fresh = RefineModel(model.dims, init_refine(model.dims, seed=9))
        b_ids, b_vectors = embed_corpus(model, corpus, "b")
        d_ids, d_vectors = embed_corpus(model, corpus, "d", fresh)
        assert b_ids == d_ids
        assert np.array_equal(b_vectors, d_vectors)

    def test_variant_d_is_pointwise_refinement_of_b(self):
        corpus = _corpus()
        model, _ = train_disentangle(corpus, _cfg_d(epochs=2))
        refined, _ = train_refine(corpus, model, _cfg_s(epochs=2))
        b_ids, b_vectors = embed_corpus(model, corpus, "b")
        d_ids, d_vectors = embed_corpus(model, corpus, "d", refined)
        assert b_ids == d_ids
        for vb, vd in zip(b_vectors, d_vectors):
            z = refine_forward(refined.params, vb.reshape(1, -1)).data[0]
            np.testing.assert_allclose(vd, z, atol=1e-12)

    def test_missing_refine_params_rejected(self):
        corpus = _corpus()
        model, _ = train_disentangle(corpus, _cfg_d(epochs=2))
        with pytest.raises(ConfigError):
            embed_corpus(model, corpus, "d")

    def test_deterministic(self):
        corpus = _corpus()
        model, _ = train_disentangle(corpus, _cfg_d(epochs=2))
        ids1, v1 = embed_corpus(model, corpus, "b")
        ids2, v2 = embed_corpus(model, corpus, "b")
        assert ids1 == ids2 and np.array_equal(v1, v2)

    def test_default_dims_produce_length_256_vectors(self):
        from segembed.disentangle import DisentangledModel
        from segembed.corpus import SynthConfig, synth_corpus
        from segembed.neuralcore import (
            ModelDims, init_decoder, init_discriminator, init_encoder,
        )

        corpus = synth_corpus(
            SynthConfig(n_units=3, n_speakers=2, instances_per_unit_speaker=4,
                        feature_dim=39),
            seed=0,
        )
        dims = ModelDims()  # library defaults: F=39, d=256
        model = DisentangledModel(
            dims,
            init_encoder(dims, 0), init_encoder(dims, 1),
            init_decoder(dims, 2), init_discriminator(dims, 3),
        )
        ids, vectors = embed_corpus(model, corpus, "b")
        assert len(ids) == 24
        assert vectors.shape == (24, 256)
