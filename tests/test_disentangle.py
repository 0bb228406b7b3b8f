"""Loss oracles and disentanglement training behavior."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segembed import _trainer
from segembed import autodiff as ad
from segembed import neuralcore as nc
from segembed._trainer import (
    DisentangledModel,
    _sample_speaker_pairs,
    bce_graph,
    compute_embeddings,
    speaker_codes,
    speaker_contrastive_graph,
    speaker_pairs,
)
from segembed.corpus import Corpus, Segment, SynthConfig, make_batches, synth_corpus
from segembed.disentangle import (
    DisentangleConfig,
    adversarial_loss,
    discriminator_loss,
    effective_speakers,
    linear_probe_accuracy,
    phonetic_embeddings,
    reconstruction_loss,
    speaker_contrastive_loss,
    speaker_embeddings,
    train_disentangle,
    write_loss_log,
)
from segembed.errors import ConfigError, DataError, DimensionError, NumericError
from segembed.seeding import derive_seed, rng_for

RNG = np.random.default_rng(21)


def brute_reconstruction(x, x_rec):
    total, count = 0.0, 0
    for t in range(len(x)):
        for f in range(len(x[0])):
            total += (x[t][f] - x_rec[t][f]) ** 2
            count += 1
    return total / count


def brute_speaker_contrastive(vectors, speakers, margin):
    total, count = 0.0, 0
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            dist = math.sqrt(sum((a - b) ** 2 for a, b in zip(vectors[i], vectors[j])))
            if speakers[i] == speakers[j]:
                total += dist**2
            else:
                total += max(margin - dist, 0.0) ** 2
            count += 1
    return total / count


def nested_loop_speaker_pairs(speakers):
    n = len(speakers)
    same = [(i, j) for i in range(n) for j in range(i + 1, n) if speakers[i] == speakers[j]]
    diff = [(i, j) for i in range(n) for j in range(i + 1, n) if speakers[i] != speakers[j]]
    return same, diff


def nested_loop_sample(speakers, limit, rng):
    picked, flags = [], []
    for pool, flag in zip(nested_loop_speaker_pairs(speakers), (1.0, 0.0)):
        take = min(limit, len(pool))
        if take:
            picked.extend(pool[int(i)] for i in rng.choice(len(pool), size=take, replace=False))
            flags.extend([flag] * take)
    return picked, flags


def brute_bce(probs, flags, flip=False):
    total = 0.0
    for p, same in zip(probs, flags):
        target = (not same) if flip else same
        total += -math.log(p) if target else -math.log(1.0 - p)
    return total / len(probs)


class TestReconstructionLoss:
    def test_identity_is_zero(self):
        x = RNG.normal(size=(3, 4))
        assert reconstruction_loss(x, x) == 0.0

    def test_mean_of_squares(self):
        assert reconstruction_loss(np.zeros((1, 2)), np.array([[1.0, 1.0]])) == 1.0

    def test_symmetric(self):
        x, y = RNG.normal(size=(2, 3)), RNG.normal(size=(2, 3))
        assert reconstruction_loss(x, y) == pytest.approx(reconstruction_loss(y, x))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            reconstruction_loss(np.zeros((2, 3)), np.zeros((3, 2)))

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2), (0, 3)])
    def test_not_a_non_empty_matrix(self, shape):
        with pytest.raises(DimensionError, match=r"expected non-empty \(T, F\) matrices"):
            reconstruction_loss(np.zeros(shape), np.zeros(shape))

    def test_matches_brute_force(self):
        for _ in range(100):
            t, f = int(RNG.integers(1, 5)), int(RNG.integers(1, 5))
            x, y = RNG.normal(size=(t, f)), RNG.normal(size=(t, f))
            assert reconstruction_loss(x, y) == pytest.approx(
                brute_reconstruction(x, y), abs=1e-10
            )


class TestSpeakerContrastiveLoss:
    def test_identical_same_speaker_is_zero(self):
        v = RNG.normal(size=4)
        assert speaker_contrastive_loss([v, v], ["a", "a"], margin=1.0) == 0.0

    def test_identical_different_speakers_hits_margin(self):
        v = RNG.normal(size=4)
        assert speaker_contrastive_loss([v, v], ["a", "b"], margin=1.0) == 1.0

    def test_beyond_margin_is_zero(self):
        v1, v2 = np.array([0.0, 0.0]), np.array([2.0, 0.0])
        assert speaker_contrastive_loss([v1, v2], ["a", "b"], margin=1.0) == 0.0

    def test_single_vector_rejected(self):
        with pytest.raises(DataError):
            speaker_contrastive_loss([np.zeros(3)], ["a"], margin=1.0)

    @pytest.mark.parametrize("margin", [0.0, math.nan])
    def test_margin_not_positive_rejected(self, margin):
        with pytest.raises(ConfigError, match="margin must be > 0"):
            speaker_contrastive_loss([np.zeros(2), np.ones(2)], ["a", "b"], margin)

    def test_matches_brute_force(self):
        for _ in range(100):
            n = int(RNG.integers(2, 7))
            vectors = RNG.normal(size=(n, 3))
            speakers = [str(RNG.integers(3)) for _ in range(n)]
            margin = float(RNG.uniform(0.2, 2.0))
            assert speaker_contrastive_loss(vectors, speakers, margin) == pytest.approx(
                brute_speaker_contrastive(vectors, speakers, margin), abs=1e-10
            )

    def test_graph_version_agrees(self):
        vectors = RNG.normal(size=(6, 4))
        speakers = ["a", "a", "b", "b", "c", "a"]
        graph_value = speaker_contrastive_graph(
            ad.constant(vectors), speaker_pairs(speaker_codes(speakers)), 1.0
        ).item()
        assert graph_value == pytest.approx(
            brute_speaker_contrastive(vectors, speakers, 1.0), abs=1e-12
        )

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 8), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_brute_force_and_permutation(self, n, dim, seed):
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(n, dim))
        speakers = [str(s) for s in rng.integers(3, size=n)]
        margin = float(rng.uniform(0.2, 2.0))
        value = speaker_contrastive_loss(vectors, speakers, margin)
        assert value == pytest.approx(
            brute_speaker_contrastive(vectors, speakers, margin), abs=1e-10
        )
        perm = rng.permutation(n)
        permuted = speaker_contrastive_loss(
            vectors[perm], [speakers[i] for i in perm], margin
        )
        assert permuted == pytest.approx(value, abs=1e-12)


SPEAKER_LISTS = st.one_of(
    st.lists(st.sampled_from(["a", "b", "c"]), min_size=2, max_size=64),
    st.lists(st.integers(0, 5), min_size=2, max_size=64),
    st.integers(2, 64).map(lambda n: ["s"] * n),
    st.integers(2, 64).map(lambda n: [f"s{i}" for i in range(n)]),
)


class TestSpeakerPairs:
    @settings(max_examples=300, deadline=None)
    @given(SPEAKER_LISTS, st.integers(0, 2**32 - 1))
    def test_same_pairs_and_draws_as_nested_loop(self, speakers, seed):
        same, diff = speaker_pairs(speaker_codes(speakers))
        ref_same, ref_diff = nested_loop_speaker_pairs(speakers)
        assert same.shape == (len(ref_same), 2) and diff.shape == (len(ref_diff), 2)
        assert [tuple(p) for p in same.tolist()] == ref_same
        assert [tuple(p) for p in diff.tolist()] == ref_diff

        limit = len(speakers)
        picked, flags = _sample_speaker_pairs(
            (same, diff), limit, rng_for(seed, "pairs")
        )
        ref_picked, ref_flags = nested_loop_sample(speakers, limit, rng_for(seed, "pairs"))
        assert [tuple(p) for p in picked.tolist()] == ref_picked
        assert flags.tolist() == ref_flags


class TestDiscriminatorAndAdversarialLoss:
    def test_half_probability_gives_ln2(self):
        assert discriminator_loss([0.5], [True]) == pytest.approx(math.log(2))
        assert adversarial_loss([0.5], [False]) == pytest.approx(math.log(2))

    def test_confident_right_is_small(self):
        assert discriminator_loss([0.999999], [True]) < 1e-5

    def test_confident_wrong_value(self):
        assert discriminator_loss([0.9], [False]) == pytest.approx(
            -math.log(0.1), abs=1e-12
        )
        assert adversarial_loss([0.9], [True]) == pytest.approx(
            -math.log(0.1), abs=1e-12
        )

    def test_flip_identity_random_inputs(self):
        for _ in range(100):
            n = int(RNG.integers(1, 8))
            probs = RNG.uniform(0.01, 0.99, size=n)
            flags = RNG.integers(0, 2, size=n).astype(bool)
            assert adversarial_loss(probs, flags) == pytest.approx(
                discriminator_loss(probs, ~flags), abs=1e-12
            )

    def test_matches_brute_force(self):
        for _ in range(100):
            n = int(RNG.integers(1, 8))
            probs = RNG.uniform(0.01, 0.99, size=n)
            flags = list(RNG.integers(0, 2, size=n).astype(bool))
            assert discriminator_loss(probs, flags) == pytest.approx(
                brute_bce(probs, flags), abs=1e-10
            )
            assert adversarial_loss(probs, flags) == pytest.approx(
                brute_bce(probs, flags, flip=True), abs=1e-10
            )

    def test_out_of_range_probs_rejected(self):
        with pytest.raises(NumericError):
            discriminator_loss([1.0], [True])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            discriminator_loss([0.5, 0.5], [True])

    def test_graph_version_agrees(self):
        logits = RNG.normal(size=5)
        flags = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        probs = 1.0 / (1.0 + np.exp(-logits))
        graph_value = bce_graph(ad.constant(logits), flags).item()
        assert graph_value == pytest.approx(brute_bce(probs, flags), abs=1e-12)


def _tiny_corpus(seed=0):
    return synth_corpus(
        SynthConfig(
            n_units=4, n_speakers=3, instances_per_unit_speaker=6,
            length_range=(4, 7), feature_dim=6,
            speaker_shift_scale=0.6, noise_scale=0.05,
        ),
        seed=seed,
    )


def _corpus_of_lengths(lengths, width, seed):
    rng = np.random.default_rng(seed)
    return Corpus(tuple(
        Segment(f"s{i}", f"u{i}", "spk", None, "word", rng.normal(size=(t, width)))
        for i, t in enumerate(lengths)
    ))


def _segments_packed(corpus, indices):
    """The frames and lengths of the segments at ``indices``, concatenated
    one segment at a time: what a batch packed on its own holds."""
    segments = [corpus[i] for i in indices]
    return np.concatenate([s.features for s in segments]), [s.n_frames for s in segments]


class TestCorpusGather:
    """Training gathers each batch's rows from the corpus's packed frames;
    every batch must hold the bits of its segments concatenated one by one."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(1, 6), min_size=2, max_size=40), st.integers(1, 4),
           st.integers(2, 9), st.booleans(), st.integers(0, 2**32 - 1))
    @example([1] * 7, 3, 3, False, 0)  # 7 = 2 * 3 + 1: the last batch is merged
    @example([1, 4, 1, 1, 2], 2, 2, False, 1)
    def test_batch_gather_equals_segments_concatenated(self, lengths, width, batch_size,
                                                       drop_last, seed):
        corpus = _corpus_of_lengths(lengths, width, seed)
        try:
            batches = make_batches(corpus, batch_size, seed, drop_last)
        except DataError:
            return  # no batch forms
        for batch in batches:
            frames, got_lengths = corpus.gather(batch)
            want, want_lengths = _segments_packed(corpus, batch)
            assert frames.dtype == np.float64 and frames.flags.c_contiguous
            assert np.array_equal(frames, want)
            assert got_lengths.tolist() == want_lengths

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=30), st.integers(1, 7),
           st.integers(0, 2**32 - 1))
    @example([1] * 9, 4, 0)
    def test_embeddings_in_an_order_equal_each_chunk_alone(self, lengths, chunk, seed):
        """``compute_embeddings`` with an ``order``, in chunks of ``chunk``
        segments, equals the encoder on each chunk packed on its own."""
        corpus = _corpus_of_lengths(lengths, 3, seed)
        dims = nc.ModelDims(feature_dim=3, embed_dim=4, enc_hidden=5, dec_hidden=5,
                            disc_hidden=5)
        model = DisentangledModel(dims, nc.init_encoder(dims, 1), nc.init_encoder(dims, 2),
                                  nc.init_decoder(dims, 3), nc.init_discriminator(dims, 4))
        order = np.random.default_rng(seed).permutation(len(corpus)).tolist()
        want = np.concatenate([
            nc.encoder_forward(model.e_s, *_segments_packed(corpus, order[i : i + chunk])).data
            for i in range(0, len(order), chunk)
        ])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_trainer, "EMBED_CHUNK", chunk)
            got = compute_embeddings(model, corpus, "speaker", order)
        assert np.array_equal(got, want)


def _tiny_config(**kw):
    defaults = dict(
        epochs=10, batch_size=12, embed_dim=8, enc_hidden=12, dec_hidden=12,
        disc_hidden=12, seed=0, learning_rate=3e-3,
    )
    defaults.update(kw)
    return DisentangleConfig(**defaults)


class TestTraining:
    def test_total_loss_decreases(self):
        corpus = _tiny_corpus()
        cfg = _tiny_config()
        _, rows = train_disentangle(corpus, cfg)

        def total(row):
            return (
                row["recon"]
                + cfg.alpha_spk * row["spk"]
                + cfg.alpha_adv * row["adv"]
            )

        assert total(rows[-1]) < total(rows[0])

    def test_bit_identical_checkpoints(self):
        corpus = _tiny_corpus()
        cfg = _tiny_config(epochs=3)
        m1, _ = train_disentangle(corpus, cfg)
        m2, _ = train_disentangle(corpus, cfg)
        for c1, c2 in (
            (m1.e_p, m2.e_p), (m1.e_s, m2.e_s), (m1.dec, m2.dec), (m1.d_s, m2.d_s),
        ):
            for key in c1.arrays:
                assert np.array_equal(c1.arrays[key], c2.arrays[key])

    def test_speaker_probe_beats_phonetic_probe(self):
        corpus = _tiny_corpus()
        model, _ = train_disentangle(corpus, _tiny_config(epochs=25))
        speakers = effective_speakers(corpus)
        acc_s = linear_probe_accuracy(speaker_embeddings(model, corpus), speakers, 5)
        acc_p = linear_probe_accuracy(phonetic_embeddings(model, corpus), speakers, 5)
        assert acc_s > acc_p

    def test_rnn_training_on_one_frame_segments(self):
        """With every segment one frame long the recurrence never reaches
        ``w_rec``, so its part of the gradient vector stays zero, and Adam
        then leaves ``w_rec`` exactly as initialized."""
        corpus = synth_corpus(
            SynthConfig(n_units=3, n_speakers=2, instances_per_unit_speaker=4,
                        length_range=(1, 1), feature_dim=6),
            seed=0,
        )
        cfg = _tiny_config(epochs=1, batch_size=8, encoder_mode="rnn")
        model, rows = train_disentangle(corpus, cfg)
        init = nc.init_encoder(model.dims, derive_seed(cfg.seed, "init:E_p"))
        grad = np.zeros_like(init.flat)
        frames, lengths = corpus.gather(range(len(corpus)))
        ad.tsum(nc.encoder_forward(init, frames, lengths, grad)).backward()
        views = init.views(grad)
        assert not views["w_rec"].any() and views["w_in"].any()
        assert np.array_equal(model.e_p.arrays["w_rec"], init.arrays["w_rec"])
        assert not np.array_equal(model.e_p.arrays["w_in"], init.arrays["w_in"])
        assert all(math.isfinite(v) for row in rows for v in row.values())

    def test_optimizer_numeric_error_names_epoch_batch_and_component(self, monkeypatch):
        real_step = nc.grad_step

        def failing_decoder_step(params, grads, state):
            if params.name == "decoder" and state.step == 2:
                raise NumericError("non-finite gradient for decoder.w1")
            return real_step(params, grads, state)

        monkeypatch.setattr(nc, "grad_step", failing_decoder_step)
        cfg = _tiny_config(epochs=1, alpha_spk=0.0, alpha_adv=0.0)
        with pytest.raises(NumericError) as info:
            train_disentangle(_tiny_corpus(), cfg)
        assert str(info.value) == (
            "epoch 1, batch 3, component Dec: non-finite gradient for decoder.w1"
        )

    def test_missing_speaker_and_utterance_rejected(self):
        seg = Segment(
            segment_id="s0", utterance_id="", speaker_id=None, unit_label="x",
            level="word", features=np.zeros((2, 3)),
        )
        seg2 = Segment(
            segment_id="s1", utterance_id="", speaker_id=None, unit_label="x",
            level="word", features=np.zeros((2, 3)),
        )
        with pytest.raises(DataError):
            effective_speakers(Corpus((seg, seg2)))

    def test_utterance_surrogate_used_when_no_speaker(self):
        segs = tuple(
            Segment(
                segment_id=f"s{i}", utterance_id=f"utt{i % 2}", speaker_id=None,
                unit_label="x", level="word", features=np.zeros((2, 3)),
            )
            for i in range(4)
        )
        speakers = effective_speakers(Corpus(segs))
        assert speakers[0] == speakers[2] and speakers[0] != speakers[1]

    def test_reconstruction_improves_on_noiseless_corpus(self):
        corpus = synth_corpus(
            SynthConfig(n_units=3, n_speakers=2, instances_per_unit_speaker=8,
                        length_range=(5, 5), feature_dim=6,
                        speaker_shift_scale=0.3, noise_scale=0.0),
            seed=2,
        )
        cfg = _tiny_config(epochs=15, alpha_spk=0.0, alpha_adv=0.0)
        _, rows = train_disentangle(corpus, cfg)
        assert rows[-1]["recon"] < rows[0]["recon"]

    def test_loss_log_csv(self, tmp_path):
        corpus = _tiny_corpus()
        _, rows = train_disentangle(corpus, _tiny_config(epochs=2))
        path = tmp_path / "log.csv"
        write_loss_log(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,recon,spk,adv,disc"
        assert len(lines) == 3

    def test_loss_log_header_for_variant_a(self, tmp_path):
        corpus = _tiny_corpus()
        _, rows = train_disentangle(corpus, _tiny_config(epochs=1, alpha_spk=0.0, alpha_adv=0.0))
        path = tmp_path / "log.csv"
        write_loss_log(path, rows)
        assert path.read_text().splitlines()[0] == "epoch,recon,spk,adv,disc"

    def test_loss_log_bytes(self, tmp_path):
        path = tmp_path / "loss.csv"
        write_loss_log(path, [
            {"epoch": 1, "recon": 0.1, "spk": 1 / 3, "adv": 0.0, "disc": 2.5e-17},
            {"epoch": 2, "recon": 1e20, "spk": 0.5, "adv": -0.0, "disc": 1.0},
        ])
        assert path.read_bytes() == (
            b"epoch,recon,spk,adv,disc\r\n"
            b"1,0.1,0.3333333333333333,0.0,2.5e-17\r\n"
            b"2,1e+20,0.5,-0.0,1.0\r\n"
        )
        write_loss_log(path, [
            {"epoch": 1, "contrastive": 0.25, "pos_pairs": 32, "neg_pairs": 32,
             "dist_evals": 2016},
        ])
        assert path.read_bytes() == (
            b"epoch,contrastive,pos_pairs,neg_pairs,dist_evals\r\n"
            b"1,0.25,32,32,2016\r\n"
        )

    def test_loss_log_rejects_empty_rows(self, tmp_path):
        with pytest.raises(DataError):
            write_loss_log(tmp_path / "loss.csv", [])


class TestLinearProbe:
    def test_separable_labels_scored_high(self):
        rng = np.random.default_rng(0)
        centers = {"a": np.array([3.0, 0.0]), "b": np.array([-3.0, 0.0])}
        labels = ["a", "b"] * 40
        x = np.stack([centers[l] + 0.1 * rng.normal(size=2) for l in labels])
        assert linear_probe_accuracy(x, labels, seed=0) > 0.95

    def test_noise_labels_scored_near_chance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(120, 4))
        labels = [str(i % 3) for i in range(120)]
        assert linear_probe_accuracy(x, labels, seed=0) < 0.6
