"""Corpus data model, file round-trips, synthesis, and batching."""

import json

import numpy as np
import pytest

from segembed.corpus import (
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
from segembed.errors import (
    ConfigError,
    DataError,
    DimensionError,
    EmptyCorpusError,
    ParseError,
)


def _segment(i, n_frames=3, dim=4, **kw):
    defaults = dict(
        segment_id=f"s{i}",
        utterance_id="u0",
        speaker_id="spk0",
        unit_label="cat",
        level="word",
        features=np.full((n_frames, dim), float(i)),
    )
    defaults.update(kw)
    return Segment(**defaults)


def _write_lines(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def _record(i, features):
    return {
        "segment_id": f"s{i}",
        "utterance_id": "u0",
        "speaker_id": None,
        "unit_label": None,
        "level": "word",
        "features": features,
    }


class TestSegmentAndCorpus:
    def test_segment_rejects_empty_features(self):
        with pytest.raises(DataError, match="s0"):
            _segment(0, features=np.zeros((0, 4)))

    def test_segment_rejects_non_finite(self):
        bad = np.zeros((2, 4))
        bad[1, 2] = np.nan
        with pytest.raises(DataError, match="s0"):
            _segment(0, features=bad)

    def test_corpus_rejects_duplicate_ids(self):
        with pytest.raises(DataError, match="s0"):
            Corpus((_segment(0), _segment(0)))

    def test_corpus_rejects_mixed_dims(self):
        with pytest.raises(DimensionError):
            Corpus((_segment(0, dim=4), _segment(1, dim=5)))

    def test_corpus_rejects_mixed_levels(self):
        with pytest.raises(DataError):
            Corpus((_segment(0), _segment(1, level="phoneme")))


class TestCorpusFile:
    def test_load_counts_and_order(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_lines(path, [_record(i, [[0.5] * 39] * 2) for i in range(3)])
        corpus = load_corpus(path)
        assert len(corpus) == 3
        assert corpus.feature_dim == 39
        assert [s.segment_id for s in corpus.segments] == ["s0", "s1", "s2"]

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"segment_id": "ok"...\n')
        with pytest.raises(ParseError, match=":1"):
            load_corpus(path)

    def test_zero_frame_segment_names_offender(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_lines(
            path,
            [_record(0, [[0.5, 0.5]]), _record(1, [])],
        )
        with pytest.raises((DataError, DimensionError), match="s1"):
            load_corpus(path)

    def test_mixed_dims_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_lines(
            path,
            [_record(0, [[0.5] * 39]), _record(1, [[0.5] * 13])],
        )
        with pytest.raises(DimensionError):
            load_corpus(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        with pytest.raises(EmptyCorpusError):
            load_corpus(path)

    def test_corpus_roundtrip_bit_exact(self, tmp_path):
        corpus = synth_corpus(
            SynthConfig(n_units=2, n_speakers=2, instances_per_unit_speaker=2,
                        feature_dim=5, length_range=(2, 4)),
            seed=3,
        )
        path = tmp_path / "c.jsonl"
        save_corpus(path, corpus)
        loaded = load_corpus(path)
        assert len(loaded) == len(corpus)
        for a, b in zip(corpus.segments, loaded.segments):
            assert a.segment_id == b.segment_id
            assert a.utterance_id == b.utterance_id
            assert a.speaker_id == b.speaker_id
            assert a.unit_label == b.unit_label
            assert np.array_equal(a.features, b.features)


class TestEmbeddingFile:
    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        entries = [(f"s{i}", rng.normal(size=256)) for i in range(2)]
        path = tmp_path / "e.jsonl"
        save_embeddings(path, entries)
        assert len(path.read_text().splitlines()) == 2
        loaded = load_embeddings(path)
        assert [sid for sid, _ in loaded] == ["s0", "s1"]
        for (_, a), (_, b) in zip(entries, loaded):
            assert np.array_equal(a, b)

    def test_mixed_dims_rejected(self, tmp_path):
        with pytest.raises(DimensionError):
            save_embeddings(
                tmp_path / "e.jsonl",
                [("a", np.zeros(256)), ("b", np.zeros(128))],
            )

    def test_unwritable_path_raises_io_error(self, tmp_path):
        with pytest.raises(OSError):
            save_embeddings(tmp_path / "nope" / "e.jsonl", [("a", np.zeros(3))])


class TestSynth:
    def test_counts_and_labels(self):
        cfg = SynthConfig(n_units=3, n_speakers=2, instances_per_unit_speaker=4,
                          feature_dim=6)
        corpus = synth_corpus(cfg, seed=0)
        assert len(corpus) == 24
        assert all(s.unit_label is not None for s in corpus.segments)
        assert all(s.speaker_id is not None for s in corpus.segments)

    def test_same_seed_identical(self):
        cfg = SynthConfig(n_units=3, n_speakers=2, instances_per_unit_speaker=4,
                          feature_dim=6)
        c1 = synth_corpus(cfg, seed=0)
        c2 = synth_corpus(cfg, seed=0)
        for a, b in zip(c1.segments, c2.segments):
            assert a.segment_id == b.segment_id
            assert np.array_equal(a.features, b.features)

    def test_different_seed_differs(self):
        cfg = SynthConfig(n_units=3, n_speakers=2, instances_per_unit_speaker=4,
                          feature_dim=6)
        c1 = synth_corpus(cfg, seed=0)
        c2 = synth_corpus(cfg, seed=1)
        assert any(
            not np.array_equal(a.features, b.features)
            for a, b in zip(c1.segments, c2.segments)
        )

    def test_degenerate_generator_identical_instances(self):
        cfg = SynthConfig(
            n_units=2, n_speakers=2, instances_per_unit_speaker=3,
            length_range=(5, 5), feature_dim=4,
            speaker_shift_scale=0.0, noise_scale=0.0,
        )
        corpus = synth_corpus(cfg, seed=0)
        by_unit = {}
        for seg in corpus.segments:
            by_unit.setdefault(seg.unit_label, []).append(seg.features)
        for variants in by_unit.values():
            for other in variants[1:]:
                assert np.array_equal(variants[0], other)

    def test_speaker_shift_separates_speakers(self):
        cfg = SynthConfig(
            n_units=2, n_speakers=2, instances_per_unit_speaker=2,
            length_range=(5, 5), feature_dim=4,
            speaker_shift_scale=0.5, noise_scale=0.0,
        )
        corpus = synth_corpus(cfg, seed=0)
        groups = {}
        for seg in corpus.segments:
            groups.setdefault((seg.unit_label, seg.speaker_id), []).append(seg.features)
        # same unit+speaker at equal length -> identical
        for variants in groups.values():
            for other in variants[1:]:
                assert np.array_equal(variants[0], other)
        # same unit, different speakers -> different
        assert not np.array_equal(
            groups[("u000", "spk000")][0], groups[("u000", "spk001")][0]
        )

    def test_utterances_share_speaker(self):
        cfg = SynthConfig(n_units=4, n_speakers=3, instances_per_unit_speaker=6,
                          feature_dim=4)
        corpus = synth_corpus(cfg, seed=1)
        by_utt = {}
        for seg in corpus.segments:
            by_utt.setdefault(seg.utterance_id, set()).add(seg.speaker_id)
        assert all(len(speakers) == 1 for speakers in by_utt.values())


class TestBatches:
    @staticmethod
    def _corpus(m):
        return Corpus(tuple(_segment(i) for i in range(m)))

    def test_drop_last_counts(self):
        batches = make_batches(self._corpus(10), 4, seed=0, drop_last=True)
        assert [len(b.indices) for b in batches] == [4, 4]

    def test_keep_last_counts(self):
        batches = make_batches(self._corpus(10), 4, seed=0, drop_last=False)
        assert [len(b.indices) for b in batches] == [4, 4, 2]

    def test_keep_last_merges_singleton(self):
        batches = make_batches(self._corpus(9), 4, seed=0, drop_last=False)
        assert sorted(len(b.indices) for b in batches) == [4, 5]

    def test_determinism_and_cover(self):
        b1 = make_batches(self._corpus(10), 4, seed=5, drop_last=False)
        b2 = make_batches(self._corpus(10), 4, seed=5, drop_last=False)
        assert [b.indices for b in b1] == [b.indices for b in b2]
        covered = [i for b in b1 for i in b.indices]
        assert sorted(covered) == list(range(10))

    def test_drop_last_subset_no_repeats(self):
        batches = make_batches(self._corpus(11), 4, seed=2, drop_last=True)
        covered = [i for b in batches for i in b.indices]
        assert len(covered) == len(set(covered)) == 8

    def test_batch_size_below_two_rejected(self):
        with pytest.raises(ConfigError):
            make_batches(self._corpus(4), 1, seed=0)

    def test_no_batch_rejected(self):
        with pytest.raises(DataError, match="no batches"):
            make_batches(self._corpus(3), 4, seed=0, drop_last=True)
        kept = make_batches(self._corpus(3), 4, seed=0, drop_last=False)
        assert [len(b.indices) for b in kept] == [3]
        with pytest.raises(DataError, match="no segments"):
            make_batches([], 4, seed=0, drop_last=False)

    def test_minibatch_invariants(self):
        with pytest.raises(DataError):
            MiniBatch((3,))
        with pytest.raises(DataError):
            MiniBatch((3, 3))


def test_split_corpus_partitions():
    cfg = SynthConfig(n_units=3, n_speakers=2, instances_per_unit_speaker=5,
                      feature_dim=4)
    corpus = synth_corpus(cfg, seed=0)
    train, test = split_corpus(corpus, 0.25, seed=1)
    assert len(train) + len(test) == len(corpus)
    ids = {s.segment_id for s in train.segments} | {s.segment_id for s in test.segments}
    assert len(ids) == len(corpus)
