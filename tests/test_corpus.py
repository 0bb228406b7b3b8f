"""Corpus data model, file round-trips, synthesis, and batching."""

import json
import sys

import numpy as np
import pytest

from segembed.corpus import (
    Corpus,
    _load_embeddings_by_line,
    MiniBatch,
    Segment,
    SynthConfig,
    load_corpus,
    load_embeddings,
    load_labels,
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
    NumericError,
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


_DROP = "<drop>"  # a record value meaning: leave the key out


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

    @pytest.mark.parametrize("features", [[[0.5, 1.0], [2.0]], [["a", "b"]], {"x": 1}])
    def test_features_not_a_matrix_of_numbers(self, tmp_path, features):
        path = tmp_path / "c.jsonl"
        _write_lines(path, [_record(0, [[0.5, 0.5]]), _record(1, features)])
        with pytest.raises(DataError, match=":2: segment 's1': features must be a T x F "
                                            "matrix of numbers"):
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


def _labels_of(corpus):
    return corpus.level, {s.segment_id: s.unit_label for s in corpus.segments}


class TestLoadLabels:
    """``load_labels`` reads what ``load_corpus`` reads of the labels, and
    fails where it fails (frames aside) with the same error."""

    @pytest.mark.parametrize("seed, level", [(0, "word"), (3, "syllable"), (8, "phoneme")])
    def test_matches_load_corpus_on_synth_corpora(self, tmp_path, seed, level):
        cfg = SynthConfig(n_units=4, n_speakers=3, instances_per_unit_speaker=3,
                          feature_dim=5, length_range=(2, 5), level=level)
        path = tmp_path / "c.jsonl"
        save_corpus(path, synth_corpus(cfg, seed))
        assert load_labels(path) == _labels_of(load_corpus(path))

    def test_matches_load_corpus_on_hand_written_lines(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"features": [[1, 2], [3, 4]], "level": "syllable", "unit_label": "ba",'
            ' "speaker_id": null, "utterance_id": "u", "segment_id": "s0"}\n'
            "\n"
            '  {  "segment_id" : "s1", "utterance_id":"u","speaker_id": "spk",'
            '"level":  "syllable" ,"unit_label" :null,'
            '"features": [[1e-3, -2.5E2], [0, 7]], "extra": {"x": 1.5}}  \n'
            '{"segment_id": "s2", "utterance_id": "u", "level": "syllable",'
            ' "features": [[0.1, 0.2]]}\n'
        )
        assert load_labels(path) == ("syllable", {"s0": "ba", "s1": None, "s2": None})
        assert load_labels(path) == _labels_of(load_corpus(path))

    @staticmethod
    def _line(**changes):
        rec = _record(0, [[0.5, 1.5]])
        rec.update(changes)
        return json.dumps({k: v for k, v in rec.items() if v is not _DROP}) + "\n"

    @pytest.mark.parametrize(
        "content, error, message",
        [
            (b"\xff\xfe{}\n", ParseError, "not valid UTF-8"),
            ('{"segment_id": "ok"...\n', ParseError, ":1: invalid JSON: "),
            ("[1.5, 2]\n", ParseError, ":1: a record must be a JSON object"),
            ("", EmptyCorpusError, ": no segments"),
            ("\n  \n", EmptyCorpusError, ": no segments"),
        ],
    )
    def test_file_errors_match_load_corpus(self, tmp_path, content, error, message):
        path = tmp_path / "c.jsonl"
        path.write_bytes(content.encode() if isinstance(content, str) else content)
        self._assert_same_error(path, error, message)

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this Python converts integers of any length")
    def test_integer_over_the_digit_limit_is_a_parse_error(self, tmp_path):
        path = tmp_path / "c.jsonl"
        digits = "7" * (sys.get_int_max_str_digits() + 1)
        path.write_text('{"segment_id": "a", "features": [[' + digits + "]]}\n")
        self._assert_same_error(path, ParseError, ":1: invalid JSON: Exceeds the limit")

    @pytest.mark.parametrize(
        "changes, error, message",
        [
            ({"segment_id": _DROP}, ParseError, ":2: missing key 'segment_id'"),
            ({"level": _DROP}, ParseError, ":2: missing key 'level'"),
            ({"utterance_id": _DROP}, ParseError, ":2: missing key 'utterance_id'"),
            ({"level": "sentence"}, DataError, ":2: segment 's0': level must be one of"),
            ({"level": "syllable"}, DataError, "mixed segment levels in corpus: "
                                               "['syllable', 'word']"),
            ({"segment_id": "a"}, DataError, "duplicate segment_id 'a'"),
            ({"segment_id": 7}, ParseError, ":2: segment_id must be a string"),
            ({"segment_id": 7.5}, ParseError, ":2: segment_id must be a string"),
            ({"segment_id": None}, ParseError, ":2: segment_id must be a string"),
            ({"utterance_id": ["u"]}, ParseError, ":2: utterance_id must be a string"),
            ({"level": 2.0}, ParseError, ":2: level must be a string"),
            ({"speaker_id": ["x"]}, ParseError, ":2: speaker_id must be a string or null"),
            ({"speaker_id": 0.5}, ParseError, ":2: speaker_id must be a string or null"),
            ({"unit_label": 7}, ParseError, ":2: unit_label must be a string or null"),
            ({"unit_label": 1.25}, ParseError, ":2: unit_label must be a string or null"),
            ({"unit_label": True}, ParseError, ":2: unit_label must be a string or null"),
        ],
    )
    def test_record_errors_match_load_corpus(self, tmp_path, changes, error, message):
        path = tmp_path / "c.jsonl"
        path.write_text(self._line(segment_id="a") + self._line(**changes))
        self._assert_same_error(path, error, message)

    @staticmethod
    def _assert_same_error(path, error, message):
        with pytest.raises(error) as from_corpus:
            load_corpus(path)
        with pytest.raises(error) as from_labels:
            load_labels(path)
        assert type(from_labels.value) is type(from_corpus.value)
        assert str(from_labels.value) == str(from_corpus.value)
        assert message in str(from_labels.value)

    def test_frames_are_neither_decoded_nor_checked(self, tmp_path):
        path = tmp_path / "c.jsonl"
        frameless = {k: v for k, v in _record(3, None).items() if k != "features"}
        _write_lines(path, [_record(0, [[0.5] * 3]), _record(1, [[0.5] * 4]),
                            _record(2, []), frameless])
        assert load_labels(path) == ("word", {f"s{i}": None for i in range(4)})
        with pytest.raises(DimensionError):
            load_corpus(path)


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

    @pytest.mark.parametrize("lines", [
        [],
        ["", "  "],
        ['{"segment_id": "a", "vector": [1, 2.5]}', "",
         '{"segment_id": "b", "vector": [3, -0.0]}'],
        ['{"segment_id": "a", "vector": ["1.5", true]}'],
        ['{"segment_id": "a", "vector": []}', '{"segment_id": 7, "vector": []}'],
        ['{"vector": [0.1, 0.2], "segment_id": "a", "extra": null}'],
    ])
    def test_one_pass_equals_line_by_line(self, tmp_path, lines):
        path = tmp_path / "e.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        got, want = load_embeddings(path), _load_embeddings_by_line(path)
        assert [sid for sid, _ in got] == [sid for sid, _ in want]
        for (_, a), (_, b) in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    GOOD = '{"segment_id": "s%d", "vector": [0.5, 1, -2]}'

    @pytest.mark.parametrize("bad, error, message", [
        ('{"segment_id": "x", "vector": [NaN, 1, 2]}', NumericError,
         ":3: non-finite vector entry"),
        ('{"segment_id": "x", "vector": [1e999, 1, 2]}', NumericError,
         ":3: non-finite vector entry"),
        ('{"segment_id": "x", "vector": [1, 2', ParseError, ":3: Expecting"),
        ("[0.5, 0.25]", ParseError, ":3: list indices must be integers"),
        ('{"segment_id": "x"}', ParseError, ":3: 'vector'"),
        ('{"vector": [1, 2, 3]}', ParseError, ":3: 'segment_id'"),
        ('{"segment_id": "x", "vector": ["a", 1, 2]}', ParseError,
         ":3: could not convert string to float"),
        ('{"segment_id": ["x"], "vector": [1, 2, 3]}', ParseError, ":3: unhashable type"),
        ('{"segment_id": "x", "vector": 5}', DimensionError, ":3: vector must be 1-D"),
        ('{"segment_id": "x", "vector": [[1, 2, 3]]}', DimensionError, ":3: vector must be 1-D"),
        ('{"segment_id": "x", "vector": [1, 2]}', DimensionError, ":3: dimension 2 != 3"),
        ('{"segment_id": "s0", "vector": [1, 2, 3]}', DataError,
         ":3: duplicate segment_id 's0' (first on line 1)"),
        # too large for a float: a ParseError, not a bare OverflowError
        pytest.param('{"segment_id": "x", "vector": [1%s, 2, 3]}' % ("0" * 400), ParseError,
                     ":3: int too large to convert to float", id="int-beyond-float"),
    ])
    def test_bad_line_is_named_as_line_by_line(self, tmp_path, bad, error, message):
        path = tmp_path / "e.jsonl"
        path.write_text("\n".join([self.GOOD % 0, self.GOOD % 1, bad, self.GOOD % 3]) + "\n")
        with pytest.raises(error) as got:
            load_embeddings(path)
        with pytest.raises(error) as want:
            _load_embeddings_by_line(path)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"{path}{message}")

    def test_first_bad_line_wins_over_a_later_one(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text("\n".join([
            self.GOOD % 0,
            '{"segment_id": "s1", "vector": [0.5, NaN, 1]}',
            self.GOOD % 2,
            self.GOOD % 0,
        ]) + "\n")
        with pytest.raises(NumericError) as got:
            load_embeddings(path)
        assert str(got.value) == f"{path}:2: non-finite vector entry"

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
