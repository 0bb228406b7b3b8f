"""The sidecars, ``<path>.cache``, of corpus, embedding and checkpoint
files: what ``load_corpus``, ``load_labels``, ``load_embeddings`` and
``load_checkpoint`` build from one equals what the parse builds, what
``save_corpus`` writes equals what the parse keeps, a sidecar that is
broken, stale, forged, unreadable or unwritable only costs the parse, none
is written beside a path that is not itself a regular file, and every read
opens its file once."""

import hashlib
import json
import math
import os
import stat
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segembed import config as config_module
from segembed import corpus as corpus_module
from segembed import neuralcore
from segembed.corpus import (
    LEVELS,
    SynthConfig,
    decode_lines,
    load_corpus,
    load_embeddings,
    load_labels,
    save_corpus,
    save_embeddings,
    split_corpus,
    synth_corpus,
)
from segembed.errors import DataError, NumericError, ParseError, SegembedError
from segembed.neuralcore import (
    ComponentParams,
    ModelDims,
    init_encoder,
    init_refine,
    load_checkpoint,
    save_checkpoint,
)


def _sidecar(path):
    return path.with_name(path.name + ".cache")


def _parse(path):
    """The reference: the corpus as the parse path reads it."""
    return corpus_module._parse_corpus(path, decode_lines(path, path.read_bytes()))


def _labels_of(corpus):
    return corpus.level, {s.segment_id: s.unit_label for s in corpus.segments}


def _assert_same(got, want):
    """Same level, dimension, order, ids, metadata and feature arrays
    (bytes, dtype, shape and writeability), and the same packed frames."""
    assert (got.level, got.feature_dim, len(got)) == (want.level, want.feature_dim, len(want))
    assert got.frames.tobytes() == want.frames.tobytes()
    assert got.lengths.tolist() == want.lengths.tolist()
    for g, w in zip(got.segments, want.segments):
        assert (g.segment_id, g.utterance_id, g.speaker_id, g.unit_label, g.level) == (
            w.segment_id, w.utterance_id, w.speaker_id, w.unit_label, w.level)
        assert (g.features.dtype, g.features.shape) == (w.features.dtype, w.features.shape)
        assert g.features.tobytes() == w.features.tobytes()
        assert g.features.flags.writeable == w.features.flags.writeable


def _no_parse():
    """Inside it, a read that parses the corpus file fails the test."""
    return mock.patch.object(corpus_module, "_parse_corpus",
                             side_effect=AssertionError("the corpus was parsed"))


def _leftovers(directory, name="corpus.jsonl"):
    """Files in ``directory`` other than the file ``name`` and its sidecar."""
    return sorted(p.name for p in directory.iterdir() if p.name not in (name, f"{name}.cache"))


def _write_corpus(path, seed=5, **synth):
    """Write a small synthetic corpus's file to ``path`` as a writer other
    than ``save_corpus`` would: its bytes only, leaving a sidecar already
    beside it as it is."""
    cfg = dict(n_units=3, n_speakers=2, instances_per_unit_speaker=2, feature_dim=4,
               length_range=(1, 4))
    with tempfile.TemporaryDirectory() as tmp:
        saved = Path(tmp) / "corpus.jsonl"
        save_corpus(saved, synth_corpus(SynthConfig(**{**cfg, **synth}), seed))
        path.write_bytes(saved.read_bytes())
    return path


@pytest.fixture
def corpus_file(tmp_path):
    return _write_corpus(tmp_path / "corpus.jsonl")


@pytest.fixture
def good_sidecar(corpus_file):
    """The sidecar bytes that ``load_corpus`` writes for ``corpus_file``."""
    load_corpus(corpus_file)
    return _sidecar(corpus_file).read_bytes()


class TestSidecarUse:
    def test_a_miss_writes_it_and_later_reads_use_it(self, corpus_file):
        want = _parse(corpus_file)
        assert not _sidecar(corpus_file).exists()
        assert load_labels(corpus_file) == _labels_of(want)
        assert _sidecar(corpus_file).is_file()
        with _no_parse():
            assert load_labels(corpus_file) == _labels_of(want)
        _sidecar(corpus_file).unlink()
        _assert_same(load_corpus(corpus_file), want)
        assert _sidecar(corpus_file).is_file()
        with _no_parse():
            _assert_same(load_corpus(corpus_file), want)
            assert load_labels(corpus_file) == _labels_of(want)
        assert _leftovers(corpus_file.parent) == []

    @pytest.mark.parametrize("corpus_mode", [0o600, 0o640, 0o666], ids=oct)
    def test_never_more_readable_than_the_corpus(self, corpus_file, corpus_mode):
        """The sidecar has the corpus file's permissions less the umask."""
        os.chmod(corpus_file, corpus_mode)
        umask = os.umask(0o022)
        try:
            load_corpus(corpus_file)
        finally:
            os.umask(umask)
        mode = stat.S_IMODE(os.stat(_sidecar(corpus_file)).st_mode)
        assert mode == corpus_mode & ~0o022

    def test_bytes_depend_only_on_the_corpus_bytes(self, tmp_path, corpus_file, good_sidecar):
        other = tmp_path / "elsewhere" / "renamed.jsonl"
        other.parent.mkdir()
        other.write_bytes(corpus_file.read_bytes())
        load_corpus(other)
        assert _sidecar(other).read_bytes() == good_sidecar
        _sidecar(corpus_file).unlink()
        load_corpus(corpus_file)
        assert _sidecar(corpus_file).read_bytes() == good_sidecar

    def test_header_holds_the_corpus_checksum_and_the_rows(self, corpus_file, good_sidecar):
        header = json.loads(good_sidecar.split(b"\n", 1)[0])
        want = _parse(corpus_file)
        assert list(header) == ["format", "corpus_sha256", "payload_sha256", "feature_dim",
                                "level", "segments"]
        assert header["format"] == corpus_module._SIDECAR_FORMAT
        assert header["corpus_sha256"] == hashlib.sha256(corpus_file.read_bytes()).hexdigest()
        assert (header["feature_dim"], header["level"]) == (want.feature_dim, want.level)
        assert header["segments"] == [
            [s.segment_id, s.utterance_id, s.speaker_id, s.unit_label, s.n_frames]
            for s in want.segments]
        frames = np.concatenate([s.features for s in want.segments])
        assert good_sidecar.endswith(frames.astype("<f8").tobytes())

    def test_an_edited_corpus_is_parsed_and_its_sidecar_replaced(
        self, tmp_path, corpus_file, good_sidecar
    ):
        _write_corpus(corpus_file, seed=6)
        want = _parse(corpus_file)
        assert load_labels(corpus_file) == _labels_of(want)
        _assert_same(load_corpus(corpus_file), want)
        fresh = _write_corpus(tmp_path / "fresh.jsonl", seed=6)
        load_corpus(fresh)
        assert _sidecar(corpus_file).read_bytes() == _sidecar(fresh).read_bytes()


def _mixed_line_endings(path, last=""):
    """A corpus of four records ended by ``\\r``, ``\\r\\n``, ``\\r``, a
    blank line and ``\\n``, then ``last``, with ids that hold characters
    ``str.splitlines`` splits on."""
    recs = [json.dumps({"segment_id": f"s{i}\u2028\x85", "utterance_id": "u",
                        "level": "word", "features": [[i, 0.5]]}, ensure_ascii=False)
            for i in range(4)]
    path.write_text("\r".join(recs[:2]) + "\r\n" + recs[2] + "\r\r\n" + recs[3] + "\n"
                    + last, encoding="utf-8")
    return path


class TestFirstRead:
    """The parse of the bytes ``load_corpus`` has read splits and numbers
    lines as reading the file as text does."""

    def test_line_endings(self, tmp_path):
        path = _mixed_line_endings(tmp_path / "corpus.jsonl")
        want = _parse(path)
        assert [s.segment_id for s in want.segments] == [f"s{i}\u2028\x85" for i in range(4)]
        _assert_same(load_corpus(path), want)

    def test_line_numbers(self, tmp_path):
        path = _mixed_line_endings(tmp_path / "corpus.jsonl", '{"segment_id": 1}')
        with pytest.raises(ParseError, match=r"corpus\.jsonl:6: segment_id must be a string$"):
            load_corpus(path)


def _flip(blob, i):
    return blob[:i] + bytes([blob[i] ^ 0x01]) + blob[i + 1:]


def _forge(blob, kind=None, **changes):
    """``blob``, a sidecar of either kind, with ``changes`` to the header
    fields after its checksums (``frames`` the payload), headed as a
    sidecar of ``kind`` if given, and both checksums made to hold again, as
    the writer makes them."""
    line, frames = blob.split(b"\n", 1)
    frames = changes.pop("frames", frames)
    fields = list(json.loads(line).items())  # format, <kind>_sha256, payload_sha256, ...
    source_key, source_sha256 = fields[1]
    rest = {**dict(fields[3:]), **changes}
    tail = f", {json.dumps(rest)[1:]}\n".encode() + frames
    head = corpus_module._sidecar_head(kind or source_key.removesuffix("_sha256"),
                                       source_sha256, hashlib.sha256(tail).hexdigest())
    return head + tail


def _rows(edit):
    """A header change: ``edit`` applied to a copy of the rows."""
    def change(header):
        rows = json.loads(json.dumps(header["segments"]))
        edit(rows)
        return {"segments": rows}
    return change


def _set(row, col, value):
    return _rows(lambda rows: rows[row].__setitem__(col, value))


# Header changes whose types or sizes a sidecar may not have, though both
# checksums hold; each is a function of the header, giving the changes.
WRONG_FIELDS = {
    "feature_dim a string": lambda h: {"feature_dim": str(h["feature_dim"])},
    "feature_dim a float": lambda h: {"feature_dim": float(h["feature_dim"])},
    "feature_dim a boolean": lambda h: {"feature_dim": True},
    "feature_dim 0": lambda h: {"feature_dim": 0},
    "feature_dim of other frames": lambda h: {"feature_dim": h["feature_dim"] * 2},
    "level not a string": lambda h: {"level": 3},
    "level unknown": lambda h: {"level": "sentence"},
    "segments an object": lambda h: {"segments": {"a": 1}},
    "no segments": lambda h: {"segments": []},
    "row too short": _rows(lambda rows: rows[1].pop()),
    "row a string": _rows(lambda rows: rows.__setitem__(0, "x")),
    "segment_id an int": _set(1, 0, 7),
    "utterance_id null": _set(1, 1, None),
    "speaker_id a number": _set(2, 2, 0.5),
    "unit_label a list": _set(0, 3, ["u"]),
    "T a string": _set(0, 4, "2"),
    "T a boolean": _set(0, 4, True),
    "T zero": _set(0, 4, 0),
    "T of other frames": _rows(lambda rows: rows[0].__setitem__(4, rows[0][4] + 1)),
    "duplicate segment_id": _rows(lambda rows: rows[1].__setitem__(0, rows[0][0])),
    "non-finite frame": lambda h: {"frames": np.full(
        sum(r[4] for r in h["segments"]) * h["feature_dim"], np.nan).tobytes()},
}


def _fault_of_fields(name):
    def fault(path, good):
        header = json.loads(good.split(b"\n", 1)[0])
        _sidecar(path).write_bytes(_forge(good, **WRONG_FIELDS[name](header)))
    return fault


def _truncated(size):
    return lambda path, good: _sidecar(path).write_bytes(good[:size(good)])


def _header_end(blob):
    return blob.index(b"\n") + 1


def _other_format(path, good):
    """The sidecar as another version of the format would head it; both
    checksums still hold, as P does not cover the version."""
    version = corpus_module._SIDECAR_FORMAT
    _sidecar(path).write_bytes(good.replace(
        f'{{"format": {version},'.encode(), f'{{"format": {version + 1},'.encode(), 1))


FAULTS = {
    "empty": _truncated(lambda b: 0),
    "truncated in the checksums": _truncated(lambda b: 100),
    "truncated in the rows": _truncated(lambda b: _header_end(b) - 10),
    "header only": _truncated(_header_end),
    "truncated in the frames": _truncated(lambda b: (_header_end(b) + len(b)) // 2),
    "last byte missing": _truncated(lambda b: len(b) - 1),
    "payload byte flipped": lambda path, good: _sidecar(path).write_bytes(
        _flip(good, _header_end(good) + 3)),
    "last payload byte flipped": lambda path, good: _sidecar(path).write_bytes(
        _flip(good, len(good) - 1)),
    "byte appended": lambda path, good: _sidecar(path).write_bytes(good + b"\0"),
    "header not JSON": lambda path, good: _sidecar(path).write_bytes(
        b"not json" + good[_header_end(good) - 1:]),
    "header a list": lambda path, good: _sidecar(path).write_bytes(
        b"[1, 2]" + good[_header_end(good) - 1:]),
    "header not ASCII": lambda path, good: _sidecar(path).write_bytes(b"\xff" + good[1:]),
    "another format version": _other_format,
    **{f"forged: {name}": _fault_of_fields(name) for name in WRONG_FIELDS},
}


class TestBrokenSidecar:
    def test_forging_reproduces_the_writer(self, good_sidecar):
        assert _forge(good_sidecar) == good_sidecar

    @pytest.mark.parametrize("fault", FAULTS)
    def test_falls_back_to_the_parse_and_is_repaired(self, corpus_file, good_sidecar, fault):
        want = _parse(corpus_file)
        FAULTS[fault](corpus_file, good_sidecar)
        broken = _sidecar(corpus_file).read_bytes()
        assert broken != good_sidecar
        assert load_labels(corpus_file) == _labels_of(want)
        # a miss repairs it; frames that only Segment rejects are no miss for the labels
        repaired = good_sidecar if fault != "forged: non-finite frame" else broken
        assert _sidecar(corpus_file).read_bytes() == repaired
        _sidecar(corpus_file).write_bytes(broken)
        _assert_same(load_corpus(corpus_file), want)
        assert _sidecar(corpus_file).read_bytes() == good_sidecar
        assert _leftovers(corpus_file.parent) == []

    def test_every_header_byte_flipped(self, corpus_file, good_sidecar):
        """One flipped bit anywhere in the header, in a checksum, a key, an
        id or a frame count, falls back to the parse."""
        want = _parse(corpus_file)
        for i in range(_header_end(good_sidecar)):
            _sidecar(corpus_file).write_bytes(_flip(good_sidecar, i))
            assert load_labels(corpus_file) == _labels_of(want), i
            _assert_same(load_corpus(corpus_file), want)
            assert _sidecar(corpus_file).read_bytes() == good_sidecar, i

    def test_sidecar_of_another_corpus(self, tmp_path, corpus_file, good_sidecar):
        (tmp_path / "other").mkdir()
        other = _write_corpus(tmp_path / "other" / "corpus.jsonl", seed=6)
        load_corpus(other)
        _sidecar(corpus_file).write_bytes(_sidecar(other).read_bytes())
        want = _parse(corpus_file)
        assert load_labels(corpus_file) == _labels_of(want)
        _assert_same(load_corpus(corpus_file), want)
        assert _sidecar(corpus_file).read_bytes() == good_sidecar

    def test_directory_at_the_sidecar_path(self, corpus_file):
        _sidecar(corpus_file).mkdir()
        want = _parse(corpus_file)
        _assert_same(load_corpus(corpus_file), want)
        assert load_labels(corpus_file) == _labels_of(want)
        assert _sidecar(corpus_file).is_dir()
        assert _leftovers(corpus_file.parent) == []

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_replace_raises(self, corpus_file, monkeypatch, error):
        """Root ignores mode bits, so the failed write is made by
        ``os.replace`` raising."""
        def replace(src, dst):
            assert Path(src).is_file()  # the complete temporary file
            raise error("replace failed")

        monkeypatch.setattr(os, "replace", replace)
        if error is OSError:
            _assert_same(load_corpus(corpus_file), _parse(corpus_file))
        else:
            with pytest.raises(KeyboardInterrupt):
                load_corpus(corpus_file)
        assert _leftovers(corpus_file.parent) == []
        assert not _sidecar(corpus_file).exists()

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_write_raises_partway(self, corpus_file, monkeypatch, error):
        """The temporary file's second write raises, after the first has
        put the start of the header on disk."""
        class BreaksAfterOneWrite:
            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                if self.writes:
                    raise error("disk full")
                self.writes += 1
                self.fh.write(data)
                self.fh.flush()

        def fake_open(file, mode="r", *args, **kwargs):
            fh = open(file, mode, *args, **kwargs)
            return BreaksAfterOneWrite(fh) if mode == "xb" else fh

        monkeypatch.setattr(corpus_module, "open", fake_open, raising=False)
        if error is OSError:
            _assert_same(load_corpus(corpus_file), _parse(corpus_file))
        else:
            with pytest.raises(KeyboardInterrupt):
                load_corpus(corpus_file)
        assert _leftovers(corpus_file.parent) == []
        assert not _sidecar(corpus_file).exists()


IDS = st.text(min_size=1, max_size=6)  # non-ASCII among them
LABELS = st.none() | st.text(max_size=5)
NUMBERS = (st.floats(allow_nan=False, allow_infinity=False)
           | st.integers(-(2**70), 2**70) | st.sampled_from([0, -0.0, 5e-324, 1e308]))


@st.composite
def _corpus_lines(draw):
    """The text of a valid corpus file: null labels, integer frame values,
    T = 1 and F = 1 all drawn, ids escaped or written as they are."""
    level = draw(st.sampled_from(LEVELS))
    n_features = draw(st.integers(1, 3))
    ids = draw(st.lists(IDS, min_size=1, max_size=5, unique=True))
    ascii_only = draw(st.booleans())
    lines = []
    for sid in ids:
        n_frames = draw(st.integers(1, 3))
        rec = {"segment_id": sid, "utterance_id": draw(IDS), "speaker_id": draw(LABELS),
               "unit_label": draw(LABELS), "level": level,
               "features": draw(st.lists(st.lists(NUMBERS, min_size=n_features,
                                                  max_size=n_features),
                                         min_size=n_frames, max_size=n_frames))}
        lines.append(json.dumps(rec, ensure_ascii=ascii_only) + "\n")
    return "".join(lines)


@settings(max_examples=100, deadline=None)
@given(_corpus_lines())
@example('{"segment_id": "\\u00e9\\u2028", "utterance_id": "u", "speaker_id": null,'
         ' "unit_label": null, "level": "word", "features": [[3]]}\n'
         '{"segment_id": "é\u2028x", "utterance_id": "u", "speaker_id": null,'
         ' "unit_label": "x", "level": "word", "features": [[-0.0], [1]]}\n')
def test_sidecar_reads_equal_the_parse(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        path.write_text(text, encoding="utf-8")
        want = _parse(path)
        labels = load_labels(path)
        assert list(labels[1].items()) == list(_labels_of(want)[1].items())
        _assert_same(load_corpus(path), want)
        assert _sidecar(path).is_file()
        with _no_parse():
            _assert_same(load_corpus(path), want)
            cached = load_labels(path)
        assert cached[0] == labels[0]
        assert list(cached[1].items()) == list(labels[1].items())


def _array_bytes(corpus):
    """The bytes of the distinct arrays that ``corpus`` holds, each array
    followed through its bases to the one that owns its memory."""
    owners = {}
    for array in (corpus.frames, corpus.lengths, corpus.starts,
                  *(s.features for s in corpus.segments)):
        while isinstance(array.base, np.ndarray):
            array = array.base
        owners[id(array)] = array.nbytes
    return sum(owners.values())


def _hit(path):
    load_corpus(path)
    with _no_parse():
        return load_corpus(path)


BUILDS = {
    "sidecar hit": _hit,
    "parse": _parse,
    "synth_corpus": lambda path: synth_corpus(SynthConfig(n_units=3, n_speakers=2), 5),
    "split_corpus train": lambda path: split_corpus(_parse(path), 0.25, 1)[0],
    "split_corpus test": lambda path: split_corpus(_parse(path), 0.25, 1)[1],
}


@pytest.mark.parametrize("build", BUILDS)
def test_segments_are_read_only_views_of_the_one_copy_of_the_frames(corpus_file, build):
    corpus = BUILDS[build](corpus_file)
    frames = corpus.frames
    assert frames.flags.c_contiguous and frames.flags.aligned and not frames.flags.writeable
    for segment, start, n_frames in zip(corpus.segments, corpus.starts, corpus.lengths):
        assert not segment.features.flags.writeable
        assert np.shares_memory(segment.features, frames)
        view = frames[start:start + n_frames]
        assert segment.features.__array_interface__ == view.__array_interface__
    assert _array_bytes(corpus) == frames.nbytes + corpus.lengths.nbytes + corpus.starts.nbytes


class TestSaveCorpus:
    """A ``Segment`` has the ids and labels the parse requires, so
    ``save_corpus`` writes no file that ``load_corpus`` rejects
    (``test_saved_sidecar_equals_the_kept_one`` has the round trip)."""

    @pytest.mark.parametrize("key, value, message", [
        ("segment_id", 7, "segment_id must be a string"),
        ("utterance_id", None, "utterance_id must be a string"),
        ("speaker_id", 0.5, "speaker_id must be a string or null"),
        ("unit_label", ["u"], "unit_label must be a string or null"),
    ])
    def test_a_segment_the_parse_rejects_cannot_be_built(self, corpus_file, key, value, message):
        """Such a Segment is a DataError naming it, as the parse's record
        is a ParseError with the same message."""
        good = _parse(corpus_file)[0]
        segment_id = value if key == "segment_id" else good.segment_id
        with pytest.raises(DataError, match=f"^segment {segment_id!r}: {message}$"):
            replace(good, **{key: value})


@settings(max_examples=50, deadline=None)
@given(_corpus_lines())
def test_saved_sidecar_equals_the_kept_one(text):
    """For any corpus the parse reads, saving it leaves the sidecar that a
    parse of the saved file keeps, and reads of it equal that parse."""
    with tempfile.TemporaryDirectory() as tmp:
        source, saved = Path(tmp) / "source.jsonl", Path(tmp) / "saved.jsonl"
        source.write_text(text, encoding="utf-8")
        save_corpus(saved, _parse(source))
        with _no_parse():
            got = load_corpus(saved)
            labels = load_labels(saved)
        sidecar = _sidecar(saved).read_bytes()
        _sidecar(saved).unlink()
        want = load_corpus(saved)
        _assert_same(got, want)
        _assert_same(want, _parse(source))
        assert list(labels[1].items()) == list(_labels_of(want)[1].items())
        assert _sidecar(saved).read_bytes() == sidecar
        assert sorted(os.listdir(tmp)) == ["saved.jsonl", "saved.jsonl.cache", "source.jsonl"]


# -- the embedding sidecar ---------------------------------------------------


def _parse_table(path):
    """The reference: the embedding table as the parse reads it."""
    return corpus_module._load_embeddings_by_line(path, decode_lines(path, path.read_bytes()))


def _assert_same_table(got, want):
    """Same ids, in order and of type str, and the same matrix: value
    bytes, dtype, shape, writeability and C order."""
    (got_ids, got_vectors), (want_ids, want_vectors) = got, want
    assert got_ids == want_ids and all(type(sid) is str for sid in got_ids)
    assert (got_vectors.dtype, got_vectors.shape) == (want_vectors.dtype, want_vectors.shape)
    assert got_vectors.tobytes() == want_vectors.tobytes()
    assert got_vectors.flags.writeable == want_vectors.flags.writeable
    assert got_vectors.flags.c_contiguous == want_vectors.flags.c_contiguous


def _no_table_parse():
    """Inside it, a read that parses the embedding file fails the test."""
    return mock.patch.object(corpus_module, "_load_embeddings_by_line",
                             side_effect=AssertionError("the embedding file was parsed"))


TABLE_IDS = ["s0", "s1", "\u00e9t\u00e9", "s3", "\u2028", "s5"]


@pytest.fixture
def table_file(tmp_path):
    """An embedding file, with the sidecar ``save_embeddings`` wrote."""
    path = tmp_path / "emb.jsonl"
    save_embeddings(path, TABLE_IDS, np.random.default_rng(4).normal(size=(len(TABLE_IDS), 3)))
    return path


@pytest.fixture
def good_table_sidecar(table_file):
    return _sidecar(table_file).read_bytes()


class TestEmbeddingSidecarUse:
    def test_save_writes_it_and_reads_use_it(self, table_file, good_table_sidecar):
        want = _parse_table(table_file)
        with _no_table_parse():
            _assert_same_table(load_embeddings(table_file), want)
        _sidecar(table_file).unlink()
        _assert_same_table(load_embeddings(table_file), want)
        assert not _sidecar(table_file).exists()  # a read writes none
        # saving the table again writes the same bytes: a function of the file bytes
        save_embeddings(table_file, *want)
        assert _sidecar(table_file).read_bytes() == good_table_sidecar
        with _no_table_parse():
            _assert_same_table(load_embeddings(table_file), want)
        assert _leftovers(table_file.parent, "emb.jsonl") == []

    def test_header_holds_the_file_checksum_and_the_ids(self, table_file, good_table_sidecar):
        header = json.loads(good_table_sidecar.split(b"\n", 1)[0])
        ids, vectors = _parse_table(table_file)
        assert list(header) == ["format", "embeddings_sha256", "payload_sha256", "dim",
                                "segment_ids"]
        assert header["format"] == corpus_module._SIDECAR_FORMAT
        assert header["embeddings_sha256"] == hashlib.sha256(table_file.read_bytes()).hexdigest()
        assert (header["dim"], header["segment_ids"]) == (3, ids)
        assert good_table_sidecar.endswith(vectors.astype("<f8").tobytes())

    @pytest.mark.parametrize("file_mode", [0o600, 0o640, 0o666], ids=oct)
    def test_never_more_readable_than_the_file(self, table_file, file_mode):
        """The sidecar has the embedding file's permissions less the umask."""
        ids, vectors = _parse_table(table_file)
        os.chmod(table_file, file_mode)
        _sidecar(table_file).unlink()
        umask = os.umask(0o022)
        try:
            save_embeddings(table_file, ids, vectors)  # keeps the file's mode
        finally:
            os.umask(umask)
        mode = stat.S_IMODE(os.stat(_sidecar(table_file)).st_mode)
        assert mode == file_mode & ~0o022

    @pytest.mark.parametrize("ids, vectors, error", [
        ([1, 2], np.ones((2, 3)), ParseError),
        (["a", "b"], [[1.0, 2.0], [np.nan, 0.0]], NumericError),
        (["a", "a"], np.ones((2, 3)), DataError),
        ([], np.empty((0, 3)), None),
    ], ids=["integer ids", "NaN row", "duplicate ids", "no rows"])
    def test_no_sidecar_for_a_table_the_reader_rejects(self, table_file, ids, vectors, error):
        """Saving over a file with a sidecar leaves no sidecar that stands
        in for the parse; the reader's error is the parse's."""
        save_embeddings(table_file, ids, vectors)
        sidecar = _sidecar(table_file)
        stale = sidecar.read_bytes() if sidecar.exists() else None
        if error is None:
            assert load_embeddings(table_file)[0] == []
        else:
            with pytest.raises(error):
                load_embeddings(table_file)
        assert (sidecar.read_bytes() if sidecar.exists() else None) == stale
        sidecar.unlink(missing_ok=True)
        save_embeddings(table_file, ids, vectors)
        assert not sidecar.exists()
        assert _leftovers(table_file.parent, "emb.jsonl") == []


# Header changes a sidecar may not have, though both checksums hold; each is
# a function of the header and payload, giving the changes.
WRONG_TABLE_FIELDS = {
    "duplicate id": lambda h, v: {"segment_ids": [h["segment_ids"][0]] * len(v)},
    "integer id": lambda h, v: {"segment_ids": [7, *h["segment_ids"][1:]]},
    "null id": lambda h, v: {"segment_ids": [None, *h["segment_ids"][1:]]},
    "segment_ids an object": lambda h, v: {"segment_ids": {"a": 1}},
    "no ids": lambda h, v: {"segment_ids": [], "frames": b""},
    "NaN value": lambda h, v: {"frames": np.where(v == v[2, 1], np.nan, v).tobytes()},
    "inf value": lambda h, v: {"frames": np.where(v == v[0, 0], -np.inf, v).tobytes()},
    "d 0": lambda h, v: {"dim": 0},
    "d 0 and no payload": lambda h, v: {"dim": 0, "frames": b""},
    "d a string": lambda h, v: {"dim": "3"},
    "d a boolean": lambda h, v: {"dim": True},
    "d of another payload size": lambda h, v: {"dim": 2},
    "one id too few": lambda h, v: {"segment_ids": h["segment_ids"][1:]},
    "payload one row short": lambda h, v: {"frames": v[1:].tobytes()},
    "payload one value long": lambda h, v: {"frames": v.tobytes() + v[0, :1].tobytes()},
}


def _fault_of_table_fields(name):
    def fault(path, good):
        header = json.loads(good.split(b"\n", 1)[0])
        vectors = _parse_table(path)[1]
        _sidecar(path).write_bytes(_forge(good, **WRONG_TABLE_FIELDS[name](header, vectors)))
    return fault


def _corpus_sidecar_in_its_place(path, good):
    corpus = _write_corpus(path.with_name("corpus.jsonl"))
    load_corpus(corpus)
    os.replace(_sidecar(corpus), _sidecar(path))
    corpus.unlink()


def _text(ids, vectors):
    return "".join(json.dumps({"segment_id": sid, "vector": row}) + "\n"
                   for sid, row in zip(ids, vectors.tolist()))


# Edits of an embedding file after its sidecar was written, as functions of
# its table and text, giving the new text.
STALE_EDITS = {
    "a value": lambda ids, v, text: _text(ids, np.where(v == v[0, 0], 1.5, v)),
    "an id": lambda ids, v, text: _text(["s9", *ids[1:]], v),
    "a line appended": lambda ids, v, text: text + '{"segment_id": "x", "vector": [1, 2, 3]}\n',
    "CRLF lines": lambda ids, v, text: text.replace("\n", "\r\n"),
}


TABLE_FAULTS = {
    "empty": _truncated(lambda b: 0),
    "truncated in the checksums": _truncated(lambda b: 100),
    "truncated in the ids": _truncated(lambda b: _header_end(b) - 10),
    "header only": _truncated(_header_end),
    "truncated in the payload": _truncated(lambda b: (_header_end(b) + len(b)) // 2),
    "payload byte flipped": lambda path, good: _sidecar(path).write_bytes(
        _flip(good, _header_end(good) + 3)),
    "header byte flipped": lambda path, good: _sidecar(path).write_bytes(
        _flip(good, _header_end(good) - 4)),
    "another format version": _other_format,
    "a corpus sidecar in its place": _corpus_sidecar_in_its_place,
    "headed as a corpus sidecar": lambda path, good: _sidecar(path).write_bytes(
        _forge(good, kind="corpus")),
    **{f"forged: {name}": _fault_of_table_fields(name) for name in WRONG_TABLE_FIELDS},
}


class TestBrokenEmbeddingSidecar:
    def test_forging_reproduces_the_writer(self, good_table_sidecar):
        assert _forge(good_table_sidecar) == good_table_sidecar

    @pytest.mark.parametrize("fault", TABLE_FAULTS)
    def test_falls_back_to_the_parse_until_saved_again(
        self, table_file, good_table_sidecar, fault
    ):
        """The read parses and leaves the broken sidecar as it is; saving
        the table again repairs it."""
        want = _parse_table(table_file)
        TABLE_FAULTS[fault](table_file, good_table_sidecar)
        broken = _sidecar(table_file).read_bytes()
        assert broken != good_table_sidecar
        _assert_same_table(load_embeddings(table_file), want)
        assert _sidecar(table_file).read_bytes() == broken
        save_embeddings(table_file, *want)
        assert _sidecar(table_file).read_bytes() == good_table_sidecar
        assert _leftovers(table_file.parent, "emb.jsonl") == []

    @pytest.mark.parametrize("edit", STALE_EDITS)
    def test_stale_after_the_file_is_edited(self, table_file, good_table_sidecar, edit):
        """The sidecar of the file before an edit is not used: the edited
        file is parsed, on every read, and the stale sidecar left as it is."""
        ids, vectors = _parse_table(table_file)
        text = STALE_EDITS[edit](ids, vectors, table_file.read_text(encoding="utf-8"))
        table_file.write_bytes(text.encode("utf-8"))
        want = _parse_table(table_file)
        for _ in range(2):
            _assert_same_table(load_embeddings(table_file), want)
            assert _sidecar(table_file).read_bytes() == good_table_sidecar

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_replace_raises(self, table_file, monkeypatch, error):
        """A failed sidecar write leaves no sidecar and no temporary file;
        an OSError is no error of the save."""
        table = _parse_table(table_file)
        _sidecar(table_file).unlink()

        def replace(src, dst):
            assert Path(src).is_file()  # the complete temporary file
            raise error("replace failed")

        monkeypatch.setattr(os, "replace", replace)
        if error is OSError:
            save_embeddings(table_file, *table)
        else:
            with pytest.raises(KeyboardInterrupt):
                save_embeddings(table_file, *table)
        assert _leftovers(table_file.parent, "emb.jsonl") == []
        assert not _sidecar(table_file).exists()
        monkeypatch.undo()
        _assert_same_table(load_embeddings(table_file), table)


FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
          | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]))


@st.composite
def _tables(draw):
    """An embedding table the reader accepts: 1-4 unique ids, non-ASCII
    among them, and d from 1 to 3."""
    ids = draw(st.lists(IDS, min_size=1, max_size=4, unique=True))
    dim = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(FLOATS, min_size=dim, max_size=dim),
                         min_size=len(ids), max_size=len(ids)))
    return ids, np.array(rows, dtype=np.float64)


@settings(max_examples=100, deadline=None)
@given(_tables())
@example((["\u00e9\u2028", "x"], np.array([[-0.0], [5e-324]])))
@example((["s"], np.array([[1e308, -0.0, 5e-324]])))
def test_embedding_sidecar_reads_equal_the_parse(table):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "emb.jsonl"
        save_embeddings(path, *table)
        sidecar = _sidecar(path).read_bytes()
        with _no_table_parse():
            got = load_embeddings(path)
        _sidecar(path).unlink()
        want = load_embeddings(path)
        _assert_same_table(got, want)
        assert got[0] == table[0]
        assert got[1].tobytes() == table[1].tobytes()
        assert not _sidecar(path).exists()
        save_embeddings(path, *want)
        assert _sidecar(path).read_bytes() == sidecar


def test_sidecar_is_that_of_the_bytes_parsed(tmp_path, monkeypatch):
    """A corpus file rewritten after ``load_corpus`` has read it gets the
    sidecar of the bytes that were read and parsed; the next read, of the
    new bytes, does not use it, parses them and replaces it."""
    path, other = tmp_path / "corpus.jsonl", _write_corpus(tmp_path / "other.jsonl", seed=6)
    first = _write_corpus(path).read_bytes()
    want = _parse(path)
    parse = corpus_module._parse_corpus

    def rewritten_after_the_read(name, lines):
        path.write_bytes(other.read_bytes())
        return parse(name, lines)

    monkeypatch.setattr(corpus_module, "_parse_corpus", rewritten_after_the_read)
    _assert_same(load_corpus(path), want)
    monkeypatch.undo()
    header = json.loads(_sidecar(path).read_bytes().split(b"\n", 1)[0])
    assert header["corpus_sha256"] == hashlib.sha256(first).hexdigest()
    assert load_labels(path) == _labels_of(_parse(other))
    load_corpus(other)
    assert _sidecar(path).read_bytes() == _sidecar(other).read_bytes()


# -- the checkpoint sidecar -------------------------------------------------


DIMS = ModelDims(feature_dim=3, embed_dim=4, enc_hidden=5, refine_hidden=2)
META = {"kind": "disentangled", "dims": dict(vars(DIMS)), "note": "\u00e9t\u00e9", "steps": [1, -0.0]}


def _parse_checkpoint(path):
    """The reference: the checkpoint as the parse reads it."""
    return neuralcore._parse_checkpoint(path, Path(path).read_bytes())


def _assert_same_checkpoint(got, want):
    """Same meta, components in order, keys in order, shapes and array
    bits; each component's arrays are views of its own writable flat."""
    (got_components, got_meta), (want_components, want_meta) = got, want
    assert json.dumps(got_meta) == json.dumps(want_meta)
    assert list(got_components) == list(want_components)
    for name, params in got_components.items():
        other = want_components[name]
        assert params.name == other.name == name
        assert [(k, a.shape) for k, a in params.arrays.items()] == [
            (k, a.shape) for k, a in other.arrays.items()]
        assert params.flat.tobytes() == other.flat.tobytes()
        assert params.flat.dtype == np.float64 and params.flat.flags.writeable
        assert all(a.base is params.flat for a in params.arrays.values() if a.size)


def _no_checkpoint_parse():
    """Inside it, a read that parses the checkpoint fails the test."""
    return mock.patch.object(neuralcore, "_parse_checkpoint",
                             side_effect=AssertionError("the checkpoint was parsed"))


def _components():
    return {"E_p": init_encoder(DIMS, 0), "refine": init_refine(DIMS, 1)}


@pytest.fixture
def checkpoint_file(tmp_path):
    """A checkpoint, with the sidecar ``save_checkpoint`` wrote."""
    path = tmp_path / "model.json"
    save_checkpoint(path, _components(), META)
    return path


@pytest.fixture
def good_checkpoint_sidecar(checkpoint_file):
    return _sidecar(checkpoint_file).read_bytes()


def _outcome(read, path):
    """What ``read(path)`` returns, or the type and message of the
    SegembedError it raises."""
    try:
        return "returned", read(path)
    except SegembedError as exc:
        return "raised", (type(exc), str(exc))


def _assert_same_outcome(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "returned":
        _assert_same_checkpoint(got[1], want[1])
    else:
        assert got[1] == want[1]


class TestCheckpointSidecarUse:
    def test_save_writes_it_and_reads_use_it(self, checkpoint_file, good_checkpoint_sidecar):
        want = _parse_checkpoint(checkpoint_file)
        with _no_checkpoint_parse():
            _assert_same_checkpoint(load_checkpoint(checkpoint_file), want)
        _sidecar(checkpoint_file).unlink()
        _assert_same_checkpoint(load_checkpoint(checkpoint_file), want)
        assert not _sidecar(checkpoint_file).exists()  # a read writes none
        save_checkpoint(checkpoint_file, *want)
        assert _sidecar(checkpoint_file).read_bytes() == good_checkpoint_sidecar
        assert _leftovers(checkpoint_file.parent, "model.json") == []

    def test_the_json_is_what_it_was(self, checkpoint_file):
        components = _components()
        doc = {"meta": META, "components": {
            name: {key: {"shape": list(a.shape), "data": a.ravel().tolist()}
                   for key, a in params.arrays.items()}
            for name, params in components.items()}}
        assert checkpoint_file.read_bytes() == json.dumps(doc).encode()

    def test_header_holds_the_file_checksum_and_the_shapes(
        self, checkpoint_file, good_checkpoint_sidecar
    ):
        header = json.loads(good_checkpoint_sidecar.split(b"\n", 1)[0])
        components = _components()
        assert list(header) == ["format", "checkpoint_sha256", "payload_sha256", "meta",
                                "shapes"]
        assert header["format"] == corpus_module._SIDECAR_FORMAT
        assert header["checkpoint_sha256"] == hashlib.sha256(
            checkpoint_file.read_bytes()).hexdigest()
        assert header["meta"] == json.loads(json.dumps(META))
        assert header["shapes"] == {
            name: {key: list(a.shape) for key, a in params.arrays.items()}
            for name, params in components.items()}
        payload = np.concatenate([params.flat for params in components.values()])
        assert good_checkpoint_sidecar.endswith(payload.astype("<f8").tobytes())

    @pytest.mark.parametrize("file_mode", [0o600, 0o640, 0o666], ids=oct)
    def test_never_more_readable_than_the_checkpoint(self, checkpoint_file, file_mode):
        """The sidecar has the checkpoint's permissions less the umask."""
        os.chmod(checkpoint_file, file_mode)
        _sidecar(checkpoint_file).unlink()
        umask = os.umask(0o022)
        try:
            save_checkpoint(checkpoint_file, _components(), META)  # keeps the file's mode
        finally:
            os.umask(umask)
        mode = stat.S_IMODE(os.stat(_sidecar(checkpoint_file)).st_mode)
        assert mode == file_mode & ~0o022

    @pytest.mark.parametrize("components, meta", [
        (_components(), [1]),
        ({1: init_refine(DIMS, 1)}, {}),
        ({"c": SimpleNamespace(arrays={0: np.zeros(2)})}, {}),
        ({"c": SimpleNamespace(arrays={"w": np.arange(3)})}, {}),
        ({"c": SimpleNamespace(arrays={"w": np.array([True, False])})}, {}),
        ({"c": SimpleNamespace(arrays={"w": np.array([0.5, np.inf])})}, {}),
    ], ids=["meta a list", "component name an int", "array key an int", "int array",
            "boolean array", "non-finite array"])
    def test_no_sidecar_unless_read_back_as_saved(self, checkpoint_file, components, meta):
        """Saved over a file with a sidecar, a checkpoint that the read does
        not give back as it was saved leaves that stale sidecar as it is;
        the read is the parse, result or error."""
        stale = _sidecar(checkpoint_file).read_bytes()
        save_checkpoint(checkpoint_file, components, meta)
        want = _outcome(_parse_checkpoint, checkpoint_file)
        for _ in range(2):
            _assert_same_outcome(_outcome(load_checkpoint, checkpoint_file), want)
            assert _sidecar(checkpoint_file).read_bytes() == stale
        _sidecar(checkpoint_file).unlink()
        save_checkpoint(checkpoint_file, components, meta)
        assert not _sidecar(checkpoint_file).exists()
        assert _leftovers(checkpoint_file.parent, "model.json") == []


def _shapes(edit):
    """A header change: ``edit`` applied to a copy of the shapes."""
    def change(header, payload):
        shapes = json.loads(json.dumps(header["shapes"]))
        edit(shapes)
        return {"shapes": shapes}
    return change


def _set_shape(name, key, shape):
    return _shapes(lambda shapes: shapes[name].__setitem__(key, shape(shapes[name][key])))


# Header changes a checkpoint sidecar may not have, though both checksums
# hold; each is a function of the header and payload, giving the changes.
WRONG_CHECKPOINT_FIELDS = {
    "meta a list": lambda h, p: {"meta": [h["meta"]]},
    "meta null": lambda h, p: {"meta": None},
    "shapes a list": lambda h, p: {"shapes": list(h["shapes"].values())},
    "component a list": _shapes(lambda s: s.__setitem__("refine", list(s["refine"].values()))),
    "shape a string": _set_shape("E_p", "b_in", str),
    "shape an int": _set_shape("E_p", "b_in", lambda shape: shape[0]),
    "shape entry a boolean": _set_shape("E_p", "b_in", lambda shape: [True] * len(shape)),
    "shape entry a float": _set_shape("E_p", "b_in", lambda shape: [float(n) for n in shape]),
    "shape entries negative": _set_shape("E_p", "w_in", lambda shape: [-n for n in shape]),
    "shape of another size": _set_shape("E_p", "w_in", lambda shape: [shape[0] + 1, shape[1]]),
    "shape of rank 65": _set_shape("E_p", "b_in", lambda shape: [1] * 64 + shape),
    "no payload": lambda h, p: {"frames": b""},
    "payload one value short": lambda h, p: {"frames": p[:-8]},
    "payload one value long": lambda h, p: {"frames": p + p[:8]},
    "NaN value": lambda h, p: {"frames": np.full(len(p) // 8, np.nan).tobytes()},
}


def _fault_of_checkpoint_fields(name):
    def fault(path, good):
        line, payload = good.split(b"\n", 1)
        header = json.loads(line)
        _sidecar(path).write_bytes(_forge(good, **WRONG_CHECKPOINT_FIELDS[name](header, payload)))
    return fault


CHECKPOINT_FAULTS = {
    "empty": _truncated(lambda b: 0),
    "truncated in the checksums": _truncated(lambda b: 100),
    "truncated in the shapes": _truncated(lambda b: _header_end(b) - 10),
    "header only": _truncated(_header_end),
    "truncated in the payload": _truncated(lambda b: (_header_end(b) + len(b)) // 2),
    "payload byte flipped": lambda path, good: _sidecar(path).write_bytes(
        _flip(good, _header_end(good) + 3)),
    "last payload byte flipped": lambda path, good: _sidecar(path).write_bytes(
        _flip(good, len(good) - 1)),
    "header byte flipped": lambda path, good: _sidecar(path).write_bytes(
        _flip(good, _header_end(good) - 4)),
    "byte appended": lambda path, good: _sidecar(path).write_bytes(good + b"\0"),
    "another format version": _other_format,
    "headed as an embedding sidecar": lambda path, good: _sidecar(path).write_bytes(
        _forge(good, kind="embeddings")),
    **{f"forged: {name}": _fault_of_checkpoint_fields(name) for name in WRONG_CHECKPOINT_FIELDS},
}


def _checkpoint_text(edit):
    """An edit of a checkpoint's text: ``edit`` applied to its document."""
    def change(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)
    return change


# Edits of a checkpoint after its sidecar was written, as functions of its
# text, giving the new text: a checkpoint the parse reads, or one it rejects.
STALE_CHECKPOINT_EDITS = {
    "a value": _checkpoint_text(
        lambda doc: doc["components"]["E_p"]["b_in"]["data"].__setitem__(0, 1.5)),
    "the meta": _checkpoint_text(lambda doc: doc["meta"].__setitem__("note", "x")),
    "a component dropped": _checkpoint_text(lambda doc: doc["components"].pop("refine")),
    "CRLF and indented": lambda text: json.dumps(json.loads(text), indent=1).replace("\n", "\r\n"),
    "truncated": lambda text: text[:-2],
    "a data key missing": _checkpoint_text(lambda doc: doc["components"]["E_p"]["w_in"].pop("data")),
    "a value a boolean": _checkpoint_text(
        lambda doc: doc["components"]["refine"]["b1"]["data"].__setitem__(1, True)),
    "a value not finite": lambda text: text.replace(
        '"data": [', '"data": [NaN, ', 1).replace('"shape": [3, 5]', '"shape": [16]', 1),
}


class TestBrokenCheckpointSidecar:
    def test_forging_reproduces_the_writer(self, good_checkpoint_sidecar):
        assert _forge(good_checkpoint_sidecar) == good_checkpoint_sidecar

    @pytest.mark.parametrize("fault", CHECKPOINT_FAULTS)
    def test_falls_back_to_the_parse_until_saved_again(
        self, checkpoint_file, good_checkpoint_sidecar, fault
    ):
        """The read parses and leaves the broken sidecar as it is; saving
        the checkpoint again repairs it."""
        want = _parse_checkpoint(checkpoint_file)
        CHECKPOINT_FAULTS[fault](checkpoint_file, good_checkpoint_sidecar)
        broken = _sidecar(checkpoint_file).read_bytes()
        assert broken != good_checkpoint_sidecar
        _assert_same_checkpoint(load_checkpoint(checkpoint_file), want)
        assert _sidecar(checkpoint_file).read_bytes() == broken
        save_checkpoint(checkpoint_file, *want)
        assert _sidecar(checkpoint_file).read_bytes() == good_checkpoint_sidecar
        assert _leftovers(checkpoint_file.parent, "model.json") == []

    def test_every_header_byte_flipped(self, checkpoint_file, good_checkpoint_sidecar):
        want = _parse_checkpoint(checkpoint_file)
        for i in range(_header_end(good_checkpoint_sidecar)):
            _sidecar(checkpoint_file).write_bytes(_flip(good_checkpoint_sidecar, i))
            _assert_same_checkpoint(load_checkpoint(checkpoint_file), want)

    @pytest.mark.parametrize("edit", STALE_CHECKPOINT_EDITS)
    def test_stale_after_the_file_is_edited(self, checkpoint_file, good_checkpoint_sidecar, edit):
        """The sidecar of the checkpoint before an edit is not used: the
        edited file is parsed, on every read, with the parse's result or
        error, and the stale sidecar left as it is."""
        text = STALE_CHECKPOINT_EDITS[edit](checkpoint_file.read_text(encoding="utf-8"))
        checkpoint_file.write_bytes(text.encode("utf-8"))
        want = _outcome(_parse_checkpoint, checkpoint_file)
        for _ in range(2):
            _assert_same_outcome(_outcome(load_checkpoint, checkpoint_file), want)
            assert _sidecar(checkpoint_file).read_bytes() == good_checkpoint_sidecar

    def test_directory_at_the_sidecar_path(self, checkpoint_file):
        want = _parse_checkpoint(checkpoint_file)
        _sidecar(checkpoint_file).unlink()
        _sidecar(checkpoint_file).mkdir()
        save_checkpoint(checkpoint_file, *want)
        _assert_same_checkpoint(load_checkpoint(checkpoint_file), want)
        assert _sidecar(checkpoint_file).is_dir()
        assert _leftovers(checkpoint_file.parent, "model.json") == []

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_replace_raises(self, checkpoint_file, monkeypatch, error):
        """A failed sidecar write leaves no sidecar and no temporary file;
        an OSError is no error of the save."""
        want = _parse_checkpoint(checkpoint_file)
        _sidecar(checkpoint_file).unlink()

        def replace(src, dst):
            assert Path(src).is_file()  # the complete temporary file
            raise error("replace failed")

        monkeypatch.setattr(os, "replace", replace)
        if error is OSError:
            save_checkpoint(checkpoint_file, *want)
        else:
            with pytest.raises(KeyboardInterrupt):
                save_checkpoint(checkpoint_file, *want)
        assert _leftovers(checkpoint_file.parent, "model.json") == []
        assert not _sidecar(checkpoint_file).exists()
        monkeypatch.undo()
        _assert_same_checkpoint(load_checkpoint(checkpoint_file), want)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | FLOATS | st.text(max_size=4),
    lambda values: st.lists(values, max_size=3) | st.dictionaries(st.text(max_size=3), values,
                                                                  max_size=3),
    max_leaves=8)


@st.composite
def _checkpoints(draw):
    """Components and meta that ``load_checkpoint`` reads back as saved:
    1-3 components of 0-3 arrays, each of rank 0-3 with sizes from 0, and
    a JSON object of meta, non-ASCII among names, keys and strings."""
    components = {}
    for name in draw(st.lists(IDS, min_size=1, max_size=3, unique=True)):
        arrays = {}
        for key in draw(st.lists(IDS, max_size=3, unique=True)):
            shape = draw(st.lists(st.integers(0, 3), max_size=3))
            values = draw(st.lists(FLOATS, min_size=math.prod(shape), max_size=math.prod(shape)))
            arrays[key] = np.array(values, dtype=np.float64).reshape(shape)
        components[name] = ComponentParams(name, arrays)
    return components, draw(st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=4))


@settings(max_examples=100, deadline=None)
@given(_checkpoints())
def test_checkpoint_sidecar_reads_equal_the_parse(checkpoint):
    components, meta = checkpoint
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_checkpoint(path, components, meta)
        sidecar = _sidecar(path).read_bytes()
        with _no_checkpoint_parse():
            got = load_checkpoint(path)
        _sidecar(path).unlink()
        want = load_checkpoint(path)
        _assert_same_checkpoint(got, want)
        assert json.dumps(got[1]) == json.dumps(meta)
        for name, params in components.items():
            assert [(k, a.shape) for k, a in got[0][name].arrays.items()] == [
                (k, a.shape) for k, a in params.arrays.items()]
            assert got[0][name].flat.tobytes() == params.flat.tobytes()
        assert not _sidecar(path).exists()
        save_checkpoint(path, *want)
        assert _sidecar(path).read_bytes() == sidecar


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
class TestNoSidecarBesideASymlink:
    """A path that is a symbolic link, here to ``/proc/self/fd/N`` of an
    open regular file as ``/dev/stdin`` is when a file is redirected to
    it, gets no sidecar: not beside the link, nor beside the file."""

    @staticmethod
    def _through_link(tmp_path, data, use):
        """``use(link)`` on a link to ``/proc/self/fd/N`` of a file holding
        ``data``; returns its result and the file's bytes after it."""
        target = tmp_path / "target" / "file"
        target.parent.mkdir()
        target.write_bytes(data)
        fd = os.open(target, os.O_RDONLY)
        try:
            link = tmp_path / "link.jsonl"
            link.symlink_to(f"/proc/self/fd/{fd}")
            result = use(link)
        finally:
            os.close(fd)
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
            "link.jsonl", "target", "target/file"]
        return result, target.read_bytes()

    @pytest.mark.parametrize("reader", ["load_corpus", "load_labels"])
    def test_corpus_read(self, tmp_path, reader):
        data = _write_corpus(tmp_path / "plain.jsonl").read_bytes()
        want = _parse(tmp_path / "plain.jsonl")
        (tmp_path / "plain.jsonl").unlink()
        got, _ = self._through_link(tmp_path, data, getattr(corpus_module, reader))
        if reader == "load_corpus":
            _assert_same(got, want)
        else:
            assert got == _labels_of(want)

    @pytest.mark.parametrize("writer", ["save_corpus", "save_embeddings", "save_checkpoint"])
    def test_save(self, tmp_path, writer):
        with tempfile.TemporaryDirectory() as tmp:
            corpus = _parse(_write_corpus(Path(tmp) / "corpus.jsonl"))
            save = {"save_corpus": lambda path: save_corpus(path, corpus),
                    "save_embeddings": lambda path: save_embeddings(
                        path, ["a", "b"], np.array([[0.5, -1.0], [2.0, 0.25]])),
                    "save_checkpoint": lambda path: save_checkpoint(path, _components(), META),
                    }[writer]
            plain = Path(tmp) / "plain"
            save(plain)
            _, written = self._through_link(tmp_path, b"", save)
            assert written == plain.read_bytes()


def _through_fifo(fifo, other_end, run, timeout=20):
    """``run()`` on the FIFO ``fifo`` while ``other_end`` runs on it (a
    FIFO's open waits for its other end), each in a daemon thread, so that
    an end that waits for ever fails the test instead of stalling it;
    returns what each end returned, and raises what ``run()`` raised."""
    outcomes = {}

    def call(end, fn):
        try:
            outcomes[end] = (True, fn())
        except BaseException as exc:  # handed to the test's thread
            outcomes[end] = (False, exc)

    threads = [threading.Thread(target=call, args=end, daemon=True)
               for end in (("run", run), ("other", other_end))]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + timeout
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    assert len(outcomes) == 2, f"an end of the FIFO did not finish: {sorted(outcomes)} did"
    (ran, result), (_, got) = outcomes["run"], outcomes["other"]
    if not ran:
        raise result
    return result, got


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
class TestNoSidecarBesideAFifo:
    """A file that is not a regular one, a FIFO like ``/dev/stdin`` or
    ``/dev/stdout``, is read once and gets no sidecar, from a save or from
    a read."""

    def test_save_embeddings(self, tmp_path):
        fifo = tmp_path / "emb.jsonl"
        os.mkfifo(fifo)
        table = (["a", "b"], np.array([[0.5, -1.0], [2.0, 0.25]]))
        _, text = _through_fifo(fifo, fifo.read_bytes, lambda: save_embeddings(fifo, *table))
        plain = tmp_path / "plain.jsonl"
        save_embeddings(plain, *table)
        assert text == plain.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "emb.jsonl", "plain.jsonl", "plain.jsonl.cache"]

    def test_save_checkpoint(self, tmp_path):
        fifo = tmp_path / "model.json"
        os.mkfifo(fifo)
        _, text = _through_fifo(fifo, fifo.read_bytes,
                                lambda: save_checkpoint(fifo, _components(), META))
        plain = tmp_path / "plain.json"
        save_checkpoint(plain, _components(), META)
        assert text == plain.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "model.json", "plain.json", "plain.json.cache"]

    @pytest.mark.parametrize("reader", ["load_corpus", "load_labels", "load_embeddings",
                                        "load_checkpoint"])
    def test_read(self, tmp_path, reader):
        plain = tmp_path / "plain.jsonl"
        if reader == "load_embeddings":
            plain.write_text('{"segment_id": "a", "vector": [0.5, 1.0]}\n')
        elif reader == "load_checkpoint":
            save_checkpoint(plain, _components(), META)
            _sidecar(plain).unlink()
        else:
            want = _parse(_write_corpus(plain))
        fifo = tmp_path / "file.jsonl"
        os.mkfifo(fifo)
        read = load_checkpoint if reader == "load_checkpoint" else getattr(corpus_module, reader)
        got, _ = _through_fifo(fifo, lambda: fifo.write_bytes(plain.read_bytes()),
                               lambda: read(fifo))
        if reader == "load_checkpoint":
            _assert_same_checkpoint(got, _parse_checkpoint(plain))
        elif reader == "load_corpus":
            _assert_same(got, want)
        elif reader == "load_labels":
            assert got == _labels_of(want)
        else:
            _assert_same_table(got, _parse_table(plain))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file.jsonl", "plain.jsonl"]

    @pytest.mark.parametrize("reader", ["load_corpus", "load_labels", "load_embeddings"])
    def test_bytes_not_utf8(self, tmp_path, reader):
        fifo = tmp_path / "file.jsonl"
        os.mkfifo(fifo)
        with pytest.raises(ParseError, match=r"file\.jsonl: not valid UTF-8 at byte 0 \(line 1\)"):
            _through_fifo(fifo, lambda: fifo.write_bytes(b"\xff"),
                          lambda: getattr(corpus_module, reader)(fifo))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file.jsonl"]


# -- one open per read -------------------------------------------------------


def _corpus_case(tmp_path, kind):
    path = tmp_path / "corpus.jsonl"
    if kind in ("sidecar hit", "miss"):
        _write_corpus(path)
        if kind == "sidecar hit":
            load_corpus(path)
    else:
        path.write_bytes(b'{"segment_id": "ok"...\n' if kind == "parse error" else b"\xff\n")
    return path


def _table_case(tmp_path, kind):
    path = tmp_path / "emb.jsonl"
    if kind in ("sidecar hit", "miss"):
        save_embeddings(path, ["a", "b"], np.array([[0.5, 1.0], [2.0, -1.0]]))
        if kind == "miss":
            _sidecar(path).unlink()
    else:
        path.write_bytes(b'{"segment_id": "a", "vector": [1, 2\n' if kind == "parse error"
                         else b"\xff\n")
    return path


def _checkpoint_case(tmp_path, kind):
    path = tmp_path / "model.json"
    if kind in ("sidecar hit", "miss"):
        save_checkpoint(path, _components(), META)
        if kind == "miss":
            _sidecar(path).unlink()
    else:
        path.write_bytes(b'{"components": {' if kind == "parse error" else b"\xff\n")
    return path


def _config_case(tmp_path, kind):
    path = tmp_path / "run.cfg"
    path.write_bytes({"parse error": b"seed 3\n", "not UTF-8": b"\xff\n"}.get(kind, b"seed = 3\n"))
    return path


READERS = {"load_corpus": (load_corpus, _corpus_case),
           "load_labels": (load_labels, _corpus_case),
           "load_embeddings": (load_embeddings, _table_case),
           "load_checkpoint": (load_checkpoint, _checkpoint_case),
           "parse_config": (config_module.parse_config, _config_case)}


@pytest.mark.parametrize("kind", ["sidecar hit", "miss", "parse error", "not UTF-8"])
@pytest.mark.parametrize("reader", READERS)
def test_every_read_opens_its_file_once(tmp_path, monkeypatch, reader, kind):
    """A read opens its input once, whatever it finds there, so that a pipe
    or a FIFO reads as a regular file does; opening a sidecar is not
    counted. A config file has no sidecar: its hit is its miss."""
    read, make = READERS[reader]
    path = os.fspath(make(tmp_path, kind))
    opened = []

    def counting_open(file, *args, **kwargs):
        if os.fspath(file) == path:
            opened.append(file)
        return open(file, *args, **kwargs)

    for module in (corpus_module, config_module):
        monkeypatch.setattr(module, "open", counting_open, raising=False)
    if kind in ("sidecar hit", "miss"):
        read(path)
    else:
        with pytest.raises(SegembedError):
            read(path)
    assert len(opened) == 1
