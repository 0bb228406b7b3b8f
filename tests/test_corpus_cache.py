"""The corpus sidecar, ``<corpus path>.cache``: what ``load_corpus`` and
``load_labels`` build from it equals what the parse builds, and a sidecar
that is broken, stale, unreadable or unwritable only costs the parse."""

import hashlib
import json
import os
import stat
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segembed import corpus as corpus_module
from segembed.corpus import (
    LEVELS,
    SynthConfig,
    load_corpus,
    load_labels,
    read_text_lines,
    save_corpus,
    synth_corpus,
)
from segembed.errors import ParseError


def _sidecar(path):
    return path.with_name(path.name + ".cache")


def _parse(path):
    """The reference: the corpus as the parse path reads it."""
    return corpus_module._parse_corpus(path, read_text_lines(path))


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


def _leftovers(directory):
    """Files in ``directory`` other than a corpus and its sidecar."""
    return sorted(p.name for p in directory.iterdir()
                  if p.name not in ("corpus.jsonl", "corpus.jsonl.cache"))


def _write_corpus(path, seed=5, **synth):
    cfg = dict(n_units=3, n_speakers=2, instances_per_unit_speaker=2, feature_dim=4,
               length_range=(1, 4))
    save_corpus(path, synth_corpus(SynthConfig(**{**cfg, **synth}), seed))
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
        assert not _sidecar(corpus_file).exists()  # save_corpus writes none
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


def _forge(blob, **changes):
    """``blob``, a sidecar, with ``changes`` to its header fields and both
    checksums made to hold again, as the writer makes them."""
    line, frames = blob.split(b"\n", 1)
    frames = changes.pop("frames", frames)
    header = {**json.loads(line), **changes}
    rest = {k: header[k] for k in ("feature_dim", "level", "segments")}
    tail = f", {json.dumps(rest)[1:]}\n".encode() + frames
    head = corpus_module._sidecar_head(header["corpus_sha256"],
                                       hashlib.sha256(tail).hexdigest())
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
