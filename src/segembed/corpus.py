"""Segment corpus: data model, JSONL ingestion/serialization, synthetic
corpus generation, and mini-batch construction.

A corpus file is UTF-8 JSON-lines, one object per segment with string keys
``segment_id``, ``utterance_id`` and ``level``, string-or-null keys
``speaker_id`` and ``unit_label``, and ``features`` (array of T arrays of F
numbers). ``load_corpus`` reads all of it; ``load_labels`` reads its level
and labels, which a sidecar (below) holds without a frame, and otherwise
parses the file as ``load_corpus`` does, with its checks and errors. A
``Corpus`` packs the frames of its segments once, in order, into one
read-only matrix: the one layout that training, embedding and the sidecar
read, and the one copy of the frames, of which each of its segments'
features is a read-only view.
An embedding file is JSON-lines with keys ``segment_id`` (a string) and
``vector`` (a non-empty array of numbers); in memory it is one table: the
ids as a list of str and the vectors as the rows of one (N, d) float64
matrix. Both round-trip bit-exactly at double precision.

A parsed or saved file is kept beside it as ``<path>.cache``, a sidecar,
so that later reads skip the JSON: a one-line ASCII JSON header, then one
payload of little-endian float64, row-major. The header is ``{"format": V,
"<kind>_sha256": S, "payload_sha256": P, ...}``, keys in that order: V is
the version of the sidecar's layout and of the parse rules it was written
under, S the sha256 of the file's bytes, and P the sha256 of every byte
after P's closing quote, the rest of the header and the payload, so that a
changed byte anywhere is caught. A sidecar is a function of the file bytes
alone, and there are three kinds:

- ``corpus``: the header goes on with ``"feature_dim": F, "level": L,
  "segments": [[segment_id, utterance_id, speaker_id, unit_label, T],
  ...]``, and the payload is the packed frames (``Corpus.frames``).
  ``save_corpus`` writes it, hashing the bytes it wrote (a ``Segment``'s
  ids and labels have the types the parse requires, so every saved corpus
  reads back); ``load_corpus`` and ``load_labels`` write it once they have
  parsed the file and every check has passed. Either way its bytes are
  the same.
- ``embeddings``: the header goes on with ``"dim": d, "segment_ids":
  [...]``, and the payload is the (N, d) matrix. Only ``save_embeddings``
  writes it, beside the file, hashing the bytes it wrote, and only for a
  table that ``load_embeddings`` returns: at least one row, unique string
  ids, d >= 1 and every value finite. ``load_embeddings`` writes nothing.
- ``checkpoint``: the header goes on with ``"meta": {...}, "shapes":
  {component: {key: shape, ...}, ...}``, components and keys in storage
  order, and the payload is every array in that order. Only
  ``neuralcore.save_checkpoint`` writes it, hashing the bytes it wrote,
  and only when ``neuralcore.load_checkpoint`` reads those bytes back as
  they were saved: a meta dict, string component names and keys, and
  float64 arrays of finite values. ``load_checkpoint`` writes nothing.

A reader uses a sidecar only when V is this module's version, the kind
and S are those of the file it reads, P holds, and the header's fields
have the documented types and sizes: for a corpus, a known level, F >= 1,
every T >= 1, unique segment ids and a payload of sum T x F values.
``load_corpus`` then makes one aligned float64 copy of the payload, checks
it once for finite values and builds the ``Corpus`` over it, each segment
a read-only view of its rows, with no check per segment and no second
copy; a non-finite value leaves the decision to the parse.
``load_embeddings`` builds its table through the checks on ids and values
above, and ``load_checkpoint`` through ``ComponentParams``. Otherwise the
file, which stays the reference, is parsed, with its errors and line
numbers, and a corpus sidecar is rewritten. Every reader opens its file
once and parses the bytes it hashed, so a pipe or a FIFO reads as a
regular file does; bytes that are not UTF-8 are a ParseError naming their
offset. A sidecar is written only beside a path that is itself a regular
file (``os.lstat``): never beside a device, a FIFO or a symbolic link, so
neither ``/dev/stdin`` nor a symlinked corpus gets one. The write goes through a
temporary file in the same directory, with the file's permissions less
the umask, and ``os.replace``; an ``OSError`` on the way leaves no sidecar
and no temporary file, and is not an error of the read or the save. A
sidecar is never required: deleting it is always safe.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import stat
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DECODE_ERRORS,
    ConfigError,
    DataError,
    DimensionError,
    EmptyCorpusError,
    NumericError,
    ParseError,
    SegembedError,
    has_bool_literal,
    json_numbers,
)
from .seeding import check_fields, rng_for, seeded_rng

__all__ = [
    "Corpus", "Segment", "SynthConfig", "load_corpus", "load_embeddings",
    "make_batches", "save_corpus", "save_embeddings", "split_corpus", "synth_corpus",
]

LEVELS = ("word", "syllable", "phoneme")
# Metadata keys of a corpus record: (key, may be null). Keys that may not be
# null must be present.
_RECORD_KEYS = (
    ("segment_id", False),
    ("utterance_id", False),
    ("speaker_id", True),
    ("unit_label", True),
    ("level", False),
)

UTTERANCE_GROUP = 10  # segments per synthetic utterance


def _check_level(segment_id, level) -> None:
    if level not in LEVELS:
        raise DataError(
            f"segment {segment_id!r}: level must be one of {LEVELS}, got {level!r}"
        )


def _type_error(key: str, value, nullable: bool):
    """The message "<key> must be ..." when ``value``, of the record key
    ``key`` (_RECORD_KEYS), has not the type the format requires; else None."""
    if isinstance(value, str) or nullable and value is None:
        return None
    return f"{key} must be {'a string or null' if nullable else 'a string'}"


def validate_features(frames, segment_id: str, scan_bools: bool = False) -> np.ndarray:
    """Check a feature matrix: 2-D, T >= 1, all values finite numbers
    (``scan_bools`` as in ``errors.json_numbers``)."""
    try:
        arr = json_numbers(frames, scan_bools)
    except DECODE_ERRORS as exc:
        raise DataError(
            f"segment {segment_id!r}: features must be a T x F matrix of numbers: {exc}"
        ) from exc
    if arr.ndim != 2:
        raise DimensionError(
            f"segment {segment_id!r}: features must be a T x F matrix, "
            f"got ndim={arr.ndim}"
        )
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DataError(f"segment {segment_id!r}: empty feature matrix {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"segment {segment_id!r}: non-finite feature values")
    return arr


@dataclass(frozen=True, eq=False)
class Segment:
    """One spoken linguistic unit: features plus metadata, whose ids,
    labels and level have the types and values a corpus record must have,
    so that every Segment can be saved and read back. Segments, like
    corpora, compare and hash by identity."""

    segment_id: str
    utterance_id: str
    speaker_id: str | None
    unit_label: str | None
    level: str
    features: np.ndarray

    def __post_init__(self):
        for key, nullable in _RECORD_KEYS:
            error = _type_error(key, getattr(self, key), nullable)
            if error:
                raise DataError(f"segment {self.segment_id!r}: {error}")
        _check_level(self.segment_id, self.level)
        object.__setattr__(
            self, "features", validate_features(self.features, self.segment_id)
        )

    @property
    def n_frames(self) -> int:
        return self.features.shape[0]


def _row(segment: Segment) -> tuple:
    """(segment_id, utterance_id, speaker_id, unit_label, T) of ``segment``:
    a row of a corpus sidecar's header."""
    return (segment.segment_id, segment.utterance_id, segment.speaker_id,
            segment.unit_label, segment.n_frames)


@dataclass(frozen=True, eq=False)
class Corpus:
    """Ordered, immutable collection of segments with a common feature dim
    and level and unique segment ids.

    Built, it packs every segment's frames once, in corpus order, into the
    (sum T, F) float64 matrix ``frames``, its one copy of them, with each
    segment's length in ``lengths`` and first row in ``starts``, all three
    read-only. It holds segments of its own, whose ``features`` are
    read-only views of their rows of ``frames``; the segments it was given
    are left as they are. ``gather`` reads a batch from it as one row
    gather.
    """

    segments: tuple
    feature_dim: int = field(init=False)
    level: str = field(init=False)
    frames: np.ndarray = field(init=False, repr=False)
    lengths: np.ndarray = field(init=False, repr=False)
    starts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        segments = tuple(self.segments)
        if not segments:
            raise EmptyCorpusError("corpus contains no segments")
        dims = {s.features.shape[1] for s in segments}
        if len(dims) != 1:
            raise DimensionError(f"mixed feature dimensions in corpus: {sorted(dims)}")
        levels = {s.level for s in segments}
        if len(levels) != 1:
            raise DataError(f"mixed segment levels in corpus: {sorted(levels)}")
        seen = set()
        for s in segments:
            if s.segment_id in seen:
                raise DataError(f"duplicate segment_id {s.segment_id!r}")
            seen.add(s.segment_id)
        _fill(self, np.concatenate([s.features for s in segments]), levels.pop(),
              list(map(_row, segments)))

    def __len__(self) -> int:
        return len(self.segments)

    def __getitem__(self, i: int) -> Segment:
        return self.segments[i]

    def gather(self, indices):
        """(frames, lengths) of the segments at the non-empty corpus
        positions ``indices``, packed in that order: each segment's frames
        in turn, as ``neuralcore.encoder_forward`` takes them."""
        idx = np.asarray(indices, dtype=np.intp)
        lengths = self.lengths[idx]
        ends = np.cumsum(lengths)
        rows = np.arange(ends[-1]) + np.repeat(self.starts[idx] - (ends - lengths), lengths)
        return self.frames[rows], lengths


def _fill(corpus, frames, level, rows) -> Corpus:
    """Give ``corpus``, a Corpus being built, every field, and return it:
    its segments are ``rows`` (``_row``) at ``level``, their frames packed
    in order in ``frames``, and they have passed every check of ``Segment``
    and ``Corpus``. ``frames`` becomes read-only, and each segment is built
    around its view of it without the checks."""
    frames.flags.writeable = False
    lengths = np.array([row[4] for row in rows], dtype=np.intp)
    starts = np.cumsum(lengths) - lengths
    lengths.flags.writeable = starts.flags.writeable = False
    segments = []
    for (sid, uid, spk, unit, n_frames), start in zip(rows, starts.tolist()):
        segment = object.__new__(Segment)
        vars(segment).update(segment_id=sid, utterance_id=uid, speaker_id=spk,
                             unit_label=unit, level=level, features=frames[start:start + n_frames])
        segments.append(segment)
    vars(corpus).update(segments=tuple(segments), feature_dim=frames.shape[1], level=level,
                        frames=frames, lengths=lengths, starts=starts)
    return corpus


@dataclass(frozen=True)
class SynthConfig:
    """Synthetic corpus generator settings.

    Each unit has a random prototype frame sequence; each speaker has a
    fixed affine channel transform (gain near identity plus bias, both
    scaled by ``speaker_shift_scale``). An instance is the prototype
    nearest-frame resampled to a random length in ``length_range``, passed
    through the speaker transform, plus Gaussian noise of ``noise_scale``.
    """

    n_units: int = 20
    n_speakers: int = 8
    instances_per_unit_speaker: int = 20
    length_range: tuple = (6, 12)
    feature_dim: int = 39
    speaker_shift_scale: float = 0.5
    noise_scale: float = 0.05
    level: str = "word"

    KEYS = {  # config key -> bound of each field (``seeding.check_fields``)
        "synth.n_units": ">= 1", "synth.n_speakers": ">= 1",
        "synth.instances_per_unit_speaker": ">= 1", "synth.length_range": ">= 1",
        "synth.feature_dim": ">= 1", "synth.speaker_shift_scale": ">= 0",
        "synth.noise_scale": ">= 0", "synth.level": LEVELS}

    def __post_init__(self):
        check_fields(self)
        if len(self.length_range) != 2 or self.length_range[0] > self.length_range[1]:
            raise ConfigError("synth.length_range must be a (min, max) pair with min <= max, "
                              f"got {self.length_range}")


def _resample_nearest(proto: np.ndarray, length: int) -> np.ndarray:
    """Nearest-frame resampling of a prototype to the target length."""
    src = proto.shape[0]
    pick = np.minimum((np.arange(length) * src) // length, src - 1)
    return proto[pick]


# A speaker transform or noise scale that overflows gives non-finite frames,
# which building their Segment rejects with a DataError naming it; numpy's
# warnings would only print the same failure untyped.
@np.errstate(over="ignore", invalid="ignore")
def synth_corpus(cfg: SynthConfig, seed: int) -> Corpus:
    """Generate a labeled synthetic corpus; pure function of (cfg, seed).

    Segments are ordered speaker-major so that each speaker's segments are
    consecutive; each run of UTTERANCE_GROUP consecutive segments of one
    speaker forms one utterance (all segments of an utterance therefore
    share a speaker).
    """
    t_min, t_max = cfg.length_range
    f_dim = cfg.feature_dim

    proto_rng = rng_for(seed, "synth:prototypes")
    proto_lens = proto_rng.integers(t_min, t_max + 1, size=cfg.n_units)
    prototypes = [
        proto_rng.normal(size=(int(n), f_dim)) for n in proto_lens
    ]

    # the additive bias is kept subtler than the multiplicative gain so the
    # speaker confound is not dominated by one trivially-separable direction
    bias_sigma = 0.3
    spk_rng = rng_for(seed, "synth:speakers")
    gains, biases = [], []
    for _ in range(cfg.n_speakers):
        g = spk_rng.normal(size=(f_dim, f_dim)) / np.sqrt(f_dim)
        gains.append(np.eye(f_dim) + cfg.speaker_shift_scale * g)
        biases.append(cfg.speaker_shift_scale * bias_sigma * spk_rng.normal(size=f_dim))

    inst_rng = rng_for(seed, "synth:instances")
    segments = []
    for s in range(cfg.n_speakers):
        speaker = f"spk{s:03d}"
        per_speaker = 0
        for rep in range(cfg.instances_per_unit_speaker):
            for u in range(cfg.n_units):
                length = int(inst_rng.integers(t_min, t_max + 1))
                frames = _resample_nearest(prototypes[u], length)
                frames = frames @ gains[s].T + biases[s]
                if cfg.noise_scale > 0:
                    frames = frames + cfg.noise_scale * inst_rng.normal(size=frames.shape)
                utt = per_speaker // UTTERANCE_GROUP
                segments.append(
                    Segment(
                        segment_id=f"seg-{len(segments):06d}",
                        utterance_id=f"utt-{speaker}-{utt:04d}",
                        speaker_id=speaker,
                        unit_label=f"u{u:03d}",
                        level=cfg.level,
                        features=frames,
                    )
                )
                per_speaker += 1
    return Corpus(tuple(segments))


def decode_lines(path, data: bytes):
    """Yield (line number, line) of ``data``, the bytes of the file ``path``,
    decoded as UTF-8 and split as reading the file as text does; bytes that
    are not valid UTF-8 raise ParseError naming the file, the byte offset
    and the line."""
    try:
        yield from enumerate(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), start=1)
    except UnicodeDecodeError as exc:
        try:  # exc's position is in a decode chunk; one decode of all of data names the byte
            data.decode("utf-8")
        except UnicodeDecodeError as in_file:
            exc = in_file
        line = len(data[:exc.start + 1].splitlines())
        raise ParseError(f"{path}: not valid UTF-8 at byte {exc.start} (line {line}): "
                         f"{exc.reason}") from exc


def _read_file(path):
    """The bytes of the file ``path``, from its one open, and their sha256."""
    with open(path, "rb") as fh:
        data = fh.read()
    return data, hashlib.sha256(data).hexdigest()


_CORPUS_DECODER = json.JSONDecoder()


def _sidecar_path(path) -> str:
    return os.fspath(path) + ".cache"


# The version of the sidecars: bump it whenever a layout changes or a parse
# accepts or rejects anything it did not before, so that no sidecar written
# under other rules stands in for the parse.
_SIDECAR_FORMAT = 1


def _sidecar_head(kind: str, source_sha256: str, payload_sha256: str) -> bytes:
    """The bytes a sidecar of ``kind`` ("corpus", "embeddings" or
    "checkpoint") begins with, which its payload checksum does not cover."""
    return (f'{{"format": {_SIDECAR_FORMAT}, "{kind}_sha256": "{source_sha256}", '
            f'"payload_sha256": "{payload_sha256}"').encode()


def _read_sidecar(path, kind: str, source_sha256: str):
    """The sidecar of the file ``path`` as (header, payload), the header a
    dict and the payload the bytes after its line, when it is of this
    ``_SIDECAR_FORMAT`` and ``kind``, was written for file bytes of sha256
    ``source_sha256`` and its own checksum holds; None otherwise. The
    caller checks the header's other fields."""
    try:
        with open(_sidecar_path(path), "rb") as fh:
            blob = fh.read()
        end = blob.index(b"\n") + 1
        header = json.loads(blob[:end].decode("ascii"))
    except (OSError, ValueError):  # no sidecar, a directory, no header line, or not JSON
        return None
    head_size = len(_sidecar_head(kind, source_sha256, "0" * 64))
    if (not isinstance(header, dict) or type(header.get("format")) is not int
            or header["format"] != _SIDECAR_FORMAT
            or header.get(f"{kind}_sha256") != source_sha256
            or header.get("payload_sha256")
            != hashlib.sha256(memoryview(blob)[head_size:]).hexdigest()):
        return None
    return header, memoryview(blob)[end:]


def _write_sidecar(path, kind: str, source_sha256: str, fields: dict, payload) -> None:
    """Write the sidecar of ``kind`` for the bytes, of sha256
    ``source_sha256``, of the file ``path``: the head, then ``fields`` as
    the rest of the header line, then ``payload`` as little-endian float64,
    row-major. It goes through a temporary file that no exit leaves behind,
    with the permissions of the file less the umask; an OSError leaves the
    sidecar as it was. A path that is not itself a regular file gets none."""
    try:
        file_mode = os.lstat(path).st_mode
    except OSError:
        return
    if not stat.S_ISREG(file_mode):  # a device, a FIFO or a symlink: its bytes are not kept
        return
    rest = f", {json.dumps(fields)[1:]}\n".encode()
    payload = np.ascontiguousarray(payload, dtype="<f8")
    payload_sha256 = hashlib.sha256(rest)
    payload_sha256.update(payload)
    target = _sidecar_path(path)
    tmp = f"{target}.{os.urandom(8).hex()}.tmp"
    mode = stat.S_IMODE(file_mode) & 0o666  # never more readable than the file
    try:
        fh = open(tmp, "xb", opener=lambda name, flags: os.open(name, flags, mode))
    except OSError:
        return
    try:
        with fh:
            fh.write(_sidecar_head(kind, source_sha256, payload_sha256.hexdigest()))
            fh.write(rest)
            fh.write(payload)
        os.replace(tmp, target)
    except BaseException as exc:  # KeyboardInterrupt too: no temporary file outlives it
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if not isinstance(exc, OSError):
            raise


def _is_row(row) -> bool:
    """Whether ``row`` is a corpus sidecar's header row: [segment_id,
    utterance_id, speaker_id, unit_label, T] of the documented types, T >= 1."""
    return (isinstance(row, list) and len(row) == 5
            and isinstance(row[0], str) and isinstance(row[1], str)
            and (row[2] is None or isinstance(row[2], str))
            and (row[3] is None or isinstance(row[3], str))
            and type(row[4]) is int and row[4] >= 1)


def _read_corpus_sidecar(path, corpus_sha256: str):
    """The sidecar of the corpus file ``path`` as (F, level, rows, frames),
    frames the payload bytes, when ``_read_sidecar`` takes it for these
    corpus bytes and its header has the documented types, a known level,
    unique segment ids and the payload's size; None otherwise."""
    sidecar = _read_sidecar(path, "corpus", corpus_sha256)
    if sidecar is None:
        return None
    header, frames = sidecar
    f_dim, level, rows = header.get("feature_dim"), header.get("level"), header.get("segments")
    if not (type(f_dim) is int and f_dim >= 1 and level in LEVELS
            and isinstance(rows, list) and rows and all(map(_is_row, rows))
            and len({row[0] for row in rows}) == len(rows)
            and sum(row[4] for row in rows) * f_dim * 8 == len(frames)):
        return None
    return f_dim, level, rows, frames


def _corpus_of(f_dim, level, rows, frames) -> Corpus:
    """The Corpus a sidecar holds, whose header ``_read_corpus_sidecar``
    has checked: ``frames`` is one aligned float64 copy of the payload,
    checked once for finite values (a DataError otherwise), and each
    segment's features a read-only view of its rows of it."""
    table = np.frombuffer(frames, dtype="<f8").reshape(-1, f_dim).astype(np.float64)
    if not np.isfinite(table).all():
        raise DataError("non-finite frame values in the sidecar")
    return _fill(object.__new__(Corpus), table, level, rows)


def _parse_corpus(path, lines) -> Corpus:
    """The Corpus of the corpus file ``path`` from its ``lines``, as
    ``decode_lines`` gives them: the parse path, with every check and
    error message of the format. Each non-blank line is one record, whose
    metadata keys (_RECORD_KEYS) must have the documented types before its
    level and then its features are checked. A file without records raises
    EmptyCorpusError."""
    segments = []
    for lineno, line in lines:
        if not line.strip():
            continue
        try:
            rec = _CORPUS_DECODER.decode(line)
        except ValueError as exc:  # JSONDecodeError, or an int over Python's digit limit
            raise ParseError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(rec, dict):
            raise ParseError(f"{path}:{lineno}: a record must be a JSON object")
        for key, nullable in _RECORD_KEYS:
            if not nullable and key not in rec:
                raise ParseError(f"{path}:{lineno}: missing key {key!r}")
            error = _type_error(key, rec.get(key), nullable)
            if error:
                raise ParseError(f"{path}:{lineno}: {error}")
        try:
            _check_level(rec["segment_id"], rec["level"])
            if has_bool_literal(line):  # only a scan finds a boolean among numbers
                validate_features(rec["features"], rec["segment_id"], scan_bools=True)
            segments.append(Segment(
                segment_id=rec["segment_id"],
                utterance_id=rec["utterance_id"],
                speaker_id=rec.get("speaker_id"),
                unit_label=rec.get("unit_label"),
                level=rec["level"],
                features=rec["features"],
            ))
        except KeyError as exc:
            raise ParseError(f"{path}:{lineno}: missing key {exc}") from exc
        except (DataError, DimensionError) as exc:
            raise type(exc)(f"{path}:{lineno}: {exc}") from exc
    if not segments:
        raise EmptyCorpusError(f"{path}: no segments")
    return Corpus(tuple(segments))


def _keep_corpus(path, corpus_sha256: str, corpus: Corpus) -> None:
    """Write the corpus sidecar of ``corpus`` for the file ``path`` of
    sha256 ``corpus_sha256``."""
    _write_sidecar(path, "corpus", corpus_sha256, {
        "feature_dim": corpus.feature_dim, "level": corpus.level,
        "segments": list(map(_row, corpus.segments)),
    }, corpus.frames)


def _parse_and_keep(path, data, corpus_sha256: str) -> Corpus:
    """The Corpus of ``data``, the bytes of the corpus file ``path`` of
    sha256 ``corpus_sha256``, by the parse, whose result it then keeps in
    the sidecar (module docstring)."""
    corpus = _parse_corpus(path, decode_lines(path, data))
    _keep_corpus(path, corpus_sha256, corpus)
    return corpus


def load_corpus(path) -> Corpus:
    """Read a JSON-lines corpus file, preserving record order: from its
    sidecar when that was written for these bytes, else by parsing it, and
    then writing the sidecar (module docstring)."""
    data, corpus_sha256 = _read_file(path)
    cached = _read_corpus_sidecar(path, corpus_sha256)
    if cached is not None:
        try:
            return _corpus_of(*cached)
        except SegembedError:  # a sidecar that fails a check: the parse decides
            pass
    return _parse_and_keep(path, data, corpus_sha256)


def load_labels(path):
    """``(level, {segment_id: unit_label})`` of a corpus file, in record
    order, for commands that need no frames.

    They come from the corpus's sidecar when one was written for these
    bytes, which decodes no frame. Otherwise the bytes already read are
    parsed as ``load_corpus`` parses them, with every check and error of a
    full read, frames included, and the sidecar is written.
    """
    data, corpus_sha256 = _read_file(path)
    cached = _read_corpus_sidecar(path, corpus_sha256)
    if cached is None:
        corpus = _parse_and_keep(path, data, corpus_sha256)
        return corpus.level, {s.segment_id: s.unit_label for s in corpus.segments}
    _, level, rows, _ = cached
    return level, {row[0]: row[3] for row in rows}


def save_corpus(path, corpus: Corpus) -> None:
    """Write a corpus as JSON-lines, one record per segment in order, and
    then its sidecar (module docstring), hashing the bytes written;
    round-trips through load_corpus."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for seg in corpus.segments:
            rec = {
                "segment_id": seg.segment_id,
                "utterance_id": seg.utterance_id,
                "speaker_id": seg.speaker_id,
                "unit_label": seg.unit_label,
                "level": seg.level,
                "features": seg.features.tolist(),
            }
            line = (json.dumps(rec) + "\n").encode("utf-8")
            fh.write(line)
            digest.update(line)
    _keep_corpus(path, digest.hexdigest(), corpus)


def embedding_matrix(ids, vectors) -> np.ndarray:
    """``vectors`` as the float64 matrix of the embedding table (ids,
    vectors); raises DimensionError unless it is 2-D with one row per id
    and, like every vector of an embedding file, its rows are non-empty."""
    try:
        vectors = np.asarray(vectors, dtype=np.float64)
    except DECODE_ERRORS as exc:  # ragged rows, or not numbers
        raise DimensionError(f"embeddings must be an (N, d) matrix of numbers: {exc}") from exc
    if vectors.ndim != 2 or len(vectors) != len(ids) or len(ids) and not vectors.shape[1]:
        raise DimensionError(
            f"embeddings must be an (N, d) matrix, d >= 1, with one row per id: "
            f"{len(ids)} ids, vectors of shape {vectors.shape}"
        )
    return vectors


def _is_embedding_table(ids, vectors) -> bool:
    """Whether (ids, vectors), ``vectors`` one (N, d) row per id, is a
    table that ``load_embeddings`` returns: at least one row, unique string
    ids, d >= 1 and every value finite."""
    return (len(ids) >= 1 and all(isinstance(sid, str) for sid in ids)
            and len(set(ids)) == len(ids) and vectors.shape[1] >= 1
            and bool(np.isfinite(vectors).all()))


def save_embeddings(path, ids, vectors) -> None:
    """Write an embedding table, one line per id and its row of the (N, d)
    matrix ``vectors``, in order, at full double precision (shortest
    round-tripping decimal form), and then its sidecar (module docstring)
    when ``load_embeddings`` would return the table."""
    vectors = embedding_matrix(ids, vectors)
    data = "".join(json.dumps({"segment_id": sid, "vector": row}) + "\n"
                   for sid, row in zip(ids, vectors.tolist())).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    if _is_embedding_table(ids, vectors):
        _write_sidecar(path, "embeddings", hashlib.sha256(data).hexdigest(),
                       {"dim": vectors.shape[1], "segment_ids": list(ids)}, vectors)


def _read_embedding_sidecar(path, embeddings_sha256: str):
    """The table the sidecar of the embedding file ``path`` holds, as
    ``load_embeddings`` returns it, when ``_read_sidecar`` takes it for
    these file bytes, its ``dim`` is an int, its ``segment_ids`` a list,
    the payload N·d·8 bytes and the table passes ``_is_embedding_table``;
    None otherwise."""
    sidecar = _read_sidecar(path, "embeddings", embeddings_sha256)
    if sidecar is None:
        return None
    header, payload = sidecar
    dim, ids = header.get("dim"), header.get("segment_ids")
    if not (type(dim) is int and dim >= 1 and isinstance(ids, list)
            and len(ids) * dim * 8 == len(payload)):
        return None
    vectors = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(len(ids), dim)
    return (ids, vectors) if _is_embedding_table(ids, vectors) else None


def load_embeddings(path):
    """Read a JSON-lines embedding file -> (ids, vectors): the segment ids
    as a list of str and the vectors as the rows of one writable (N, d)
    float64 matrix, in file order.

    Every segment_id must be a string, and no segment_id may repeat; every
    vector must be a non-empty 1-D array of numbers, of one shared
    dimension, and finite. The table comes from the file's sidecar when
    ``save_embeddings`` wrote one for these bytes (module docstring); the
    read writes none. Otherwise the bytes already read are parsed line by
    line, and the first line that fails a check is named.
    """
    data, embeddings_sha256 = _read_file(path)
    cached = _read_embedding_sidecar(path, embeddings_sha256)
    if cached is not None:
        return cached
    return _load_embeddings_by_line(path, decode_lines(path, data))


def _load_embeddings_by_line(path, lines):
    """The embedding table of the file ``path`` from its ``lines``, as
    ``decode_lines`` gives them, one line at a time: the first failed
    check raises with its line number. A file without vectors gives ([], a
    (0, 0) matrix)."""
    ids, rows = [], []
    first_line = {}
    for lineno, line in lines:
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            sid, vec = rec["segment_id"], json_numbers(rec["vector"], has_bool_literal(line))
            first = first_line.setdefault(sid, lineno)
        except (KeyError, *DECODE_ERRORS) as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if not isinstance(sid, str):
            raise ParseError(f"{path}:{lineno}: segment_id must be a string")
        if first != lineno:
            raise DataError(
                f"{path}:{lineno}: duplicate segment_id {sid!r} (first on line {first})"
            )
        if vec.ndim != 1:
            raise DimensionError(f"{path}:{lineno}: vector must be 1-D")
        if not vec.size:
            raise DimensionError(f"{path}:{lineno}: empty vector")
        if rows and vec.shape != rows[0].shape:
            raise DimensionError(f"{path}:{lineno}: dimension {vec.size} != {rows[0].size}")
        if not np.isfinite(vec).all():
            raise NumericError(f"{path}:{lineno}: non-finite vector entry")
        ids.append(sid)
        rows.append(vec)
    return ids, np.array(rows) if rows else np.empty((0, 0))


def write_csv(path, columns, rows) -> None:
    """Report table as CSV: a header line of ``columns``, then one line per
    row (a sequence of values). Floats are written in their shortest
    round-tripping form, integers as integers; no rows gives a file with
    only the header."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def make_batches(corpus, batch_size: int, seed: int, drop_last: bool = True):
    """Seeded uniform shuffle of the indices of ``corpus`` (a Corpus, or any
    sequence: only its length is read), cut into consecutive batches: a list
    of read-only intp arrays, slices of the one permutation.

    With drop_last, every batch has exactly batch_size elements. Otherwise a
    shorter final batch is kept; a final batch of a single element is merged
    into the previous batch so that every batch supports pair mining.
    Raises DataError when no batch forms.
    """
    if batch_size < 2:
        raise ConfigError(f"batch_size must be >= 2, got {batch_size}")
    m = len(corpus)
    if m == 0:
        raise DataError("no segments to batch")
    order = seeded_rng(seed).permutation(m).astype(np.intp, copy=False)
    order.flags.writeable = False
    ends = list(range(batch_size, m + 1, batch_size))
    if not drop_last and m % batch_size:
        if m % batch_size > 1:
            ends.append(m)
        elif ends:
            ends[-1] = m
        else:
            raise DataError("corpus too small to form a batch of >= 2 segments")
    if not ends:
        raise DataError("no batches: corpus smaller than batch_size with drop_last")
    return [order[start:end] for start, end in zip([0, *ends], ends)]


def split_corpus(corpus: Corpus, test_fraction: float, seed: int):
    """Seeded shuffle split -> (train Corpus, test Corpus), each in corpus
    order, its frames gathered from ``corpus.frames`` in one pass."""
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError("test_fraction must be in (0, 1)")
    m = len(corpus)
    order = rng_for(seed, "split").permutation(m)
    n_test = max(1, int(round(m * test_fraction)))
    if n_test >= m:
        raise DataError("split leaves no training segments")
    in_test = np.zeros(m, dtype=bool)
    in_test[order[:n_test]] = True
    return tuple(
        _fill(object.__new__(Corpus), corpus.gather(indices)[0], corpus.level,
              [_row(corpus[i]) for i in indices.tolist()])
        for indices in (np.flatnonzero(~in_test), np.flatnonzero(in_test))
    )
