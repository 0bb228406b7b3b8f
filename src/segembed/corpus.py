"""Segment corpus: data model, JSONL ingestion/serialization, synthetic
corpus generation, and mini-batch construction.

A corpus file is UTF-8 JSON-lines, one object per segment with string keys
``segment_id``, ``utterance_id`` and ``level``, string-or-null keys
``speaker_id`` and ``unit_label``, and ``features`` (array of T arrays of F
numbers). ``load_corpus`` reads all of it; ``load_labels`` reads only the
labels, with the same record checks, and never decodes a frame value.
An embedding file is JSON-lines with keys ``segment_id`` and ``vector``.
Both round-trip bit-exactly at double precision.
"""

import csv
import json
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
)
from .seeding import check_fields, rng_for, seeded_rng

__all__ = [
    "Corpus", "MiniBatch", "Segment", "SynthConfig", "load_corpus", "load_embeddings",
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


def validate_features(frames, segment_id: str) -> np.ndarray:
    """Check a feature matrix: 2-D, T >= 1, all values finite."""
    try:
        arr = np.asarray(frames, dtype=np.float64)
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


@dataclass(frozen=True)
class Segment:
    """One spoken linguistic unit: features plus metadata."""

    segment_id: str
    utterance_id: str
    speaker_id: str | None
    unit_label: str | None
    level: str
    features: np.ndarray

    def __post_init__(self):
        _check_level(self.segment_id, self.level)
        object.__setattr__(
            self, "features", validate_features(self.features, self.segment_id)
        )

    @property
    def n_frames(self) -> int:
        return self.features.shape[0]


def _corpus_level(levels, ids) -> str:
    """The one level in ``levels``, once the segment ``ids`` are checked
    unique; raises DataError naming the mixed levels or the first repeat."""
    if len(levels) != 1:
        raise DataError(f"mixed segment levels in corpus: {sorted(levels)}")
    seen = set()
    for i in ids:
        if i in seen:
            raise DataError(f"duplicate segment_id {i!r}")
        seen.add(i)
    return next(iter(levels))


@dataclass(frozen=True)
class Corpus:
    """Ordered, immutable collection of segments with a common feature dim."""

    segments: tuple
    feature_dim: int = field(init=False)
    level: str = field(init=False)

    def __post_init__(self):
        segments = tuple(self.segments)
        if not segments:
            raise EmptyCorpusError("corpus contains no segments")
        dims = {s.features.shape[1] for s in segments}
        if len(dims) != 1:
            raise DimensionError(f"mixed feature dimensions in corpus: {sorted(dims)}")
        level = _corpus_level(
            {s.level for s in segments}, [s.segment_id for s in segments]
        )
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "feature_dim", dims.pop())
        object.__setattr__(self, "level", level)

    def __len__(self) -> int:
        return len(self.segments)

    def __getitem__(self, i: int) -> Segment:
        return self.segments[i]


@dataclass(frozen=True)
class MiniBatch:
    """Distinct corpus positions forming one training batch."""

    indices: tuple

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(idx) < 2:
            raise DataError(f"mini-batch needs at least 2 indices, got {len(idx)}")
        if len(set(idx)) != len(idx):
            raise DataError("mini-batch indices must be distinct")
        object.__setattr__(self, "indices", idx)


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


def read_text_lines(path):
    """Yield (line number, line) of a UTF-8 text file; a file that is not
    valid UTF-8 raises ParseError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not valid UTF-8: {exc}") from exc


_CORPUS_DECODER = json.JSONDecoder()
# Builds no float: a non-integer number decodes to the length of its text,
# so reading labels costs no float parsing of the frames.
_LABELS_DECODER = json.JSONDecoder(parse_float=len)


def _records(path, decoder):
    """Yield (line number, record) for each non-blank line of a corpus file,
    decoded with ``decoder``, once its metadata keys (_RECORD_KEYS) have the
    documented types and its level is known. A file without records raises
    EmptyCorpusError."""
    empty = True
    for lineno, line in read_text_lines(path):
        if not line.strip():
            continue
        try:
            rec = decoder.decode(line)
        except ValueError as exc:  # JSONDecodeError, or an int over Python's digit limit
            raise ParseError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(rec, dict):
            raise ParseError(f"{path}:{lineno}: a record must be a JSON object")
        for key, nullable in _RECORD_KEYS:
            if not nullable and key not in rec:
                raise ParseError(f"{path}:{lineno}: missing key {key!r}")
            value = rec.get(key)
            if not (isinstance(value, str) or nullable and value is None):
                kind = "a string or null" if nullable else "a string"
                raise ParseError(f"{path}:{lineno}: {key} must be {kind}")
        try:
            _check_level(rec["segment_id"], rec["level"])
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        empty = False
        yield lineno, rec
    if empty:
        raise EmptyCorpusError(f"{path}: no segments")


def load_corpus(path) -> Corpus:
    """Read a JSON-lines corpus file, preserving record order."""
    segments = []
    for lineno, rec in _records(path, _CORPUS_DECODER):
        try:
            seg = Segment(
                segment_id=rec["segment_id"],
                utterance_id=rec["utterance_id"],
                speaker_id=rec.get("speaker_id"),
                unit_label=rec.get("unit_label"),
                level=rec["level"],
                features=rec["features"],
            )
        except KeyError as exc:
            raise ParseError(f"{path}:{lineno}: missing key {exc}") from exc
        except (DataError, DimensionError) as exc:
            raise type(exc)(f"{path}:{lineno}: {exc}") from exc
        segments.append(seg)
    return Corpus(tuple(segments))


def load_labels(path):
    """``(level, {segment_id: unit_label})`` of a corpus file, in record
    order, for commands that need no frames.

    Every record passes the checks of ``load_corpus`` on its metadata, and
    the file those on levels and segment ids, with the same errors; the
    frames are neither decoded into floats nor validated.
    """
    ids, levels, units = [], set(), []
    for _, rec in _records(path, _LABELS_DECODER):
        ids.append(rec["segment_id"])
        levels.add(rec["level"])
        units.append(rec.get("unit_label"))
    return _corpus_level(levels, ids), dict(zip(ids, units))


def save_corpus(path, corpus: Corpus) -> None:
    """Write a corpus as JSON-lines; round-trips through load_corpus."""
    with open(path, "w", encoding="utf-8") as fh:
        for seg in corpus.segments:
            rec = {
                "segment_id": seg.segment_id,
                "utterance_id": seg.utterance_id,
                "speaker_id": seg.speaker_id,
                "unit_label": seg.unit_label,
                "level": seg.level,
                "features": seg.features.tolist(),
            }
            fh.write(json.dumps(rec) + "\n")


def save_embeddings(path, entries) -> None:
    """Write (segment_id, vector) entries as JSON-lines, order preserved.

    All vectors must share one dimension. Values are written with full
    double precision (shortest round-tripping decimal form).
    """
    entries = [(sid, np.asarray(v, dtype=np.float64)) for sid, v in entries]
    dims = {v.shape for _, v in entries}
    if any(len(shape) != 1 for shape in dims):
        raise DimensionError("embedding vectors must be 1-D")
    if len(dims) > 1:
        raise DimensionError(f"mixed embedding dimensions: {sorted(d[0] for d in dims)}")
    with open(path, "w", encoding="utf-8") as fh:
        for sid, vec in entries:
            fh.write(json.dumps({"segment_id": sid, "vector": vec.tolist()}) + "\n")


def load_embeddings(path):
    """Read a JSON-lines embedding file -> list of (segment_id, vector).

    Every vector must be 1-D, of one shared dimension, and finite, and no
    segment_id may repeat. The file is decoded in one pass into one float64
    matrix, whose rows are the vectors, with one finiteness check; only a
    file that fails a check is read again line by line, to name the first
    bad line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        ids = [rec["segment_id"] for rec in records]
        mat = np.array([rec["vector"] for rec in records], dtype=np.float64)
        if len(set(ids)) == len(ids) and mat.ndim == 2 and np.isfinite(mat).all():
            return list(zip(ids, mat))
    except (KeyError, *DECODE_ERRORS):  # UnicodeDecodeError too
        pass  # the line-by-line read names the failure
    return _load_embeddings_by_line(path)


def _load_embeddings_by_line(path):
    """``load_embeddings``, one line at a time: the first failed check
    raises with its line number."""
    out = []
    dim = None
    first_line = {}
    for lineno, line in read_text_lines(path):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            sid, vec = rec["segment_id"], np.asarray(rec["vector"], np.float64)
            first = first_line.setdefault(sid, lineno)
        except (KeyError, *DECODE_ERRORS) as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if first != lineno:
            raise DataError(
                f"{path}:{lineno}: duplicate segment_id {sid!r} (first on line {first})"
            )
        if vec.ndim != 1:
            raise DimensionError(f"{path}:{lineno}: vector must be 1-D")
        if dim is None:
            dim = vec.shape[0]
        elif vec.shape[0] != dim:
            raise DimensionError(f"{path}:{lineno}: dimension {vec.shape[0]} != {dim}")
        if not np.isfinite(vec).all():
            raise NumericError(f"{path}:{lineno}: non-finite vector entry")
        out.append((sid, vec))
    return out


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
    sequence: only its length is read), cut into consecutive batches.

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
    order = seeded_rng(seed).permutation(m)
    batches = []
    for start in range(0, m, batch_size):
        chunk = order[start : start + batch_size]
        if len(chunk) < batch_size and drop_last:
            break
        if len(chunk) == 1:
            if batches:
                merged = batches.pop().indices + (int(chunk[0]),)
                batches.append(MiniBatch(merged))
            else:
                raise DataError("corpus too small to form a batch of >= 2 segments")
            break
        batches.append(MiniBatch(tuple(int(i) for i in chunk)))
    if not batches:
        raise DataError("no batches: corpus smaller than batch_size with drop_last")
    return batches


def split_corpus(corpus: Corpus, test_fraction: float, seed: int):
    """Seeded shuffle split -> (train Corpus, test Corpus)."""
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError("test_fraction must be in (0, 1)")
    m = len(corpus)
    order = rng_for(seed, "split").permutation(m)
    n_test = max(1, int(round(m * test_fraction)))
    if n_test >= m:
        raise DataError("split leaves no training segments")
    test_idx = set(int(i) for i in order[:n_test])
    train = [corpus[i] for i in range(m) if i not in test_idx]
    test = [corpus[i] for i in range(m) if i in test_idx]
    return Corpus(tuple(train)), Corpus(tuple(test))
