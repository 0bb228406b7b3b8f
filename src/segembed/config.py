"""Run configuration: plain-text key/value files with dotted section names.

A config file holds lines of the form ``section.key = value`` (``#``
comments and blank lines ignored). The keys, their types and their defaults
are not written here: they come from the fields of the four config
dataclasses, ``synth.*`` from ``SynthConfig``, ``train.*`` and ``model.*``
from ``DisentangleConfig``, ``siamese.*`` from ``SiameseConfig`` and
``eval.*`` from ``EvalConfig``, plus the master ``seed``. An empty file
resolves to the defaults (39-dim features, 256-dim embeddings, margin 1,
discriminator of 2 x 128). Unknown keys, ill-typed values and non-finite
floats are rejected by name, with the file and line they came from. The
fully resolved config is echoed into each run's output directory so results
are self-describing.
"""

import math
from dataclasses import dataclass, fields

from .corpus import SynthConfig, read_text_lines
from .disentangle import DisentangleConfig
from .errors import ConfigError, ParseError
from .siamese import SiameseConfig


def _parse_bool(raw):
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _format(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# field type -> (type name in error messages, parser of the stripped text)
_PARSERS = {
    int: ("int", lambda raw: int(raw, 10)),
    float: ("float", float),
    str: ("str", str),
    bool: ("bool", _parse_bool),
    tuple: ("int_list", lambda raw: tuple(int(p, 10) for p in raw.split(",") if p.strip())),
}


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation-protocol parameters."""

    m: int = 70
    n_values: tuple = (70, 140, 210, 280)
    top_k: tuple = (1, 5, 10, 20, 40, 60)
    n_queries: int = 80
    n_documents: int = 40

    def __post_init__(self):
        if self.m < 1 or self.n_queries < 1 or self.n_documents < 2:
            raise ConfigError("eval counts out of range")
        for key, values in (("eval.n_values", self.n_values), ("eval.top_k", self.top_k)):
            if not values or min(values) < 1:
                raise ConfigError(f"{key} must list integers >= 1, got {values}")


_SECTIONS = {"synth": SynthConfig, "train": DisentangleConfig,
             "siamese": SiameseConfig, "eval": EvalConfig}
_MODEL_FIELDS = ("embed_dim", "enc_hidden", "dec_hidden", "disc_hidden", "encoder_mode")
_LENGTH_KEYS = ("synth.length_min", "synth.length_max")


def _derive_schema():
    """SCHEMA, and key -> (config class, field name) for each key whose value
    is its field's value as it is. A key is ``<section>.<field>`` with the
    field's type and default, but for the four exceptions marked below."""
    schema, targets = {"seed": (int, 0)}, {}
    for section, cls in _SECTIONS.items():
        for f in fields(cls):
            prefix = "model" if f.name in _MODEL_FIELDS else section  # the model.* keys
            key = f"{prefix}.{f.name}"
            if f.name == "seed":  # stage seeds are not keys: the master seed sets them
                continue
            if f.name == "length_range":  # one int key per end
                schema.update(zip(_LENGTH_KEYS, ((int, end) for end in f.default)))
            elif f.name == "disc_learning_rate":  # -1 (any value <= 0) stands for None
                schema[key] = (float, -1.0)
            else:
                schema[key] = (f.type, f.default)
                targets[key] = (cls, f.name)
    return schema, targets


# key -> (field type, default), derived from the config dataclasses
SCHEMA, _TARGETS = _derive_schema()


@dataclass(frozen=True)
class RunConfig:
    """All resolved settings of one run; seeds for individual stages are
    derived from the master seed and a stage tag."""

    seed: int
    synth: SynthConfig
    disentangle: DisentangleConfig
    siamese: SiameseConfig
    eval: EvalConfig
    resolved: dict

    def to_text(self) -> str:
        lines = [f"{key} = {_format(self.resolved[key])}" for key in sorted(SCHEMA)]
        return "\n".join(lines) + "\n"


def _parse_pairs(entries):
    """Typed values of (source, key, raw text) entries; later entries win.
    Errors name the source: ``FILE:LINE`` or ``override``."""
    values = {}
    for where, key, raw in entries:
        if key not in SCHEMA:
            raise ConfigError(f"{where}: unknown configuration key {key!r}")
        kind, _ = SCHEMA[key]
        name, parse = _PARSERS[kind]
        raw = raw.strip()
        try:
            values[key] = parse(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{where}: key {key!r} expects {name}, got {raw!r}") from exc
        if kind is float and not math.isfinite(values[key]):
            raise ConfigError(f"{where}: key {key!r} must be finite, got {raw!r}")
    return values


def _read_config_lines(path):
    entries = []
    try:
        for lineno, line in read_text_lines(path):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = stripped.partition("=")
            entries.append((f"{path}:{lineno}", key.strip(), raw))
    except ParseError as exc:
        raise ConfigError(str(exc)) from exc
    return entries


def parse_config(path=None, overrides=()) -> RunConfig:
    """Resolve defaults, then the config file, then override strings of the
    form ``key=value`` (later sources win)."""
    entries = [] if path is None else _read_config_lines(path)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, _, raw = item.partition("=")
        entries.append(("override", key.strip(), raw))
    values = {key: default for key, (_, default) in SCHEMA.items()}
    values.update(_parse_pairs(entries))

    kwargs = {cls: {} for cls in _SECTIONS.values()}
    for key, (cls, name) in _TARGETS.items():
        kwargs[cls][name] = values[key]
    kwargs[SynthConfig]["length_range"] = tuple(values[key] for key in _LENGTH_KEYS)
    disc_lr = values["train.disc_learning_rate"]
    kwargs[DisentangleConfig]["disc_learning_rate"] = disc_lr if disc_lr > 0 else None
    for cls in (DisentangleConfig, SiameseConfig):
        kwargs[cls]["seed"] = values["seed"]
    synth, disentangle, siamese, evaluation = (cls(**kw) for cls, kw in kwargs.items())
    return RunConfig(
        seed=values["seed"],
        synth=synth,
        disentangle=disentangle,
        siamese=siamese,
        eval=evaluation,
        resolved=values,
    )
