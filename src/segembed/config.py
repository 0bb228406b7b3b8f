"""Run configuration: plain-text key/value files with dotted section names.

A config file holds lines of the form ``section.key = value`` (``#``
comments and blank lines ignored). The keys, their types and their defaults
are not written here: each of the four config dataclasses (``SynthConfig``,
``DisentangleConfig``, ``SiameseConfig`` and ``EvalConfig``) names its
fields' keys in its ``KEYS`` table, and a field gives its key's type and
default; ``seed``, the master seed, sets the seed fields. An empty file
resolves to the defaults (39-dim features, 256-dim embeddings, margin 1,
discriminator of 2 x 128). Unknown keys, ill-typed values and non-finite
floats are rejected by name, with the file and line they came from. The
fully resolved config is echoed into each run's output directory so results
are self-describing.
"""

import math
from dataclasses import dataclass, fields

from .corpus import SynthConfig, decode_lines
from .disentangle import DisentangleConfig
from .errors import ConfigError, ParseError
from .seeding import check_fields
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

    m: int = 20
    n_values: tuple = (70, 140, 210, 280)
    top_k: tuple = (1, 5, 10, 20, 40, 60)
    n_queries: int = 20
    n_documents: int = 40

    KEYS = {  # config key -> bound of each field (``seeding.check_fields``)
        "eval.m": ">= 1", "eval.n_values": ">= 1", "eval.top_k": ">= 1",
        "eval.n_queries": ">= 1", "eval.n_documents": ">= 2"}

    def __post_init__(self):
        check_fields(self)


_CLASSES = (SynthConfig, DisentangleConfig, SiameseConfig, EvalConfig)  # RunConfig order


def _derive_schema():
    """SCHEMA, and (config class, field name, keys, optional) per field: the
    key its class's ``KEYS`` names (``seed`` sets two classes' seeds) with
    the field's type and default, but for the two exceptions marked below."""
    schema, targets = {}, []
    for cls in _CLASSES:
        kinds = {f.name: (f.type, f.default) for f in fields(cls)}
        for key in cls.KEYS:
            name = key.rpartition(".")[2]
            kind, default = kinds[name]
            keys, optional = (key,), default is None
            if name == "length_range":  # one int key per end
                keys = tuple(key.replace("range", end) for end in ("min", "max"))
                schema.update(zip(keys, ((int, end) for end in default)))
            elif optional:  # -1 (any value <= 0) stands for None
                schema[key] = (float, -1.0)
            else:
                schema[key] = (kind, default)
            targets.append((cls, name, keys, optional))
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
    with open(path, "rb") as fh:
        data = fh.read()
    entries = []
    try:
        for lineno, line in decode_lines(path, data):
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

    kwargs = {cls: {} for cls in _CLASSES}
    for cls, name, keys, optional in _TARGETS:
        value = tuple(values[key] for key in keys) if len(keys) > 1 else values[keys[0]]
        kwargs[cls][name] = None if optional and value <= 0 else value
    return RunConfig(values["seed"], *(cls(**kw) for cls, kw in kwargs.items()), values)
