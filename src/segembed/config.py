"""Run configuration: plain-text key/value files with dotted section names.

A config file holds lines of the form ``section.key = value`` (``#``
comments and blank lines ignored). Every key has a documented default; an
empty file resolves to the defaults (39-dim features, 256-dim embeddings,
margin 1, discriminator of 2 x 128). Unknown keys and ill-typed values are
rejected by name. The fully resolved config is echoed into each run's
output directory so results are self-describing.
"""

from dataclasses import dataclass

from .corpus import SynthConfig, read_text_lines
from .disentangle import DisentangleConfig
from .errors import ConfigError, ParseError
from .siamese import SiameseConfig


def _parse_int(raw):
    return int(raw, 10)


def _parse_float(raw):
    return float(raw)


def _parse_bool(raw):
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_int_list(raw):
    return tuple(int(part.strip(), 10) for part in raw.split(",") if part.strip())


def _format(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


_PARSERS = {
    "int": _parse_int,
    "float": _parse_float,
    "str": str.strip,
    "bool": _parse_bool,
    "int_list": _parse_int_list,
}

# key -> (type, default)
SCHEMA = {
    "seed": ("int", 0),
    "synth.n_units": ("int", 20),
    "synth.n_speakers": ("int", 8),
    "synth.instances_per_unit_speaker": ("int", 20),
    "synth.length_min": ("int", 6),
    "synth.length_max": ("int", 12),
    "synth.feature_dim": ("int", 39),
    "synth.speaker_shift_scale": ("float", 0.5),
    "synth.noise_scale": ("float", 0.05),
    "synth.level": ("str", "word"),
    "model.embed_dim": ("int", 256),
    "model.enc_hidden": ("int", 128),
    "model.dec_hidden": ("int", 128),
    "model.disc_hidden": ("int", 128),
    "model.encoder_mode": ("str", "pool"),
    "train.epochs": ("int", 30),
    "train.batch_size": ("int", 32),
    "train.margin": ("float", 1.0),
    "train.alpha_spk": ("float", 1.0),
    "train.alpha_adv": ("float", 1.0),
    "train.disc_steps": ("int", 1),
    "train.disc_warmup_epochs": ("int", 0),
    "train.learning_rate": ("float", 1e-3),
    "train.disc_learning_rate": ("float", -1.0),  # -1 -> same as learning_rate
    "train.drop_last": ("bool", True),
    "siamese.margin": ("float", 1.0),
    "siamese.k": ("int", 8),
    "siamese.mining_mode": ("str", "topk_global"),
    "siamese.gamma": ("float", 1.0),
    "siamese.epochs": ("int", 20),
    "siamese.batch_size": ("int", 32),
    "siamese.learning_rate": ("float", 1e-3),
    "siamese.refine_hidden": ("int", 128),
    "siamese.drop_last": ("bool", True),
    "eval.m": ("int", 70),
    "eval.n_values": ("int_list", (70, 140, 210, 280)),
    "eval.top_k": ("int_list", (1, 5, 10, 20, 40, 60)),
    "eval.n_queries": ("int", 80),
    "eval.n_documents": ("int", 40),
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


def _parse_pairs(pairs, source: str):
    values = {}
    for lineno, (key, raw) in enumerate(pairs, start=1):
        if key not in SCHEMA:
            raise ConfigError(f"{source}: unknown configuration key {key!r}")
        kind, _ = SCHEMA[key]
        try:
            values[key] = _PARSERS[kind](raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(
                f"{source}: key {key!r} expects {kind}, got {raw.strip()!r}"
            ) from exc
    return values


def _read_config_lines(path):
    pairs = []
    try:
        for lineno, line in read_text_lines(path):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = stripped.partition("=")
            pairs.append((key.strip(), raw))
    except ParseError as exc:
        raise ConfigError(str(exc)) from exc
    return pairs


def parse_config(path=None, overrides=()) -> RunConfig:
    """Resolve defaults, then the config file, then override strings of the
    form ``key=value`` (later sources win)."""
    values = {key: default for key, (_, default) in SCHEMA.items()}
    if path is not None:
        values.update(_parse_pairs(_read_config_lines(path), str(path)))
    pairs = []
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, _, raw = item.partition("=")
        pairs.append((key.strip(), raw))
    values.update(_parse_pairs(pairs, "override"))

    synth = SynthConfig(
        n_units=values["synth.n_units"],
        n_speakers=values["synth.n_speakers"],
        instances_per_unit_speaker=values["synth.instances_per_unit_speaker"],
        length_range=(values["synth.length_min"], values["synth.length_max"]),
        feature_dim=values["synth.feature_dim"],
        speaker_shift_scale=values["synth.speaker_shift_scale"],
        noise_scale=values["synth.noise_scale"],
        level=values["synth.level"],
    )
    disc_lr = values["train.disc_learning_rate"]
    disentangle = DisentangleConfig(
        epochs=values["train.epochs"],
        batch_size=values["train.batch_size"],
        margin=values["train.margin"],
        alpha_spk=values["train.alpha_spk"],
        alpha_adv=values["train.alpha_adv"],
        disc_steps=values["train.disc_steps"],
        disc_warmup_epochs=values["train.disc_warmup_epochs"],
        disc_learning_rate=disc_lr if disc_lr > 0 else None,
        seed=values["seed"],
        embed_dim=values["model.embed_dim"],
        enc_hidden=values["model.enc_hidden"],
        dec_hidden=values["model.dec_hidden"],
        disc_hidden=values["model.disc_hidden"],
        encoder_mode=values["model.encoder_mode"],
        learning_rate=values["train.learning_rate"],
        drop_last=values["train.drop_last"],
    )
    siamese = SiameseConfig(
        margin=values["siamese.margin"],
        k=values["siamese.k"],
        mining_mode=values["siamese.mining_mode"],
        gamma=values["siamese.gamma"],
        epochs=values["siamese.epochs"],
        batch_size=values["siamese.batch_size"],
        seed=values["seed"],
        learning_rate=values["siamese.learning_rate"],
        refine_hidden=values["siamese.refine_hidden"],
        drop_last=values["siamese.drop_last"],
    )
    evaluation = EvalConfig(
        m=values["eval.m"],
        n_values=values["eval.n_values"],
        top_k=values["eval.top_k"],
        n_queries=values["eval.n_queries"],
        n_documents=values["eval.n_documents"],
    )
    return RunConfig(
        seed=values["seed"],
        synth=synth,
        disentangle=disentangle,
        siamese=siamese,
        eval=evaluation,
        resolved=values,
    )

