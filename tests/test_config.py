"""The configuration schema, derived from the config dataclasses, and the
checks applied to settings when a config is parsed."""

import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segembed.config import SCHEMA, EvalConfig, _format, parse_config
from segembed.corpus import SynthConfig
from segembed.disentangle import DisentangleConfig
from segembed.errors import ConfigError, DataError
from segembed.neuralcore import ModelDims
from segembed.siamese import SiameseConfig

README = Path(__file__).resolve().parents[1] / "README.md"

DEFAULT_TEXT = """\
eval.m = 20
eval.n_documents = 40
eval.n_queries = 20
eval.n_values = 70,140,210,280
eval.top_k = 1,5,10,20,40,60
model.dec_hidden = 128
model.disc_hidden = 128
model.embed_dim = 256
model.enc_hidden = 128
model.encoder_mode = pool
seed = 0
siamese.batch_size = 32
siamese.drop_last = true
siamese.epochs = 20
siamese.gamma = 1.0
siamese.k = 8
siamese.learning_rate = 0.001
siamese.margin = 1.0
siamese.mining_mode = topk_global
siamese.refine_hidden = 128
synth.feature_dim = 39
synth.instances_per_unit_speaker = 20
synth.length_max = 12
synth.length_min = 6
synth.level = word
synth.n_speakers = 8
synth.n_units = 20
synth.noise_scale = 0.05
synth.speaker_shift_scale = 0.5
train.alpha_adv = 1.0
train.alpha_spk = 1.0
train.batch_size = 32
train.disc_learning_rate = -1.0
train.disc_steps = 1
train.disc_warmup_epochs = 0
train.drop_last = true
train.epochs = 30
train.learning_rate = 0.001
train.margin = 1.0
"""

# A valid value other than the default, for the keys where adding to the
# default would not do.
CHANGED = {
    "synth.level": "syllable",
    "model.encoder_mode": "rnn",
    "siamese.mining_mode": "knn_graph",
    "train.disc_learning_rate": "0.25",
}


def _changed(key):
    kind, default = SCHEMA[key]
    if key in CHANGED:
        return CHANGED[key]
    if kind is bool:
        return str(not default).lower()
    if kind is tuple:
        return ",".join(str(v) for v in default + (3,))
    return str(default + 1)


def _settings(cfg):
    """(config class name, field name) -> value over the four config objects."""
    parts = (cfg.synth, cfg.disentangle, cfg.siamese, cfg.eval)
    return {(type(p).__name__, f.name): getattr(p, f.name) for p in parts for f in fields(p)}


class TestDerivedSchema:
    def test_default_text(self):
        assert parse_config(None).to_text() == DEFAULT_TEXT
        assert len(SCHEMA) == DEFAULT_TEXT.count("\n") == 39

    def test_every_field_but_seed_is_set_by_exactly_one_key(self):
        # disc_learning_rate is set apart from learning_rate, so that a
        # change of train.learning_rate moves one field only.
        base_overrides = ["train.disc_learning_rate=0.5"]
        base = _settings(parse_config(None, base_overrides))
        setters = {name: [] for name in base}
        for key in SCHEMA:
            cfg = parse_config(None, [*base_overrides, f"{key}={_changed(key)}"])
            moved = [name for name, value in _settings(cfg).items() if value != base[name]]
            if key == "seed":
                assert moved == [("DisentangleConfig", "seed"), ("SiameseConfig", "seed")]
                continue
            assert len(moved) == 1, (key, moved)
            setters[moved[0]].append(key)
        del setters[("DisentangleConfig", "seed")], setters[("SiameseConfig", "seed")]
        assert setters.pop(("SynthConfig", "length_range")) == [
            "synth.length_min", "synth.length_max"]
        assert {name: len(keys) for name, keys in setters.items()} == dict.fromkeys(setters, 1)
        classes = (SynthConfig, DisentangleConfig, SiameseConfig, EvalConfig)
        assert sum(len(fields(cls)) for cls in classes) == len(base)

    def test_model_keys_land_on_the_disentangle_config(self):
        cfg = parse_config(None, [
            "model.embed_dim=7", "model.enc_hidden=9", "model.dec_hidden=11",
            "model.disc_hidden=13", "model.encoder_mode=rnn",
        ])
        d = cfg.disentangle
        assert (d.embed_dim, d.enc_hidden, d.dec_hidden, d.disc_hidden, d.encoder_mode) == (
            7, 9, 11, 13, "rnn")

    @pytest.mark.parametrize("disc_lr", ["-1", "0", "-0.5"])
    def test_non_positive_disc_learning_rate_follows_learning_rate(self, disc_lr):
        cfg = parse_config(
            None, ["train.learning_rate=0.02", f"train.disc_learning_rate={disc_lr}"])
        assert cfg.disentangle.disc_learning_rate == cfg.disentangle.learning_rate == 0.02
        assert f"train.disc_learning_rate = {float(disc_lr)!r}\n" in cfg.to_text()

    def test_length_keys_make_the_length_range(self):
        cfg = parse_config(None, ["synth.length_min=3", "synth.length_max=9"])
        assert cfg.synth.length_range == (3, 9)

    def test_readme_key_table_lists_exactly_the_schema(self):
        text = README.read_text(encoding="utf-8")
        table = text.split("### Configuration key reference", 1)[1].split("\n\n")[1]
        rows = [line for line in table.splitlines() if line.startswith("| `")]
        cells = [row.split("|") for row in rows]
        keys = [re.findall(r"`([^`]+)`", cell[1]) for cell in cells]
        assert sorted(key for row in keys for key in row) == sorted(SCHEMA)
        for row, cell in zip(keys, cells):
            defaults = [_format(SCHEMA[key][1]) for key in row]
            assert cell[3].strip().split(" / ") == defaults, row


class TestParsedValues:
    @pytest.mark.parametrize("raw", ["nan", "NaN", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("key", ["train.margin", "train.learning_rate", "synth.noise_scale"])
    def test_non_finite_float_rejected_by_key(self, key, raw):
        with pytest.raises(ConfigError, match=f"override: key '{re.escape(key)}' must be finite"):
            parse_config(None, [f"{key}={raw}"])

    def test_bool_in_a_file_may_have_spaces(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("train.drop_last = no\nsiamese.drop_last =  false \n")
        cfg = parse_config(path)
        assert cfg.disentangle.drop_last is False
        assert cfg.siamese.drop_last is False

    @pytest.mark.parametrize(
        "line, message",
        [
            ("train.epochz = 3", "unknown configuration key 'train.epochz'"),
            ("train.epochs = soon", "key 'train.epochs' expects int, got 'soon'"),
            ("eval.top_k = 1,x", "key 'eval.top_k' expects int_list, got '1,x'"),
            ("train.margin = nan", "key 'train.margin' must be finite, got 'nan'"),
        ],
    )
    def test_file_errors_name_the_line(self, tmp_path, line, message):
        path = tmp_path / "run.cfg"
        path.write_text(f"# settings\n{line}\n")
        with pytest.raises(ConfigError) as info:
            parse_config(path)
        assert str(info.value) == f"{path}:2: {message}"

    def test_bytes_not_utf8_are_named_by_their_offset_in_the_file(self, tmp_path):
        """Past the first 8 KiB decode chunk too."""
        path = tmp_path / "run.cfg"
        path.write_bytes((b"# " + b"x" * 97 + b"\n") * 200 + b"seed = 1\xc3(\n")
        with pytest.raises(ConfigError) as info:
            parse_config(path)
        assert str(info.value) == (
            f"{path}: not valid UTF-8 at byte 20008 (line 201): invalid continuation byte")

    def test_override_errors_keep_their_prefix(self):
        with pytest.raises(ConfigError) as info:
            parse_config(None, ["train.epochs=soon"])
        assert str(info.value) == "override: key 'train.epochs' expects int, got 'soon'"


class TestSettingChecks:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"learning_rate": 0.0}, "learning_rate must be > 0"),
            ({"learning_rate": -1.0}, "learning_rate must be > 0"),
            ({"learning_rate": math.nan}, "learning_rate must be > 0"),
            ({"disc_learning_rate": 0.0}, "disc_learning_rate must be > 0"),
            ({"disc_learning_rate": math.nan}, "disc_learning_rate must be > 0"),
            ({"margin": math.nan}, "train.margin must be > 0, got nan"),
            ({"margin": 0.0}, "train.margin must be > 0, got 0.0"),
            ({"alpha_spk": math.nan}, "train.alpha_spk must be >= 0, got nan"),
            ({"alpha_adv": math.nan}, "train.alpha_adv must be >= 0, got nan"),
        ],
    )
    def test_disentangle_config(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            DisentangleConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"learning_rate": 0.0}, "learning_rate must be > 0"),
            ({"learning_rate": -1e-3}, "learning_rate must be > 0"),
            ({"learning_rate": math.nan}, "learning_rate must be > 0"),
            ({"margin": math.nan}, "margin must be > 0"),
            ({"gamma": math.nan}, "gamma must be >= 0"),
            ({"k": 2.5}, "k must be an integer, got 2.5"),
            ({"k": 2.0}, "k must be an integer, got 2.0"),
            ({"k": "3"}, "k must be an integer, got '3'"),
            ({"k": True}, "k must be an integer, got True"),
        ],
    )
    def test_siamese_config(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            SiameseConfig(**kwargs)

    def test_siamese_config_takes_numpy_integer_k(self):
        assert SiameseConfig(k=np.int64(3)).k == 3

    @pytest.mark.parametrize("value", [None, True, 2.5, 1.0, "3"])
    @pytest.mark.parametrize(
        "cls, field",
        [(DisentangleConfig, f) for f in
         ("seed", "epochs", "batch_size", "disc_steps", "disc_warmup_epochs")]
        + [(SiameseConfig, f) for f in ("seed", "epochs", "batch_size")],
    )
    def test_integer_fields_are_config_errors_naming_the_field(self, cls, field, value):
        message = re.escape(f"{field} must be an integer, got {value!r}")
        with pytest.raises(ConfigError, match=message):
            cls(**{field: value})
        default = getattr(cls(), field)
        assert getattr(cls(**{field: np.int32(default)}), field) == default
        if field == "seed":
            assert cls(seed=-3).seed == -3

    @pytest.mark.parametrize("field", ["speaker_shift_scale", "noise_scale"])
    def test_synth_config_scale_nan(self, field):
        with pytest.raises(ConfigError, match=f"synth.{field} must be >= 0, got nan"):
            SynthConfig(**{field: math.nan})

    def test_disc_learning_rate_left_out_follows_learning_rate(self):
        assert DisentangleConfig(learning_rate=0.02).disc_learning_rate == 0.02


CHECKED = (SynthConfig, DisentangleConfig, SiameseConfig, EvalConfig, ModelDims)

# annotated type -> values of the wrong type: None, a bool for a number, a
# string, a float for an int, an infinite float, a non-tuple (or a tuple of
# non-integers) for a tuple
WRONG_TYPE = {
    int: [None, True, "3", 2.5, 2.0],
    float: [None, True, "1", "x", math.inf, -math.inf],
    float | None: [True, "1", math.inf],
    bool: [None, 0, 1, "no"],
    str: [None, True, 3],
    tuple: [None, 5, [1, 2], "1,2", (), (1.5,), (True,), (1, None)],
}


def _field_cases(*kinds):
    """(class, key, annotated type, bound) of every checked field, or of
    those of the given types."""
    for cls in CHECKED:
        types = {f.name: f.type for f in fields(cls)}
        for key, bound in cls.KEYS.items():
            kind = types[key.rpartition(".")[2]]
            if not kinds or kind in kinds:
                yield pytest.param(cls, key, kind, bound, id=f"{cls.__name__}-{key}")


def _out_of_bound(kind, bound):
    """Values of the right type that miss ``bound``, NaN for a real number."""
    if kind is str:
        return ["other"]
    if bound is None:
        return []
    op, limit = bound.split()
    if kind in (float, float | None):
        return [math.nan, float(limit) if op == ">" else float(limit) - 1e-9]
    low = int(limit) - (op == ">=")
    return [(low,), (low + 5, low)] if kind is tuple else [low, low - 1]


class TestFieldChecks:
    @pytest.mark.parametrize("cls", CHECKED)
    def test_keys_table_lists_every_field_in_order(self, cls):
        assert [key.rpartition(".")[2] for key in cls.KEYS] == [f.name for f in fields(cls)]

    @pytest.mark.parametrize("cls, key, kind, bound", _field_cases())
    def test_every_bad_value_is_an_error_naming_the_key(self, cls, key, kind, bound):
        error = DataError if cls is ModelDims else ConfigError
        name = key.rpartition(".")[2]
        cases = [(value, None) for value in WRONG_TYPE[kind]]
        cases += [(value, bound) for value in _out_of_bound(kind, bound)]
        for value, named_bound in cases:
            with pytest.raises(error) as info:
                cls(**{name: value})
            message = str(info.value)
            assert message.startswith(f"{key} must "), (value, message)
            assert str(named_bound or "") in message, (value, message)

    @pytest.mark.parametrize("cls, key, kind, bound", _field_cases(int, tuple))
    def test_numpy_integers_are_accepted(self, cls, key, kind, bound):
        name = key.rpartition(".")[2]
        default = getattr(cls(), name)
        value = tuple(map(np.int64, default)) if kind is tuple else np.int32(default)
        assert getattr(cls(**{name: value}), name) == default

    @pytest.mark.parametrize("length_range", [(2,), (1, 2, 3), (5, 4)])
    def test_length_range_is_a_min_max_pair(self, length_range):
        with pytest.raises(ConfigError, match=r"^synth\.length_range must be a \(min, max\) pair"):
            SynthConfig(length_range=length_range)
        assert SynthConfig(length_range=(3, 3)).length_range == (3, 3)

    @pytest.mark.parametrize(
        "cls, kwargs, key",
        [  # constructed without error, or with a bare TypeError or ValueError, before
            (DisentangleConfig, {"embed_dim": 2.5}, "model.embed_dim"),
            (DisentangleConfig, {"embed_dim": True}, "model.embed_dim"),
            (SiameseConfig, {"refine_hidden": 2.5}, "siamese.refine_hidden"),
            (DisentangleConfig, {"drop_last": "no"}, "train.drop_last"),
            (DisentangleConfig, {"learning_rate": "x"}, "train.learning_rate"),
            (DisentangleConfig, {"margin": None}, "train.margin"),
            (SiameseConfig, {"gamma": "1"}, "siamese.gamma"),
            (SynthConfig, {"feature_dim": True}, "synth.feature_dim"),
            (SynthConfig, {"length_range": (2.5, 4)}, "synth.length_range"),
            (EvalConfig, {"m": 2.5}, "eval.m"),
            (EvalConfig, {"top_k": (1.5,)}, "eval.top_k"),
            (SiameseConfig, {"drop_last": 0}, "siamese.drop_last"),
            (SynthConfig, {"n_units": 2.5}, "synth.n_units"),
            (SynthConfig, {"noise_scale": "x"}, "synth.noise_scale"),
            (EvalConfig, {"m": None}, "eval.m"),
            (EvalConfig, {"top_k": 5}, "eval.top_k"),
            (SynthConfig, {"length_range": (2,)}, "synth.length_range"),
        ],
    )
    def test_ill_typed_settings_are_config_errors(self, cls, kwargs, key):
        with pytest.raises(ConfigError, match=f"^{re.escape(key)} must "):
            cls(**kwargs)


def _bounded(kind, bound):
    """A strategy of valid ``kind`` values within ``bound``."""
    if kind is str:
        return st.sampled_from(bound)
    if kind is bool:
        return st.booleans()
    limit = None if bound is None else float(bound.split()[1])
    if kind is float:
        return st.floats(min_value=limit, exclude_min=bound.startswith("> "), max_value=1e6,
                         allow_nan=False)
    ints = st.integers(min_value=None if limit is None else int(limit), max_value=10**6)
    return st.lists(ints, min_size=1, max_size=6).map(tuple) if kind is tuple else ints


@st.composite
def _valid_overrides(draw):
    """``key=value`` overrides of every key, each drawn within its class's bound."""
    values = {}
    for cls in CHECKED[:4]:
        kinds = {f.name: f.type for f in fields(cls)}
        for key, bound in cls.KEYS.items():
            kind = kinds[key.rpartition(".")[2]]
            if key == "synth.length_range":  # one key per end, min <= max
                ends = sorted(draw(st.lists(_bounded(int, bound), min_size=2, max_size=2)))
                values["synth.length_min"], values["synth.length_max"] = ends
            elif kind == float | None:
                values[key] = draw(st.floats(-1e6, 1e6, allow_nan=False))
            else:
                values[key] = draw(_bounded(kind, bound))
    return [f"{key}={_format(value)}" for key, value in values.items()]


@settings(max_examples=60, deadline=None)
@given(overrides=_valid_overrides())
def test_resolved_config_reads_back_to_the_same_echo(tmp_path_factory, overrides):
    assert sorted(item.partition("=")[0] for item in overrides) == sorted(SCHEMA)
    first = parse_config(None, overrides).to_text()
    path = tmp_path_factory.mktemp("echo") / "resolved_config.txt"
    path.write_text(first, encoding="utf-8")
    assert parse_config(path).to_text() == first
