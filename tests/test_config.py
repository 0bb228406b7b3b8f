"""The configuration schema, derived from the config dataclasses, and the
checks applied to settings when a config is parsed."""

import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from segembed.config import SCHEMA, EvalConfig, parse_config
from segembed.corpus import SynthConfig
from segembed.disentangle import DisentangleConfig
from segembed.errors import ConfigError
from segembed.siamese import SiameseConfig

README = Path(__file__).resolve().parents[1] / "README.md"

DEFAULT_TEXT = """\
eval.m = 70
eval.n_documents = 40
eval.n_queries = 80
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
        keys = [key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])]
        assert sorted(keys) == sorted(SCHEMA)


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
            ({"margin": math.nan}, "speaker margin must be > 0"),
            ({"margin": 0.0}, "speaker margin must be > 0"),
            ({"alpha_spk": math.nan}, "loss weights must be >= 0"),
            ({"alpha_adv": math.nan}, "loss weights must be >= 0"),
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
        with pytest.raises(ConfigError, match="scales must be >= 0"):
            SynthConfig(**{field: math.nan})

    def test_disc_learning_rate_left_out_follows_learning_rate(self):
        assert DisentangleConfig(learning_rate=0.02).disc_learning_rate == 0.02
