"""Component contracts: shapes, determinism, optimizer, checkpoints, and
finite-difference gradient verification."""

import time

import numpy as np
import pytest

from segembed.errors import DataError, DimensionError, NumericError
from segembed.neuralcore import (
    ComponentParams,
    ModelDims,
    decode,
    discriminate,
    encode,
    grad_step,
    gradient_check,
    init_decoder,
    init_discriminator,
    init_encoder,
    init_optim,
    init_refine,
    load_checkpoint,
    save_checkpoint,
    transform_refine,
)

DIMS = ModelDims(feature_dim=39, embed_dim=256, enc_hidden=16, dec_hidden=16,
                 disc_hidden=128, refine_hidden=16)
SMALL = ModelDims(feature_dim=4, embed_dim=6, enc_hidden=5, dec_hidden=5,
                  disc_hidden=5, refine_hidden=5)
RNG = np.random.default_rng(11)


class TestEncoders:
    def test_output_dimension_is_256(self):
        params = init_encoder(DIMS, seed=0)
        v = encode(params, RNG.normal(size=(7, 39)))
        assert v.shape == (256,)

    def test_deterministic(self):
        params = init_encoder(DIMS, seed=0)
        x = RNG.normal(size=(7, 39))
        assert np.array_equal(encode(params, x), encode(params, x))

    def test_length_invariance_of_output_shape(self):
        params = init_encoder(DIMS, seed=0)
        for frames in (5, 9):
            assert encode(params, RNG.normal(size=(frames, 39))).shape == (256,)

    def test_feature_dim_mismatch(self):
        params = init_encoder(DIMS, seed=0)
        with pytest.raises(DimensionError):
            encode(params, RNG.normal(size=(7, 13)))

    def test_rnn_mode(self):
        dims = ModelDims(feature_dim=5, embed_dim=8, enc_hidden=6,
                         encoder_mode="rnn")
        params = init_encoder(dims, seed=0)
        v = encode(params, RNG.normal(size=(4, 5)), mode="rnn")
        assert v.shape == (8,)


class TestDecoder:
    def test_shape_contract(self):
        params = init_decoder(DIMS, seed=1)
        x = decode(params, RNG.normal(size=256), RNG.normal(size=256), 7)
        assert x.shape == (7, 39)

    def test_deterministic(self):
        params = init_decoder(DIMS, seed=1)
        v_p, v_s = RNG.normal(size=256), RNG.normal(size=256)
        assert np.array_equal(decode(params, v_p, v_s, 4), decode(params, v_p, v_s, 4))

    def test_bad_length(self):
        params = init_decoder(DIMS, seed=1)
        with pytest.raises(DataError):
            decode(params, np.zeros(256), np.zeros(256), 0)


class TestDiscriminator:
    def test_probability_range(self):
        params = init_discriminator(DIMS, seed=2)
        p = discriminate(params, RNG.normal(size=256), RNG.normal(size=256))
        assert 0.0 < p < 1.0

    def test_hidden_width_follows_config(self):
        params = init_discriminator(DIMS, seed=2)
        assert params.arrays["w1"].shape == (512, 128)
        assert params.arrays["w2"].shape == (128, 128)

    def test_zero_output_layer_gives_half(self):
        params = init_discriminator(DIMS, seed=2)
        params.arrays["w_out"][:] = 0.0
        params.arrays["b_out"][:] = 0.0
        p = discriminate(params, RNG.normal(size=256), RNG.normal(size=256))
        assert p == pytest.approx(0.5)

    def test_dim_mismatch(self):
        params = init_discriminator(DIMS, seed=2)
        with pytest.raises(DimensionError):
            discriminate(params, np.zeros(128), np.zeros(256))


class TestRefine:
    def test_identity_at_init(self):
        params = init_refine(DIMS, seed=3, identity=True)
        v = RNG.normal(size=256)
        assert np.array_equal(transform_refine(params, v), v)

    def test_shape_and_determinism(self):
        params = init_refine(DIMS, seed=3, identity=False)
        v = RNG.normal(size=256)
        z = transform_refine(params, v)
        assert z.shape == (256,)
        assert np.array_equal(z, transform_refine(params, v))
        assert not np.array_equal(z, v)


class TestGradStep:
    def test_zero_grads_keep_params(self):
        params = ComponentParams("c", {"w": np.array([1.0, -2.0])})
        state = init_optim(params)
        new_params, new_state = grad_step(params, {"w": np.zeros(2)}, state)
        assert np.array_equal(new_params.arrays["w"], params.arrays["w"])
        assert new_state.step == 1

    def test_nan_gradient_rejected(self):
        params = ComponentParams("c", {"w": np.array([1.0])})
        state = init_optim(params)
        with pytest.raises(NumericError, match="w"):
            grad_step(params, {"w": np.array([np.nan])}, state)

    def test_shape_mismatch_rejected(self):
        params = ComponentParams("c", {"w": np.zeros(3)})
        with pytest.raises(DimensionError):
            grad_step(params, {"w": np.zeros(2)}, init_optim(params))

    def test_adam_deterministic(self):
        params = ComponentParams("c", {"w": np.array([1.0, 2.0])})
        g = {"w": np.array([0.3, -0.1])}
        a, _ = grad_step(params, g, init_optim(params))
        b, _ = grad_step(params, g, init_optim(params))
        assert np.array_equal(a.arrays["w"], b.arrays["w"])


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        components = {
            "E_p": init_encoder(SMALL, seed=0),
            "Dec": init_decoder(SMALL, seed=1),
        }
        path = tmp_path / "model.json"
        save_checkpoint(path, components, {"note": "t"})
        loaded, meta = load_checkpoint(path)
        assert meta == {"note": "t"}
        for name, params in components.items():
            for key, arr in params.arrays.items():
                assert np.array_equal(loaded[name].arrays[key], arr)


class TestGradientCheck:
    def test_all_components_all_seeds_under_tolerance(self):
        start = time.time()
        for component in ("E_p", "E_s", "Dec", "D_s", "refine"):
            for seed in (0, 1, 2):
                assert gradient_check(component, seed) < 1e-4
        assert time.time() - start < 10.0

    def test_rnn_encoder_gradients(self):
        dims = ModelDims(feature_dim=4, embed_dim=6, enc_hidden=5,
                         encoder_mode="rnn")
        assert gradient_check("E_p", 0, dims) < 1e-4
