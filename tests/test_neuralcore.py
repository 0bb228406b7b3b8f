"""Component contracts: shapes, determinism, optimizer, checkpoints, and
finite-difference gradient verification."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segembed.errors import DataError, DimensionError, NumericError
from segembed.neuralcore import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
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


def per_key_adam(arrays, grads, m, v, step, learning_rate):
    """Reference: one Adam update of each named array on its own."""
    new_arrays, new_m, new_v = {}, {}, {}
    for key, arr in arrays.items():
        g = np.asarray(grads[key], dtype=np.float64)
        m_k = ADAM_BETA1 * m[key] + (1.0 - ADAM_BETA1) * g
        v_k = ADAM_BETA2 * v[key] + (1.0 - ADAM_BETA2) * g * g
        m_hat = m_k / (1.0 - ADAM_BETA1**step)
        v_hat = v_k / (1.0 - ADAM_BETA2**step)
        new_arrays[key] = arr - learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        new_m[key] = m_k
        new_v[key] = v_k
    return new_arrays, new_m, new_v


SHAPES = st.dictionaries(
    st.sampled_from(["w_in", "b_in", "w", "b", "w_out"]),
    st.lists(st.integers(0, 4), max_size=3).map(tuple),
    min_size=1,
    max_size=4,
)


class TestFlatAdam:
    @settings(max_examples=150, deadline=None)
    @given(SHAPES, st.integers(3, 6), st.integers(0, 2**32 - 1))
    def test_matches_per_key_adam_bit_for_bit(self, shapes, n_steps, seed):
        rng = np.random.default_rng(seed)
        arrays = {k: rng.normal(size=s) for k, s in shapes.items()}
        learning_rate = float(rng.uniform(1e-4, 0.5))
        params = ComponentParams("c", arrays)
        state = init_optim(params, learning_rate)
        ref = {k: a.copy() for k, a in arrays.items()}
        ref_m = {k: np.zeros_like(a) for k, a in arrays.items()}
        ref_v = {k: np.zeros_like(a) for k, a in arrays.items()}
        for step in range(1, n_steps + 1):
            grads = {
                k: rng.normal(size=s) * 10.0 ** rng.integers(-6, 6, size=s)
                for k, s in shapes.items()
            }
            params, state = grad_step(params, grads, state)
            ref, ref_m, ref_v = per_key_adam(ref, grads, ref_m, ref_v, step, learning_rate)
        assert state.step == n_steps
        for key in shapes:
            assert params.arrays[key].tobytes() == ref[key].tobytes()
        for flat, ref_moment in ((state.m, ref_m), (state.v, ref_v)):
            expected = np.concatenate([ref_moment[k].ravel() for k in params.arrays])
            assert flat.tobytes() == expected.tobytes()

    def test_arrays_are_views_of_one_vector(self):
        params = init_decoder(SMALL, seed=1)
        assert params.flat.dtype == np.float64 and params.flat.ndim == 1
        assert params.flat.flags.c_contiguous
        offset = 0
        for key, arr in params.arrays.items():
            assert arr.base is params.flat, key
            assert np.shares_memory(arr, params.flat[offset : offset + arr.size])
            offset += arr.size
        assert offset == params.flat.size
        params.flat[-1] = 7.0
        assert params.arrays["b_out"][-1] == 7.0
        new, state = grad_step(
            params, {k: np.ones_like(a) for k, a in params.arrays.items()},
            init_optim(params),
        )
        assert all(a.base is new.flat for a in new.arrays.values())
        assert state.m.shape == state.v.shape == new.flat.shape

    def test_errors_name_the_second_key(self):
        params = ComponentParams("c", {"a": np.zeros(2), "b": np.zeros(3)})
        ok = np.ones(2)
        with pytest.raises(NumericError, match=r"^non-finite gradient for c\.b$"):
            grad_step(params, {"a": ok, "b": np.array([0.0, np.inf, 0.0])},
                      init_optim(params))
        with pytest.raises(DimensionError, match=r"\(2,\) != parameter shape \(3,\) for c\.b"):
            grad_step(params, {"a": ok, "b": np.zeros(2)}, init_optim(params))
        with pytest.raises(DataError, match=r"^missing gradient for c\.b$"):
            grad_step(params, {"a": ok}, init_optim(params))
        with pytest.raises(NumericError, match=r"^c\.b: non-finite parameter values$"):
            ComponentParams("c", {"a": np.zeros(2), "b": np.array([1.0, np.nan])})

    def test_update_that_overflows_names_its_key(self):
        params = ComponentParams("c", {"a": np.zeros(2), "b": np.array([1.7e308])})
        grads = {"a": np.ones(2), "b": np.array([-1.0])}
        with np.errstate(over="ignore"), pytest.raises(
            NumericError, match=r"^c\.b: non-finite parameter values$"
        ):
            grad_step(params, grads, init_optim(params, learning_rate=1e308))


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

    def test_flat_params_after_training_steps_roundtrip_bit_exact(self, tmp_path):
        params = init_encoder(SMALL, seed=4)
        state = init_optim(params, 0.05)
        rng = np.random.default_rng(4)
        for _ in range(3):
            grads = {k: rng.normal(size=a.shape) for k, a in params.arrays.items()}
            params, state = grad_step(params, grads, state)
        path = tmp_path / "model.json"
        save_checkpoint(path, {"E_p": params})
        loaded = load_checkpoint(path)[0]["E_p"]
        assert list(loaded.arrays) == list(params.arrays)
        assert loaded.flat.tobytes() == params.flat.tobytes()
        for key, arr in params.arrays.items():
            assert loaded.arrays[key].shape == arr.shape
            assert loaded.arrays[key].base is loaded.flat


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
