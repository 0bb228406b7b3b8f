"""Component contracts: shapes, determinism, optimizer, checkpoints, and
finite-difference gradient verification."""

import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segembed import autodiff as ad
from segembed import neuralcore as nc
from segembed.autodiff import Tensor
from segembed.errors import DataError, DimensionError, NumericError
from segembed.neuralcore import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    ENCODER_MODES,
    ComponentParams,
    ModelDims,
    decoder_forward,
    encode,
    encoder_forward,
    grad_step,
    init_decoder,
    init_discriminator,
    init_encoder,
    init_optim,
    discriminator_forward,
    init_refine,
    load_checkpoint,
    refine_forward,
    save_checkpoint,
)

import gradcheck
from gradcheck import gradient_check, max_fd_error, random_refine

DIMS = ModelDims(feature_dim=39, embed_dim=256, enc_hidden=16, dec_hidden=16,
                 disc_hidden=128, refine_hidden=16)
SMALL = ModelDims(feature_dim=4, embed_dim=6, enc_hidden=5, dec_hidden=5,
                  disc_hidden=5, refine_hidden=5)
SMALL_RNN = replace(SMALL, encoder_mode="rnn")
RNG = np.random.default_rng(11)


@pytest.mark.parametrize(
    "key, value", [("embed_dim", 0), ("enc_hidden", -1), ("feature_dim", 2.0),
                   ("refine_hidden", True)],
)
def test_model_dims_reject_widths_that_are_not_integers_from_1(key, value):
    needs = ">= 1" if type(value) is int else "an integer"
    with pytest.raises(DataError, match=f"^{key} must be {needs}, got {value!r}$"):
        replace(SMALL, **{key: value})


WIDE = {  # a forward fed inputs of the wrong width, and the error it must give
    "encoder": (lambda: encoder_forward(init_encoder(SMALL, 0), np.zeros((3, 5)), [3]),
                r"encoder: expected \(T, 4\) feature matrix, got \(3, 5\)"),
    "rnn encoder": (lambda: encoder_forward(init_encoder(SMALL_RNN, 0), np.zeros((3, 5)), [3]),
                    r"encoder: expected \(T, 4\) feature matrix, got \(3, 5\)"),
    "decoder v_p": (lambda: decoder_forward(init_decoder(SMALL, 0), np.zeros((2, 5)),
                                            np.zeros((2, 6)), [1, 2]),
                    r"decoder: expected \(B, 6\) v_p, got \(2, 5\)"),
    "decoder v_s": (lambda: decoder_forward(init_decoder(SMALL, 0), np.zeros((2, 6)),
                                            np.zeros((2, 7)), [1, 2]),
                    r"decoder: expected \(B, 6\) v_s, got \(2, 7\)"),
    "discriminator": (lambda: discriminator_forward(init_discriminator(SMALL, 0),
                                                    np.zeros((3, 11))),
                      r"discriminator: expected \(P, 12\) pair rows, got \(3, 11\)"),
    "refine": (lambda: refine_forward(init_refine(SMALL, 0), np.zeros((2, 5))),
               r"refine: expected \(B, 6\) v, got \(2, 5\)"),
    "refine 1-D": (lambda: refine_forward(init_refine(SMALL, 0), np.zeros(6)),
                   r"refine: expected \(B, 6\) v, got \(6,\)"),
}


@pytest.mark.parametrize("case", WIDE)
def test_forwards_reject_inputs_of_the_wrong_width(case):
    forward, message = WIDE[case]
    with pytest.raises(DimensionError, match=f"^{message}$"):
        forward()


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

    @pytest.mark.parametrize("mode", ENCODER_MODES)
    def test_empty_sequence(self, mode):
        params = init_encoder(replace(SMALL, encoder_mode=mode), seed=0)
        with pytest.raises(DataError, match="lengths must be >= 1, got \\[0\\]"):
            encode(params, np.zeros((0, 4)))

    def test_rnn_mode(self):
        dims = ModelDims(feature_dim=5, embed_dim=8, enc_hidden=6,
                         encoder_mode="rnn")
        params = init_encoder(dims, seed=0)
        v = encode(params, RNG.normal(size=(4, 5)))
        assert v.shape == (8,)

    @pytest.mark.parametrize("mode", ENCODER_MODES)
    @pytest.mark.parametrize(
        "lengths, message",
        [
            ([3, 0, 2], r"segment lengths must be >= 1, got \[3, 0, 2\]"),
            ([6, -1], r"segment lengths must be >= 1, got \[6, -1\]"),
            ([3, 1], "segment lengths sum to 4, but the batch has 5 frame rows"),
            ([3, 3], "segment lengths sum to 6, but the batch has 5 frame rows"),
        ],
    )
    def test_bad_packed_lengths_are_data_errors(self, mode, lengths, message):
        params = init_encoder(replace(SMALL, encoder_mode=mode), seed=0)
        with pytest.raises(DataError, match=message):
            encoder_forward(params, RNG.normal(size=(5, 4)), lengths)


def per_segment_rnn(arrays, frames, lengths):
    """Reference: each segment's recurrence run on its own, frame by frame."""
    out, start = [], 0
    for n in lengths:
        state = np.zeros(arrays["b_in"].shape)
        for x in frames[start : start + n]:
            state = np.tanh(x @ arrays["w_in"] + state @ arrays["w_rec"] + arrays["b_in"])
        out.append(state @ arrays["w_out"] + arrays["b_out"])
        start += n
    return np.array(out)


def _packed(rng, lengths):
    return rng.normal(size=(sum(lengths), SMALL_RNN.feature_dim))


LENGTHS = st.one_of(
    st.lists(st.integers(1, 12), min_size=1, max_size=70),
    st.builds(lambda n, t: [t] * n, st.integers(1, 70), st.integers(1, 12)),
)


class TestBatchedRecurrence:
    """The ``rnn`` encoder steps all segments of a batch together; each row
    must match the segment's own frame-by-frame recurrence."""

    @settings(max_examples=60, deadline=None)
    @given(LENGTHS, st.integers(0, 2**32 - 1))
    @example([1] * 70, 0)
    @example([12] * 70, 1)
    @example([2, 5, 5, 1, 5, 2, 12, 1], 2)
    def test_matches_per_segment_oracle_and_permutes_rows(self, lengths, seed):
        rng = np.random.default_rng(seed)
        params = init_encoder(SMALL_RNN, seed % 1000)
        frames = _packed(rng, lengths)
        out = encoder_forward(params, frames, lengths).data
        assert out.shape == (len(lengths), SMALL_RNN.embed_dim)
        np.testing.assert_allclose(
            out, per_segment_rnn(params.arrays, frames, lengths), rtol=0, atol=1e-12
        )
        perm = rng.permutation(len(lengths))
        starts = np.cumsum(lengths) - lengths
        moved = np.concatenate([frames[starts[i] : starts[i] + lengths[i]] for i in perm])
        permuted = encoder_forward(params, moved, [lengths[i] for i in perm]).data
        np.testing.assert_allclose(permuted, out[perm], rtol=0, atol=1e-12)

    def test_encode_of_one_segment_equals_its_batched_row(self):
        lengths = [5, 1, 12, 5, 3, 1, 7]
        params = init_encoder(SMALL_RNN, seed=3)
        frames = _packed(np.random.default_rng(3), lengths)
        batched = encoder_forward(params, frames, lengths).data
        # no argument names the kind: the forwards read it from ``w_rec``
        oracle = per_segment_rnn(params.arrays, frames, lengths)
        np.testing.assert_allclose(batched, oracle, rtol=0, atol=1e-12)
        starts = np.cumsum(lengths) - lengths
        for row, (start, n) in enumerate(zip(starts, lengths)):
            alone = encode(params, frames[start : start + n])
            np.testing.assert_allclose(alone, batched[row], rtol=0, atol=1e-12)

    def test_gradients_with_lengths_that_shrink_mid_sequence(self):
        """``gradient_check``'s comparison, with segments that stop at steps
        1 and 2."""
        lengths = [3, 1, 2]
        rng = np.random.default_rng(5)
        params = init_encoder(SMALL_RNN, seed=5)
        frames = _packed(rng, lengths)
        target = ad.constant(rng.normal(size=(len(lengths), SMALL_RNN.embed_dim)))

        def loss(p, grad):
            out = encoder_forward(p, frames, lengths, grad)
            return ad.tmean(ad.square(out - target))

        assert max_fd_error(params, loss) < 1e-4


class TestDecoder:
    def test_shape_contract(self):
        params = init_decoder(DIMS, seed=1)
        x = decoder_forward(params, RNG.normal(size=(2, 256)),
                            RNG.normal(size=(2, 256)), [7, 3]).data
        assert x.shape == (10, 39)

    def test_deterministic(self):
        params = init_decoder(DIMS, seed=1)
        v_p, v_s = RNG.normal(size=(1, 256)), RNG.normal(size=(1, 256))
        assert np.array_equal(decoder_forward(params, v_p, v_s, [4]).data,
                              decoder_forward(params, v_p, v_s, [4]).data)

    def test_bad_length(self):
        params = init_decoder(DIMS, seed=1)
        with pytest.raises(DataError, match=r"segment lengths must be >= 1, got \[0\]"):
            decoder_forward(params, np.zeros((1, 256)), np.zeros((1, 256)), [0])

    @pytest.mark.parametrize(
        "lengths, n_s, message",
        [
            # np.add.reduceat would read a zero-length run as one row
            ([3, 0, 2], 3, r"segment lengths must be >= 1, got \[3, 0, 2\]"),
            ([2, -1, 2], 3, r"segment lengths must be >= 1, got \[2, -1, 2\]"),
            ([3, 2], 3, "2 segment lengths for 3 v_p and 3 v_s rows"),
            ([3, 2, 1, 1], 3, "4 segment lengths for 3 v_p and 3 v_s rows"),
            ([3, 2, 1], 2, "3 segment lengths for 3 v_p and 2 v_s rows"),
        ],
    )
    def test_bad_packed_lengths_are_data_errors(self, lengths, n_s, message):
        params = init_decoder(SMALL, seed=0)
        v_p = RNG.normal(size=(3, SMALL.embed_dim))
        v_s = RNG.normal(size=(n_s, SMALL.embed_dim))
        with pytest.raises(DataError, match=message):
            decoder_forward(params, v_p, v_s, lengths)


class TestDiscriminator:
    def test_hidden_width_follows_config(self):
        params = init_discriminator(DIMS, seed=2)
        assert params.arrays["w1"].shape == (512, 128)
        assert params.arrays["w2"].shape == (128, 128)


DESK = ModelDims(feature_dim=12, embed_dim=16, enc_hidden=32, dec_hidden=32,
                 disc_hidden=64, refine_hidden=32)
NODE_CASES = [
    (SMALL, [1]),
    (SMALL, [3, 1, 4, 1, 2]),
    (DESK, [1, 7, 2, 1, 12, 5, 3, 1, 9]),
    (DESK, list(np.random.default_rng(8).integers(1, 13, size=64))),
    (ModelDims(), list(np.random.default_rng(9).integers(6, 13, size=32))),
]


def _backprop(out, rng):
    """Backpropagate sum(out * g) for a random g of out's shape."""
    ad.tsum(out * ad.constant(rng.normal(size=out.shape))).backward()


def _leaves(*arrays):
    return [Tensor(a, requires_grad=True) for a in arrays]


def _tape_grad(leaves: dict) -> np.ndarray:
    """The tape leaves' gradients laid out like ComponentParams.flat."""
    return np.concatenate([t.grad.ravel() for t in leaves.values()])


class TestComponentNodes:
    """Each component node gives the fine-grained tape's values and
    gradients bit for bit (``np.array_equal``)."""

    @pytest.mark.parametrize("dims, lengths", NODE_CASES)
    def test_pool_encoder(self, dims, lengths):
        params = init_encoder(dims, seed=1)
        frames = RNG.normal(size=(sum(lengths), dims.feature_dim))
        grad, ref = np.zeros_like(params.flat), params.tensors()
        for t in ref.values():
            t.requires_grad = True
        out = encoder_forward(params, frames, lengths, grad)
        want = gradcheck.tape_encoder(ref, frames, lengths)
        assert np.array_equal(out.data, want.data)
        _backprop(out, np.random.default_rng(0))
        _backprop(want, np.random.default_rng(0))
        assert np.array_equal(grad, _tape_grad(ref))

    @pytest.mark.parametrize("dims, lengths", NODE_CASES)
    def test_decoder(self, dims, lengths):
        params = init_decoder(dims, seed=2)
        rows = [RNG.normal(size=(len(lengths), dims.embed_dim)) for _ in range(2)]
        grad, ref = np.zeros_like(params.flat), params.tensors()
        for t in ref.values():
            t.requires_grad = True
        v_p, v_s = _leaves(*rows)
        r_p, r_s = _leaves(*rows)
        out = decoder_forward(params, v_p, v_s, lengths, grad)
        want = gradcheck.tape_decoder(ref, r_p, r_s, lengths)
        assert np.array_equal(out.data, want.data)
        _backprop(out, np.random.default_rng(0))
        _backprop(want, np.random.default_rng(0))
        assert np.array_equal(grad, _tape_grad(ref))
        assert np.array_equal(v_p.grad, r_p.grad) and np.array_equal(v_s.grad, r_s.grad)

    @pytest.mark.parametrize("trainable", [True, False], ids=["trainable", "frozen"])
    @pytest.mark.parametrize("dims, lengths", NODE_CASES)
    def test_discriminator(self, dims, lengths, trainable):
        params = init_discriminator(dims, seed=3)
        rows = RNG.normal(size=(len(lengths), 2 * dims.embed_dim))
        grad, ref = (np.zeros_like(params.flat) if trainable else None), params.tensors()
        for t in ref.values():
            t.requires_grad = trainable
        (pairs,), (r_pairs,) = _leaves(rows), _leaves(rows)
        out = discriminator_forward(params, pairs, grad)
        want = gradcheck.tape_discriminator(ref, r_pairs)
        assert np.array_equal(out.data, want.data)
        _backprop(out, np.random.default_rng(0))
        _backprop(want, np.random.default_rng(0))
        assert np.array_equal(pairs.grad, r_pairs.grad)
        if trainable:
            assert np.array_equal(grad, _tape_grad(ref))
        else:
            assert all(t.grad is None for t in ref.values())

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 12), min_size=1, max_size=40), st.integers(0, 2**32 - 1))
    def test_decoder_matches_the_concatenated_input_form(self, lengths, seed):
        """The per-segment first layer against the paper's form, each
        frame's row [v_p; v_s; position] through it: equal to rounding,
        1e-12 relative to each array's largest entry (an entry that is a
        sum with cancellation has no elementwise relative bound)."""
        rng = np.random.default_rng(seed)
        params = init_decoder(SMALL, seed % 1000)
        rows = rng.normal(size=(2, len(lengths), SMALL.embed_dim))
        g = rng.normal(size=(sum(lengths), SMALL.feature_dim))
        grad, ref = np.zeros_like(params.flat), params.tensors(np.zeros_like(params.flat))
        v_p, v_s = _leaves(*rows)
        r_p, r_s = _leaves(*rows)
        out = decoder_forward(params, v_p, v_s, lengths, grad)
        want = gradcheck.concat_decoder(ref, r_p, r_s, lengths)
        ad.tsum(out * ad.constant(g)).backward()
        ad.tsum(want * ad.constant(g)).backward()
        for got, expected in ((out.data, want.data), (grad, _tape_grad(ref)),
                              (v_p.grad, r_p.grad), (v_s.grad, r_s.grad)):
            np.testing.assert_allclose(got, expected, rtol=1e-12,
                                       atol=1e-12 * np.abs(expected).max())

    def test_nodes_are_one_tape_node_each(self):
        enc, dec = init_encoder(SMALL, seed=0), init_decoder(SMALL, seed=0)
        frames, lengths = RNG.normal(size=(4, SMALL.feature_dim)), [3, 1]
        v_p = encoder_forward(enc, frames, lengths, np.zeros_like(enc.flat))
        v_s = encoder_forward(enc, frames, lengths)
        out = decoder_forward(dec, v_p, v_s, lengths, np.zeros_like(dec.flat))
        assert out._parents == (v_p, v_s) and v_p._parents == () and out.requires_grad
        assert v_p.requires_grad and not v_s.requires_grad


def _pool_and_repeat(lengths):
    """The dense (B, sum T) pooling and (sum T, B) repetition matrices."""
    seg = np.repeat(np.arange(len(lengths)), lengths)
    pool = np.zeros((len(lengths), len(seg)))
    pool[seg, np.arange(len(seg))] = 1.0 / np.asarray(lengths)[seg]
    rep = np.zeros((len(seg), len(lengths)))
    rep[np.arange(len(seg)), seg] = 1.0
    return pool, rep


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=40), st.integers(1, 5),
       st.integers(0, 2**32 - 1))
def test_pool_and_decoder_nodes_match_dense_matrices(lengths, width, seed):
    """The ``pool`` node's output and parameter gradient against the dense
    pooling matrix, and the decoder node's ``v_p``/``v_s`` gradients against
    the dense repetition matrix."""
    rng = np.random.default_rng(seed)
    pool, rep = _pool_and_repeat(lengths)
    dims = ModelDims(feature_dim=width, embed_dim=width, enc_hidden=3, dec_hidden=3)
    enc, dec = init_encoder(dims, seed % 1000), init_decoder(dims, seed % 1000)
    frames = rng.normal(size=(sum(lengths), width))
    g = rng.normal(size=(len(lengths), width))

    grad, ref = np.zeros_like(enc.flat), enc.tensors(np.zeros_like(enc.flat))
    out = encoder_forward(enc, frames, lengths, grad)
    dense = ad.constant(pool) @ ad.tanh(ad.constant(frames) @ ref["w_in"] + ref["b_in"])
    dense = dense @ ref["w_out"] + ref["b_out"]
    np.testing.assert_allclose(out.data, dense.data, rtol=0, atol=1e-12)
    ad.tsum(out * ad.constant(g)).backward()
    ad.tsum(dense * ad.constant(g)).backward()
    np.testing.assert_allclose(grad, _tape_grad(ref), rtol=0, atol=1e-12)

    rows = rng.normal(size=(2, len(lengths), width))
    g = rng.normal(size=(sum(lengths), width))
    v_p, v_s = _leaves(*rows)
    ad.tsum(decoder_forward(dec, v_p, v_s, lengths) * ad.constant(g)).backward()
    r_p, r_s = _leaves(*rows)
    position = ad.constant(nc._position_column(np.asarray(lengths)))
    x = ad.concat([ad.constant(rep) @ r_p, ad.constant(rep) @ r_s, position], axis=1)
    ad.tsum(gradcheck.tape_mlp(dec.tensors(), x) * ad.constant(g)).backward()
    np.testing.assert_allclose(v_p.grad, r_p.grad, rtol=0, atol=1e-12)
    np.testing.assert_allclose(v_s.grad, r_s.grad, rtol=0, atol=1e-12)


class TestRefine:
    def test_identity_at_init(self):
        params = init_refine(DIMS, seed=3)
        v = RNG.normal(size=(4, 256))
        assert np.array_equal(refine_forward(params, v).data, v)

    def test_shape_and_determinism(self):
        params = random_refine(DIMS, seed=3)
        v = RNG.normal(size=(4, 256))
        z = refine_forward(params, v).data
        assert z.shape == (4, 256)
        assert np.array_equal(z, refine_forward(params, v).data)
        assert not np.array_equal(z, v)


class TestGradStep:
    def test_zero_grads_keep_params(self):
        params = ComponentParams("c", {"w": np.array([1.0, -2.0])})
        before = params.flat.copy()
        state = init_optim(params)
        grad_step(params, np.zeros(2), state)
        assert params.flat.tobytes() == before.tobytes()
        assert state.step == 1

    def test_nan_gradient_rejected(self):
        params = ComponentParams("c", {"w": np.array([1.0])})
        state = init_optim(params)
        with pytest.raises(NumericError, match="w"):
            grad_step(params, np.array([np.nan]), state)

    def test_shape_mismatch_rejected(self):
        params = ComponentParams("c", {"w": np.zeros(3)})
        with pytest.raises(DimensionError):
            grad_step(params, np.zeros(2), init_optim(params))

    def test_adam_deterministic(self):
        a, b = (ComponentParams("c", {"w": np.array([1.0, 2.0])}) for _ in range(2))
        g = np.array([0.3, -0.1])
        grad_step(a, g, init_optim(a))
        grad_step(b, g, init_optim(b))
        assert not np.shares_memory(a.flat, b.flat)
        assert a.flat.tobytes() == b.flat.tobytes()
        assert not np.array_equal(a.arrays["w"], [1.0, 2.0])


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
            grad = np.concatenate([grads[k].ravel() for k in params.arrays])
            grad_step(params, grad, state)
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
        flat, arrays, state = params.flat, dict(params.arrays), init_optim(params)
        before = flat.copy()
        grad_step(params, np.ones_like(flat), state)
        assert params.flat is flat and not np.array_equal(flat, before)
        assert all(params.arrays[k] is a and a.base is flat for k, a in arrays.items())
        assert state.m.shape == state.v.shape == flat.shape

    def test_views_stay_on_one_vector_over_steps(self):
        params = init_decoder(SMALL, seed=2)
        flat, arrays, state = params.flat, dict(params.arrays), init_optim(params, 0.05)
        m, v = state.m, state.v
        rng = np.random.default_rng(2)
        for _ in range(4):
            grad_step(params, rng.normal(size=flat.shape), state)
        assert params.flat is flat and state.m is m and state.v is v and state.step == 4
        offset = 0
        for key, arr in params.arrays.items():
            assert arr is arrays[key] and arr.base is flat, key
            assert np.shares_memory(arr, flat[offset : offset + arr.size])
            assert arr.tobytes() == flat[offset : offset + arr.size].tobytes()
            offset += arr.size

    def test_errors_name_the_second_key(self):
        params = ComponentParams("c", {"a": np.zeros(2), "b": np.zeros(3)})
        with pytest.raises(NumericError, match=r"^non-finite gradient for c\.b$"):
            grad_step(params, np.array([1.0, 1.0, 0.0, np.inf, 0.0]), init_optim(params))
        with pytest.raises(DimensionError, match=r"\(4,\) != parameter shape \(5,\) for c$"):
            grad_step(params, np.zeros(4), init_optim(params))
        with pytest.raises(NumericError, match=r"^c\.b: non-finite parameter values$"):
            ComponentParams("c", {"a": np.zeros(2), "b": np.array([1.0, np.nan])})

    def test_update_that_overflows_names_its_key(self):
        params = ComponentParams("c", {"a": np.zeros(2), "b": np.array([1.7e308])})
        with np.errstate(over="ignore"), pytest.raises(
            NumericError, match=r"^c\.b: non-finite parameter values$"
        ):
            grad_step(params, np.array([1.0, 1.0, -1.0]), init_optim(params, learning_rate=1e308))

    def test_update_that_overflows_leaves_params_bit_unchanged(self):
        params = ComponentParams("c", {"a": np.array([0.5, -0.25]), "b": np.array([1.7e308])})
        state = init_optim(params, learning_rate=1e308)
        before, a, g = params.flat.copy(), params.arrays["a"], np.array([1.0, 1.0, -1.0])
        with np.errstate(over="ignore"), pytest.raises(NumericError, match=r"c\.b"):
            grad_step(params, g, state)
        assert params.flat.tobytes() == before.tobytes()
        assert params.arrays["a"] is a and a.base is params.flat
        # the moments and the step count already hold the failed step
        assert state.step == 1 and state.m.tobytes() == ((1.0 - ADAM_BETA1) * g).tobytes()


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
            grad_step(params, rng.normal(size=params.flat.shape), state)
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
