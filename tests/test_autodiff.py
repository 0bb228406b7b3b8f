"""Finite-difference verification of every autodiff primitive, and the
tape's gradient scatter and buffer ownership."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segembed import autodiff as ad
from segembed.autodiff import Tensor


def finite_diff_grads(fn, arrays, h=1e-6):
    """Central finite differences of a scalar fn over each input array."""
    grads = []
    for which in range(len(arrays)):
        work = [a.copy() for a in arrays]
        g = np.zeros_like(work[which])
        flat = work[which].ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = fn(*[Tensor(a) for a in work]).item()
            flat[i] = orig - h
            down = fn(*[Tensor(a) for a in work]).item()
            flat[i] = orig
            gflat[i] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def check_op(fn, *arrays, atol=1e-7):
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    fn(*tensors).backward()
    numeric = finite_diff_grads(fn, list(arrays))
    for t, n in zip(tensors, numeric):
        np.testing.assert_allclose(t.grad, n, atol=atol)


RNG = np.random.default_rng(7)


def test_add_broadcast():
    check_op(lambda a, b: ad.tsum(a + b), RNG.normal(size=(3, 4)), RNG.normal(size=4))


def test_sub_broadcast():
    check_op(
        lambda a, b: ad.tsum(ad.square(a - b)),
        RNG.normal(size=(3, 4)),
        RNG.normal(size=(1, 4)),
    )


def test_mul_and_scalars():
    check_op(
        lambda a, b: ad.tsum(a * b * 0.7 + 2.0 * a),
        RNG.normal(size=(2, 5)),
        RNG.normal(size=(2, 5)),
    )


def test_matmul():
    check_op(
        lambda a, b: ad.tsum(ad.square(a @ b)),
        RNG.normal(size=(3, 4)),
        RNG.normal(size=(4, 2)),
    )


def test_tanh_sigmoid_softplus_log_exp_chain():
    check_op(lambda a: ad.tsum(ad.tanh(a)), RNG.normal(size=(3, 3)))
    check_op(lambda a: ad.tsum(ad.sigmoid(a)), RNG.normal(size=(3, 3)))
    check_op(lambda a: ad.tsum(ad.softplus(a)), RNG.normal(size=(3, 3)))


def test_sqrt_square_relu():
    check_op(lambda a: ad.tsum(ad.sqrt(a)), RNG.uniform(0.5, 2.0, size=(4,)))
    check_op(lambda a: ad.tsum(ad.square(a)), RNG.normal(size=(4,)))
    # keep away from the kink at 0
    check_op(lambda a: ad.tsum(ad.square(ad.relu(a))),
             RNG.normal(size=(8,)) + np.sign(RNG.normal(size=(8,))) * 0.5)


def test_sum_axis_and_mean():
    check_op(lambda a: ad.tsum(ad.square(ad.tsum(a, axis=1))), RNG.normal(size=(3, 4)))
    check_op(lambda a: ad.tmean(ad.square(a)), RNG.normal(size=(3, 4)))


def test_concat_axis0_and_axis1():
    check_op(
        lambda a, b: ad.tsum(ad.square(ad.concat([a, b], axis=0))),
        RNG.normal(size=(2, 3)),
        RNG.normal(size=(4, 3)),
    )
    check_op(
        lambda a, b: ad.tsum(ad.square(ad.concat([a, b], axis=1))),
        RNG.normal(size=(2, 3)),
        RNG.normal(size=(2, 2)),
    )


def test_take_rows_with_repeats():
    check_op(
        lambda a: ad.tsum(ad.square(ad.take_rows(a, [0, 2, 2, 1]))),
        RNG.normal(size=(3, 4)),
    )


def test_sqrt_zero_guard_propagates_zero_not_nan():
    a = Tensor(np.array([0.0, 4.0]), requires_grad=True)
    out = ad.tsum(ad.sqrt(a) * ad.constant(np.array([0.0, 1.0])))
    out.backward()
    assert np.all(np.isfinite(a.grad))
    assert a.grad[1] == pytest.approx(0.25)
    assert a.grad[0] == 0.0


def test_backward_requires_scalar():
    with pytest.raises(ValueError):
        Tensor(np.zeros(3), requires_grad=True).backward()


def test_grad_accumulates_over_reuse():
    a = Tensor(np.array([1.5]), requires_grad=True)
    out = ad.tsum(a * a + a)  # d/da = 2a + 1 = 4
    out.backward()
    assert a.grad[0] == pytest.approx(4.0)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6),
    st.lists(st.integers(1, 4), max_size=2),
    st.lists(st.integers(0, 5), max_size=12),
    st.integers(0, 2**32 - 1),
)
def test_take_rows_scatter_matches_add_at_bit_for_bit(n_rows, trailing, picks, seed):
    """Repeated, absent and unsorted row indices, on inputs of one to three
    dimensions: the gradient equals np.zeros + np.add.at, byte for byte."""
    rng = np.random.default_rng(seed)
    shape = (n_rows, *trailing)
    idx = np.array([p % n_rows for p in picks], dtype=np.intp)
    a = Tensor(rng.normal(size=shape), requires_grad=True)
    # magnitudes spread over 16 decades, so any other summation order shows
    g_shape = (len(idx), *trailing)
    g = rng.normal(size=g_shape) * 10.0 ** rng.integers(-8, 8, size=g_shape)
    ad.tsum(ad.take_rows(a, idx) * ad.constant(g)).backward()
    oracle = np.zeros(shape)
    np.add.at(oracle, idx, g)
    assert a.grad.shape == shape
    assert a.grad.dtype == np.float64
    assert a.grad.tobytes() == oracle.tobytes()


def test_leaf_gradients_never_share_a_buffer():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
    s = a + b
    ad.tsum(s).backward()
    assert not np.shares_memory(a.grad, b.grad)
    assert not np.shares_memory(a.grad, s.grad)
    assert not np.shares_memory(b.grad, s.grad)

    c = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    twice = ad.add(c, c)
    ad.tsum(twice).backward()
    assert not np.shares_memory(c.grad, twice.grad)
    assert c.grad.tolist() == [2.0, 2.0]
    assert twice.grad.tolist() == [1.0, 1.0]


def test_shared_gradient_is_not_written_through():
    """z = (a + b) + a: a stored-by-reference first gradient would let a's
    second gradient write into b's."""
    a = Tensor(np.array([1.0, -1.0]), requires_grad=True)
    b = Tensor(np.array([0.5, 2.0]), requires_grad=True)
    ad.tsum(ad.add(ad.add(a, b), a)).backward()
    assert a.grad.tolist() == [2.0, 2.0]
    assert b.grad.tolist() == [1.0, 1.0]
