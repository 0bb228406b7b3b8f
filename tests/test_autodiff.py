"""Finite-difference verification of every autodiff primitive, and the
tape's gradient scatter and buffer ownership."""

import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segembed import autodiff as ad
from segembed.autodiff import Tensor
from segembed.neuralcore import ComponentParams

from gradcheck import max_fd_error, sigmoid


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
    check_op(lambda a: ad.tsum(sigmoid(a)), RNG.normal(size=(3, 3)))
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


def test_slice_rows_overlapping_and_empty_blocks():
    check_op(
        lambda a: ad.tsum(ad.square(ad.slice_rows(a, 1, 3)))
        + ad.tsum(ad.slice_rows(a, 0, 2) * 0.5)
        + ad.tsum(ad.slice_rows(a, 2, 2)),
        RNG.normal(size=(4, 3)),
    )


def test_slice_rows_leaves_other_rows_zero():
    a = Tensor(RNG.normal(size=(5, 2)), requires_grad=True)
    ad.tsum(ad.slice_rows(a, 1, 3)).backward()
    assert a.grad.tolist() == [[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]


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


# -- one backward() per graph ---------------------------------------------------


def _grads(*tensors):
    return [None if t.grad is None else t.grad.tobytes() for t in tensors]


def test_second_backward_on_a_used_graph_raises_and_writes_nothing():
    a = Tensor(np.ones(3), requires_grad=True)
    h = ad.tanh(a * 2.0)
    out = ad.tsum(h)
    out.backward()
    np.testing.assert_allclose(a.grad, 2.0 * (1.0 - np.tanh(2.0) ** 2))  # 0.1413 each
    before = _grads(a, h, out)
    with pytest.raises(ValueError, match="already backpropagated"):
        out.backward()
    assert _grads(a, h, out) == before


def test_new_graph_on_a_used_intermediate_raises_and_writes_nothing():
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.full(3, 0.5), requires_grad=True)
    h = ad.tanh(a * 2.0)
    ad.tsum(h).backward()
    before = _grads(a, b, h)
    again = ad.tsum(h * b)
    with pytest.raises(ValueError, match="already backpropagated"):
        again.backward()
    assert _grads(a, b, h) == before
    assert again.grad is None


def test_leaves_start_new_graphs_after_backward():
    a = Tensor(np.array([1.5]), requires_grad=True)
    ad.tsum(a * a).backward()
    ad.tsum(a * 3.0).backward()
    assert a.grad.tolist() == [6.0]  # 2a + 3, accumulated over both graphs


def test_backward_frees_unheld_intermediates():
    a = Tensor(np.ones(3), requires_grad=True)
    h = ad.tanh(a * 2.0)
    data = weakref.ref(h.data)
    out = ad.tsum(h * h)
    del h
    assert data() is not None  # held through out's edges until backward()
    out.backward()
    assert data() is None
    assert out.grad.tolist() == 1.0 and a.grad is not None


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


# -- batch layer: pair_sq_dists ----------------------------------------------

FD_PAIRS = np.array([[0, 1], [0, 2], [1, 2], [0, 1], [3, 0], [2, 2]])


@pytest.mark.parametrize(
    "n_rows, layer",
    [(4, lambda a: ad.pair_sq_dists(a, FD_PAIRS))],
    ids=["pair_sq_dists"],
)
def test_batch_layer_gradients_match_finite_differences(n_rows, layer):
    """``gradient_check``'s comparison and bound, with pairs that repeat a
    row, a pair and i == j."""
    rng = np.random.default_rng(3)
    params = ComponentParams("probe", {"a": rng.normal(size=(n_rows, 3))})
    target = ad.constant(rng.normal(size=layer(params.arrays["a"]).shape))

    def loss(p, grad):
        return ad.tmean(ad.square(layer(p.tensors(grad)["a"]) - target))

    assert max_fd_error(params, loss) < 1e-4


def _value_and_grad(layer, a, g):
    """layer(a) and the gradient of sum(layer(a) * g) with respect to a."""
    t = Tensor(a, requires_grad=True)
    out = layer(t)
    ad.tsum(out * ad.constant(g)).backward()
    return out.data, t.grad


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(1, 5),
    st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), min_size=1, max_size=60),
    st.integers(0, 2**32 - 1),
)
def test_pair_sq_dists_matches_take_rows_chain(n_rows, width, picks, seed):
    """Values and gradients against take_rows - sub - square - tsum, with
    repeated rows and pairs."""
    rng = np.random.default_rng(seed)
    pairs = np.array([(i % n_rows, j % n_rows) for i, j in picks], dtype=np.intp)
    a = rng.normal(size=(n_rows, width))
    g = rng.normal(size=len(pairs))

    def chain(t):
        diff = ad.take_rows(t, pairs[:, 0]) - ad.take_rows(t, pairs[:, 1])
        return ad.tsum(ad.square(diff), axis=1)

    out, grad = _value_and_grad(lambda t: ad.pair_sq_dists(t, pairs), a, g)
    want_out, want_grad = _value_and_grad(chain, a, g)
    np.testing.assert_allclose(out, want_out, rtol=0, atol=1e-12)
    np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 8),
    st.integers(1, 4),
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=40),
    st.integers(0, 2**32 - 1),
)
@example(n_rows=3, width=2, picks=[], seed=0)  # P = 0
@example(n_rows=2, width=1, picks=[(0, 1)] * 5, seed=1)  # repeats; row 0 only as i
@example(n_rows=4, width=1, picks=[(3, 0), (1, 2), (3, 3)], seed=2)
@example(n_rows=8, width=3, picks=[(6, 1), (1, 3), (5, 5)], seed=3)  # 2 P < n
def test_pair_sq_dists_is_bit_equal_to_out_of_place_arithmetic(n_rows, width, picks, seed):
    """Forward values equal, byte for byte, the out-of-place expression
    ``a[i] - a[j]`` squared and summed per row; the input gradient equals
    the graph-Laplacian expression ``D a - W a``, over the rows the pairs
    touch when 2 P < n."""
    rng = np.random.default_rng(seed)
    pairs = np.array([(i % n_rows, j % n_rows) for i, j in picks], dtype=np.intp).reshape(-1, 2)
    a = rng.normal(size=(n_rows, width))
    g = rng.normal(size=len(pairs))
    out, grad = _value_and_grad(lambda t: ad.pair_sq_dists(t, pairs), a, g)

    i, j = pairs[:, 0], pairs[:, 1]
    diff = a[i] - a[j]
    rows, ends = np.arange(n_rows), pairs
    if 2 * len(pairs) < n_rows:
        rows, ends = np.unique(pairs, return_inverse=True)
        ends = ends.reshape(-1, 2)
    m, x = len(rows), a[rows]
    w = np.bincount(ends[:, 0] * m + ends[:, 1], 2.0 * g, m * m).reshape(m, m)
    w = w + w.T
    np.fill_diagonal(w, 0.0)
    want = np.zeros_like(a)
    want[rows] = w.sum(axis=1)[:, None] * x - w @ x
    assert out.tobytes() == (diff * diff).sum(axis=1).tobytes()
    assert grad.tobytes() == want.tobytes()


def _pair_grad(a, pairs, g):
    return _value_and_grad(lambda t: ad.pair_sq_dists(t, np.asarray(pairs, dtype=np.intp)), a, g)


class TestPairSqDistsEdges:
    def test_no_pairs_gives_zero_gradient(self):
        a = -np.abs(RNG.normal(size=(3, 2)))
        out, grad = _pair_grad(a, np.empty((0, 2)), np.empty(0))
        assert out.shape == (0,)
        assert (grad == 0).all()

    def test_single_row(self):
        out, grad = _pair_grad(np.array([[1.5, -2.0]]), [[0, 0], [0, 0]], np.array([0.3, -1.0]))
        assert out.tolist() == [0.0, 0.0]
        assert (grad == 0).all()

    @pytest.mark.parametrize("n_rows", [4, 10], ids=["all_rows", "touched_rows"])
    def test_self_pairs_add_nothing(self, n_rows):
        """Rows only in pairs (i, i) get a zero gradient, and the weight of
        a pair (i, i) leaves every gradient byte unchanged."""
        a = RNG.normal(size=(n_rows, 3))
        pairs = [[0, 1], [2, 2], [3, 3], [1, 1]]
        out, grad = _pair_grad(a, pairs, np.array([0.7, 1.1, -0.4, 2.0]))
        assert out[1:].tolist() == [0.0, 0.0, 0.0]
        assert (grad[2:] == 0).all()
        _, unweighted = _pair_grad(a, pairs, np.array([0.7, 0.0, 0.0, 0.0]))
        assert grad.tobytes() == unweighted.tobytes()

    def test_repeated_pair_sums_its_weights(self):
        a = RNG.normal(size=(3, 2))
        g = np.array([0.25, -1.5, 3.0])
        _, grad = _pair_grad(a, [[2, 0]] * 3, g)
        _, summed = _pair_grad(a, [[2, 0]] * 3, np.array([g.sum(), 0.0, 0.0]))
        assert grad.tobytes() == summed.tobytes()

    def test_pair_order_within_a_pair_does_not_matter(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 4))
        pairs = np.array([(i, j) for i in range(6) for j in range(i + 1, 6)])
        g = rng.normal(size=len(pairs))
        flip = rng.random(len(pairs)) < 0.5
        swapped = np.where(flip[:, None], pairs[:, ::-1], pairs)
        out, grad = _pair_grad(a, pairs, g)
        out_swapped, grad_swapped = _pair_grad(a, swapped, g)
        assert out.tobytes() == out_swapped.tobytes()
        assert grad.tobytes() == grad_swapped.tobytes()

    @pytest.mark.parametrize("width", [3, 16, 300])
    @pytest.mark.parametrize("extra", [0, 1], ids=["multiple", "crossing"])
    def test_chunked_forward_is_byte_equal(self, width, extra):
        step = ad._PAIR_CHUNK_FLOATS // width
        rng = np.random.default_rng(width)
        a = rng.normal(size=(40, width))
        pairs = rng.integers(0, 40, size=(2 * step + extra, 2))
        diff = a[pairs[:, 0]] - a[pairs[:, 1]]
        out = ad.pair_sq_dists(ad.constant(a), pairs).data
        assert out.tobytes() == (diff * diff).sum(axis=1).tobytes()

    def test_backward_closure_holds_no_pair_rows(self):
        a = Tensor(RNG.normal(size=(5, 3)), requires_grad=True)
        pairs = np.array([(i, j) for i in range(5) for j in range(5)])
        out = ad.pair_sq_dists(a, pairs)
        held = [cell.cell_contents for cell in out._backward.__closure__]
        assert not any(
            isinstance(v, np.ndarray) and v.dtype.kind == "f" and v.shape[:1] == (len(pairs),)
            for v in held
        )
