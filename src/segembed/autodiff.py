"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Just enough machinery for the training losses, the recurrent encoder and
the refinement transform: a taped Tensor wrapper with broadcasting-aware
elementwise ops, matmul, a few nonlinearities, reductions, concatenation,
row gathering and slicing, and one batch layer, ``pair_sq_dists`` (squared
distances over a (P, 2) pair array, one node, whose backward is the
graph-Laplacian product of the weighted pair graph and so takes one batch
of rows: see its docstring). ``neuralcore`` and the trainer add coarse
nodes of their own: a ``Tensor`` built with ``_parents`` and a
hand-written ``_backward`` (the ``pool`` encoder, the decoder, the
discriminator and the reconstruction loss). All gradients are checked
against central finite differences in the test suite.

``backward()`` consumes the graph it runs through: each non-leaf node
drops its parents and backward closure once its gradient has passed to its
parents, so a node nobody else holds is freed then, with its data and its
gradient. A graph is therefore backpropagated once; a second
``backward()`` that reaches a used node raises ``ValueError`` before it
writes any gradient. Leaves keep their gradients and may start new graphs.

A node's first incoming gradient is stored as a copy (copy on first
write), so no two nodes ever share a gradient buffer; later gradients are
added to it in place. A leaf may be given a zeroed gradient buffer before
backward (``ComponentParams.tensors`` hands each parameter leaf its view of
the component's flat gradient vector); its gradients are then all added
into that buffer; a gradient that needs no summing back to its operand's
shape is passed on as it is. Row gathering scatters its gradient back in one
``np.bincount`` pass, which sums in the same order as ``np.add.at``; a row
slice adds its gradient into its own rows only.
"""

import math

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape; a
    gradient of that shape already is returned as it is."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


# ``_backward`` of a non-leaf node whose gradient backward() has passed on
_USED = object()


class Tensor:
    """Node in the backward tape wrapping a float64 ndarray."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad) or any(
            p.requires_grad for p in _parents
        )
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad``, which has this node's shape, to ``self.grad``."""
        if self.grad is None:
            # a copy, not grad itself: add and sub hand one array to both parents
            self.grad = np.array(grad, dtype=np.float64)
        else:
            self.grad += grad

    def backward(self) -> None:
        """Backpropagate from a scalar node through the tape, consuming
        it: see the module docstring."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        topo, seen = [], set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            if node._backward is _USED:
                raise ValueError("backward() through a graph that was already backpropagated")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward(node.grad)
                # drop the edges: an unheld node dies once its gradient is passed on
                node._parents, node._backward = (), _USED

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x) -> Tensor:
    """Non-differentiable tensor."""
    return Tensor(x, requires_grad=False)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data, _parents=(a, b))

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    out._backward = backward
    return out


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data - b.data, _parents=(a, b))

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.data.shape))

    out._backward = backward
    return out


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data, _parents=(a, b))

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    out._backward = backward
    return out


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data @ b.data, _parents=(a, b))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    out._backward = backward
    return out


def tanh(a) -> Tensor:
    a = as_tensor(a)
    y = np.tanh(a.data)
    out = Tensor(y, _parents=(a,))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (1.0 - y * y))

    out._backward = backward
    return out


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) without overflow for large |x|: with e = exp(-|x|),
    1 / (1 + e) where x >= 0 and e / (1 + e) elsewhere."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def softplus(a) -> Tensor:
    """log(1 + exp(a)), computed stably."""
    a = as_tensor(a)
    y = np.maximum(a.data, 0.0) + np.log1p(np.exp(-np.abs(a.data)))
    out = Tensor(y, _parents=(a,))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * _stable_sigmoid(a.data))

    out._backward = backward
    return out


def sqrt(a) -> Tensor:
    """Square root; the derivative at 0 is clamped so that masked-out
    zero-distance entries propagate 0 instead of inf."""
    a = as_tensor(a)
    y = np.sqrt(a.data)
    out = Tensor(y, _parents=(a,))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * 0.5 / np.maximum(y, 1e-300))

    out._backward = backward
    return out


def square(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data * a.data, _parents=(a,))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * 2.0 * a.data)

    out._backward = backward
    return out


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0
    out = Tensor(np.where(mask, a.data, 0.0), _parents=(a,))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * mask)

    out._backward = backward
    return out


def tsum(a, axis=None) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.sum(axis=axis), _parents=(a,))

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.full(a.data.shape, g if axis is None else np.expand_dims(g, axis)))

    out._backward = backward
    return out


def tmean(a) -> Tensor:
    a = as_tensor(a)
    return mul(tsum(a), 1.0 / a.data.size)


def concat(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = Tensor(
        np.concatenate([t.data for t in tensors], axis=axis),
        _parents=tuple(tensors),
    )
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    out._backward = backward
    return out


def take_rows(a, indices) -> Tensor:
    """Gather rows a[indices] (non-negative row indices, any number of
    dimensions); backward scatter-adds."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    out = Tensor(a.data[idx], _parents=(a,))

    def backward(g):
        if a.requires_grad:
            # flat key of entry (row, col) of a viewed as (rows, width); bincount
            # adds the weights in key-array order, as np.add.at does
            width = math.prod(a.data.shape[1:])
            keys = idx.reshape(-1, 1) * width + np.arange(width)
            acc = np.bincount(keys.ravel(), weights=g.ravel(), minlength=a.data.size)
            a._accumulate(acc.reshape(a.data.shape))

    out._backward = backward
    return out


def slice_rows(a, start: int, stop: int) -> Tensor:
    """Rows a[start:stop]; backward adds into those rows alone, so many
    slices of one tensor cost their own size, not the tensor's, each."""
    a = as_tensor(a)
    out = Tensor(a.data[start:stop], _parents=(a,))

    def backward(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[start:stop] += g

    out._backward = backward
    return out


# floats of (rows i - rows j) that pair_sq_dists' forward holds at once
_PAIR_CHUNK_FLOATS = 2**16


def _laplacian_product(x, pairs, g):
    """D x - W x, where W is the symmetric adjacency over the rows of ``x``
    of the (P, 2) ``pairs`` weighted by 2 g, a pair (i, i) adding nothing,
    and D holds the row sums of W."""
    m = len(x)
    w = np.bincount(pairs[:, 0] * m + pairs[:, 1], 2.0 * g, m * m).reshape(m, m)
    w += w.T
    np.fill_diagonal(w, 0.0)
    out = w.sum(axis=1)[:, None] * x
    out -= w @ x
    return out


def pair_sq_dists(a, pairs) -> Tensor:
    """Squared Euclidean distance between rows i and j of the (N, d) ``a``
    for each row (i, j) of the (P, 2) int array ``pairs`` -> (P,).

    The forward pass subtracts and squares a fixed number of pairs at a
    time; each distance is summed over its own row, so the values do not
    depend on the chunk size. The backward pass is the graph-Laplacian form
    of the gradient, ``_laplacian_product``: one (N, N) by (N, d) product,
    or, when 2 P < N, one over the rows the pairs touch, the other rows'
    gradient being 0. W is dense, so a differentiable ``a`` must be one
    batch: the training losses pass at most |B| rows. Through a constant
    ``a`` no W is built.
    """
    a = as_tensor(a)
    i, j = pairs[:, 0], pairs[:, 1]
    n_pairs, width = len(pairs), a.data.shape[1]
    step = max(1, _PAIR_CHUNK_FLOATS // max(width, 1))
    dist = np.empty(n_pairs)
    for lo in range(0, n_pairs, step):
        diff = a.data[i[lo:lo + step]]
        diff -= a.data[j[lo:lo + step]]
        diff *= diff
        diff.sum(axis=1, out=dist[lo:lo + step])
    out = Tensor(dist, _parents=(a,))

    def backward(g):
        if a.requires_grad:
            if 2 * n_pairs < len(a.data):
                rows, ends = np.unique(pairs, return_inverse=True)
                grad = np.zeros_like(a.data)
                grad[rows] = _laplacian_product(a.data[rows], ends.reshape(-1, 2), g)
            else:
                grad = _laplacian_product(a.data, pairs, g)
            a._accumulate(grad)

    out._backward = backward
    return out
