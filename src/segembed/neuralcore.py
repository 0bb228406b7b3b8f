"""Differentiable components and their plumbing.

Five components: phonetic encoder, speaker encoder, decoder, speaker
discriminator, and the refinement transform. Each component's arrays are
written down once, in one layout table (key -> shape and fan-in, None for
zeros): the initializers draw from it and the checkpoint loader checks
shapes against it without building a model. Each component's parameters
are views into one contiguous float64 vector, so the package's one
optimizer (Adam) checks and updates a component in place with a few
whole-vector operations; an update that would make a parameter non-finite
raises before it writes one. Also houses checkpoint serialization, and the
check of a loaded checkpoint's components against their layouts.

Forward passes take a batch packed as all frames of its segments and the
segments' lengths; an input of the wrong width is a ``DimensionError``
naming the component and both widths. The ``pool`` encoder (per-frame
affine + tanh, temporal mean pooling, affine to the embedding dimension),
the decoder and the discriminator are each one tape node: the forward is
plain numpy and the backward is derived by hand, repeating the
fine-grained tape's arithmetic expression for expression, so the gradients
are the same bits (Baydin et al., JMLR 2018: coarse primitives with
hand-written adjoints inside a reverse-mode tape). The decoder's input row for a frame is [v_p; v_s;
position], so its first layer takes the vectors' part once per segment,
``v_p w_p + v_s w_s + b1`` over B rows, repeats it over the frames and adds
``position w_pos``; its backward sums the layer's gradient per segment
once and takes B-row products for ``w_p``, ``w_s``, ``v_p`` and ``v_s``.
A forward given ``grad``, a float64 vector laid out like
``ComponentParams.flat``, adds each parameter's gradient into its view of
that vector, and ``grad_step`` reads it as it is; without it the
parameters are constants. The recurrent encoder (``encoder_mode="rnn"``)
and the refinement transform stay on the fine-grained tape: their
parameter leaves start with their views of ``grad`` as gradient buffers.

The encoder kind is read from the parameters (an ``rnn`` encoder has a
``w_rec`` array). It projects all frames of a batch in one product,
gathers that projection once in time-major order, then advances every
segment together, one time step at a time with the rows ordered longest
first and each step's inputs one contiguous block, so a batch costs a few
tape nodes per step (max T steps) rather than several per frame.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DECODE_ERRORS, DataError, DimensionError, NumericError, ParseError
from .seeding import check_fields, seeded_rng

__all__ = [
    "ComponentParams", "ModelDims", "OptimState", "encode", "grad_step",
    "load_checkpoint", "save_checkpoint",
]

ENCODER_MODES = ("pool", "rnn")

# Adam coefficients (Kingma & Ba 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class ModelDims:
    """Architecture sizes shared by all components of one model."""

    feature_dim: int = 39
    embed_dim: int = 256
    enc_hidden: int = 128
    dec_hidden: int = 128
    disc_hidden: int = 128
    refine_hidden: int = 128
    encoder_mode: str = "pool"

    KEYS = {  # field -> bound (``seeding.check_fields``)
        "feature_dim": ">= 1", "embed_dim": ">= 1", "enc_hidden": ">= 1", "dec_hidden": ">= 1",
        "disc_hidden": ">= 1", "refine_hidden": ">= 1", "encoder_mode": ENCODER_MODES}

    def __post_init__(self):
        check_fields(self, error=DataError)


def _split(flat: np.ndarray, shapes: dict) -> dict:
    """``flat`` as consecutive views of the given shapes, in key order."""
    views, offset = {}, 0
    for key, shape in shapes.items():
        size = math.prod(shape)
        views[key] = flat[offset : offset + size].reshape(shape)
        offset += size
    return views


class ComponentParams:
    """Named float64 parameter arrays for one component.

    All arrays live in one contiguous vector, ``flat``, in key order;
    ``arrays`` maps each name to its view into it. The optimizer updates a
    component with a few operations over ``flat``, and a gradient is one
    vector with the same layout.
    """

    def __init__(self, name: str, arrays: dict):
        arrays = {k: np.asarray(a, dtype=np.float64) for k, a in arrays.items()}
        self.name = name
        self.flat = np.concatenate([a.ravel() for a in arrays.values()] or [np.zeros(0)])
        self.arrays = _split(self.flat, {k: a.shape for k, a in arrays.items()})
        if not np.isfinite(self.flat).all():
            key = self._non_finite_key(self.flat)
            raise NumericError(f"{name}.{key}: non-finite parameter values")

    def _non_finite_key(self, flat: np.ndarray) -> str:
        """The first key whose view of ``flat``, a vector laid out like
        ``self.flat``, holds a non-finite value."""
        return next(k for k, a in self.views(flat).items() if not np.isfinite(a).all())

    def views(self, flat: np.ndarray) -> dict:
        """``flat``, a vector laid out like ``self.flat`` (a gradient), as
        one view per key."""
        return _split(flat, {k: a.shape for k, a in self.arrays.items()})

    def tensors(self, grad: np.ndarray | None = None) -> dict:
        """The arrays as tape leaves. Given ``grad``, a vector laid out like
        ``flat``, each leaf requires a gradient and starts with its view of
        ``grad`` as its gradient buffer, so backward adds into ``grad``."""
        leaves = {k: Tensor(a, requires_grad=grad is not None) for k, a in self.arrays.items()}
        if grad is not None:
            for leaf, buffer in zip(leaves.values(), self.views(grad).values()):
                leaf.grad = buffer
        return leaves

    def __repr__(self):
        shapes = {k: v.shape for k, v in self.arrays.items()}
        return f"ComponentParams({self.name!r}, {shapes})"


def _dense(w: str, b: str, n_in: int, n_out: int) -> dict:
    return {w: ((n_in, n_out), n_in), b: ((n_out,), n_in)}


def _layouts(dims: ModelDims) -> dict:
    """Each component's arrays in order: component -> {key: (shape,
    fan-in)}, fan-in None for zeros. The initializers draw from it; the
    checkpoint loader checks shapes against it."""
    f, d = dims.feature_dim, dims.embed_dim
    h_e, h_d, h_s, h_r = dims.enc_hidden, dims.dec_hidden, dims.disc_hidden, dims.refine_hidden
    recurrent = {"w_rec": ((h_e, h_e), h_e)} if dims.encoder_mode == "rnn" else {}
    return {
        "encoder": {**_dense("w_in", "b_in", f, h_e), **recurrent,
                    **_dense("w_out", "b_out", h_e, d)},
        # decoder input: [v_p; v_s; position]
        "decoder": {**_dense("w1", "b1", 2 * d + 1, h_d), **_dense("w2", "b2", h_d, h_d),
                    **_dense("w_out", "b_out", h_d, f)},
        "discriminator": {**_dense("w1", "b1", 2 * d, h_s), **_dense("w2", "b2", h_s, h_s),
                          **_dense("w_out", "b_out", h_s, 1)},
        # the output layer starts at zero: the identity map at step 0
        "refine": {**_dense("w1", "b1", d, h_r), "w2": ((h_r, d), None), "b2": ((d,), None)},
    }


def _draw(component: str, dims: ModelDims, seed: int) -> dict:
    """The component's arrays, each uniform in +-1/sqrt(fan-in), drawn in
    layout order from one generator; an array of fan-in None is zeros, not
    drawn. An array too large to allocate is a ``DataError`` naming it."""
    rng = seeded_rng(seed)
    arrays = {}
    for key, (shape, fan_in) in _layouts(dims)[component].items():
        try:
            if fan_in is None:
                arrays[key] = np.zeros(shape)
            else:
                bound = 1.0 / np.sqrt(fan_in)
                arrays[key] = rng.uniform(-bound, bound, size=shape)
        except MemoryError as exc:
            raise DataError(
                f"{component}.{key}: cannot allocate an array of shape {shape}"
            ) from exc
    return arrays


def init_encoder(dims: ModelDims, seed: int) -> ComponentParams:
    return ComponentParams("encoder", _draw("encoder", dims, seed))


def init_decoder(dims: ModelDims, seed: int) -> ComponentParams:
    return ComponentParams("decoder", _draw("decoder", dims, seed))


def init_discriminator(dims: ModelDims, seed: int) -> ComponentParams:
    return ComponentParams("discriminator", _draw("discriminator", dims, seed))


def init_refine(dims: ModelDims, seed: int) -> ComponentParams:
    """Refinement transform parameters.

    The layout gives the output layer (``w2``, ``b2``) a zero start, so the
    transform is exactly the identity map at step 0 (the residual path
    carries the input through unchanged).
    """
    return ComponentParams("refine", _draw("refine", dims, seed))


# -- batched forward passes ----------------------------------------------


def pack_sequences(xs):
    """Concatenate variable-length (T_i, F) matrices -> (frames, lengths)."""
    lengths = [int(x.shape[0]) for x in xs]
    return np.concatenate([np.asarray(x, np.float64) for x in xs], axis=0), lengths


def _position_column(lengths: np.ndarray) -> np.ndarray:
    """(sum T, 1) column of normalized frame positions t/T, t = 1..T."""
    seg = np.repeat(np.arange(len(lengths)), lengths)
    starts = np.cumsum(lengths) - lengths
    t = np.arange(1, len(seg) + 1) - starts[seg]
    return (t.astype(np.float64) / lengths[seg]).reshape(-1, 1)


def _rnn_final_states(pt: dict, frames: Tensor, lengths: np.ndarray) -> Tensor:
    """(B, h) last states of ``h_t = tanh(x_t w_in + b_in + h_{t-1} w_rec)``,
    ``h_0 = 0``, run over every segment of a packed batch at once.

    Rows are ordered longest first (stably), so the segments still running
    at step t are the first n_t rows of the state; rows that stop are split
    off as a finished block. The input projection is gathered once in
    time-major order, so step t's inputs are one contiguous block of it.
    The loop runs max T times, not sum T.
    """
    order = np.argsort(-lengths, kind="stable")
    sorted_lengths = lengths[order]
    first_frames = (np.cumsum(lengths) - lengths)[order]
    running = np.count_nonzero(sorted_lengths > np.arange(sorted_lengths[0])[:, None], axis=1)
    ends = np.cumsum(running)
    by_step = np.concatenate([first_frames[:n_t] + t for t, n_t in enumerate(running)])
    inputs = ad.take_rows(frames @ pt["w_in"] + pt["b_in"], by_step)
    state = ad.tanh(ad.slice_rows(inputs, 0, ends[0]))
    finished = []
    for t in range(1, len(running)):
        n_t = int(running[t])
        if n_t < state.shape[0]:
            finished.append(ad.slice_rows(state, n_t, state.shape[0]))
            state = ad.slice_rows(state, 0, n_t)
        x_t = ad.slice_rows(inputs, ends[t - 1], ends[t])
        state = ad.tanh(x_t + state @ pt["w_rec"])
    # blocks finish shortest first, i.e. from the last sorted rows upward
    finals = ad.concat([state, *reversed(finished)], axis=0)
    return ad.take_rows(finals, np.argsort(order))


def _check_lengths(lengths, what: str) -> np.ndarray:
    """Segment lengths as an int array; each must be >= 1 (``DataError``)."""
    lengths = np.asarray(lengths, dtype=np.intp)
    if (lengths < 1).any():
        raise DataError(f"{what}: segment lengths must be >= 1, got {lengths.tolist()}")
    return lengths


def _check_width(component: str, what: str, rows: str, x: np.ndarray, width: int) -> None:
    """A ``DimensionError`` unless ``x`` is a matrix of ``width`` columns."""
    if x.ndim != 2 or x.shape[1] != width:
        raise DimensionError(f"{component}: expected ({rows}, {width}) {what}, got {x.shape}")


def _mlp(arrays: dict, x: np.ndarray):
    """Two tanh layers and an affine output layer (the discriminator) on
    the rows of ``x`` -> (h1, h2, output)."""
    return _head(arrays, np.tanh(x @ arrays["w1"] + arrays["b1"]))


def _head(arrays: dict, h1: np.ndarray):
    """The second tanh layer and the affine output layer of the decoder and
    the discriminator on their first layer's output -> (h1, h2, output)."""
    h2 = np.tanh(h1 @ arrays["w2"] + arrays["b2"])
    return h1, h2, h2 @ arrays["w_out"] + arrays["b_out"]


def _affine_tanh_backward(g, x, h, grads, keys):
    """For ``h = tanh(x @ w + b)`` and the gradient ``g`` of ``h``: add the
    gradients of ``w`` and ``b`` into ``grads[keys]`` (unless the parameters
    are constants, ``grads`` None) and return the gradient of the affine
    output, as the tape's tanh, add and matmul nodes compute them."""
    g = g * (1.0 - h * h)
    if grads is not None:
        grads[keys[1]] += g.sum(axis=0)
        grads[keys[0]] += x.T @ g
    return g


def _head_backward(arrays, grads, h1, h2, g):
    """Backward of ``_head`` for the output gradient ``g``: parameter
    gradients into ``grads`` (None: constants); returns the gradient of
    ``h1``."""
    if grads is not None:
        grads["b_out"] += g.sum(axis=0)
        grads["w_out"] += h2.T @ g
    g = _affine_tanh_backward(g @ arrays["w_out"].T, h1, h2, grads, ("w2", "b2"))
    return g @ arrays["w2"].T


def _mlp_backward(arrays, grads, x, h1, h2, g, input_grad: bool):
    """Backward of ``_mlp`` for the output gradient ``g``: parameter
    gradients into ``grads`` (None: constants), and the gradient of ``x``
    if ``input_grad``, else None."""
    g = _head_backward(arrays, grads, h1, h2, g)
    g = _affine_tanh_backward(g, x, h1, grads, ("w1", "b1"))
    return g @ arrays["w1"].T if input_grad else None


def _pool_node(params: ComponentParams, frames: np.ndarray, lengths: np.ndarray, grad):
    """The ``pool`` encoder as one tape node (see ``encoder_forward``)."""
    n, starts = lengths[:, None], np.cumsum(lengths) - lengths
    arrays = params.arrays
    h = np.tanh(frames @ arrays["w_in"] + arrays["b_in"])
    pooled = np.add.reduceat(h, starts, axis=0) / n
    grads = None if grad is None else params.views(grad)

    def backward(g):
        grads["b_out"] += g.sum(axis=0)
        grads["w_out"] += pooled.T @ g
        g_h = np.repeat((g @ arrays["w_out"].T) / n, lengths, axis=0)
        _affine_tanh_backward(g_h, frames, h, grads, ("w_in", "b_in"))

    out = pooled @ arrays["w_out"] + arrays["b_out"]
    return Tensor(out, requires_grad=grad is not None, _backward=backward)


def encoder_forward(params: ComponentParams, frames, lengths, grad=None) -> Tensor:
    """Encode a packed batch -> (B, d) embedding tensor.

    The encoder is ``rnn`` if its parameters hold ``w_rec``, else ``pool``
    (one tape node); ``frames`` has ``w_in``'s rows as columns. ``lengths``
    are the segments' frame counts, in row order; each must be >= 1 and they
    must sum to the number of frame rows (``DataError``). ``grad``: see the
    module docstring.
    """
    frames = np.asarray(frames, dtype=np.float64)
    _check_width("encoder", "feature matrix", "T", frames, params.arrays["w_in"].shape[0])
    lengths = _check_lengths(lengths, "encoder")
    if lengths.sum() != frames.shape[0]:
        raise DataError(
            f"encoder: segment lengths sum to {lengths.sum()}, "
            f"but the batch has {frames.shape[0]} frame rows"
        )
    if "w_rec" not in params.arrays:
        return _pool_node(params, frames, lengths, grad)
    pt = params.tensors(grad)
    return _rnn_final_states(pt, Tensor(frames), lengths) @ pt["w_out"] + pt["b_out"]


def decoder_forward(params: ComponentParams, v_p, v_s, lengths, grad=None) -> Tensor:
    """Reconstruct a packed batch -> (sum T, F) tensor; one tape node with
    parents ``v_p`` and ``v_s``.

    ``v_p`` and ``v_s`` have d columns (``w1`` has 2d + 1 rows). ``lengths``
    are the segments' frame counts, one per row of ``v_p`` and ``v_s``; each
    must be >= 1 (``DataError``). ``grad``: see the module docstring.
    """
    v_p, v_s = ad.as_tensor(v_p), ad.as_tensor(v_s)
    arrays = params.arrays
    d = arrays["w1"].shape[0] // 2
    _check_width("decoder", "v_p", "B", v_p.data, d)
    _check_width("decoder", "v_s", "B", v_s.data, d)
    lengths = _check_lengths(lengths, "decoder")
    if not len(lengths) == v_p.shape[0] == v_s.shape[0]:
        raise DataError(
            f"decoder: {len(lengths)} segment lengths for "
            f"{v_p.shape[0]} v_p and {v_s.shape[0]} v_s rows"
        )
    # first layer on the rows [v_p; v_s; position], the vectors' part once
    # per segment: repeat(v_p w_p + v_s w_s + b1) + position w_pos
    w_p, w_s, w_pos = arrays["w1"][:d], arrays["w1"][d : 2 * d], arrays["w1"][2 * d :]
    position = _position_column(lengths)
    pre = np.repeat(v_p.data @ w_p + v_s.data @ w_s + arrays["b1"], lengths, axis=0)
    pre += position @ w_pos
    h1, h2, out = _head(arrays, np.tanh(pre, out=pre))
    grads = None if grad is None else params.views(grad)
    starts = np.cumsum(lengths) - lengths

    def backward(g):
        g1 = _head_backward(arrays, grads, h1, h2, g)
        g1 *= 1.0 - h1 * h1
        per_segment = np.add.reduceat(g1, starts, axis=0)
        if grads is not None:
            grads["b1"] += per_segment.sum(axis=0)
            grads["w1"][:d] += v_p.data.T @ per_segment
            grads["w1"][d : 2 * d] += v_s.data.T @ per_segment
            grads["w1"][2 * d :] += position.T @ g1
        for v, w in ((v_p, w_p), (v_s, w_s)):
            if v.requires_grad:
                v._accumulate(per_segment @ w.T)

    return Tensor(out, requires_grad=grad is not None, _parents=(v_p, v_s), _backward=backward)


def discriminator_forward(params: ComponentParams, pairs, grad=None) -> Tensor:
    """(P, 2d) rows ``[v_a, v_b]`` of phonetic vector pairs -> (P,) logits
    tensor; one tape node with parent ``pairs``. ``grad``: see the module
    docstring."""
    pairs = ad.as_tensor(pairs)
    _check_width("discriminator", "pair rows", "P", pairs.data, params.arrays["w1"].shape[0])
    h1, h2, out = _mlp(params.arrays, pairs.data)
    grads = None if grad is None else params.views(grad)

    def backward(g):
        g_x = _mlp_backward(params.arrays, grads, pairs.data, h1, h2, g.reshape(-1, 1),
                            pairs.requires_grad)
        if pairs.requires_grad:
            pairs._accumulate(g_x)

    return Tensor(out.sum(axis=1), requires_grad=grad is not None, _parents=(pairs,),
                  _backward=backward)


def refine_forward(params: ComponentParams, v, grad=None) -> Tensor:
    """Residual refinement map of (B, d) rows v -> z, on the tape.
    ``grad``: see the module docstring."""
    v = ad.as_tensor(v)
    _check_width("refine", "v", "B", v.data, params.arrays["w1"].shape[0])
    pt = params.tensors(grad)
    return v + ad.tanh(v @ pt["w1"] + pt["b1"]) @ pt["w2"] + pt["b2"]


# -- the single-input operation (the public contract) --------------------


def encode(params: ComponentParams, x) -> np.ndarray:
    """Variable-length (T, F) feature matrix -> one vector of length d, with
    either encoder (phonetic or speaker) of either kind."""
    x = np.asarray(x, dtype=np.float64)
    return encoder_forward(params, x, x.shape[:1]).data[0]  # one segment of T frames


# -- optimizer -------------------------------------------------------------


@dataclass
class OptimState:
    """Adaptive-moment (Adam) optimizer state for one component, made by
    ``init_optim``; ``m`` and ``v`` are flat vectors laid out like
    ``ComponentParams.flat``, which ``grad_step`` updates in place."""

    learning_rate: float
    m: np.ndarray
    v: np.ndarray
    step: int = 0


def init_optim(params: ComponentParams, learning_rate: float = 1e-3) -> OptimState:
    return OptimState(learning_rate, np.zeros_like(params.flat), np.zeros_like(params.flat))


def grad_step(params: ComponentParams, grad, state: OptimState) -> None:
    """One Adam update from ``grad``, the gradient as one vector laid out
    like ``params.flat``, in place: ``params.flat`` (so every array view of
    it), ``state.m``, ``state.v`` and ``state.step`` take their new values.

    Adam is elementwise, so it runs once over the component's flat vector
    and gives the same bits as one update per array. A gradient of the
    wrong shape (``DimensionError``) or with a non-finite entry
    (``NumericError`` naming its key) changes nothing. An update that makes
    a parameter non-finite raises ``NumericError`` naming its key and leaves
    ``params.flat`` bit-unchanged, but ``state.m``, ``state.v`` and
    ``state.step`` already hold the failed step's values, so the state is
    not fit for another step.
    """
    g = np.asarray(grad, dtype=np.float64)
    if g.shape != params.flat.shape:
        raise DimensionError(
            f"gradient shape {g.shape} != parameter shape {params.flat.shape} for {params.name}"
        )
    if not np.isfinite(g).all():
        raise NumericError(f"non-finite gradient for {params.name}.{params._non_finite_key(g)}")
    # the textbook update's operations in its order, through two scratch
    # vectors, so the bits equal one update per array
    state.step += 1
    m, v, update, denom = state.m, state.v, np.empty_like(g), np.empty_like(g)
    m *= ADAM_BETA1
    m += np.multiply(1.0 - ADAM_BETA1, g, out=update)
    np.multiply(1.0 - ADAM_BETA2, g, out=update)
    v *= ADAM_BETA2
    v += np.multiply(update, g, out=update)
    np.divide(m, 1.0 - ADAM_BETA1**state.step, out=update)
    np.sqrt(np.divide(v, 1.0 - ADAM_BETA2**state.step, out=denom), out=denom)
    denom += ADAM_EPS
    update *= state.learning_rate
    update /= denom
    new_flat = np.subtract(params.flat, update, out=update)
    if not np.isfinite(new_flat).all():
        key = params._non_finite_key(new_flat)
        raise NumericError(f"{params.name}.{key}: non-finite parameter values")
    params.flat[...] = new_flat


# -- checkpoints -----------------------------------------------------------


def save_checkpoint(path, components: dict, meta: dict | None = None) -> None:
    """Single JSON document: component name -> named arrays with shapes.

    Round-trips bit-exactly: floats are serialized in their shortest
    round-tripping decimal form.
    """
    doc = {"meta": meta or {}, "components": {}}
    for name, params in components.items():
        doc["components"][name] = {
            key: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for key, arr in params.arrays.items()
        }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))


def _require_object(path, key, value) -> None:
    if not isinstance(value, dict):
        raise ParseError(f"{path}: {key} must be a JSON object, got {type(value).__name__}")


def _checkpoint_array(path, name, key, entry) -> np.ndarray:
    try:
        data = np.asarray(entry["data"], dtype=np.float64)
        shape = [int(n) for n in entry["shape"]]
    except KeyError as exc:
        raise ParseError(f"{path}: {name}.{key}: missing key {exc}") from exc
    except DECODE_ERRORS as exc:
        raise ParseError(f"{path}: {name}.{key}: {exc}") from exc
    if data.ndim != 1 or min(shape, default=0) < 0 or data.size != math.prod(shape):
        raise ParseError(
            f"{path}: {name}.{key}: {data.size} values do not fill shape {shape}"
        )
    return data.reshape(shape)


def load_checkpoint(path):
    """Inverse of save_checkpoint -> (components dict, meta dict).

    Invalid JSON, a missing ``components``, ``data`` or ``shape`` key, a
    ``components``, component or ``meta`` value that is not a JSON object,
    and data whose size does not match its shape raise ``ParseError``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "components" not in doc:
        raise ParseError(f"{path}: missing key 'components'")
    _require_object(path, "components", doc["components"])
    _require_object(path, "meta", doc.get("meta", {}))
    components = {}
    for name, arrays in doc["components"].items():
        _require_object(path, f"components.{name}", arrays)
        components[name] = ComponentParams(
            name,
            {key: _checkpoint_array(path, name, key, entry) for key, entry in arrays.items()},
        )
    return components, doc.get("meta", {})


def load_components(path, kind: str, names: dict):
    """Components and dims of a checkpoint that must be of ``kind`` and
    hold every component in ``names`` (checkpoint name -> layout
    component), each with the arrays, and array shapes, of that component's
    layout for the meta dims. Nothing is allocated for the check."""
    components, meta = load_checkpoint(path)
    if meta.get("kind") != kind:
        raise DataError(f"{path}: not a {kind} checkpoint")
    missing = [name for name in names if name not in components]
    if missing:
        raise ParseError(f"{path}: missing components {missing}")
    try:
        dims = ModelDims(**meta["dims"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: invalid model dims: {exc}") from exc
    layouts = _layouts(dims)
    for name, component in names.items():
        expected = {key: shape for key, (shape, _) in layouts[component].items()}
        found = {key: arr.shape for key, arr in components[name].arrays.items()}
        for key in sorted(expected.keys() | found.keys()):
            want, got = expected.get(key, "no array"), found.get(key, "no array")
            if want != got:
                raise ParseError(
                    f"{path}: {name}.{key}: expected shape {want}, found {got}"
                )
    return components, dims
