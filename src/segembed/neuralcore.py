"""Differentiable components and their plumbing.

Five components: phonetic encoder, speaker encoder, decoder, speaker
discriminator, and the refinement transform. Each component's arrays are
written down once, in one layout table (key -> shape and fan-in, in draw
order): the initializers draw from it and the checkpoint loader checks
shapes against it without building a model. Forward passes are built on
the autodiff tape; batched forms concatenate all frames of a batch, pool
each segment's frames with ``segment_mean`` and repeat each segment's
vectors over its frames with ``repeat_rows``, so a batch costs a few tape
nodes and linear time in its frames; the position column is built with
``np.repeat``/``arange`` rather than a loop over segments. ``encode`` (one
segment) is the only single-input operation. Each component's parameters
are views into one contiguous float64 vector, so the package's one
optimizer (Adam) checks and updates a component with a few whole-vector
operations. Also houses checkpoint serialization and finite-difference
gradient verification.

Default encoder: per-frame affine + tanh, temporal mean pooling, affine to
the embedding dimension. A unidirectional recurrent encoder is available as
``encoder_mode="rnn"``; the forward passes read the kind from the
parameters (an ``rnn`` encoder has a ``w_rec`` array). It projects all
frames of a batch in one product, gathers that projection once in
time-major order, then advances every segment together, one time step at a
time with the rows ordered longest first and each step's inputs one
contiguous block, so a batch costs a few tape nodes per step (max T steps)
rather than several per frame.
"""

import json
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError, DimensionError, NumericError, ParseError

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
    encoder_mode: str = "pool"  # one of ENCODER_MODES

    def __post_init__(self):
        for name, value in vars(self).items():
            if name == "encoder_mode":
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise DataError(f"{name} must be an integer >= 1, got {value!r}")
        if self.encoder_mode not in ENCODER_MODES:
            raise DataError(f"unknown encoder_mode {self.encoder_mode!r}")


class ComponentParams:
    """Named float64 parameter arrays for one component.

    All arrays live in one contiguous vector, ``flat``, in key order;
    ``arrays`` maps each name to its view into it. The optimizer updates a
    component with a few operations over ``flat``.
    """

    def __init__(self, name: str, arrays: dict):
        arrays = {k: np.asarray(a, dtype=np.float64) for k, a in arrays.items()}
        flat = np.concatenate([a.ravel() for a in arrays.values()] or [np.zeros(0)])
        self._bind(name, flat, {k: a.shape for k, a in arrays.items()})

    def _bind(self, name: str, flat: np.ndarray, shapes: dict) -> None:
        self.name, self.flat, self.arrays = name, flat, {}
        offset = 0
        for key, shape in shapes.items():
            size = math.prod(shape)
            self.arrays[key] = flat[offset : offset + size].reshape(shape)
            offset += size
        if not np.isfinite(flat).all():
            key = next(k for k, a in self.arrays.items() if not np.isfinite(a).all())
            raise NumericError(f"{name}.{key}: non-finite parameter values")

    def _with_flat(self, flat: np.ndarray) -> "ComponentParams":
        """The same names and shapes over a new float64 vector ``flat``."""
        new = object.__new__(ComponentParams)
        new._bind(self.name, flat, {k: a.shape for k, a in self.arrays.items()})
        return new

    def tensors(self, requires_grad: bool = False) -> dict:
        return {
            k: Tensor(v, requires_grad=requires_grad) for k, v in self.arrays.items()
        }

    def __repr__(self):
        shapes = {k: v.shape for k, v in self.arrays.items()}
        return f"ComponentParams({self.name!r}, {shapes})"


def _dense(w: str, b: str, n_in: int, n_out: int) -> dict:
    return {w: ((n_in, n_out), n_in), b: ((n_out,), n_in)}


def _layouts(dims: ModelDims) -> dict:
    """Each component's arrays in draw order: component -> {key: (shape,
    fan-in)}. The initializers draw from it; the checkpoint loader checks
    shapes against it."""
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
        # the output layer is drawn first, and stored last
        "refine": {**_dense("w2", "b2", h_r, d), **_dense("w1", "b1", d, h_r)},
    }


def _draw(component: str, dims: ModelDims, seed: int, zeroed=()) -> dict:
    """The component's arrays, each uniform in +-1/sqrt(fan-in), drawn in
    layout order from one generator; ``zeroed`` keys are zeros, not drawn.
    An array too large to allocate is a ``DataError`` naming it."""
    rng = np.random.default_rng(seed)
    arrays = {}
    for key, (shape, fan_in) in _layouts(dims)[component].items():
        try:
            if key in zeroed:
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


def init_refine(dims: ModelDims, seed: int, identity: bool = True) -> ComponentParams:
    """Refinement transform parameters.

    With identity=True the output layer starts at zero, so the transform is
    exactly the identity map at step 0 (the residual path carries the input
    through unchanged).
    """
    arrays = _draw("refine", dims, seed, ("w2", "b2") if identity else ())
    return ComponentParams("refine", {k: arrays[k] for k in ("w1", "b1", "w2", "b2")})


# -- batched forward passes (tape-building) ------------------------------


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


def encoder_forward(pt: dict, frames, lengths) -> Tensor:
    """Encode a packed batch -> (B, d) embedding tensor.

    The encoder is ``rnn`` if its parameters hold ``w_rec``, else ``pool``.
    ``lengths`` are the segments' frame counts, in row order; each must be
    >= 1 and they must sum to the number of frame rows (``DataError``).
    """
    frames = ad.as_tensor(frames)
    lengths = _check_lengths(lengths, "encoder")
    if lengths.sum() != frames.shape[0]:
        raise DataError(
            f"encoder: segment lengths sum to {lengths.sum()}, "
            f"but the batch has {frames.shape[0]} frame rows"
        )
    if "w_rec" in pt:
        pooled = _rnn_final_states(pt, frames, lengths)
    else:
        pooled = ad.segment_mean(ad.tanh(frames @ pt["w_in"] + pt["b_in"]), lengths)
    return pooled @ pt["w_out"] + pt["b_out"]


def decoder_forward(pt: dict, v_p, v_s, lengths) -> Tensor:
    """Reconstruct a packed batch -> (sum T, F) tensor.

    ``lengths`` are the segments' frame counts, one per row of ``v_p`` and
    ``v_s``; each must be >= 1 (``DataError``).
    """
    v_p, v_s = ad.as_tensor(v_p), ad.as_tensor(v_s)
    lengths = _check_lengths(lengths, "decoder")
    if not len(lengths) == v_p.shape[0] == v_s.shape[0]:
        raise DataError(
            f"decoder: {len(lengths)} segment lengths for "
            f"{v_p.shape[0]} v_p and {v_s.shape[0]} v_s rows"
        )
    inputs = ad.concat(
        [
            ad.repeat_rows(v_p, lengths),
            ad.repeat_rows(v_s, lengths),
            ad.constant(_position_column(lengths)),
        ],
        axis=1,
    )
    h1 = ad.tanh(inputs @ pt["w1"] + pt["b1"])
    h2 = ad.tanh(h1 @ pt["w2"] + pt["b2"])
    return h2 @ pt["w_out"] + pt["b_out"]


def discriminator_forward(pt: dict, v_a, v_b) -> Tensor:
    """Pairs of phonetic vectors -> (P,) logits tensor."""
    inputs = ad.concat([ad.as_tensor(v_a), ad.as_tensor(v_b)], axis=1)
    h1 = ad.tanh(inputs @ pt["w1"] + pt["b1"])
    h2 = ad.tanh(h1 @ pt["w2"] + pt["b2"])
    return ad.tsum(h2 @ pt["w_out"] + pt["b_out"], axis=1)


def refine_forward(pt: dict, v) -> Tensor:
    """Residual refinement map v -> z (same dimension)."""
    v = ad.as_tensor(v)
    return v + ad.tanh(v @ pt["w1"] + pt["b1"]) @ pt["w2"] + pt["b2"]


# -- the single-input operation (the public contract) --------------------


def encode(params: ComponentParams, x) -> np.ndarray:
    """Variable-length (T, F) feature matrix -> one vector of length d, with
    either encoder (phonetic or speaker) of either kind."""
    x = np.asarray(x, dtype=np.float64)
    f_dim = params.arrays["w_in"].shape[0]
    if x.ndim != 2 or x.shape[1] != f_dim:
        raise DimensionError(
            f"encoder: expected (T, {f_dim}) feature matrix, got {x.shape}"
        )
    return encoder_forward(params.tensors(), x, [x.shape[0]]).data[0]


# -- optimizer -------------------------------------------------------------


@dataclass(frozen=True)
class OptimState:
    """Adaptive-moment (Adam) optimizer state for one component; ``m`` and
    ``v`` are flat vectors laid out like ``ComponentParams.flat``."""

    learning_rate: float = 1e-3
    step: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))


def init_optim(params: ComponentParams, learning_rate: float = 1e-3) -> OptimState:
    return OptimState(
        learning_rate=learning_rate,
        m=np.zeros_like(params.flat),
        v=np.zeros_like(params.flat),
    )


def grad_step(params: ComponentParams, grads: dict, state: OptimState):
    """One Adam update -> (new ComponentParams, new OptimState).

    Adam is elementwise, so it runs once over the component's flat vector
    and gives the same bits as one update per array.
    """
    for key, arr in params.arrays.items():
        g = grads.get(key)
        if g is None:
            raise DataError(f"missing gradient for {params.name}.{key}")
        if np.shape(g) != arr.shape:
            raise DimensionError(
                f"gradient shape {np.shape(g)} != parameter shape "
                f"{arr.shape} for {params.name}.{key}"
            )
    g = np.concatenate(
        [np.ravel(grads[k]) for k in params.arrays] or [np.zeros(0)], dtype=np.float64
    )
    if not np.isfinite(g).all():
        key = next(k for k in params.arrays if not np.all(np.isfinite(grads[k])))
        raise NumericError(f"non-finite gradient for {params.name}.{key}")
    step = state.step + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * g * g
    m_hat = m / (1.0 - ADAM_BETA1**step)
    v_hat = v / (1.0 - ADAM_BETA2**step)
    flat = params.flat - state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return params._with_flat(flat), replace(state, step=step, m=m, v=v)


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
    except (TypeError, ValueError) as exc:
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


# -- gradient verification ---------------------------------------------


def _probe_setup(component: str, seed: int, dims: ModelDims):
    """Build params, a forward closure, and a scalar probe loss."""
    rng = np.random.default_rng(np.random.default_rng(seed).integers(2**63))
    lengths = [3, 2]
    if component in ("E_p", "E_s"):
        params = init_encoder(dims, seed)
        frames = rng.normal(size=(sum(lengths), dims.feature_dim))
        target = rng.normal(size=(len(lengths), dims.embed_dim))

        def forward(pt):
            return encoder_forward(pt, frames, lengths)

    elif component == "Dec":
        params = init_decoder(dims, seed)
        v_p = rng.normal(size=(len(lengths), dims.embed_dim))
        v_s = rng.normal(size=(len(lengths), dims.embed_dim))
        target = rng.normal(size=(sum(lengths), dims.feature_dim))

        def forward(pt):
            return decoder_forward(pt, v_p, v_s, lengths)

    elif component == "D_s":
        params = init_discriminator(dims, seed)
        v_a = rng.normal(size=(3, dims.embed_dim))
        v_b = rng.normal(size=(3, dims.embed_dim))
        target = rng.normal(size=3)

        def forward(pt):
            return ad.sigmoid(discriminator_forward(pt, v_a, v_b))

    elif component == "refine":
        params = init_refine(dims, seed, identity=False)
        v = rng.normal(size=(3, dims.embed_dim))
        target = rng.normal(size=(3, dims.embed_dim))

        def forward(pt):
            return refine_forward(pt, v)

    else:
        raise DataError(f"unknown component {component!r}")

    def loss(pt):
        return ad.tmean(ad.square(forward(pt) - ad.constant(target)))

    return params, loss


def gradient_check(
    component: str,
    seed: int,
    dims: ModelDims | None = None,
    fd_step: float = 1e-5,
) -> float:
    """Compare analytic gradients of a probe loss against central finite
    differences over every parameter entry; return the max relative error.
    """
    if dims is None:
        dims = ModelDims(
            feature_dim=4, embed_dim=6, enc_hidden=5, dec_hidden=5,
            disc_hidden=5, refine_hidden=5,
        )
    params, loss_fn = _probe_setup(component, seed, dims)
    return _max_fd_error(params, loss_fn, fd_step)


def _max_fd_error(params: ComponentParams, loss_fn, fd_step: float = 1e-5) -> float:
    """Max relative error between the tape's gradients of the scalar
    ``loss_fn(tensors)`` and central finite differences, over every entry
    of ``params``."""
    tensors = params.tensors(requires_grad=True)
    loss_fn(tensors).backward()
    analytic = {k: t.grad for k, t in tensors.items()}

    def eval_loss(arrays):
        return loss_fn({k: Tensor(a) for k, a in arrays.items()}).item()

    worst = 0.0
    arrays = {k: a.copy() for k, a in params.arrays.items()}
    for key, arr in arrays.items():
        flat = arr.ravel()
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + fd_step
            up = eval_loss(arrays)
            flat[idx] = original - fd_step
            down = eval_loss(arrays)
            flat[idx] = original
            numeric = (up - down) / (2.0 * fd_step)
            a = analytic[key].ravel()[idx]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
