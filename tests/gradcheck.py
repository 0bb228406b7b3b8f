"""Finite-difference gradient oracle for the components and the tape, and
the fine-grained tape reference of the component nodes.

``gradient_check(component, seed)`` builds one component's parameters, a
small random batch and a scalar probe loss, and returns the largest
relative error between the analytic gradients (the component's own
backward: the hand-derived node, or the tape for ``rnn`` and refine) and
central finite differences over every parameter entry; ``max_fd_error``
does the same for any parameters and loss. Tests require the error to be
below 1e-4.

``tape_encoder``, ``tape_decoder`` and ``tape_discriminator`` are the
``pool`` encoder, decoder and discriminator written as fine-grained tape
graphs, with the batch layers ``segment_mean`` and ``repeat_rows``: the
forms that ``neuralcore``'s single-node components must match bit for
bit. ``concat_decoder`` is the decoder as the paper writes it, each
frame's row [v_p; v_s; position] through the first layer; the node's
per-segment first layer sums in another order, so it matches that form
to rounding only.
"""

import numpy as np

from segembed import autodiff as ad
from segembed import neuralcore as nc
from segembed.autodiff import Tensor
from segembed.errors import DataError
from segembed.seeding import seeded_rng


def sigmoid(a) -> Tensor:
    """Logistic function on the tape (the ``D_s`` probe's output layer)."""
    a = ad.as_tensor(a)
    y = ad._stable_sigmoid(a.data)
    out = Tensor(y, _parents=(a,))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * y * (1.0 - y))

    out._backward = backward
    return out


def segment_mean(a, lengths) -> Tensor:
    """Mean of each run of ``lengths[k]`` consecutive rows of the 2-D ``a``
    -> one row per run; every length must be >= 1."""
    a = ad.as_tensor(a)
    lengths = np.asarray(lengths, dtype=np.intp)
    n = lengths[:, None]
    starts = np.cumsum(lengths) - lengths
    out = Tensor(np.add.reduceat(a.data, starts, axis=0) / n, _parents=(a,))

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.repeat(g / n, lengths, axis=0))

    out._backward = backward
    return out


def repeat_rows(a, lengths) -> Tensor:
    """Row k of ``a`` repeated ``lengths[k]`` times, in row order."""
    a = ad.as_tensor(a)
    lengths = np.asarray(lengths, dtype=np.intp)
    out = Tensor(np.repeat(a.data, lengths, axis=0), _parents=(a,))

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.add.reduceat(g, np.cumsum(lengths) - lengths, axis=0))

    out._backward = backward
    return out


def tape_encoder(pt: dict, frames, lengths) -> Tensor:
    """The ``pool`` encoder on the tape: (B, d) embeddings of a packed
    batch."""
    pooled = segment_mean(ad.tanh(ad.as_tensor(frames) @ pt["w_in"] + pt["b_in"]), lengths)
    return pooled @ pt["w_out"] + pt["b_out"]


def tape_decoder(pt: dict, v_p, v_s, lengths) -> Tensor:
    """The decoder on the tape, its first layer taken once per segment:
    (sum T, F) reconstruction of a packed batch."""
    d = pt["w1"].shape[0] // 2
    w_p, w_s = ad.slice_rows(pt["w1"], 0, d), ad.slice_rows(pt["w1"], d, 2 * d)
    w_pos = ad.slice_rows(pt["w1"], 2 * d, 2 * d + 1)
    position = ad.constant(nc._position_column(np.asarray(lengths, dtype=np.intp)))
    per_segment = ad.as_tensor(v_p) @ w_p + ad.as_tensor(v_s) @ w_s + pt["b1"]
    h1 = ad.tanh(repeat_rows(per_segment, lengths) + position @ w_pos)
    return tape_head(pt, h1)


def concat_decoder(pt: dict, v_p, v_s, lengths) -> Tensor:
    """The decoder as the paper writes it, on the tape: every frame's input
    row [v_p; v_s; position] goes through the first layer."""
    position = nc._position_column(np.asarray(lengths, dtype=np.intp))
    inputs = ad.concat(
        [repeat_rows(v_p, lengths), repeat_rows(v_s, lengths), ad.constant(position)], axis=1
    )
    return tape_mlp(pt, inputs)


def tape_discriminator(pt: dict, pairs) -> Tensor:
    """The discriminator on the tape: (P,) logits of (P, 2d) pair rows."""
    return ad.tsum(tape_mlp(pt, pairs), axis=1)


def tape_mlp(pt: dict, x) -> Tensor:
    """Two tanh layers and the affine output layer of the decoder and the
    discriminator, on the tape."""
    return tape_head(pt, ad.tanh(ad.as_tensor(x) @ pt["w1"] + pt["b1"]))


def tape_head(pt: dict, h1) -> Tensor:
    """The second tanh layer and the affine output layer, on the tape."""
    h2 = ad.tanh(h1 @ pt["w2"] + pt["b2"])
    return h2 @ pt["w_out"] + pt["b_out"]


def random_refine(dims: nc.ModelDims, seed: int) -> nc.ComponentParams:
    """Refinement parameters whose output layer is drawn, not zero, so every
    entry has a non-trivial gradient: each array uniform in
    +-1/sqrt(fan-in) from one generator, the output layer drawn first."""
    rng, d, h = seeded_rng(seed), dims.embed_dim, dims.refine_hidden
    arrays = {}
    for key, shape, fan_in in (("w2", (h, d), h), ("b2", (d,), h),
                               ("w1", (d, h), d), ("b1", (h,), d)):
        bound = 1.0 / np.sqrt(fan_in)
        arrays[key] = rng.uniform(-bound, bound, size=shape)
    return nc.ComponentParams("refine", {k: arrays[k] for k in ("w1", "b1", "w2", "b2")})


def _probe_setup(component: str, seed: int, dims: nc.ModelDims):
    """Build params, a forward closure, and a scalar probe loss."""
    rng = np.random.default_rng(np.random.default_rng(seed).integers(2**63))
    lengths = [3, 2]
    if component in ("E_p", "E_s"):
        params = nc.init_encoder(dims, seed)
        frames = rng.normal(size=(sum(lengths), dims.feature_dim))
        target = rng.normal(size=(len(lengths), dims.embed_dim))

        def forward(p, grad):
            return nc.encoder_forward(p, frames, lengths, grad)

    elif component == "Dec":
        params = nc.init_decoder(dims, seed)
        v_p = rng.normal(size=(len(lengths), dims.embed_dim))
        v_s = rng.normal(size=(len(lengths), dims.embed_dim))
        target = rng.normal(size=(sum(lengths), dims.feature_dim))

        def forward(p, grad):
            return nc.decoder_forward(p, v_p, v_s, lengths, grad)

    elif component == "D_s":
        params = nc.init_discriminator(dims, seed)
        v_a = rng.normal(size=(3, dims.embed_dim))
        v_b = rng.normal(size=(3, dims.embed_dim))
        target = rng.normal(size=3)
        pairs = np.concatenate([v_a, v_b], axis=1)

        def forward(p, grad):
            return sigmoid(nc.discriminator_forward(p, pairs, grad))

    elif component == "refine":
        params = random_refine(dims, seed)
        v = rng.normal(size=(3, dims.embed_dim))
        target = rng.normal(size=(3, dims.embed_dim))

        def forward(p, grad):
            return nc.refine_forward(p, v, grad)

    else:
        raise DataError(f"unknown component {component!r}")

    def loss(p, grad):
        return ad.tmean(ad.square(forward(p, grad) - ad.constant(target)))

    return params, loss


def gradient_check(
    component: str,
    seed: int,
    dims: nc.ModelDims | None = None,
    fd_step: float = 1e-5,
) -> float:
    """Compare analytic gradients of a probe loss against central finite
    differences over every parameter entry; return the max relative error.
    """
    if dims is None:
        dims = nc.ModelDims(
            feature_dim=4, embed_dim=6, enc_hidden=5, dec_hidden=5,
            disc_hidden=5, refine_hidden=5,
        )
    params, loss_fn = _probe_setup(component, seed, dims)
    return max_fd_error(params, loss_fn, fd_step)


def max_fd_error(params: nc.ComponentParams, loss_fn, fd_step: float = 1e-5) -> float:
    """Max relative error between the analytic gradients of the scalar
    ``loss_fn(params, grad)`` and central finite differences, over every
    entry of ``params``. ``loss_fn`` passes ``grad`` (a flat gradient
    vector, or None) to the component forward; backward fills it."""
    grad = np.zeros_like(params.flat)
    loss_fn(params, grad).backward()
    analytic = params.views(grad)

    def eval_loss(arrays):
        return loss_fn(nc.ComponentParams(params.name, arrays), None).item()

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
