"""Finite-difference gradient oracle for the components and the tape.

``gradient_check(component, seed)`` builds one component's parameters, a
small random batch and a scalar probe loss, and returns the largest
relative error between the tape's gradients and central finite
differences over every parameter entry; ``max_fd_error`` does the same for
any parameters and loss. Tests require the error to be below 1e-4.
"""

import numpy as np

from segembed import autodiff as ad
from segembed import neuralcore as nc
from segembed.autodiff import Tensor
from segembed.errors import DataError


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


def random_refine(dims: nc.ModelDims, seed: int) -> nc.ComponentParams:
    """Refinement parameters whose output layer is drawn, not zero, so every
    entry has a non-trivial gradient."""
    arrays = nc._draw("refine", dims, seed)
    return nc.ComponentParams("refine", {k: arrays[k] for k in ("w1", "b1", "w2", "b2")})


def _probe_setup(component: str, seed: int, dims: nc.ModelDims):
    """Build params, a forward closure, and a scalar probe loss."""
    rng = np.random.default_rng(np.random.default_rng(seed).integers(2**63))
    lengths = [3, 2]
    if component in ("E_p", "E_s"):
        params = nc.init_encoder(dims, seed)
        frames = rng.normal(size=(sum(lengths), dims.feature_dim))
        target = rng.normal(size=(len(lengths), dims.embed_dim))

        def forward(pt):
            return nc.encoder_forward(pt, frames, lengths)

    elif component == "Dec":
        params = nc.init_decoder(dims, seed)
        v_p = rng.normal(size=(len(lengths), dims.embed_dim))
        v_s = rng.normal(size=(len(lengths), dims.embed_dim))
        target = rng.normal(size=(sum(lengths), dims.feature_dim))

        def forward(pt):
            return nc.decoder_forward(pt, v_p, v_s, lengths)

    elif component == "D_s":
        params = nc.init_discriminator(dims, seed)
        v_a = rng.normal(size=(3, dims.embed_dim))
        v_b = rng.normal(size=(3, dims.embed_dim))
        target = rng.normal(size=3)

        def forward(pt):
            return sigmoid(nc.discriminator_forward(pt, v_a, v_b))

    elif component == "refine":
        params = random_refine(dims, seed)
        v = rng.normal(size=(3, dims.embed_dim))
        target = rng.normal(size=(3, dims.embed_dim))

        def forward(pt):
            return nc.refine_forward(pt, v)

    else:
        raise DataError(f"unknown component {component!r}")

    def loss(pt):
        return ad.tmean(ad.square(forward(pt) - ad.constant(target)))

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
