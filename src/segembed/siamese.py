"""Contrastive training of segment embeddings.

Two regimes on top of the disentangled autoencoder: joint training (the
mined-pair contrastive loss is added to the encoder objective, variant c)
and post-hoc refinement (the base model is frozen and a residual transform
of the phonetic vectors is trained with the contrastive loss alone,
variant d).
"""

import numbers
from dataclasses import dataclass

import numpy as np

from . import _trainer
from . import autodiff as ad
from . import neuralcore as nc
from ._trainer import DisentangledModel, RefineModel
from .corpus import Corpus
from .errors import ConfigError, DataError
from .pairmine import PairSets

__all__ = [
    "RefineModel", "SiameseConfig", "contrastive_loss", "embed_corpus",
    "train_joint", "train_refine",
]

MINING_MODES = ("topk_global", "knn_graph")


@dataclass(frozen=True)
class SiameseConfig:
    """Settings for contrastive (joint or refinement) training."""

    margin: float = 1.0
    k: int = 8  # pairs per batch (topk_global) or neighbors per point (knn_graph)
    mining_mode: str = "topk_global"
    gamma: float = 1.0  # joint-training weight of the contrastive term
    epochs: int = 20
    batch_size: int = 32
    seed: int = 0
    learning_rate: float = 1e-3
    refine_hidden: int = 128
    drop_last: bool = True

    def __post_init__(self):
        if isinstance(self.k, bool) or not isinstance(self.k, numbers.Integral):
            raise ConfigError(f"k must be an integer, got {self.k!r}")
        if not self.margin > 0 or self.k < 1:  # NaN fails too
            raise ConfigError(f"margin must be > 0 and k >= 1, got {self.margin} and {self.k}")
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.mining_mode not in MINING_MODES:
            raise ConfigError(f"mining_mode must be one of {MINING_MODES}")
        if not self.gamma >= 0:  # NaN fails too
            raise ConfigError("gamma must be >= 0")
        if self.epochs < 1 or self.batch_size < 2:
            raise ConfigError("epochs >= 1 and batch_size >= 2 required")
        if self.refine_hidden < 1:
            raise ConfigError(f"siamese.refine_hidden must be >= 1, got {self.refine_hidden}")


def contrastive_loss(vectors, pairs: PairSets, margin: float) -> float:
    """Sum over positive pairs of squared distance plus sum over negative
    pairs of max(margin - distance, 0)^2, divided by the total pair count."""
    if not margin > 0:  # NaN fails too
        raise ConfigError("margin must be > 0")
    mat = np.asarray(vectors, dtype=np.float64)
    high = max(pairs.positives.max(initial=0), pairs.negatives.max(initial=0))
    if mat.ndim != 2 or high >= mat.shape[0]:
        raise DataError("pair indices out of range for the vector list")
    return _trainer.contrastive_graph(ad.constant(mat), pairs, margin).item()


def train_joint(corpus: Corpus, cfg_d, cfg_s: SiameseConfig):
    """Variant (c): disentanglement losses plus gamma times the contrastive
    loss over pairs mined on each batch's current phonetic embeddings.

    With gamma = 0 this is bit-identical to train_disentangle under the
    same seeds. Returns (DisentangledModel, loss log rows).
    """
    return _trainer.run_disentangle_training(corpus, cfg_d, cfg_s=cfg_s)


def train_refine(corpus: Corpus, base: DisentangledModel, cfg_s: SiameseConfig):
    """Variant (d): freeze the base model, precompute phonetic embeddings,
    and train the residual refinement transform with the contrastive loss
    over pairs mined on the frozen embeddings.

    Returns (RefineModel, loss log rows).
    """
    return _trainer.run_refine_training(corpus, base, cfg_s)


def embed_corpus(model: DisentangledModel, corpus: Corpus, variant: str,
                 refine: RefineModel | None = None):
    """One (segment_id, vector) per segment, ordered by segment_id.

    Variants a, b, c emit phonetic vectors of the given model (what differs
    is how the model was trained); variant d additionally applies the
    refinement transform.
    """
    if variant not in ("a", "b", "c", "d"):
        raise ConfigError(f"unknown embedding variant {variant!r}")
    if variant == "d" and refine is None:
        raise ConfigError("variant d requires refinement parameters")
    if variant == "d" and refine.dims.embed_dim != model.dims.embed_dim:
        raise ConfigError(
            f"refinement expects embed_dim {refine.dims.embed_dim}, "
            f"model has {model.dims.embed_dim}"
        )
    order = sorted(range(len(corpus)), key=lambda i: corpus[i].segment_id)
    vectors = _trainer.compute_embeddings(model, corpus, "phonetic", order)
    if variant == "d":
        vectors = nc.refine_forward(refine.params.tensors(), vectors).data
    return [(corpus[i].segment_id, vectors[r]) for r, i in enumerate(order)]


def save_refine_model(path, refine: RefineModel, extra_meta: dict | None = None):
    """Write a refinement transform as a single checkpoint document."""
    meta = {"kind": "refine", "dims": vars(refine.dims).copy()}
    meta.update(extra_meta or {})
    nc.save_checkpoint(path, {"refine": refine.params}, meta)


def load_refine_model(path) -> RefineModel:
    """Inverse of ``save_refine_model``, checked like ``load_model``."""
    components, dims = nc.load_components(path, "refine", {"refine": "refine"})
    return RefineModel(dims, components["refine"])
