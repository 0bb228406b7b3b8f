"""Contrastive training of segment embeddings.

Two regimes on top of the disentangled autoencoder: joint training (the
mined-pair contrastive loss is added to the encoder objective, variant c)
and post-hoc refinement (the base model is frozen and a residual transform
of the phonetic vectors is trained with the contrastive loss alone,
variant d).
"""

from dataclasses import dataclass

import numpy as np

from . import _trainer
from . import autodiff as ad
from . import neuralcore as nc
from ._trainer import DisentangledModel, RefineModel
from .corpus import Corpus
from .errors import ConfigError, DataError
from .pairmine import PairSets
from .seeding import check_fields

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

    KEYS = {  # config key -> bound of each field (``seeding.check_fields``)
        "siamese.margin": "> 0", "siamese.k": ">= 1", "siamese.mining_mode": MINING_MODES,
        "siamese.gamma": ">= 0", "siamese.epochs": ">= 1", "siamese.batch_size": ">= 2",
        "seed": None, "siamese.learning_rate": "> 0", "siamese.refine_hidden": ">= 1",
        "siamese.drop_last": None}

    def __post_init__(self):
        check_fields(self)


def contrastive_loss(vectors, pairs: PairSets, margin: float) -> float:
    """Sum over positive pairs of squared distance plus sum over negative
    pairs of max(margin - distance, 0)^2, divided by the total pair count."""
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
    """Embedding table of ``corpus``: (ids, vectors), the segment ids in
    sorted order as a list of str and their vectors as the rows of one
    (N, d) float64 matrix, as ``corpus.save_embeddings`` writes it.

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
        vectors = nc.refine_forward(refine.params, vectors).data
    return [corpus[i].segment_id for i in order], vectors


def save_refine_model(path, refine: RefineModel):
    """Write a refinement transform as a single checkpoint document."""
    meta = {"kind": "refine", "dims": vars(refine.dims).copy()}
    nc.save_checkpoint(path, {"refine": refine.params}, meta)


def load_refine_model(path) -> RefineModel:
    """Inverse of ``save_refine_model``, checked like ``load_model``."""
    components, dims = nc.load_components(path, "refine", {"refine": "refine"})
    return RefineModel(dims, components["refine"])
