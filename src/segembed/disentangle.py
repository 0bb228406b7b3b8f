"""Speaker-disentangled autoencoder training.

The encoder/decoder objective is reconstruction plus a same/different
speaker contrastive loss on the speaker vectors plus an adversarial term
that rewards the phonetic encoder for fooling a speaker discriminator.
When true speaker ids are missing, segments of one utterance are treated
as one speaker.
"""

from dataclasses import dataclass

import numpy as np

from . import _trainer
from . import autodiff as ad
from . import neuralcore as nc
from ._trainer import DisentangledModel, effective_speakers
from .corpus import Corpus, write_csv
from .errors import DataError, DimensionError, NumericError
from .seeding import check_fields, rng_for

__all__ = [
    "DisentangleConfig", "DisentangledModel", "adversarial_loss", "discriminator_loss",
    "effective_speakers", "linear_probe_accuracy", "phonetic_embeddings",
    "reconstruction_loss", "speaker_contrastive_loss", "speaker_embeddings",
    "train_disentangle",
]

# checkpoint name -> layout component
_COMPONENTS = {"E_p": "encoder", "E_s": "encoder", "Dec": "decoder", "D_s": "discriminator"}


@dataclass(frozen=True)
class DisentangleConfig:
    """Training settings for the disentangled autoencoder."""

    epochs: int = 30
    batch_size: int = 32
    margin: float = 1.0  # speaker-contrastive margin
    alpha_spk: float = 1.0
    alpha_adv: float = 1.0
    disc_steps: int = 1  # discriminator updates per encoder update
    disc_warmup_epochs: int = 0  # epochs of discriminator-only adversarial play
    seed: int = 0
    embed_dim: int = 256
    enc_hidden: int = 128
    dec_hidden: int = 128
    disc_hidden: int = 128
    encoder_mode: str = "pool"
    learning_rate: float = 1e-3
    disc_learning_rate: float | None = None  # defaults to learning_rate
    drop_last: bool = True

    KEYS = {  # config key -> bound of each field (``seeding.check_fields``)
        "train.epochs": ">= 1", "train.batch_size": ">= 2", "train.margin": "> 0",
        "train.alpha_spk": ">= 0", "train.alpha_adv": ">= 0", "train.disc_steps": ">= 1",
        "train.disc_warmup_epochs": ">= 0", "seed": None, "model.embed_dim": ">= 1",
        "model.enc_hidden": ">= 1", "model.dec_hidden": ">= 1", "model.disc_hidden": ">= 1",
        "model.encoder_mode": nc.ENCODER_MODES, "train.learning_rate": "> 0",
        "train.disc_learning_rate": "> 0", "train.drop_last": None}

    def __post_init__(self):
        check_fields(self)
        if self.disc_learning_rate is None:
            object.__setattr__(self, "disc_learning_rate", self.learning_rate)


# -- loss operations ---------------------------------------------------------


def reconstruction_loss(x, x_rec) -> float:
    """Mean squared error over all T x F entries of two non-empty (T, F)
    matrices of equal shape (else ``DimensionError``), by training's graph."""
    x, x_rec = np.asarray(x, dtype=np.float64), np.asarray(x_rec, dtype=np.float64)
    if x.ndim != 2 or x.size == 0 or x.shape != x_rec.shape:
        raise DimensionError(f"expected non-empty (T, F) matrices of equal shape, "
                             f"got {x.shape} and {x_rec.shape}")
    return _trainer.recon_graph(ad.constant(x_rec), x, x.shape[:1]).item()


def speaker_contrastive_loss(vectors, speaker_ids, margin: float) -> float:
    """Over all unordered pairs: squared distance for same-speaker pairs,
    squared hinge max(margin - distance, 0)^2 otherwise; sum / pair count."""
    mat = np.asarray(vectors, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] < 2:
        raise DataError("need at least 2 vectors of equal dimension")
    if len(speaker_ids) != mat.shape[0]:
        raise DataError("one speaker id per vector required")
    pairs = _trainer.speaker_pairs(_trainer.speaker_codes(speaker_ids))
    return _trainer.speaker_contrastive_graph(ad.constant(mat), pairs, margin).item()


def discriminator_loss(probs, same_speaker) -> float:
    """Mean binary cross-entropy, target 1 for same-speaker pairs."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1 or len(same_speaker) != probs.shape[0]:
        raise DataError("probs and flags must be equal-length 1-D sequences")
    if probs.size == 0:
        raise DataError("need at least one probability")
    if np.any(probs <= 0.0) or np.any(probs >= 1.0):
        raise NumericError("probabilities must lie strictly inside (0, 1)")
    logits = ad.constant(np.log(probs) - np.log1p(-probs))
    return _trainer.bce_graph(logits, np.asarray(same_speaker, dtype=bool)).item()


def adversarial_loss(probs, same_speaker) -> float:
    """Mean binary cross-entropy against flipped targets: the phonetic
    encoder is rewarded exactly when the discriminator is wrong."""
    return discriminator_loss(probs, ~np.asarray(same_speaker, dtype=bool))


# -- training -----------------------------------------------------------------


def train_disentangle(corpus: Corpus, cfg: DisentangleConfig):
    """Train encoders, decoder, and discriminator on one corpus.

    Deterministic in (corpus, cfg). Returns (DisentangledModel, loss log
    rows); one row per epoch with keys epoch/recon/spk/adv/disc.
    """
    return _trainer.run_disentangle_training(corpus, cfg, cfg_s=None)


def save_model(path, model: DisentangledModel, extra_meta: dict | None = None):
    """Write a disentangled model as a single checkpoint document."""
    meta = {"kind": "disentangled", "dims": vars(model.dims).copy()}
    meta.update(extra_meta or {})
    nc.save_checkpoint(
        path,
        {"E_p": model.e_p, "E_s": model.e_s, "Dec": model.dec, "D_s": model.d_s},
        meta,
    )


def load_model(path) -> DisentangledModel:
    """Inverse of ``save_model``; the checkpoint's kind and array shapes are
    checked by ``neuralcore.load_components``."""
    components, dims = nc.load_components(path, "disentangled", _COMPONENTS)
    return DisentangledModel(dims, *(components[name] for name in _COMPONENTS))


def write_loss_log(path, rows) -> None:
    """Per-epoch training log as CSV, one line per row.

    The columns are the keys of the first row: epoch, recon, spk, adv, disc
    for disentanglement training, plus contrastive, pos_pairs, neg_pairs
    and dist_evals for joint training, and epoch, contrastive, pos_pairs,
    neg_pairs, dist_evals for refinement. Written by ``corpus.write_csv``.
    """
    if not rows:
        raise DataError("no rows to write")
    columns = list(rows[0])
    write_csv(path, columns, ([row[c] for c in columns] for row in rows))


def speaker_embeddings(model: DisentangledModel, corpus: Corpus) -> np.ndarray:
    """(M, d) speaker-vector matrix in corpus order."""
    return _trainer.compute_embeddings(model, corpus, which="speaker")


def phonetic_embeddings(model: DisentangledModel, corpus: Corpus) -> np.ndarray:
    """(M, d) phonetic-vector matrix in corpus order."""
    return _trainer.compute_embeddings(model, corpus, which="phonetic")


def linear_probe_accuracy(vectors, labels, seed: int) -> float:
    """Held-out accuracy of a seeded linear softmax probe.

    The probe trains on a seeded half of the rows (at least one per class)
    with 300 full-batch Adam steps at learning rate 0.1 and is scored on
    the other half. Diagnostic for disentanglement: speaker identity should
    be read better from the speaker vectors than from the phonetic ones.
    """
    mat = np.asarray(vectors, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != len(labels):
        raise DataError("vectors must be (N, d) with one label per row")
    classes = sorted(set(labels))
    y = np.asarray([classes.index(l) for l in labels])
    n = mat.shape[0]
    order = rng_for(seed, "probe:split").permutation(n)
    n_train = max(len(classes), round(n / 2))
    train_idx, test_idx = order[:n_train], order[n_train:]
    if len(test_idx) == 0:
        raise DataError("probe needs a non-empty held-out split")

    mu = mat[train_idx].mean(axis=0)
    sd = np.maximum(mat[train_idx].std(axis=0), 1e-8)
    x_train = np.hstack([(mat[train_idx] - mu) / sd, np.ones((len(train_idx), 1))])
    x_test = np.hstack([(mat[test_idx] - mu) / sd, np.ones((len(test_idx), 1))])

    k = len(classes)
    params = nc.ComponentParams("probe", {"w": np.zeros((x_train.shape[1], k))})
    opt = nc.init_optim(params, learning_rate=0.1)
    onehot = np.eye(k)[y[train_idx]]
    for _ in range(300):
        logits = x_train @ params.arrays["w"]
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        g = x_train.T @ (p - onehot) / len(train_idx)
        nc.grad_step(params, g.ravel(), opt)
    pred = np.argmax(x_test @ params.arrays["w"], axis=1)
    return float(np.mean(pred == y[test_idx]))
