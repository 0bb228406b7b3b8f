"""Shared training engine behind the disentangle and siamese modules.

Builds per-batch autodiff graphs from the neuralcore forwards (the
``pool`` encoders, the decoder and the discriminator are one tape node
each; the losses and the adversarial pair gathering stay fine-grained),
runs one ``backward()`` per update, mines pairs on detached embeddings, and
applies the seeded optimizer to each component's flat gradient vector.
Every random draw comes from a generator derived from (config seed, step
tag), so skipping an optional loss term never shifts any other stream: a
joint run with zero contrastive weight is bit-identical to plain
disentanglement training.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import neuralcore as nc
from .corpus import Corpus, make_batches
from .errors import ConfigError, DataError, NumericError
from .pairmine import (
    DistanceCounter,
    PairSets,
    knn_graph_pairs,
    pair_indices,
    topk_global_pairs,
)
from .seeding import derive_seed, rng_for

EMBED_CHUNK = 256


@dataclass(frozen=True)
class DisentangledModel:
    """Trained parameter set: both encoders, decoder, and discriminator."""

    dims: nc.ModelDims
    e_p: nc.ComponentParams
    e_s: nc.ComponentParams
    dec: nc.ComponentParams
    d_s: nc.ComponentParams


@dataclass(frozen=True)
class RefineModel:
    """Trained refinement transform applied on top of a frozen base model."""

    dims: nc.ModelDims
    params: nc.ComponentParams


def effective_speakers(corpus: Corpus):
    """Speaker id per segment, falling back to the utterance id (segments of
    one utterance are assumed to share a speaker)."""
    out = []
    for seg in corpus.segments:
        if seg.speaker_id is not None:
            out.append(seg.speaker_id)
        elif seg.utterance_id:
            out.append(f"utt:{seg.utterance_id}")
        else:
            raise DataError(
                f"segment {seg.segment_id!r} has neither speaker_id nor utterance_id"
            )
    return out


# -- loss graphs ----------------------------------------------------------


def recon_graph(x_rec, frames: np.ndarray, lengths) -> ad.Tensor:
    """Batch mean of per-segment mean squared reconstruction error."""
    lengths = np.asarray(lengths, dtype=np.intp)
    w = np.repeat(1.0 / (len(lengths) * lengths * frames.shape[1]), lengths)
    w = w.reshape(-1, 1)
    return ad.tsum(ad.square(x_rec - ad.constant(frames)) * ad.constant(w))


def speaker_pairs(speakers):
    """Same-speaker and different-speaker pairs (i, j), i < j, of a batch.

    Two (P, 2) int arrays, each in row-major order (by i, then j), the
    order of the nested loop over i < j.
    """
    codes = {}
    labels = np.array([codes.setdefault(s, len(codes)) for s in speakers])
    pairs = pair_indices(len(labels))
    same = labels[pairs[:, 0]] == labels[pairs[:, 1]]
    return pairs[same], pairs[~same]


def _pair_loss(vectors, positives, negatives, margin: float, what: str) -> ad.Tensor:
    """Sum of positive squared distances and negative squared hinges
    max(margin - distance, 0)^2 (margin > 0), divided by the pair count."""
    if not margin > 0:  # NaN fails too
        raise ConfigError("margin must be > 0")
    n_pairs = len(positives) + len(negatives)
    if n_pairs == 0:
        raise DataError(f"{what} needs at least one pair")
    terms = []
    if len(positives):
        terms.append(ad.tsum(ad.pair_sq_dists(vectors, positives)))
    if len(negatives):
        dist = ad.sqrt(ad.pair_sq_dists(vectors, negatives))
        terms.append(ad.tsum(ad.square(ad.relu(margin - dist))))
    total = terms[0] if len(terms) == 1 else terms[0] + terms[1]
    return total * (1.0 / n_pairs)


def contrastive_graph(vectors, pairs: PairSets, margin: float) -> ad.Tensor:
    """Contrastive loss over mined pairs: positives pulled together,
    negatives pushed beyond the margin."""
    return _pair_loss(
        vectors, pairs.positives, pairs.negatives, margin, "contrastive loss"
    )


def speaker_contrastive_graph(vectors, pairs, margin: float) -> ad.Tensor:
    """Same/different-speaker contrastive loss over all unordered pairs;
    ``pairs`` is the (same, different) result of ``speaker_pairs``."""
    same, diff = pairs
    return _pair_loss(vectors, same, diff, margin, "speaker contrastive loss")


def bce_graph(logits, targets) -> ad.Tensor:
    """Mean binary cross-entropy from logits (stable softplus form)."""
    t = ad.constant(np.asarray(targets, dtype=np.float64))
    return ad.tmean(ad.softplus(logits) - t * logits)


# -- pair sampling / mining ------------------------------------------------


def _sample_speaker_pairs(pairs, limit: int, rng):
    """Up to `limit` same-speaker and `limit` different-speaker index pairs
    from the (same, different) result of ``speaker_pairs``, as one (P, 2)
    int array, and their same-speaker flags."""
    picked, flags = [], []
    for pool, flag in zip(pairs, (1.0, 0.0)):
        take = min(limit, len(pool))
        if take:
            picked.append(pool[rng.choice(len(pool), size=take, replace=False)])
            flags.extend([flag] * take)
    return np.concatenate(picked), np.asarray(flags)


def mine_pairs(vectors: np.ndarray, cfg_s, epoch: int, batch_index: int,
               counter: DistanceCounter | None = None) -> PairSets:
    """Mine pairs for one batch per the siamese config (seeded per step)."""
    seed = derive_seed(cfg_s.seed, f"mine:{epoch}:{batch_index}")
    if cfg_s.mining_mode == "knn_graph":
        return knn_graph_pairs(vectors, cfg_s.k, counter=counter)
    return topk_global_pairs(vectors, cfg_s.k, seed, counter=counter)


# -- training loops ----------------------------------------------------------


def _finite(value: float, term: str, where: str) -> float:
    """``value`` of one loss term, or a NumericError naming where it failed."""
    if not math.isfinite(value):
        raise NumericError(f"{where}: non-finite {term} loss ({value})")
    return value


def _step(params, grad, state, component: str, where: str) -> None:
    """``nc.grad_step`` on the flat gradient vector ``grad``, in place; a
    NumericError gains the epoch, batch and component it happened in."""
    try:
        nc.grad_step(params, grad, state)
    except NumericError as exc:
        raise NumericError(f"{where}, component {component}: {exc}") from exc


def run_disentangle_training(corpus: Corpus, cfg, cfg_s=None):
    """Disentanglement training; with cfg_s (and gamma > 0) the encoder
    objective additionally minimizes the mined-pair contrastive loss on the
    batch's current phonetic embeddings (joint training).

    Returns (DisentangledModel, per-epoch loss log rows).
    """
    speakers_all = effective_speakers(corpus)
    dims = nc.ModelDims(
        feature_dim=corpus.feature_dim,
        embed_dim=cfg.embed_dim,
        enc_hidden=cfg.enc_hidden,
        dec_hidden=cfg.dec_hidden,
        disc_hidden=cfg.disc_hidden,
        encoder_mode=cfg.encoder_mode,
    )
    e_p = nc.init_encoder(dims, derive_seed(cfg.seed, "init:E_p"))
    e_s = nc.init_encoder(dims, derive_seed(cfg.seed, "init:E_s"))
    dec = nc.init_decoder(dims, derive_seed(cfg.seed, "init:Dec"))
    d_s = nc.init_discriminator(dims, derive_seed(cfg.seed, "init:D_s"))
    opt = {
        "E_p": nc.init_optim(e_p, cfg.learning_rate),
        "E_s": nc.init_optim(e_s, cfg.learning_rate),
        "Dec": nc.init_optim(dec, cfg.learning_rate),
        "D_s": nc.init_optim(d_s, cfg.disc_learning_rate),
    }
    joint = cfg_s is not None and cfg_s.gamma > 0
    counter = DistanceCounter()
    rows = []
    # Non-finite values are caught by _finite, grad_step and
    # pairwise_distances, which raise a NumericError naming where; numpy's
    # own warnings would only print the same failure untyped.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(cfg.epochs):
            batches = make_batches(
                corpus, cfg.batch_size, derive_seed(cfg.seed, f"batches:{epoch}"),
                cfg.drop_last,
            )
            sums = {"recon": 0.0, "spk": 0.0, "adv": 0.0, "disc": 0.0, "contrastive": 0.0}
            pos_pairs = neg_pairs = 0
            evals_before = counter.count
            for bi, batch in enumerate(batches):
                where = f"epoch {epoch + 1}, batch {bi + 1}"
                segs = [corpus[i] for i in batch.indices]
                frames, lengths = nc.pack_sequences([s.features for s in segs])
                spk = [speakers_all[i] for i in batch.indices]
                if cfg.alpha_adv > 0 or cfg.alpha_spk > 0:
                    spk_pairs = speaker_pairs(spk)

                # one gradient vector per component, laid out like its flat
                g_p, g_s, g_dec = (np.zeros_like(c.flat) for c in (e_p, e_s, dec))
                v_p = nc.encoder_forward(e_p, frames, lengths, g_p)

                if cfg.alpha_adv > 0:
                    rng = rng_for(cfg.seed, f"dpairs:{epoch}:{bi}")
                    pair_idx, same_flags = _sample_speaker_pairs(
                        spk_pairs, len(batch.indices), rng
                    )
                    ia, ib = pair_idx[:, 0], pair_idx[:, 1]
                    # the discriminator steps see the pairs of v_p as constants
                    pair_rows = np.concatenate([v_p.data[ia], v_p.data[ib]], axis=1)
                    for _ in range(cfg.disc_steps):
                        g_d = np.zeros_like(d_s.flat)
                        logits = nc.discriminator_forward(d_s, pair_rows, g_d)
                        disc_loss = bce_graph(logits, same_flags)
                        disc_value = _finite(disc_loss.item(), "disc", where)
                        disc_loss.backward()
                        _step(d_s, g_d, opt["D_s"], "D_s", where)
                    sums["disc"] += disc_value

                v_s = nc.encoder_forward(e_s, frames, lengths, g_s)
                x_rec = nc.decoder_forward(dec, v_p, v_s, lengths, g_dec)

                loss = recon_graph(x_rec, frames, lengths)
                sums["recon"] += _finite(loss.item(), "recon", where)
                if cfg.alpha_spk > 0:
                    spk_loss = speaker_contrastive_graph(v_s, spk_pairs, cfg.margin)
                    sums["spk"] += _finite(spk_loss.item(), "spk", where)
                    loss = loss + cfg.alpha_spk * spk_loss
                if cfg.alpha_adv > 0 and epoch >= cfg.disc_warmup_epochs:
                    pairs_p = ad.concat([ad.take_rows(v_p, ia), ad.take_rows(v_p, ib)], axis=1)
                    adv_loss = bce_graph(nc.discriminator_forward(d_s, pairs_p), 1.0 - same_flags)
                    sums["adv"] += _finite(adv_loss.item(), "adv", where)
                    loss = loss + cfg.alpha_adv * adv_loss
                if joint:
                    pairs = mine_pairs(v_p.data, cfg_s, epoch, bi, counter)
                    c_loss = contrastive_graph(v_p, pairs, cfg_s.margin)
                    sums["contrastive"] += _finite(c_loss.item(), "contrastive", where)
                    pos_pairs += len(pairs.positives)
                    neg_pairs += len(pairs.negatives)
                    loss = loss + cfg_s.gamma * c_loss

                loss.backward()
                _step(e_p, g_p, opt["E_p"], "E_p", where)
                _step(e_s, g_s, opt["E_s"], "E_s", where)
                _step(dec, g_dec, opt["Dec"], "Dec", where)

            n_b = len(batches)
            row = {
                "epoch": epoch + 1,
                "recon": sums["recon"] / n_b,
                "spk": sums["spk"] / n_b,
                "adv": sums["adv"] / n_b,
                "disc": sums["disc"] / n_b,
            }
            if joint:
                row.update(
                    contrastive=sums["contrastive"] / n_b,
                    pos_pairs=pos_pairs,
                    neg_pairs=neg_pairs,
                    dist_evals=counter.count - evals_before,
                )
            rows.append(row)
    return DisentangledModel(dims, e_p, e_s, dec, d_s), rows


def run_refine_training(corpus: Corpus, base: DisentangledModel, cfg_s):
    """Train the refinement transform on frozen phonetic embeddings.

    Returns (RefineModel, per-epoch loss log rows).
    """
    dims = replace(base.dims, refine_hidden=cfg_s.refine_hidden)
    frozen = compute_embeddings(base, corpus, which="phonetic")
    params = nc.init_refine(dims, derive_seed(cfg_s.seed, "init:refine"))
    opt = nc.init_optim(params, cfg_s.learning_rate)
    counter = DistanceCounter()
    rows = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(cfg_s.epochs):
            batches = make_batches(
                corpus, cfg_s.batch_size, derive_seed(cfg_s.seed, f"batches:{epoch}"),
                cfg_s.drop_last,
            )
            total = 0.0
            pos_pairs = neg_pairs = 0
            evals_before = counter.count
            for bi, batch in enumerate(batches):
                where = f"epoch {epoch + 1}, batch {bi + 1}"
                v_batch = frozen[list(batch.indices)]
                pairs = mine_pairs(v_batch, cfg_s, epoch, bi, counter)
                grad = np.zeros_like(params.flat)
                z = nc.refine_forward(params, v_batch, grad)
                loss = contrastive_graph(z, pairs, cfg_s.margin)
                total += _finite(loss.item(), "contrastive", where)
                pos_pairs += len(pairs.positives)
                neg_pairs += len(pairs.negatives)
                loss.backward()
                _step(params, grad, opt, "refine", where)
            rows.append(
                {
                    "epoch": epoch + 1,
                    "contrastive": total / len(batches),
                    "pos_pairs": pos_pairs,
                    "neg_pairs": neg_pairs,
                    "dist_evals": counter.count - evals_before,
                }
            )
    return RefineModel(dims, params), rows


# -- embedding extraction ----------------------------------------------------


def compute_embeddings(model: DisentangledModel, corpus: Corpus,
                       which: str = "phonetic", order=None) -> np.ndarray:
    """(M, d) embedding matrix with one of the model's encoders, in corpus
    order or in the corpus-index ``order``; values only, no tape kept."""
    if model.dims.feature_dim != corpus.feature_dim:
        raise ConfigError(
            f"model expects feature_dim {model.dims.feature_dim}, "
            f"corpus has {corpus.feature_dim}"
        )
    encoder = {"phonetic": model.e_p, "speaker": model.e_s}[which]
    segments = [corpus[i] for i in (range(len(corpus)) if order is None else order)]
    out = []
    for start in range(0, len(segments), EMBED_CHUNK):
        chunk = segments[start : start + EMBED_CHUNK]
        frames, lengths = nc.pack_sequences([s.features for s in chunk])
        out.append(nc.encoder_forward(encoder, frames, lengths).data)
    return np.concatenate(out, axis=0)
