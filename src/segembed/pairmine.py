"""Positive/negative pair mining inside one mini-batch.

Two miners over the batch's embedding vectors: an undirected k-nearest
neighbor graph (positives = union of each point's k nearest neighbors,
negatives = everything else), and the unbalanced-data variant (positives =
the k globally shortest pairs of the fully-connected batch graph,
negatives = k seeded uniform draws from the remaining pairs).

Distances are Euclidean. All tie-breaking is lexicographic by
(distance, i, j) so results are reproducible bit-for-bit.

Each miner selects what it keeps rather than sorting everything: the k-NN
graph takes each row's k-th smallest distance with one ``np.partition``
and keeps what lies below it, plus the first tied entries of the row; the
global ranking uses numpy's default sort and redoes it stably only when
two distances are equal. ``PairSets`` checks duplicates and overlap with
one sort of integer pair keys, and ``write_pair_dump`` formats each pair
list in one string pass. Outputs match the stable-sort definitions byte
for byte.
"""

import functools
import json
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError, NumericError
from .seeding import seeded_rng

__all__ = [
    "DistanceCounter", "PairSets", "knn_graph_pairs", "pairwise_distances",
    "topk_global_pairs",
]


class DistanceCounter:
    """Tally of pairwise-distance evaluations, for complexity accounting."""

    def __init__(self):
        self.count = 0

    def add(self, n: int) -> None:
        self.count += int(n)


def _pair_rows(pairs) -> np.ndarray:
    """A read-only (P, 2) intp copy of a sequence of integer pairs."""
    try:
        rows = np.array(pairs)
    except ValueError as exc:  # ragged rows
        raise DataError(f"pairs must form a (P, 2) array of integers: {exc}") from exc
    if rows.size == 0:
        rows = np.empty((0, 2), dtype=np.intp)
    if rows.ndim != 2 or rows.shape[1] != 2:
        raise DataError(f"pairs must form a (P, 2) array, got shape {rows.shape}")
    # numpy reads Python ints beyond int64 as uint64, float64 or object
    kind = rows.dtype.kind
    if kind not in "iu" or kind == "u" and rows.max() > np.iinfo(np.intp).max:
        raise DataError(f"pairs must hold integers that fit in intp, got dtype {rows.dtype}")
    rows = rows.astype(np.intp, copy=False)
    rows.flags.writeable = False
    return rows


def _has_repeats(rows) -> bool:
    """Whether some row of a (P, 2) array of pairs 0 <= i < j occurs twice,
    found with one sort and a comparison of neighbours."""
    i, j = rows.T
    width = int(j.max(initial=0)) + 1
    if width <= 2**31:  # i * width + j < 2**62: one distinct int64 key per pair
        keys = np.sort(i * width + j)
        return bool((keys[1:] == keys[:-1]).any())
    ordered = rows[np.lexsort((j, i))]
    return bool((ordered[1:] == ordered[:-1]).all(axis=1).any())


@dataclass(frozen=True, eq=False)
class PairSets:
    """Positive and negative unordered index pairs within one mini-batch,
    each a read-only (P, 2) intp array of rows (i, j) with i < j."""

    positives: np.ndarray
    negatives: np.ndarray

    def __post_init__(self):
        pos, neg = _pair_rows(self.positives), _pair_rows(self.negatives)
        both = np.concatenate((pos, neg))
        i, j = both.T
        bad = (i >= j) | (i < 0)
        if bad.any():
            i_bad, j_bad = both[bad][0].tolist()
            raise DataError(f"pair ({i_bad}, {j_bad}) must satisfy 0 <= i < j")
        if _has_repeats(both):
            if _has_repeats(pos) or _has_repeats(neg):
                raise DataError("duplicate pairs within a pair list")
            raise DataError("positive and negative pair sets must be disjoint")
        object.__setattr__(self, "positives", pos)
        object.__setattr__(self, "negatives", neg)


def _as_matrix(vectors) -> np.ndarray:
    try:
        mat = np.asarray(vectors, dtype=np.float64)
    except ValueError as exc:
        raise DimensionError(f"vectors must share one dimension: {exc}") from exc
    if mat.ndim != 2:
        lengths = {np.asarray(v).shape for v in vectors}
        raise DimensionError(f"vectors must share one dimension, got {sorted(lengths)}")
    if mat.shape[0] < 2:
        raise DataError("need at least 2 vectors")
    if not np.isfinite(mat).all():
        raise NumericError("vectors must be finite")
    return mat


def pairwise_distances(vectors, counter: DistanceCounter | None = None) -> np.ndarray:
    """Symmetric Euclidean distance matrix with a zero diagonal."""
    mat = _as_matrix(vectors)
    n = mat.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.sum(mat * mat, axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (mat @ mat.T)
    if not np.isfinite(d2).all():
        raise NumericError("squared distances overflow: vector entries too large")
    np.maximum(d2, 0.0, out=d2)
    dist = np.sqrt(d2)
    dist = 0.5 * (dist + dist.T)
    np.fill_diagonal(dist, 0.0)
    if counter is not None:
        counter.add(n * (n - 1) // 2)
    return dist


@functools.lru_cache(maxsize=16)
def pair_indices(n: int) -> np.ndarray:
    """The unordered pairs (i, j), i < j, of a batch of n, as a read-only
    (P, 2) intp array in row-major order (by i, then j). Built once per n
    and shared by every caller, which is why it is read-only."""
    pairs = np.stack(np.triu_indices(n, k=1), axis=1)
    pairs.flags.writeable = False
    return pairs


def _check_k(k) -> None:
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise DataError(f"k must be an integer, got {k!r}")


def knn_graph_pairs(vectors, k: int, counter: DistanceCounter | None = None) -> PairSets:
    """Undirected k-NN graph of the batch.

    Positives: deduplicated union over points of their k nearest neighbors
    (ties by smaller index). Negatives: all remaining unordered pairs.
    Both lists are in row-major order.
    """
    _check_k(k)
    dist = pairwise_distances(vectors, counter)
    n = dist.shape[0]
    if not 1 <= k <= n - 1:
        raise DataError(f"k must satisfy 2 <= k+1 <= batch size; got k={k}, |B|={n}")
    np.fill_diagonal(dist, np.inf)  # a point is not its own neighbour
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1 : k]
    adjacent = dist < kth
    # fill each row's k slots with its entries tied at the k-th distance,
    # smaller index first (int32 counts: half the memory traffic of int64)
    tied = dist == kth
    quota = k - adjacent.sum(axis=1, keepdims=True)
    adjacent |= tied & (np.cumsum(tied, axis=1, dtype=np.int32) <= quota)
    pairs = pair_indices(n)
    linked = (adjacent | adjacent.T)[pairs[:, 0], pairs[:, 1]]
    return PairSets(pairs[linked], pairs[~linked])


def topk_global_pairs(
    vectors, k: int, seed: int, counter: DistanceCounter | None = None
) -> PairSets:
    """Fully-connected batch graph: top-k shortest pairs as positives and
    k seeded uniform draws (without replacement) from the rest as negatives.
    """
    _check_k(k)
    dist = pairwise_distances(vectors, counter)
    n = dist.shape[0]
    total = n * (n - 1) // 2
    if k < 1 or total < 2 * k:
        raise DataError(
            f"need |B|(|B|-1)/2 >= 2k: batch of {n} has {total} pairs, k={k}"
        )
    pairs = pair_indices(n)
    pair_dist = dist[pairs[:, 0], pairs[:, 1]]
    order = np.argsort(pair_dist)
    if (np.diff(pair_dist[order]) == 0).any():
        # a stable sort keeps equal distances in row-major (i, j) order
        order = np.argsort(pair_dist, kind="stable")
    pick = seeded_rng(seed).choice(total - k, size=k, replace=False)
    return PairSets(pairs[order[:k]], pairs[order[k:][np.sort(pick)]])


def _json_pair_list(rows) -> str:
    """``json.dumps(rows.tolist())`` of a (P, 2) int array, in one pass."""
    return "[" + ("[%d, %d], " * len(rows))[:-2] % tuple(rows.ravel().tolist()) + "]"


def write_pair_dump(path, records) -> None:
    """Audit file: one JSON object per (batch corpus indices, PairSets)
    record, with the batch's mined within-batch positive/negative pairs."""
    with open(path, "w", encoding="utf-8") as fh:
        for indices, pairs in records:
            fh.write(
                f'{{"indices": {json.dumps(np.asarray(indices).tolist())}, '
                f'"positives": {_json_pair_list(pairs.positives)}, '
                f'"negatives": {_json_pair_list(pairs.negatives)}}}\n'
            )
