"""Embedding-quality analysis: intra/inter cosine statistics and k-means
clustering accuracy.

Vectors whose norms or squared distances overflow float64 raise
``NumericError`` here rather than yield inf or NaN statistics.

The cosine gap report gives exact means over all same-label and
different-label unordered pairs (computed via the norm-of-summed-unit-
vectors identity, so no quadratic pair enumeration is needed). Clustering
accuracy normalizes a label x cluster confusion matrix, picks each label's
best cluster, and sums that mass.

One ``kmeans`` call may hold several runs, as an accuracy curve does (one
per cluster count, each with its own seed). Its runs share a cache of
squared-distance rows, one per point any of them drew as a k-means++
centre, and the squared row norms their Lloyd steps read; every run's
result equals its own call's.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .corpus import write_csv
from .errors import DataError, EvaluationError, NumericError
from .seeding import derive_seed, seeded_rng

__all__ = [
    "CosineGapReport", "accuracy_curve", "cluster_accuracy", "confusion_matrix",
    "cosine", "intra_inter_stats", "kmeans", "select_top_labels",
]

KMEANS_MAX_ITER = 100  # Lloyd iterations
KMEANS_TOL = 1e-6  # stop once no center moves farther than this


def _finite(values, what: str):
    """``values``, once checked finite. Computed from finite vectors, an
    inf or NaN here means the vector entries were too large for float64."""
    if not np.isfinite(values).all():
        raise NumericError(f"{what} overflow: vector entries too large")
    return values


def _row_norms(rows):
    """``np.linalg.norm(rows, axis=1)`` without numpy's overflow warning;
    the callers raise a typed error for an overflowed norm."""
    with np.errstate(over="ignore"):
        return np.linalg.norm(rows, axis=1)


def cosine(a, b, *, norms=None):
    """Cosine similarity of two equal-length nonzero vectors.

    With a 2-D ``a`` of shape (n, d) and a 1-D ``b`` of length d, returns
    the (n,) array of cosines between each row of ``a`` and ``b``. A 2-D
    ``b`` of shape (Q, d) holds Q query vectors and adds a leading axis:
    the result is (Q, n), or (Q,) for a 1-D ``a``, and its row q is
    bit-equal to ``cosine(a, b[q])``. Each dot product and norm is computed
    from its own vectors alone, read in C order, so equal rows get
    bit-equal cosines wherever they sit in ``a``, and a 1-D ``a`` gets the
    same float as the same row of a 2-D ``a``. A caller that scores many
    ``b`` against one 2-D ``a`` may compute its row norms once,
    ``np.linalg.norm(a, axis=1)``, and pass them as ``norms``: the result
    is the same.
    """
    a = np.asarray(a, dtype=np.float64, order="C")
    b = np.asarray(b, dtype=np.float64, order="C")
    rows = a[None] if a.ndim == 1 else a
    queries = b[None] if b.ndim == 1 else b
    if rows.ndim != 2 or queries.ndim != 2 or rows.shape[1] != queries.shape[1]:
        raise DataError(f"vectors must be of equal length: {a.shape} vs {b.shape}")
    na = _row_norms(rows) if norms is None else norms
    with np.errstate(over="ignore"):
        # one vector's norm at a time, the dot product a 1-D ``b`` gets
        nb = np.array([np.linalg.norm(q) for q in queries])
        if np.any(nb == 0.0) or np.any(na == 0.0):
            raise NumericError("cosine undefined for a zero vector")
        # |a . b| <= |a| |b|, so a finite denominator keeps the dot finite
        denominators = _finite(nb[:, None] * na, "vector norms")
    sims = np.einsum("ij,qj->qi", rows, queries)
    sims /= denominators
    np.clip(sims, -1.0, 1.0, out=sims)
    sims = sims.reshape(b.shape[:-1] + a.shape[:-1])
    return float(sims) if sims.ndim == 0 else sims


@dataclass(frozen=True)
class CosineGapReport:
    """Mean cosine over intra-class pairs, inter-class pairs, and the gap."""

    intra: float
    inter: float
    intra_pairs: int
    inter_pairs: int

    @property
    def delta(self) -> float:
        return self.intra - self.inter


def intra_inter_stats(vectors, labels) -> CosineGapReport:
    """Exact mean cosine similarity over all same-label and different-label
    unordered pairs of the labeled embeddings."""
    mat = np.asarray(vectors, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != len(labels):
        raise DataError("vectors must be (N, d) with one label per row")
    n = mat.shape[0]
    if n < 2:
        raise EvaluationError("need at least 2 labeled points")
    norms = _finite(_row_norms(mat), "vector norms")
    if np.any(norms == 0.0):
        raise NumericError("cosine statistics undefined with zero vectors")
    unit = mat / norms[:, None]

    # sum of pairwise dots within a set = (||sum||^2 - count) / 2 on unit rows
    labels = np.asarray(labels)
    intra_sum = 0.0
    intra_count = 0
    for label in np.unique(labels):
        rows = unit[labels == label]
        if rows.shape[0] < 2:
            continue
        s = rows.sum(axis=0)
        intra_sum += (float(s @ s) - rows.shape[0]) / 2.0
        intra_count += rows.shape[0] * (rows.shape[0] - 1) // 2
    s_all = unit.sum(axis=0)
    total_sum = (float(s_all @ s_all) - n) / 2.0
    total_count = n * (n - 1) // 2
    inter_count = total_count - intra_count
    if intra_count == 0:
        raise EvaluationError("no intra-class pair (all labels are singletons)")
    if inter_count == 0:
        raise EvaluationError("no inter-class pair (single label)")
    return CosineGapReport(
        intra=intra_sum / intra_count,
        inter=(total_sum - intra_sum) / inter_count,
        intra_pairs=intra_count,
        inter_pairs=inter_count,
    )


# -- k-means -------------------------------------------------------------


class _Points:
    """One k-means input matrix and what every run over it reads more than
    once: its squared row norms and doubled entries, which ``_assign``
    reads at every Lloyd step, and a cache of squared-distance rows that
    ``row`` fills the first time a run draws a point as a k-means++ centre.
    The cache holds one row per distinct point drawn, so at most
    min(n, total centres) rows, and never allocates n x n up front."""

    def __init__(self, mat: np.ndarray):
        self.mat = mat
        self.sq_norms = np.sum(mat * mat, axis=1)[:, None]
        self.doubled = 2.0 * mat
        self.rows = {}  # point index -> squared distance of every point to it
        self._buf = np.empty_like(mat)

    def row(self, i: int) -> np.ndarray:
        """Squared distances of every point to point ``i``, shared by every
        caller: read it, never write it."""
        row = self.rows.get(i)
        if row is None:
            np.subtract(self.mat, self.mat[i], out=self._buf)
            np.multiply(self._buf, self._buf, out=self._buf)
            row = self.rows[i] = np.add.reduce(self._buf, axis=1)
        return row


def _plus_plus_init(points: _Points, n_clusters: int, rng) -> np.ndarray:
    """Indices of the k-means++ centres: each new centre is a point drawn
    with probability proportional to its squared distance to the nearest
    centre so far.

    The draw is ``rng.choice(n, p=d2 / total)``'s own (normalised
    ``cumsum``, one ``rng.random()``, ``searchsorted(side="right")``)
    without its per-call argument checks, so it picks the same points and
    leaves ``rng`` in the same state. ``d2`` is lowered in place by the
    drawn point's cached distance row; the draw reuses two buffers.
    """
    n = points.mat.shape[0]
    picks = np.empty(n_clusters, dtype=np.intp)
    picks[0] = rng.integers(n)
    d2 = points.row(int(picks[0])).copy()
    # later centers only lower d2, so once this sum is finite every later one is
    _finite(d2.sum(), "squared distances")
    # the ufunc methods that d2.sum() and np.cumsum call, minus their Python wrappers
    p, cdf = np.empty(n), np.empty(n)
    for c in range(1, n_clusters):
        total = np.add.reduce(d2)
        if total > 0:
            np.divide(d2, total, out=p)
            np.add.accumulate(p, out=cdf)
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(rng.random(), side="right"))
        else:
            idx = int(rng.integers(n))
        picks[c] = idx
        if c + 1 < n_clusters:
            np.minimum(d2, points.row(idx), out=d2)
    return picks


def _assign(points: _Points, centers: np.ndarray) -> np.ndarray:
    # |x|^2 - (2x) @ c.T + |c|^2, in that order
    d2 = points.doubled @ centers.T
    np.subtract(points.sq_norms, d2, out=d2)
    d2 += np.sum(centers * centers, axis=1)
    assign = np.argmin(d2, axis=1)
    # an overflowed row holds -inf or NaN at its minimum, or is all inf
    _finite(d2[np.arange(len(assign)), assign], "squared distances")
    return assign


def _update_centers(mat, assign, centers):
    """Lloyd update: each center moves to the mean of its points, summed
    in row order by one ``np.add.reduceat``; a center without points
    stays where it is."""
    counts = np.bincount(assign, minlength=len(centers))
    filled = counts > 0
    starts = np.cumsum(counts) - counts
    sums = np.add.reduceat(mat[np.argsort(assign, kind="stable")], starts[filled], axis=0)
    new_centers = centers.copy()
    new_centers[filled] = sums / counts[filled, None]
    return new_centers


def _is_sequence(value) -> bool:
    return isinstance(value, (list, tuple)) or isinstance(value, np.ndarray) and value.ndim > 0


def kmeans(vectors, n_clusters, seed, return_history: bool = False):
    """Lloyd iterations from seeded k-means++ initialization.

    Runs until the largest center movement drops below KMEANS_TOL or
    KMEANS_MAX_ITER iterations are reached. Each update moves every center
    to its points' mean with array operations, no loop over clusters;
    empty clusters are repaired by reassigning the point currently
    farthest from its center. Returns one cluster id in [0, n) per point.
    With return_history, also returns the point-to-center cost after each
    step, which is computed only then. Squared distances that overflow
    float64 raise ``NumericError``.

    ``n_clusters`` is an int, or a sequence of ints with ``seed`` a
    sequence of seeds of the same length: then the result is a list with
    one entry per (n_clusters, seed) run, each equal to that run's own
    call. The runs share the squared-distance rows of the points they draw
    as centres, and the row norms their Lloyd steps read. A count that is
    not an integer from 1 to the number of points, a seed sequence of
    another length, or a seed that is not an integer >= 0, is a
    ``DataError`` naming the first bad value.
    """
    mat = np.asarray(vectors, dtype=np.float64)
    if mat.ndim != 2:
        raise DataError("vectors must be (N, d)")
    n = mat.shape[0]
    single = not _is_sequence(n_clusters)
    ks = [n_clusters] if single else list(n_clusters)
    if single:
        seeds = [seed]
    elif _is_sequence(seed) and len(seed) == len(ks):
        seeds = list(seed)
    else:
        raise DataError(f"need one seed per cluster count ({len(ks)}), got {seed!r}")
    for k in ks:
        if isinstance(k, bool) or not isinstance(k, numbers.Integral):
            raise DataError(f"n_clusters must be an integer, got {k!r}")
        if not 1 <= k <= n:
            raise DataError(f"need 1 <= n_clusters <= {n}, got {k}")
    rngs = [seeded_rng(s) for s in seeds]
    with np.errstate(over="ignore", invalid="ignore"):
        points = _Points(mat)
        runs = [
            _lloyd(points, mat[_plus_plus_init(points, int(k), rng)], return_history)
            for k, rng in zip(ks, rngs)
        ]
    return runs[0] if single else runs


def _lloyd(points: _Points, centers: np.ndarray, return_history: bool):
    """One k-means run from its initial ``centers``, which it may overwrite."""
    mat, n_clusters = points.mat, len(centers)
    assign = _repair_empty(mat, centers, _assign(points, centers), n_clusters)
    cost = lambda: float(np.sum((mat - centers[assign]) ** 2))
    history = [cost()] if return_history else None
    for _ in range(KMEANS_MAX_ITER):
        new_centers = _update_centers(mat, assign, centers)
        movement = np.sqrt(np.sum((new_centers - centers) ** 2, axis=1)).max()
        centers = new_centers
        assign = _repair_empty(mat, centers, _assign(points, centers), n_clusters)
        if return_history:
            history.append(cost())
        if movement < KMEANS_TOL:
            break
    return (assign, history) if return_history else assign


def _repair_empty(mat, centers, assign, n_clusters):
    counts = np.bincount(assign, minlength=n_clusters)
    for c in np.flatnonzero(counts == 0):
        dist = np.sqrt(np.sum((mat - centers[assign]) ** 2, axis=1))
        donors = counts[assign] > 1
        if not donors.any():
            donors = np.ones(len(assign), dtype=bool)
        dist = np.where(donors, dist, -1.0)
        mover = int(np.argmax(dist))
        counts[assign[mover]] -= 1
        assign = assign.copy()
        assign[mover] = c
        centers[c] = mat[mover]
        counts[c] += 1
    return assign


# -- confusion matrix and accuracy -----------------------------------------


def confusion_matrix(labels, assignments, label_universe, n_clusters: int):
    """Count matrix C with C[i, j] = points of label i assigned to cluster j,
    counted by one ``np.bincount``. A label outside ``label_universe``, or
    a cluster id that is not an integer in [0, n_clusters), is a
    ``DataError`` naming the first such value."""
    if len(labels) != len(assignments):
        raise DataError("labels and assignments must have equal length")
    if len(labels) == 0:
        raise DataError("empty inputs")
    index = {label: i for i, label in enumerate(label_universe)}
    try:
        rows = np.array([index.get(label, -1) for label in labels])
    except TypeError:  # an unhashable label, reported below as unknown
        rows = np.array([-1])
    ids = np.asarray(assignments)
    if not (
        ids.ndim == 1 and ids.dtype.kind in "biu" and rows.min() >= 0
        and ids.min() >= 0 and ids.max() < n_clusters
    ):
        _raise_first_bad(labels, assignments, index, n_clusters)
    cells = rows * n_clusters + ids.astype(np.intp)
    size = len(label_universe) * n_clusters
    return np.bincount(cells, minlength=size).reshape(len(label_universe), n_clusters)


def _raise_first_bad(labels, assignments, index, n_clusters):
    for label, cluster in zip(labels, assignments):
        try:
            known = label in index
        except TypeError:  # unhashable
            known = False
        if not known:
            raise DataError(f"unknown label {label!r}")
        if not isinstance(cluster, (numbers.Integral, np.bool_)):
            raise DataError(f"cluster id must be an integer, got {cluster!r}")
        if not 0 <= cluster < n_clusters:
            raise DataError(f"cluster id {int(cluster)} outside [0, {n_clusters})")
    raise AssertionError("no bad label or cluster id")  # unreachable


def cluster_accuracy(counts) -> float:
    """Normalize counts, take each label's best cluster, sum that mass.

    Equals sum_i max_j C[i, j] / sum C. The degenerate everything-in-one-
    cluster solution scores 1.0: several labels may share a best cluster.
    """
    counts = np.asarray(counts)
    if counts.ndim != 2 or np.any(counts < 0):
        raise DataError("counts must be a nonnegative matrix")
    total = counts.sum()
    if total == 0:
        raise DataError("all-zero confusion matrix")
    # argmax of c(i, j) = C[i, j] / total equals argmax of C[i, j]; summing
    # the counts before the one division keeps the result exact
    best = np.argmax(counts, axis=1)  # ties -> smallest cluster index
    return float(sum(counts[i, best[i]] for i in range(counts.shape[0])) / total)


def select_top_labels(labels, m: int):
    """The m most frequent labels (ties broken lexicographically)."""
    counts = {}
    for label in labels:
        if label is not None:
            counts[label] = counts.get(label, 0) + 1
    if m < 1 or m > len(counts):
        raise DataError(f"m must be in [1, {len(counts)}], got {m}")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return tuple(label for label, _ in ranked[:m])


def accuracy_curve(vectors, labels, m: int, n_values, seed: int):
    """Clustering accuracy at each cluster count n, over the points bearing
    the top-m most frequent labels. Returns [(n, accuracy), ...]."""
    universe = select_top_labels(labels, m)
    wanted = set(universe)
    keep = [i for i, label in enumerate(labels) if label in wanted]
    mat = np.asarray(vectors, dtype=np.float64)[keep]
    kept_labels = [labels[i] for i in keep]
    ns = list(n_values)
    runs = kmeans(mat, ns, [derive_seed(seed, f"kmeans:n={n}") for n in ns])
    return [
        (int(n), cluster_accuracy(confusion_matrix(kept_labels, assign, universe, n)))
        for n, assign in zip(ns, runs)
    ]


# -- CSV reports -------------------------------------------------------------


def write_cosine_gap_csv(path, rows) -> None:
    """Rows of (variant, level, CosineGapReport) -> cosine-gap table."""
    write_csv(
        path,
        ["variant", "level", "intra", "inter", "delta"],
        ((variant, level, r.intra, r.inter, r.delta) for variant, level, r in rows),
    )


def write_accuracy_curve_csv(path, curves) -> None:
    """Mapping variant -> [(n, acc), ...] -> accuracy-vs-n table."""
    write_csv(
        path,
        ["variant", "n_clusters", "accuracy"],
        ((variant, n, acc) for variant in sorted(curves) for n, acc in curves[variant]),
    )
