"""Cosine statistics, k-means, and clustering-accuracy oracles."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from segembed.errors import DataError, EvaluationError, NumericError
from segembed.evalcluster import (
    KMEANS_MAX_ITER,
    KMEANS_TOL,
    CosineGapReport,
    _assign,
    _Points,
    _plus_plus_init,
    _repair_empty,
    _update_centers,
    accuracy_curve,
    cluster_accuracy,
    confusion_matrix,
    cosine,
    intra_inter_stats,
    kmeans,
    select_top_labels,
    write_accuracy_curve_csv,
    write_cosine_gap_csv,
)

RNG = np.random.default_rng(41)


def within_cluster_ss(vectors, assignments, n_clusters: int) -> float:
    """Within-cluster sum of squares for given assignments."""
    mat = np.asarray(vectors, dtype=np.float64)
    total = 0.0
    for c in range(n_clusters):
        members = mat[np.asarray(assignments) == c]
        if members.shape[0]:
            total += float(np.sum((members - members.mean(axis=0)) ** 2))
    return total


def _per_cluster_kmeans(mat, n_clusters, seed):
    """``kmeans(..., return_history=True)`` with the Lloyd update as a loop
    of per-cluster ``mean`` calls; also returns how many clusters
    ``_repair_empty`` had to fill."""
    rng = np.random.default_rng(seed)
    points = _Points(mat)
    centers = mat[_plus_plus_init(points, n_clusters, rng)]
    repaired = 0

    def assign_and_repair():
        nonlocal repaired
        assign = _assign(points, centers)
        repaired += int(np.sum(np.bincount(assign, minlength=n_clusters) == 0))
        return _repair_empty(mat, centers, assign, n_clusters)

    assign = assign_and_repair()
    cost = lambda: float(np.sum((mat - centers[assign]) ** 2))
    history = [cost()]
    for _ in range(KMEANS_MAX_ITER):
        new_centers = centers.copy()
        for c in range(n_clusters):
            members = mat[assign == c]
            if members.shape[0]:
                new_centers[c] = members.mean(axis=0)
        movement = np.sqrt(np.sum((new_centers - centers) ** 2, axis=1)).max()
        centers = new_centers
        assign = assign_and_repair()
        history.append(cost())
        if movement < KMEANS_TOL:
            break
    return assign, history, repaired


class TestCosine:
    def test_identical_is_one(self):
        v = RNG.normal(size=5)
        assert cosine(v, v) == pytest.approx(1.0)

    def test_orthogonal_is_zero(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_antipodal_is_minus_one(self):
        assert cosine([1.0, 0.0], [-1.0, 0.0]) == -1.0

    def test_scale_invariance(self):
        a, b = RNG.normal(size=4), RNG.normal(size=4)
        assert cosine(2.5 * a, 0.3 * b) == pytest.approx(cosine(a, b), abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(NumericError):
            cosine(np.zeros(3), np.ones(3))

    def test_rows_match_scalar_cosine(self):
        rows, b = RNG.normal(size=(6, 4)), RNG.normal(size=4)
        got = cosine(rows, b)
        assert got.shape == (6,)
        for row, c in zip(rows, got):
            assert c == cosine(row, b)

    def test_equal_rows_are_bit_equal(self):
        b = RNG.normal(size=5)
        rows = np.tile(RNG.normal(size=5), (9, 1))
        rows[4] = RNG.normal(size=5)
        got = cosine(rows, b)
        assert np.all(np.delete(got, 4) == got[0])
        assert cosine(rows[[0]], b)[0] == got[0]

    def test_given_row_norms_give_the_same_bits(self):
        rows = np.random.default_rng(5).normal(size=(6, 3)) * 1e3
        b = np.array([0.5, -2.0, 1.0])
        norms = np.linalg.norm(rows, axis=1)
        assert cosine(rows, b, norms=norms).tobytes() == cosine(rows, b).tobytes()

    @pytest.mark.parametrize("d", [1, 3, 16, 33, 256])
    def test_query_matrix_matches_one_query_at_a_time(self, d):
        rng = np.random.default_rng(d)
        rows, queries = rng.normal(size=(7, d)), rng.normal(size=(5, d)) * 1e3
        batched = cosine(rows, queries)
        assert batched.shape == (5, 7)
        assert batched.tobytes() == np.array([cosine(rows, q) for q in queries]).tobytes()
        norms = np.linalg.norm(rows, axis=1)
        assert cosine(rows, queries, norms=norms).tobytes() == batched.tobytes()
        one = cosine(rows[2], queries)
        assert one.shape == (5,)
        assert one.tolist() == [cosine(rows[2], q) for q in queries]
        # the layout of the query matrix does not move a bit
        assert cosine(rows, np.asfortranarray(queries)).tobytes() == batched.tobytes()

    def test_query_matrix_rejects_zero_overflowing_and_wrong_width_queries(self):
        rows, queries = RNG.normal(size=(3, 4)), RNG.normal(size=(2, 4))
        with pytest.raises(DataError):
            cosine(rows, queries[:, :3])
        with pytest.raises(DataError):
            cosine(rows, queries[None])
        with pytest.raises(NumericError, match="vector norms overflow"):
            cosine(rows, np.array([[1.0, 1.0, 1.0, 1.0], [1e200, 0.0, 0.0, 0.0]]))
        queries[1] = 0.0
        with pytest.raises(NumericError, match="zero vector"):
            cosine(rows, queries)
        with pytest.raises(NumericError, match="zero vector"):
            cosine(rows[0], queries)

    def test_rows_reject_zero_row_and_wrong_width(self):
        rows = RNG.normal(size=(3, 4))
        with pytest.raises(DataError):
            cosine(rows, np.ones(3))
        rows[1] = 0.0
        with pytest.raises(NumericError):
            cosine(rows, np.ones(4))


def brute_intra_inter(vectors, labels):
    intra, inter = [], []
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            c = cosine(vectors[i], vectors[j])
            (intra if labels[i] == labels[j] else inter).append(c)
    return float(np.mean(intra)), float(np.mean(inter))


def mask_loop_stats(vectors, labels):
    """``intra_inter_stats`` as one boolean mask over every row per label,
    the loop it ran before it grouped the rows once: its bit reference."""
    mat = np.asarray(vectors, dtype=np.float64)
    n = mat.shape[0]
    unit = mat / np.linalg.norm(mat, axis=1)[:, None]
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
    inter_count = n * (n - 1) // 2 - intra_count
    if intra_count == 0:
        raise EvaluationError("no intra-class pair (all labels are singletons)")
    if inter_count == 0:
        raise EvaluationError("no inter-class pair (single label)")
    return CosineGapReport(
        intra_sum / intra_count, (total_sum - intra_sum) / inter_count, intra_count, inter_count
    )


def _report_or_error(stats, vectors, labels):
    try:
        return stats(vectors, labels)
    except EvaluationError as exc:
        return str(exc)


class TestIntraInterStats:
    def test_hand_example(self):
        vectors = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        report = intra_inter_stats(vectors, ["A", "A", "B"])
        assert report.intra == pytest.approx(1.0)
        assert report.inter == pytest.approx(0.0, abs=1e-12)
        assert report.delta == pytest.approx(1.0)
        assert report.intra_pairs == 1 and report.inter_pairs == 2

    def test_all_identical_points(self):
        vectors = np.tile([0.3, 0.4], (4, 1))
        report = intra_inter_stats(vectors, ["A", "A", "B", "B"])
        assert report.intra == pytest.approx(1.0)
        assert report.inter == pytest.approx(1.0)
        assert report.delta == pytest.approx(0.0)

    def test_matches_pairwise_enumeration(self):
        for trial in range(30):
            rng = np.random.default_rng(trial)
            n = int(rng.integers(4, 12))
            vectors = rng.normal(size=(n, 3))
            labels = [str(rng.integers(3)) for _ in range(n)]
            if len(set(labels)) < 2 or all(labels.count(l) < 2 for l in labels):
                continue
            report = intra_inter_stats(vectors, labels)
            intra, inter = brute_intra_inter(vectors, labels)
            assert report.intra == pytest.approx(intra, abs=1e-10)
            assert report.inter == pytest.approx(inter, abs=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(
        labels=st.lists(st.integers(0, 3), min_size=2, max_size=16),
        dim=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_identity_matches_quadratic_enumeration(self, labels, dim, seed):
        """The norm-of-summed-unit-vectors identity against every pair."""
        same = [a == b for a, b in itertools.combinations(labels, 2)]
        assume(any(same) and not all(same))
        vectors = np.random.default_rng(seed).normal(size=(len(labels), dim))
        intra, inter = [], []
        for (i, a), (j, b) in itertools.combinations(enumerate(vectors), 2):
            c = float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
            (intra if labels[i] == labels[j] else inter).append(c)
        report = intra_inter_stats(vectors, labels)
        assert (report.intra_pairs, report.inter_pairs) == (len(intra), len(inter))
        assert abs(report.intra - math.fsum(intra) / len(intra)) <= 1e-12
        assert abs(report.inter - math.fsum(inter) / len(inter)) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        codes=st.lists(st.integers(0, 150), min_size=2, max_size=300),
        as_text=st.booleans(),
        dim=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_per_label_mask_loop_bit_for_bit(self, codes, as_text, dim, seed):
        """Grouping the rows once adds each label's rows in the order the
        per-label masks did, so every float is the same, not just close."""
        labels = [f"w{c}" for c in codes] if as_text else codes
        vectors = np.random.default_rng(seed).normal(size=(len(labels), dim))
        assert (_report_or_error(intra_inter_stats, vectors, labels)
                == _report_or_error(mask_loop_stats, vectors, labels))

    def test_nan_labels_are_singletons_as_in_the_mask_loop(self):
        vectors = RNG.normal(size=(6, 3))
        labels = [np.nan, 1.0, np.nan, 1.0, 2.0, np.nan]
        report = intra_inter_stats(vectors, labels)
        assert report == mask_loop_stats(vectors, labels)
        assert report.intra_pairs == 1

    def test_all_singletons_rejected(self):
        with pytest.raises(EvaluationError):
            intra_inter_stats(RNG.normal(size=(3, 2)), ["a", "b", "c"])

    def test_labels_that_do_not_order_rejected(self):
        with pytest.raises(DataError, match="^labels must be mutually orderable: "):
            intra_inter_stats(RNG.normal(size=(3, 2)), ["x", None, "x"])

    @pytest.mark.parametrize("labels, names", [
        ([1, "1", 2, "2"], "str and int"),
        (["x", 2.5, "x", 2.5], "str and float"),
        ([np.int64(1), np.str_("1"), None, np.str_("1")], "str_ and int64"),
    ])
    def test_labels_of_mixed_types_rejected(self, labels, names):
        """Strings among other labels are an error naming both types, not
        one class each for 1 and "1"."""
        with pytest.raises(DataError, match=f"^labels mix {names} values$"):
            intra_inter_stats(RNG.normal(size=(4, 2)), labels)

    def test_labels_of_one_non_string_type(self):
        vectors = RNG.normal(size=(4, 2))
        assert (intra_inter_stats(vectors, [1, 1, 2, 2])
                == intra_inter_stats(vectors, ["1", "1", "2", "2"]))

    def test_single_label_rejected(self):
        with pytest.raises(EvaluationError):
            intra_inter_stats(RNG.normal(size=(3, 2)), ["a", "a", "a"])


class TestKmeans:
    def test_two_clump_example_matches_brute_force_optimum(self):
        points = np.array([[0.0, 0.0], [0.0, 0.1], [10.0, 10.0], [10.0, 10.1]])
        assign = kmeans(points, 2, seed=0)
        got = frozenset(
            frozenset(int(i) for i in np.flatnonzero(assign == c)) for c in (0, 1)
        )
        # brute force over all 2-partitions of 4 points
        best, best_cost = None, np.inf
        for bits in itertools.product([0, 1], repeat=4):
            if len(set(bits)) < 2:
                continue
            cost = within_cluster_ss(points, np.asarray(bits), 2)
            if cost < best_cost:
                best_cost = cost
                best = frozenset(
                    frozenset(i for i in range(4) if bits[i] == c) for c in (0, 1)
                )
        assert got == best == frozenset(
            [frozenset({0, 1}), frozenset({2, 3})]
        )

    def test_n_equals_point_count(self):
        points = RNG.normal(size=(6, 2))
        assign = kmeans(points, 6, seed=1)
        assert sorted(assign) == list(range(6))

    def test_deterministic(self):
        points = RNG.normal(size=(20, 3))
        assert np.array_equal(kmeans(points, 4, seed=7), kmeans(points, 4, seed=7))

    def test_all_ids_in_range_and_nonempty(self):
        points = RNG.normal(size=(15, 2))
        assign = kmeans(points, 5, seed=2)
        assert set(assign) == set(range(5))

    def test_cost_never_increases(self):
        for seed in range(5):
            points = np.random.default_rng(seed).normal(size=(30, 3))
            _, history = kmeans(points, 4, seed=seed, return_history=True)
            diffs = np.diff(history)
            assert np.all(diffs <= 1e-9)

    def test_too_many_clusters_rejected(self):
        with pytest.raises(DataError):
            kmeans(RNG.normal(size=(3, 2)), 4, seed=0)

    @pytest.mark.parametrize("return_history", [False, True])
    def test_runs_of_one_call_equal_their_own_calls(self, return_history):
        points = np.repeat(np.random.default_rng(9).normal(size=(30, 3)), 2, axis=0)
        ks, seeds = [1, 5, 17, 60, 5], [3, 3, 8, 1, 2**40]
        want = [kmeans(points, k, s, return_history=return_history) for k, s in zip(ks, seeds)]
        for counts in (ks, tuple(ks), np.array(ks)):
            got = kmeans(points, counts, np.array(seeds), return_history=return_history)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                g_assign, w_assign = (g[0], w[0]) if return_history else (g, w)
                assert g_assign.dtype == w_assign.dtype
                assert g_assign.tobytes() == w_assign.tobytes()
                if return_history:
                    assert g[1] == w[1]
        assert kmeans(points, [], []) == []

    def test_numpy_integer_counts_are_accepted(self):
        points = RNG.normal(size=(12, 2))
        assert np.array_equal(kmeans(points, np.int32(3), 4), kmeans(points, 3, 4))

    @pytest.mark.parametrize("n_clusters, seed, message", [
        (2.5, 0, "n_clusters must be an integer, got 2.5"),
        (True, 0, "n_clusters must be an integer, got True"),
        ("3", 0, "n_clusters must be an integer, got '3'"),
        (None, 0, "n_clusters must be an integer, got None"),
        ([2, 2.5, 0], [0, 1, 2], "n_clusters must be an integer, got 2.5"),
        ([2, 0, 2.5], [0, 1, 2], "need 1 <= n_clusters <= 6, got 0"),
        ([2, 3], [0], "need one seed per cluster count (2), got [0]"),
        ([2, 3], 7, "need one seed per cluster count (2), got 7"),
    ])
    def test_bad_counts_and_seeds_are_data_errors(self, n_clusters, seed, message):
        with pytest.raises(DataError, match=re.escape(message)):
            kmeans(RNG.normal(size=(6, 2)), n_clusters, seed)

    def test_duplicate_points_still_fill_clusters(self):
        points = np.array([[0.0, 0.0]] * 3 + [[1.0, 1.0]] * 3)
        assign = kmeans(points, 3, seed=0)
        assert set(assign) == {0, 1, 2}

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_update_matches_per_cluster_means(self, data):
        n = data.draw(st.integers(1, 25), label="n")
        dim = data.draw(st.integers(1, 4), label="dim")
        k = data.draw(st.integers(1, 8), label="k")
        value = st.one_of(
            st.integers(-3, 3).map(float),
            st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
        )
        row = st.lists(value, min_size=dim, max_size=dim)
        mat = np.array(data.draw(st.lists(row, min_size=n, max_size=n), label="mat"))
        assign = np.array(
            data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n), label="assign")
        )
        centers = np.random.default_rng(n * k).normal(size=(k, dim))
        before = centers.copy()
        got = _update_centers(mat, assign, centers)
        assert np.array_equal(centers, before)
        for c in range(k):
            members = mat[assign == c]
            if members.shape[0] == 0:
                assert np.array_equal(got[c], centers[c])  # left where it was
            else:
                error = np.abs(got[c] - members.mean(axis=0)).max()
                assert error <= 1e-12 * np.abs(members).max()

    @pytest.mark.parametrize("points, n_clusters, repairs", [
        (np.array([[0.0, 0.0]] * 3 + [[1.0, 1.0]] * 3), 3, True),
        (np.repeat(np.random.default_rng(8).normal(size=(5, 3)), 4, axis=0), 7, True),
        *((np.random.default_rng(s).normal(size=(40, 3)), 6, False) for s in range(4)),
    ])
    def test_matches_per_cluster_loop(self, points, n_clusters, repairs):
        for seed in range(3):
            assign, history = kmeans(points, n_clusters, seed, return_history=True)
            want_assign, want_history, repaired = _per_cluster_kmeans(points, n_clusters, seed)
            assert np.array_equal(assign, want_assign)
            assert len(history) == len(want_history)
            assert all(abs(a - b) <= 1e-12 * abs(b) for a, b in zip(history, want_history))
            if repairs:
                assert repaired > 0


def _choice_plus_plus_init(mat, n_clusters, rng):
    """k-means++ seeding drawn with ``rng.choice(n, p=...)``, out of place."""
    n = mat.shape[0]
    centers = np.empty((n_clusters, mat.shape[1]))
    centers[0] = mat[int(rng.integers(n))]
    d2 = np.sum((mat - centers[0]) ** 2, axis=1)
    for c in range(1, n_clusters):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        centers[c] = mat[idx]
        d2 = np.minimum(d2, np.sum((mat - centers[c]) ** 2, axis=1))
    return centers


class TestPlusPlusInit:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_same_centers_and_generator_state_as_choice(self, data):
        """Several runs over one matrix, sharing one row cache as the runs
        of one ``kmeans`` call do, each draw what ``rng.choice`` draws."""
        n = data.draw(st.integers(1, 40), label="n")
        dim = data.draw(st.integers(1, 6), label="dim")
        grid = data.draw(st.booleans(), label="grid")  # tie-heavy integer points
        value = st.integers(-2, 2).map(float) if grid else st.floats(
            -10.0, 10.0, allow_nan=False, allow_subnormal=False
        )
        row = st.lists(value, min_size=dim, max_size=dim)
        rows = data.draw(st.lists(row, min_size=n, max_size=n), label="rows")
        copies = data.draw(st.lists(st.integers(0, n - 1), max_size=n), label="copies")
        scale = data.draw(st.sampled_from([1e-5, 0.3, 1.0, 7.0, 1e5]), label="scale")
        mat = np.array(rows + [rows[c] for c in copies]) * scale
        run = st.tuples(st.integers(1, len(mat)), st.integers(0, 2**32 - 1))
        runs = data.draw(st.lists(run, min_size=1, max_size=4), label="runs")
        # k = every point covers every smaller k's centers, and the total == 0 draw
        runs.append((len(mat), runs[0][1]))
        points = _Points(mat)
        drawn = set()
        for k, seed in runs:
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            picks = _plus_plus_init(points, k, got_rng)
            assert mat[picks].tobytes() == _choice_plus_plus_init(mat, k, want_rng).tobytes()
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
            drawn.update(picks.tolist())
        # one cached row per distinct point drawn, at most
        assert set(points.rows) <= drawn


class TestOverflow:
    """Vectors too large for float64 norms or squared distances raise
    NumericError; large vectors whose arithmetic stays finite do not."""

    def test_cosine(self):
        with pytest.raises(NumericError, match="vector norms overflow"):
            cosine(np.full(4, 1e200), np.ones(4))
        with pytest.raises(NumericError, match="vector norms overflow"):
            cosine(np.ones((2, 2)), np.full(2, 1e200))
        # |a| would fit in float64, |a|^2 does not
        with pytest.raises(NumericError, match="vector norms overflow"):
            cosine(np.array([1e160, 0.0]), np.array([1.0, 1.0]))
        a, b = RNG.normal(size=(5, 3)), RNG.normal(size=3)
        assert np.array_equal(cosine(a * 2.0**500, b * 2.0**500), cosine(a, b))

    def test_intra_inter_stats(self):
        vectors = RNG.normal(size=(6, 3))
        labels = [0, 0, 1, 1, 2, 2]
        inflated = vectors.copy()
        inflated[4] = 1e200
        with pytest.raises(NumericError, match="vector norms overflow"):
            intra_inter_stats(inflated, labels)
        assert intra_inter_stats(vectors * 2.0**500, labels) == intra_inter_stats(vectors, labels)

    @pytest.mark.parametrize("entry", [1e200, 1e160])
    @pytest.mark.parametrize("n_clusters", [1, 3])
    def test_kmeans(self, entry, n_clusters):
        points = RNG.normal(size=(10, 2))
        points[3] = entry
        with pytest.raises(NumericError, match="squared distances overflow"):
            kmeans(points, n_clusters, seed=0)

    def test_kmeans_far_from_the_origin(self):
        # the points' distances fit in float64, their squared norms do not
        points = 1e160 * (1.0 + 2.0**-40 * RNG.normal(size=(10, 2)))
        with pytest.raises(NumericError, match="squared distances overflow"):
            kmeans(points, 3, seed=0)

    def test_kmeans_scales_exactly_below_overflow(self):
        points = RNG.normal(size=(30, 3))
        assign, history = kmeans(points, 4, seed=5, return_history=True)
        big_assign, big_history = kmeans(points * 2.0**500, 4, seed=5, return_history=True)
        assert np.array_equal(big_assign, assign)
        assert big_history == [h * 2.0**1000 for h in history]


class TestNonFiniteEntries:
    """A NaN or infinite entry is named as one before any norm is taken,
    not reported as an overflow of the norms or distances."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("call", [
        lambda bad: cosine([bad, 1.0], [1.0, 1.0]),
        lambda bad: cosine([1.0, 1.0], [bad, 1.0]),
        lambda bad: cosine(np.ones((2, 2)), [[1.0, 1.0], [1.0, bad]]),
        lambda bad: intra_inter_stats([[bad, 1.0], [1.0, 2.0]], ["x", "x"]),
        lambda bad: kmeans([[bad, 0], [0, 1], [1, 1]], 2, 0),
        lambda bad: kmeans([[1, 0], [0, 1], [1, bad]], [1, 2], [0, 1]),
    ], ids=["cosine rows", "cosine query", "cosine query matrix", "intra_inter_stats",
            "kmeans", "kmeans runs"])
    def test_named_as_a_non_finite_entry(self, call, bad):
        with pytest.raises(NumericError, match="^non-finite vector entry$"):
            call(bad)


class TestConfusionMatrix:
    def test_counting_example(self):
        counts = confusion_matrix(["A", "A", "B"], [0, 0, 1], ("A", "B"), 2)
        assert np.array_equal(counts, [[2, 0], [0, 1]])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            confusion_matrix([], [], ("A",), 1)

    @pytest.mark.parametrize(
        "label", ["C", ["a"], {"a": 1}, ("a", ["b"])],
        ids=["str", "list", "dict", "unhashable_tuple"],
    )
    def test_unknown_label_rejected(self, label):
        with pytest.raises(DataError, match=re.escape(f"unknown label {label!r}")):
            confusion_matrix(["A", label], [0, 0], ("A", "B"), 1)

    def test_unknown_label_before_a_bad_cluster_id_is_reported_first(self):
        with pytest.raises(DataError, match="unknown label 'C'"):
            confusion_matrix(["A", "C", "A"], [0, 0, "x"], ("A", "B"), 2)

    @pytest.mark.parametrize("assignments, message", [
        ([0, float("nan"), 1], "cluster id must be an integer, got nan"),
        ([0, None, 1], "cluster id must be an integer, got None"),
        ([0, 1.5, 1], "cluster id must be an integer, got 1.5"),
        ([0, "1", 1], "cluster id must be an integer, got '1'"),
        ([0, 1, 2], "cluster id 2 outside [0, 2)"),
        ([0, -1, 0.5], "cluster id -1 outside [0, 2)"),
        (np.array([0.0, 1.0, 1.0]), "cluster id must be an integer, got np.float64(0.0)"),
    ])
    def test_bad_cluster_ids_are_data_errors(self, assignments, message):
        with pytest.raises(DataError, match=re.escape(message)):
            confusion_matrix(["A", "B", "A"], assignments, ("A", "B"), 2)

    @pytest.mark.parametrize("as_ids", [
        list, lambda a: np.array(a, dtype=np.int32), lambda a: np.array(a, dtype=np.uint8),
        lambda a: [np.int64(c) for c in a],
    ])
    def test_matches_per_point_counting(self, as_ids):
        rng = np.random.default_rng(12)
        labels = [str(rng.integers(5)) for _ in range(200)]
        ids = rng.integers(0, 7, size=200).tolist()
        universe = tuple(sorted(set(labels)))
        want = np.zeros((len(universe), 7), dtype=np.int64)
        for label, c in zip(labels, ids):
            want[universe.index(label), c] += 1
        got = confusion_matrix(labels, as_ids(ids), universe, 7)
        assert got.dtype == np.int64 and np.array_equal(got, want)

    def test_conservation(self):
        rng = np.random.default_rng(3)
        labels = [str(rng.integers(4)) for _ in range(50)]
        assigns = rng.integers(0, 6, size=50)
        counts = confusion_matrix(labels, assigns, tuple(sorted(set(labels))), 6)
        assert counts.sum() == 50


class TestClusterAccuracy:
    def test_perfect_diagonal(self):
        assert cluster_accuracy([[5, 0], [0, 5]]) == 1.0

    def test_hand_example(self):
        assert cluster_accuracy([[3, 1], [0, 4]]) == pytest.approx(0.875)

    def test_degenerate_single_cluster_scores_one(self):
        assert cluster_accuracy([[5, 0], [5, 0]]) == 1.0

    def test_all_zero_rejected(self):
        with pytest.raises(DataError):
            cluster_accuracy(np.zeros((2, 2), dtype=int))

    def test_matches_restatement_on_random_matrices(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            m = int(rng.integers(1, 11))
            n = int(rng.integers(1, 21))
            counts = rng.integers(0, 9, size=(m, n))
            if counts.sum() == 0:
                counts[0, 0] = 1
            expected = counts.max(axis=1).sum() / counts.sum()
            assert cluster_accuracy(counts) == pytest.approx(expected, abs=1e-15)

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 9, size=(4, 6))
        counts[0, 0] += 1
        perm = rng.permutation(6)
        assert cluster_accuracy(counts) == pytest.approx(
            cluster_accuracy(counts[:, perm]), abs=1e-15
        )

    def test_count_scaling_invariance(self):
        counts = np.array([[3, 1], [0, 4]])
        assert cluster_accuracy(counts) == cluster_accuracy(counts * 7)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), m=st.integers(1, 6), n_clusters=st.integers(1, 8))
    def test_lies_between_one_over_n_clusters_and_one(self, data, m, n_clusters):
        size = m * n_clusters
        cells = data.draw(st.lists(st.integers(0, 9), min_size=size, max_size=size))
        counts = np.array(cells).reshape(m, n_clusters)
        assume(counts.sum() > 0)
        assert 1.0 / n_clusters <= cluster_accuracy(counts) <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(
        labels=st.lists(st.sampled_from("abcde"), min_size=1, max_size=30),
        n_clusters=st.integers(1, 6),
        data=st.data(),
    )
    def test_one_when_each_label_sits_in_one_cluster(self, labels, n_clusters, data):
        universe = tuple(sorted(set(labels)))
        home = {label: data.draw(st.integers(0, n_clusters - 1)) for label in universe}
        counts = confusion_matrix(labels, [home[label] for label in labels], universe,
                                  n_clusters)
        assert cluster_accuracy(counts) == 1.0


class TestProtocol:
    def test_select_top_labels(self):
        labels = ["a"] * 3 + ["b"] * 5 + ["c"] * 3 + [None]
        assert select_top_labels(labels, 2) == ("b", "a")

    @pytest.mark.parametrize("m", [1.5, True, 0, 4, "2", None])
    def test_m_that_is_not_an_integer_in_range_rejected(self, m):
        labels = ["a", "b", "c", "a"]
        message = rf"^m must be an integer in \[1, 3\], got {re.escape(repr(m))}$"
        with pytest.raises(DataError, match=message):
            select_top_labels(labels, m)
        with pytest.raises(DataError, match=message):
            accuracy_curve(np.ones((4, 2)), labels, m, (2,), 0)

    def test_labels_of_mixed_types_rejected(self):
        labels = [1, "1", 2, "2", None]
        with pytest.raises(DataError, match="^labels mix str and int values$"):
            select_top_labels(labels, 2)
        with pytest.raises(DataError, match="^labels mix str and int values$"):
            accuracy_curve(np.ones((5, 2)), labels, 2, (2,), 0)

    def test_labels_of_one_non_string_type(self):
        assert select_top_labels([3, 1, 1, 2, 2, None], 2) == (1, 2)

    def test_accuracy_curve_shape_and_range(self):
        rng = np.random.default_rng(6)
        centers = rng.normal(size=(3, 4)) * 5
        labels = [str(i % 3) for i in range(60)]
        vectors = np.stack(
            [centers[int(l)] + 0.1 * rng.normal(size=4) for l in labels]
        )
        curve = accuracy_curve(vectors, labels, m=3, n_values=(3, 6), seed=0)
        assert [n for n, _ in curve] == [3, 6]
        assert all(0.0 < acc <= 1.0 for _, acc in curve)
        assert curve[0][1] > 0.9  # well-separated clumps recovered at n = m


class TestReportCsv:
    """Byte format of the cosine-gap and accuracy-curve tables: CRLF lines,
    floats in shortest round-tripping form, integers as integers."""

    def test_cosine_gap_bytes(self, tmp_path):
        path = tmp_path / "gap.csv"
        write_cosine_gap_csv(path, [
            ("a", "word", CosineGapReport(0.75, 0.5, 3, 4)),
            ("d", "word", CosineGapReport(1 / 3, -0.1, 1, 2)),
        ])
        assert path.read_bytes() == (
            b"variant,level,intra,inter,delta\r\n"
            b"a,word,0.75,0.5,0.25\r\n"
            b"d,word,0.3333333333333333,-0.1,0.43333333333333335\r\n"
        )

    def test_accuracy_curve_bytes_sorted_by_variant(self, tmp_path):
        path = tmp_path / "acc.csv"
        write_accuracy_curve_csv(path, {"d": [(4, 0.5)], "a": [(4, 0.125), (8, 2 / 3)]})
        assert path.read_bytes() == (
            b"variant,n_clusters,accuracy\r\n"
            b"a,4,0.125\r\n"
            b"a,8,0.6666666666666666\r\n"
            b"d,4,0.5\r\n"
        )

    def test_empty_tables_write_the_header_only(self, tmp_path):
        write_cosine_gap_csv(tmp_path / "gap.csv", [])
        write_accuracy_curve_csv(tmp_path / "acc.csv", {})
        assert (tmp_path / "gap.csv").read_bytes() == b"variant,level,intra,inter,delta\r\n"
        assert (tmp_path / "acc.csv").read_bytes() == b"variant,n_clusters,accuracy\r\n"
