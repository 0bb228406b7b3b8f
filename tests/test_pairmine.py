"""Pair-mining oracles: exhaustive brute-force ranking on random batches."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segembed.errors import DataError, DimensionError, NumericError
from segembed.pairmine import (
    DistanceCounter,
    PairSets,
    knn_graph_pairs,
    pair_indices,
    pairwise_distances,
    topk_global_pairs,
    write_pair_dump,
)


def rows(arr):
    """A (P, 2) pair array as a list of (i, j) tuples, in row order."""
    return list(map(tuple, arr.tolist()))


def row_set(arr):
    return set(map(tuple, arr.tolist()))


def brute_force_knn_positives(points, k):
    """Independent oracle: for every point, rank every other point by
    (exact distance, index) and take the first k; union as undirected pairs."""
    n = len(points)
    positives = set()
    for i in range(n):
        ranked = sorted(
            range(n),
            key=lambda j: (float(np.linalg.norm(points[i] - points[j])), j),
        )
        ranked = [j for j in ranked if j != i]
        for j in ranked[:k]:
            positives.add((min(i, j), max(i, j)))
    return positives


def brute_force_topk_positives(points, k):
    """Independent oracle: rank all unordered pairs by (distance, i, j)."""
    n = len(points)
    ranked = sorted(
        ((float(np.linalg.norm(points[i] - points[j])), i, j)
         for i in range(n) for j in range(i + 1, n))
    )
    return [(i, j) for _, i, j in ranked[:k]]


class TestPairwiseDistances:
    def test_three_four_five(self):
        d = pairwise_distances([np.array([0.0, 0.0]), np.array([3.0, 4.0])])
        assert d[0, 1] == pytest.approx(5.0)

    def test_zero_diagonal_and_symmetry(self):
        pts = np.random.default_rng(0).normal(size=(6, 3))
        d = pairwise_distances(pts)
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)

    def test_matches_norm_oracle(self):
        pts = np.random.default_rng(1).normal(size=(8, 4))
        d = pairwise_distances(pts)
        for i in range(8):
            for j in range(8):
                assert d[i, j] == pytest.approx(
                    float(np.linalg.norm(pts[i] - pts[j])), abs=1e-9
                )

    def test_counter(self):
        counter = DistanceCounter()
        pairwise_distances(np.zeros((5, 2)), counter)
        assert counter.count == 10

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            pairwise_distances([np.zeros(2), np.zeros(3)])


# Every pair of a batch of 5, plus three that break 0 <= i < j.
CANDIDATE_PAIRS = [(i, j) for i in range(5) for j in range(i + 1, 5)] + [
    (1, 0), (-1, 2), (3, 3)
]


def pairsets_oracle(pos, neg):
    """The PairSets checks over tuples and sets: the DataError message for
    an invalid pair of lists, or None when they are valid."""
    for i, j in pos + neg:
        if not 0 <= i < j:
            return f"pair ({i}, {j}) must satisfy 0 <= i < j"
    if len(set(pos)) != len(pos) or len(set(neg)) != len(neg):
        return "duplicate pairs within a pair list"
    if set(pos) & set(neg):
        return "positive and negative pair sets must be disjoint"
    return None


class TestPairSets:
    def test_disjointness_enforced(self):
        with pytest.raises(DataError, match="disjoint"):
            PairSets(((0, 1),), ((0, 1),))

    def test_ordering_enforced(self):
        with pytest.raises(DataError, match=r"pair \(1, 0\) must satisfy 0 <= i < j"):
            PairSets(((1, 0),), ())

    def test_duplicates_rejected(self):
        with pytest.raises(DataError, match="duplicate pairs"):
            PairSets(((0, 1), (0, 1)), ())

    def test_fields_are_read_only_intp_arrays(self):
        source = np.array([[0, 2], [1, 3]])
        pairs = PairSets(source, ())
        for field in (pairs.positives, pairs.negatives):
            assert field.dtype == np.intp and field.ndim == 2 and field.shape[1] == 2
            assert not field.flags.writeable
        assert pairs.negatives.shape == (0, 2)
        assert source.flags.writeable  # the caller's array is copied, not frozen

    @pytest.mark.parametrize("bad", [((0, 1, 2),), ((0,),), (((0, 1),),)])
    def test_rows_must_be_pairs(self, bad):
        with pytest.raises(DataError, match=r"\(P, 2\)"):
            PairSets(bad, ())

    @settings(max_examples=300, deadline=None)
    @given(
        pos=st.lists(st.sampled_from(CANDIDATE_PAIRS), max_size=6),
        neg=st.lists(st.sampled_from(CANDIDATE_PAIRS), max_size=6),
        form=st.sampled_from([tuple, list, lambda p: np.array(p, dtype=np.int64)]),
    )
    def test_matches_tuple_and_set_oracle(self, pos, neg, form):
        message = pairsets_oracle(pos, neg)
        if message is None:
            pairs = PairSets(form(pos), form(neg))
            assert rows(pairs.positives) == pos
            assert rows(pairs.negatives) == neg
        else:
            with pytest.raises(DataError) as info:
                PairSets(form(pos), form(neg))
            assert str(info.value) == message


def test_pair_indices_is_row_major():
    assert rows(pair_indices(4)) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert pair_indices(1).shape == (0, 2)


def test_pair_indices_is_built_once_and_read_only():
    pairs = pair_indices(5)
    assert pair_indices(5) is pairs
    assert not pairs.flags.writeable
    with pytest.raises(ValueError):
        pairs[0, 0] = 3


class TestKnnGraphPairs:
    def test_spec_example_two_clumps(self):
        pts = np.array([[0.0], [1.0], [10.0], [11.0]])
        pairs = knn_graph_pairs(pts, k=1)
        assert row_set(pairs.positives) == {(0, 1), (2, 3)}
        assert row_set(pairs.negatives) == {(0, 2), (0, 3), (1, 2), (1, 3)}

    def test_complete_graph_when_k_is_batch_minus_one(self):
        pts = np.random.default_rng(2).normal(size=(5, 2))
        pairs = knn_graph_pairs(pts, k=4)
        assert len(pairs.positives) == 10
        assert pairs.negatives.tolist() == []

    def test_coincident_points_dedup(self):
        pts = np.array([[0.0], [0.0], [5.0]])
        pairs = knn_graph_pairs(pts, k=1)
        assert rows(pairs.positives).count((0, 1)) == 1
        assert (0, 1) in rows(pairs.positives)

    def test_k_out_of_range(self):
        pts = np.zeros((3, 2))
        with pytest.raises(DataError):
            knn_graph_pairs(pts, k=3)
        with pytest.raises(DataError):
            knn_graph_pairs(pts, k=0)

    def test_matches_brute_force_on_random_batches(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = int(rng.integers(3, 13))
            k = int(rng.integers(1, n))
            pts = rng.normal(size=(n, int(rng.integers(1, 5))))
            pairs = knn_graph_pairs(pts, k)
            expected = brute_force_knn_positives(pts, k)
            assert row_set(pairs.positives) == expected
            all_pairs = {(i, j) for i in range(n) for j in range(i + 1, n)}
            assert row_set(pairs.negatives) == all_pairs - expected

    def test_permutation_invariance_up_to_relabeling(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(7, 3))
        perm = rng.permutation(7)
        base = knn_graph_pairs(pts, 2).positives
        permuted = knn_graph_pairs(pts[perm], 2).positives
        relabeled = {
            (min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in rows(permuted)
        }
        assert row_set(base) == relabeled


class TestTopkGlobalPairs:
    def test_spec_example(self):
        pts = np.array([[0.0], [1.0], [10.0], [11.0]])
        pairs = topk_global_pairs(pts, k=2, seed=0)
        assert row_set(pairs.positives) == {(0, 1), (2, 3)}
        assert len(pairs.negatives) == 2
        assert row_set(pairs.negatives) <= {(0, 2), (0, 3), (1, 2), (1, 3)}

    def test_exhaustion_when_2k_covers_all(self):
        pts = np.random.default_rng(6).normal(size=(4, 2))  # 6 pairs
        pairs = topk_global_pairs(pts, k=3, seed=1)
        assert len(pairs.positives) == len(pairs.negatives) == 3
        assert row_set(pairs.positives) | row_set(pairs.negatives) == {
            (i, j) for i in range(4) for j in range(i + 1, 4)
        }

    def test_determinism(self):
        pts = np.random.default_rng(7).normal(size=(9, 3))
        a = topk_global_pairs(pts, k=4, seed=42)
        b = topk_global_pairs(pts, k=4, seed=42)
        assert a.positives.tolist() == b.positives.tolist()
        assert a.negatives.tolist() == b.negatives.tolist()

    def test_too_few_pairs(self):
        with pytest.raises(DataError):
            topk_global_pairs(np.zeros((3, 1)), k=2, seed=0)  # 3 pairs < 2k

    def test_matches_brute_force_on_random_batches(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            n = int(rng.integers(4, 13))
            k = int(rng.integers(1, n * (n - 1) // 4 + 1))
            pts = rng.normal(size=(n, 3))
            pairs = topk_global_pairs(pts, k, seed=int(rng.integers(1000)))
            assert rows(pairs.positives) == brute_force_topk_positives(pts, k)
            assert len(pairs.negatives) == k
            assert not row_set(pairs.negatives) & row_set(pairs.positives)

    def test_positive_boundary_property(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(8, 2))
        dist = pairwise_distances(pts)
        pairs = topk_global_pairs(pts, k=5, seed=3)
        max_pos = max(dist[i, j] for i, j in rows(pairs.positives))
        excluded = [
            (i, j)
            for i in range(8)
            for j in range(i + 1, 8)
            if (i, j) not in row_set(pairs.positives)
        ]
        min_rest = min(dist[i, j] for i, j in excluded)
        assert max_pos <= min_rest + 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "mine",
    [pairwise_distances, lambda v: knn_graph_pairs(v, 1),
     lambda v: topk_global_pairs(v, 1, seed=0)],
    ids=["pairwise_distances", "knn_graph_pairs", "topk_global_pairs"],
)
def test_non_finite_vector_rejected(mine, bad):
    pts = np.zeros((4, 2))
    pts[1, 0] = bad
    with pytest.raises(NumericError, match="finite"):
        mine(pts)


@pytest.mark.parametrize(
    "mine",
    [pairwise_distances, lambda v: knn_graph_pairs(v, 1),
     lambda v: topk_global_pairs(v, 2, seed=0)],
    ids=["pairwise_distances", "knn_graph_pairs", "topk_global_pairs"],
)
def test_overflowing_distances_rejected(mine):
    pts = np.array([[1e200, 1e200], [1e200, 1e200], [0, 2], [0, 3], [5, 5]])
    with pytest.raises(NumericError, match="overflow"):
        mine(pts)


class TestPairDump:
    def test_bytes(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_pair_dump(path, [
            ((4, 2, 7), PairSets(((0, 2),), ((0, 1), (1, 2)))),
            ((5, 1), PairSets((), ())),
        ])
        assert path.read_bytes() == (
            b'{"indices": [4, 2, 7], "positives": [[0, 2]], '
            b'"negatives": [[0, 1], [1, 2]]}\n'
            b'{"indices": [5, 1], "positives": [], "negatives": []}\n'
        )

    def test_no_records_gives_empty_file(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_pair_dump(path, [])
        assert path.read_bytes() == b""


@st.composite
def tie_heavy_points(draw, min_n=2):
    """Integer points in a small box: many pairs are exactly equidistant
    (float distances of small integers are exact) and points repeat."""
    n = draw(st.integers(min_n, 12))
    d = draw(st.integers(1, 3))
    rows = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    return np.array(draw(st.lists(rows, min_size=n, max_size=n)), dtype=np.float64)


def row_major_pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def relabel(pairs, perm):
    return {(min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in pairs}


class TestMinersProperties:
    """Both miners against the brute-force oracles above on tie-heavy
    batches, so the (distance, index) tie-breaks are pinned, and under row
    permutation."""

    @settings(max_examples=200, deadline=None)
    @given(points=tie_heavy_points(), data=st.data())
    def test_knn_graph_matches_brute_force(self, points, data):
        n = len(points)
        k = data.draw(st.integers(1, n - 1))
        pairs = knn_graph_pairs(points, k)
        expected = brute_force_knn_positives(points, k)
        assert rows(pairs.positives) == sorted(expected)
        assert rows(pairs.negatives) == [
            p for p in row_major_pairs(n) if p not in expected
        ]

    @settings(max_examples=200, deadline=None)
    @given(points=tie_heavy_points(min_n=3), data=st.data())
    def test_topk_global_matches_brute_force(self, points, data):
        total = len(points) * (len(points) - 1) // 2
        k = data.draw(st.integers(1, total // 2))
        seed = data.draw(st.integers(0, 2**32 - 1))
        pairs = topk_global_pairs(points, k, seed)
        ranked = brute_force_topk_positives(points, total)  # every pair, ranked
        rest = ranked[k:]
        pick = np.random.default_rng(seed).choice(len(rest), size=k, replace=False)
        assert rows(pairs.positives) == ranked[:k]
        assert rows(pairs.negatives) == [rest[p] for p in sorted(pick)]

    @settings(max_examples=100, deadline=None)
    @given(points=tie_heavy_points(min_n=3), data=st.data())
    def test_topk_positive_distances_survive_permutation(self, points, data):
        n = len(points)
        k = data.draw(st.integers(1, n * (n - 1) // 4))
        perm = np.array(data.draw(st.permutations(range(n))))

        def positive_sq_distances(pts):
            pairs = topk_global_pairs(pts, k, seed=0)
            return sorted(
                float(np.sum((pts[i] - pts[j]) ** 2)) for i, j in rows(pairs.positives)
            )

        assert positive_sq_distances(points[perm]) == positive_sq_distances(points)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(4, 12), seed=st.integers(0, 2**32 - 1), data=st.data()
    )
    def test_miners_commute_with_permutation_without_ties(self, n, seed, data):
        pts = np.random.default_rng(seed).normal(size=(n, 3))
        perm = np.array(data.draw(st.permutations(range(n))))
        k = data.draw(st.integers(1, n - 1))
        base, permuted = knn_graph_pairs(pts, k), knn_graph_pairs(pts[perm], k)
        assert row_set(base.positives) == relabel(rows(permuted.positives), perm)
        assert row_set(base.negatives) == relabel(rows(permuted.negatives), perm)
        k = data.draw(st.integers(1, n * (n - 1) // 4))
        base, permuted = topk_global_pairs(pts, k, 0), topk_global_pairs(pts[perm], k, 0)
        assert row_set(base.positives) == relabel(rows(permuted.positives), perm)
