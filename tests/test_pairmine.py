"""Pair-mining oracles: exhaustive brute-force ranking on random batches."""

import json

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

    @pytest.mark.parametrize(
        "bad", [((0, 1, 2),), ((0,),), (((0, 1),),), ((0, 1), (2,)), ((0, 1), (2, 3, 4))]
    )
    def test_rows_must_be_pairs(self, bad):
        with pytest.raises(DataError, match=r"\(P, 2\)"):
            PairSets(bad, ())

    @pytest.mark.parametrize(
        "bad",
        [((0.5, 1),), ((0.0, 1.0),), (("0", "1"),), ((0, np.nan),), ((False, True),),
         np.array([[0, 1]], dtype=np.float32)],
    )
    def test_entries_must_be_integers(self, bad):
        with pytest.raises(DataError, match="integers"):
            PairSets(bad, ())
        with pytest.raises(DataError, match="integers"):
            PairSets((), bad)

    @pytest.mark.parametrize(
        "bad", [((2**63, 2**63 + 1),), ((0, 2**63),), ((0, 2**64),), ((-1, 2**63),)]
    )
    def test_indices_beyond_int64_rejected(self, bad):
        with pytest.raises(DataError):
            PairSets(bad, ())

    def test_unsigned_pairs_accepted(self):
        pairs = PairSets(np.array([[0, 3]], dtype=np.uint64), np.array([[1, 2]], np.uint8))
        assert pairs.positives.dtype == np.intp and rows(pairs.positives) == [(0, 3)]
        assert rows(pairs.negatives) == [(1, 2)]

    def test_wide_indices_keep_distinct_pairs_apart(self):
        # i * (max j + 1) + j of these two pairs collides in int64
        a, b = (1, 2**33 - 1), (1 + 2**31, 2**33 - 1)
        assert rows(PairSets((a, b), ()).positives) == [a, b]
        assert rows(PairSets((a,), (b,)).negatives) == [b]
        with pytest.raises(DataError, match="duplicate pairs"):
            PairSets((), (b, a, b))
        with pytest.raises(DataError, match="disjoint"):
            PairSets((a, b), (b,))

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


def stable_knn_reference(points, k):
    """The k-NN graph by its definition: a stable argsort of every row (ties
    by smaller index), the first k entries other than the point itself."""
    dist = pairwise_distances(points)
    n = len(dist)
    own = np.arange(n)[:, None]
    order = np.argsort(dist, axis=1, kind="stable")
    adjacent = np.zeros((n, n), dtype=bool)
    adjacent[own, order[order != own].reshape(n, n - 1)[:, :k]] = True
    pairs = pair_indices(n)
    linked = (adjacent | adjacent.T)[pairs[:, 0], pairs[:, 1]]
    return pairs[linked], pairs[~linked]


def stable_topk_reference(points, k, seed):
    """Top-k global mining by its definition: one stable argsort of the
    row-major pair distances, then k seeded draws from the rest."""
    dist = pairwise_distances(points)
    pairs = pair_indices(len(dist))
    ranked = pairs[np.argsort(dist[pairs[:, 0], pairs[:, 1]], kind="stable")]
    pick = np.random.default_rng(seed).choice(len(pairs) - k, size=k, replace=False)
    return ranked[:k], ranked[k:][np.sort(pick)]


def tie_heavy_batch(layout, n, seed):
    """``grid``: points on a 5 x 5 integer grid, so many distances are equal
    and exact; ``duplicated``: each of about n/4 random points repeated."""
    rng = np.random.default_rng(seed)
    if layout == "grid":
        return rng.integers(-2, 3, size=(n, 2)).astype(np.float64)
    base = rng.normal(size=(n // 4 + 1, 3))
    return base[rng.integers(0, len(base), size=n)]


class TestMinersAgainstStableSortReference:
    """Both miners return what the stable-sort definitions return, pair for
    pair and in the same order, on tie-heavy batches up to |B| = 256."""

    @pytest.mark.parametrize("layout", ["grid", "duplicated"])
    @pytest.mark.parametrize("n", [2, 5, 64, 256])
    def test_knn_graph(self, n, layout):
        points = tie_heavy_batch(layout, n, seed=n)
        for k in sorted({1, 2, n // 2, n - 1} & set(range(1, n))):
            pairs = knn_graph_pairs(points, k)
            positives, negatives = stable_knn_reference(points, k)
            assert pairs.positives.tolist() == positives.tolist()
            assert pairs.negatives.tolist() == negatives.tolist()

    @pytest.mark.parametrize("layout", ["grid", "duplicated", "distinct"])
    @pytest.mark.parametrize("n", [2, 5, 64, 256])
    def test_topk_global(self, n, layout):
        points = (np.random.default_rng(n).normal(size=(n, 3)) if layout == "distinct"
                  else tie_heavy_batch(layout, n, seed=n))
        if n == 2:  # one pair: no k fits
            with pytest.raises(DataError):
                topk_global_pairs(points, 1, seed=0)
            return
        dist = pairwise_distances(points)[np.triu_indices(n, k=1)]
        # equal neighbours in sorted order send the miner to its stable sort
        assert (np.diff(np.sort(dist)) == 0).any() == (layout != "distinct")
        total = len(dist)
        for k in sorted({1, 2, total // 4, total // 2}):
            pairs = topk_global_pairs(points, k, seed=k)
            positives, negatives = stable_topk_reference(points, k, seed=k)
            assert pairs.positives.tolist() == positives.tolist()
            assert pairs.negatives.tolist() == negatives.tolist()


@pytest.mark.parametrize("k", [2.5, 2.0, "2", None, True])
def test_miners_reject_non_integer_k(k):
    points = np.random.default_rng(0).normal(size=(6, 2))
    with pytest.raises(DataError, match="k must be an integer"):
        knn_graph_pairs(points, k)
    with pytest.raises(DataError, match="k must be an integer"):
        topk_global_pairs(points, k, seed=0)


def test_miners_take_numpy_integer_k():
    points = np.random.default_rng(0).normal(size=(6, 2))
    for mine in (lambda k: knn_graph_pairs(points, k),
                 lambda k: topk_global_pairs(points, k, seed=0)):
        assert mine(np.int32(2)).positives.tolist() == mine(2).positives.tolist()


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

    def test_matches_json_dumps(self, tmp_path):
        batch = np.random.default_rng(0).normal(size=(9, 2))
        records = [
            (np.arange(9, dtype=np.int32)[::-1], knn_graph_pairs(batch, 2)),
            (np.array([7, 3], dtype=np.uint16), PairSets(((0, 1),), ())),
            ([np.int64(5), 2], PairSets((), ((0, 1),))),
            ((), PairSets((), ())),
        ]
        path = tmp_path / "pairs.jsonl"
        write_pair_dump(path, records)
        assert path.read_text(encoding="utf-8") == "".join(
            json.dumps({
                "indices": np.asarray(indices).tolist(),
                "positives": pairs.positives.tolist(),
                "negatives": pairs.negatives.tolist(),
            }) + "\n"
            for indices, pairs in records
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
