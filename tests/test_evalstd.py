"""Spoken term detection: TF-IDF selection, relevance scoring, ranking, MAP."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_acceptance import _brute_relevance

from segembed.errors import DataError, EvaluationError, NumericError
from segembed.evalcluster import cosine
from segembed.evalstd import (
    DocumentIndex,
    QuerySpec,
    RetrievalReport,
    average_precision,
    build_retrieval_task,
    mean_average_precision,
    rank_documents,
    relevance_score,
    run_retrieval,
    tfidf_select_queries,
    write_map_csv,
)

RNG = np.random.default_rng(51)


def _index(docs):
    """A ``DocumentIndex`` of ``docs``, (doc_id, word vectors) pairs, each
    document's words its own rows of one stacked matrix, in order."""
    ids, word_lists = zip(*docs)
    ends = np.cumsum([len(words) for words in word_lists])
    members = [np.arange(end - len(words), end) for end, words in zip(ends, word_lists)]
    return DocumentIndex(ids, np.array([v for words in word_lists for v in words]), members)


def _score(query, vectors, top_k):
    """The relevance score of one document of words ``vectors``."""
    return relevance_score(query, _index([("d", vectors)]), top_k)[0]


def _alone(index, d):
    """The document ``d`` of ``index`` as a one-document index over a copy of
    its rows, which sit at other positions than in ``index``."""
    rows = index.members[d]
    return DocumentIndex([index.doc_ids[d]], index.vectors[rows], [np.arange(len(rows))])


def _ranked(index, ranking):
    """A ``rank_documents`` result, ``(positions, scores)``, as the nested
    lists of (doc_id, score) pairs it stands for."""
    positions, scores = ranking
    assert positions.shape == scores.shape and positions.dtype.kind == "i"
    if positions.ndim > 1:
        return [_ranked(index, pair) for pair in zip(positions, scores)]
    return list(zip(index.doc_ids[positions].tolist(), scores.tolist()))


def _hits(ranked_ids, relevant):
    """Whether the document at each rank of ``ranked_ids`` is relevant."""
    return [doc_id in relevant for doc_id in ranked_ids]


class TestTfidf:
    def test_ubiquitous_term_scores_zero(self):
        transcripts = [["x", "a"], ["x", "b"], ["x", "c"]]
        selected = tfidf_select_queries(transcripts, 3)
        assert "x" not in selected

    def test_hand_arithmetic(self):
        # term q: tf 3 in one doc, df 2 of N=4 -> 3 * ln 2
        transcripts = [["q", "q", "q"], ["q"], ["z"], ["z", "z"]]
        selected = tfidf_select_queries(transcripts, 1)
        assert selected == ["q"]
        score_q = 3 * math.log(4 / 2)
        score_z = 2 * math.log(4 / 2)
        assert score_q == pytest.approx(2.0794, abs=1e-4)
        assert score_q > score_z

    def test_tie_break_lexicographic(self):
        transcripts = [["b", "a"], ["c"]]
        assert tfidf_select_queries(transcripts, 2) == ["a", "b"]

    def test_too_many_queries_rejected(self):
        with pytest.raises(DataError):
            tfidf_select_queries([["a", "b"]], 3)

    @pytest.mark.parametrize("n_queries", [1.5, 1.0, "1", None])
    def test_count_that_is_not_an_integer_rejected(self, n_queries):
        with pytest.raises(DataError, match="n_queries must be an integer"):
            tfidf_select_queries([["a", "b"], ["c"]], n_queries)


class TestRelevanceScore:
    def test_identical_singleton(self):
        q = RNG.normal(size=4)
        assert _score(q, [q], top_k=5) == pytest.approx(1.0)

    def test_hand_example(self):
        q = np.array([1.0, 0.0])
        doc = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
               np.array([math.sqrt(0.5), math.sqrt(0.5)])]
        expected = (1.0 + math.sqrt(0.5)) / 2.0
        assert _score(q, doc, top_k=2) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.8536, abs=1e-4)

    def test_short_document_divides_by_effective_k(self):
        q = np.array([1.0, 0.0])
        assert _score(q, [np.array([0.5, 0.5])], top_k=5) == pytest.approx(
            cosine(q, np.array([0.5, 0.5]))
        )

    def test_monotone_in_word_similarity(self):
        q = np.array([1.0, 0.0])
        low = [np.array([0.0, 1.0]), np.array([1.0, 1.0])]
        high = [np.array([1.0, 0.1]), np.array([1.0, 1.0])]
        assert _score(q, high, 2) > _score(q, low, 2)

    def test_rescaling_invariance(self):
        q = RNG.normal(size=3)
        vectors = [RNG.normal(size=3) for _ in range(4)]
        scaled = [7.0 * v for v in vectors]
        assert _score(3.0 * q, scaled, 2) == pytest.approx(_score(q, vectors, 2), abs=1e-12)

    @pytest.mark.parametrize("top_k", [0, [1, 0], [[1, 2]], [], (), 2.0, [1, 2.5]])
    def test_bad_top_k_rejected(self, top_k):
        with pytest.raises(DataError, match="top_k"):
            relevance_score(np.ones(2), _index([("d", [np.ones(2)])]), top_k)

    def test_k_beyond_doc_size_is_k_independent(self):
        q = RNG.normal(size=3)
        doc = [RNG.normal(size=3) for _ in range(3)]
        assert _score(q, doc, 3) == _score(q, doc, 10)


class TestRankDocuments:
    def test_single_document(self):
        q = QuerySpec("q", np.array([1.0, 0.0]))
        index = _index([("only", [np.array([0.2, 0.9])])])
        positions, scores = rank_documents(q, index, 1)
        assert index.doc_ids[positions[0]] == "only"
        assert positions.shape == scores.shape == (1,)

    def test_exact_match_ranks_first(self):
        qv = np.array([1.0, 0.0])
        index = _index([("hit", [qv]), ("miss", [np.array([0.0, 1.0])])])
        positions, _ = rank_documents(QuerySpec("q", qv), index, 1)
        assert index.doc_ids[positions].tolist() == ["hit", "miss"]

    def test_scores_independent_of_document_order(self):
        docs = [(f"d{i}", [RNG.normal(size=3) for _ in range(3)]) for i in range(4)]
        q = QuerySpec("q", RNG.normal(size=3))
        a_index, b_index = _index(docs), _index(docs[::-1])
        a = dict(_ranked(a_index, rank_documents(q, a_index, 2)))
        b = dict(_ranked(b_index, rank_documents(q, b_index, 2)))
        assert a == b


def brute_average_precision(ranked_ids, relevant):
    """Independent AP oracle: walk every relevant document's rank."""
    ap_terms = []
    for doc in relevant:
        rank = ranked_ids.index(doc) + 1
        n_at_or_above = sum(1 for d in ranked_ids[:rank] if d in relevant)
        ap_terms.append(n_at_or_above / rank)
    return sum(ap_terms) / len(relevant)


def loop_average_precision(ranked_ids, relevant) -> float:
    """Bit reference for AP: one left-to-right pass over the ranks, adding
    the precision at each relevant document's rank."""
    relevant = set(relevant)
    hits = 0
    total = 0.0
    for rank, doc_id in enumerate(ranked_ids, start=1):
        if doc_id in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


class TestAveragePrecisionAndMap:
    def test_hand_example(self):
        ap = average_precision(_hits(["r1", "n1", "r2"], {"r1", "r2"}), 2)
        assert ap == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)
        assert ap == pytest.approx(0.8333, abs=1e-4)

    def test_all_relevant_first(self):
        assert average_precision(_hits(["r1", "r2", "n"], {"r1", "r2"}), 2) == 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            docs = [f"d{i}" for i in range(n)]
            rng.shuffle(docs)
            n_rel = int(rng.integers(1, n + 1))
            relevant = set(rng.choice(docs, size=n_rel, replace=False))
            assert average_precision(_hits(docs, relevant), len(relevant)) == pytest.approx(
                brute_average_precision(docs, relevant), abs=1e-12
            )

    def test_map_mean_and_exclusions(self):
        rankings = {"q1": ["a", "b"], "q2": ["b", "a"], "q3": ["a", "b"]}
        relevant = {"q1": {"a"}, "q2": {"a"}, "q3": set()}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = mean_average_precision(
                list(rankings), [_hits(rankings[t], relevant[t]) for t in rankings],
                [len(relevant[t]) for t in rankings],
            )
        assert report.map == pytest.approx((1.0 + 0.5) / 2.0)
        assert report.excluded == ("q3",)
        assert len(caught) == 1

    def test_no_scorable_queries_rejected(self):
        with pytest.raises(EvaluationError), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mean_average_precision(["q"], [[False]], [0])

    @pytest.mark.parametrize("hits, n_relevant", [
        ([False, True], [1]),  # hits not (Q, R)
        ([[False, True]], 1),  # n_relevant not (Q,)
        ([[False, True], [True, False]], [1]),
    ])
    def test_mismatched_shapes_rejected(self, hits, n_relevant):
        with pytest.raises(DataError, match="one hits row"):
            mean_average_precision(["q"], hits, n_relevant)

    @pytest.mark.parametrize("hits, n_relevant, counts", [
        ([[True, True, True]], [1], "3 hits but 1"),
        ([[False, True, True]], [1], "2 hits but 1"),
        ([[True, False]], [0], "1 hits but 0"),
    ])
    def test_more_hits_than_relevant_documents_rejected(self, hits, n_relevant, counts):
        with pytest.raises(DataError, match=f"query 'q': {counts} relevant"):
            mean_average_precision(["q"], hits, n_relevant)

    @pytest.mark.parametrize("n_relevant", [[1.5], [1.0], [True], ["1"]])
    def test_count_that_is_not_an_integer_rejected(self, n_relevant):
        with pytest.raises(DataError, match="relevant counts must be integers"):
            mean_average_precision(["q"], [[True, False]], n_relevant)

    def test_empty_relevant_set_rejected(self):
        with pytest.raises(EvaluationError, match="non-empty relevant set"):
            average_precision([[True], [False]], [1, 0])


_hit_patterns = st.integers(1, 60).flatmap(lambda n: st.one_of(
    st.lists(st.booleans(), min_size=n, max_size=n),
    st.just([False] * n),  # no hit
    st.just([True] * n),  # all hits
    st.just([False] * (n - 1) + [True]),  # one relevant document, at the last rank
))


class TestExactAveragePrecision:
    """``average_precision`` equals the left-to-right loop bit for bit."""

    @staticmethod
    def _reference(hits, n_missing):
        """The loop's AP of ``hits``, with ``n_missing`` more relevant
        documents that are not in the ranking; and the relevant count."""
        ranked = [f"d{i}" for i in range(len(hits))]
        relevant = {d for d, hit in zip(ranked, hits) if hit}
        relevant |= {f"missing{j}" for j in range(n_missing if relevant else max(n_missing, 1))}
        return loop_average_precision(ranked, relevant), len(relevant)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_hit_patterns, st.integers(0, 3)), min_size=1, max_size=4))
    @example([([True], 0)])  # a single document
    @example([([False], 1)])
    @example([([], 1)])  # an empty ranking
    def test_equals_loop_on_random_hit_patterns(self, rows):
        expected, n_relevant = zip(*(self._reference(h, m) for h, m in rows))
        for (hits, _), ap, n in zip(rows, expected, n_relevant):
            assert average_precision(hits, n) == ap
        # one batch, shorter rankings padded with False
        width = max(len(h) for h, _ in rows)
        batch = [h + [False] * (width - len(h)) for h, _ in rows]
        assert average_precision(batch, n_relevant).tolist() == list(expected)


class TestDocumentIndex:
    VECTORS = np.arange(1.0, 7.0).reshape(3, 2)

    def test_empty_document_rejected(self):
        with pytest.raises(DataError, match="'d': members must be a non-empty"):
            DocumentIndex(["d"], self.VECTORS, [[]])

    def test_ragged_matrix_rejected(self):
        with pytest.raises(DataError, match="matrix"):
            DocumentIndex(["d"], [np.zeros(3), np.zeros(4)], [[0, 1]])

    def test_duplicate_doc_ids_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            DocumentIndex(["d", "d"], self.VECTORS, [[0], [1]])

    def test_no_documents_rejected(self):
        with pytest.raises(DataError, match="empty"):
            DocumentIndex([], self.VECTORS, [])

    def test_member_count_must_equal_id_count(self):
        with pytest.raises(DataError, match="2 ids, 1 member arrays"):
            DocumentIndex(["a", "b"], self.VECTORS, [[0, 1]])
        with pytest.raises(DataError, match="1 ids, 2 member arrays"):
            DocumentIndex(["a"], self.VECTORS, [[0], [1]])

    @pytest.mark.parametrize("vectors", [
        np.ones(3), np.ones((2, 2, 2)), np.ones((3, 0)), [["a", "b"]], 1.0,
    ])
    def test_vectors_not_a_matrix_rejected(self, vectors):
        with pytest.raises(DataError, match="matrix"):
            DocumentIndex(["d"], vectors, [[0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_word_vector_rejected(self, bad):
        """A NaN or infinity is named as a non-finite entry of the index,
        not reported later as an overflow of the norms."""
        vectors = self.VECTORS.copy()
        vectors[1, 0] = bad
        with pytest.raises(NumericError, match="^document index: word vector 1 has a "
                                               "non-finite entry$"):
            DocumentIndex(["a", "b"], vectors, [[0], [1, 2]])

    @pytest.mark.parametrize("rows", [
        [], [0.0], [0, 1.5], [True], [3], [-1], [[0, 1]], 0,
    ])
    def test_bad_member_array_rejected(self, rows):
        with pytest.raises(DataError, match=r"'b': members .* in \[0, 3\)"):
            DocumentIndex(["a", "b"], self.VECTORS, [[0], rows])

    def test_documents_share_rows_in_word_order(self):
        index = DocumentIndex(["a", "b"], self.VECTORS, [[2, 0], [0, 2, 2]])
        assert index.slots.tolist() == [[2, 0, 3], [0, 2, 2]]
        assert index.lengths.tolist() == [2, 3]
        assert [m.tolist() for m in index.members] == [[2, 0], [0, 2, 2]]
        assert index.norms.tolist() == np.linalg.norm(self.VECTORS, axis=1).tolist()

    def test_writes_to_the_callers_arrays_leave_scores_unchanged(self):
        vectors = RNG.normal(size=(6, 3))
        members = [np.array([0, 4]), np.array([5, 1, 2]), np.array([3])]
        index = DocumentIndex(["a", "b", "c"], vectors, members)
        queries = RNG.normal(size=(4, 3))
        before = relevance_score(queries, index, (1, 2, 5)).tobytes()
        vectors[:] = RNG.normal(size=vectors.shape)
        for rows in members:
            rows[:] = 0
        assert relevance_score(queries, index, (1, 2, 5)).tobytes() == before
        assert vectors.flags.writeable and members[0].flags.writeable
        assert not index.vectors.flags.writeable
        assert not any(m.flags.writeable for m in index.members)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_embedding_rejected(self, bad):
        with pytest.raises(NumericError, match="^query 'q': non-finite embedding entry$"):
            QuerySpec("q", [bad, 1.0], {"a"})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_vector_scored_directly_rejected(self, bad):
        index = DocumentIndex(["a", "b"], self.VECTORS, [[0], [1, 2]])
        with pytest.raises(NumericError, match="^non-finite vector entry$"):
            relevance_score(np.array([bad, 1.0]), index, 1)

    def test_only_an_index_is_scored(self):
        with pytest.raises(DataError, match="expected a DocumentIndex"):
            relevance_score(np.ones(2), [np.ones(2)], 1)


class TestRetrievalTask:
    @staticmethod
    def _entries(n_labels=4, per_label=10, dim=3, seed=0):
        rng = np.random.default_rng(seed)
        centers = rng.normal(size=(n_labels, dim)) * 4
        ids, vectors, labels = [], [], {}
        i = 0
        for label in range(n_labels):
            for _ in range(per_label):
                sid = f"s{i:03d}"
                ids.append(sid)
                vectors.append(centers[label] + 0.1 * rng.normal(size=dim))
                labels[sid] = f"u{label}"
                i += 1
        return ids, np.array(vectors), labels

    def test_build_and_run(self):
        ids, vectors, labels = self._entries()
        index, queries = build_retrieval_task(ids, vectors, labels, n_documents=5,
                                              n_queries=3, seed=0)
        assert len(index) == 5
        assert len(queries) == 3
        assert all(q.relevant for q in queries)
        report = run_retrieval(index, queries, top_k=2)
        assert 0.0 <= report.map <= 1.0
        # clumped same-label embeddings make retrieval near-perfect
        assert report.map > 0.9

    @pytest.mark.parametrize("top_k", [[], ()])
    def test_empty_top_k_rejected(self, top_k):
        ids, vectors, labels = self._entries()
        index, queries = build_retrieval_task(ids, vectors, labels, 5, 3, seed=0)
        with pytest.raises(DataError, match="non-empty sequence"):
            run_retrieval(index, queries, top_k)

    def test_index_is_the_table_and_the_seeded_partition(self):
        ids, vectors, labels = self._entries()
        index, queries = build_retrieval_task(ids, vectors, labels, 7, 3, seed=2)
        assert index.vectors.tobytes() == vectors.tobytes()
        members = np.concatenate(index.members)
        assert sorted(members.tolist()) == list(range(len(ids)))
        assert sorted(index.lengths.tolist()) == [5] * 2 + [6] * 5
        for q in queries:  # a query's relevant documents are those holding its term
            assert q.relevant == {
                doc_id for doc_id, rows in zip(index.doc_ids, index.members)
                if q.term in {labels[ids[r]] for r in rows}
            }

    def test_segment_without_a_label_rejected(self):
        ids, vectors, labels = self._entries()
        del labels["s005"]
        with pytest.raises(DataError, match="segment 's005' has no unit label"):
            build_retrieval_task(ids, vectors, labels, 5, 3, seed=0)

    @pytest.mark.parametrize("n_documents", [2.5, 5.0, "5", 1, 41])
    def test_document_count_not_an_integer_in_range_rejected(self, n_documents):
        ids, vectors, labels = self._entries()
        with pytest.raises(DataError, match=r"n_documents must be an integer in \[2, 40\]"):
            build_retrieval_task(ids, vectors, labels, n_documents, 3, seed=0)

    def test_deterministic(self):
        ids, vectors, labels = self._entries()
        a_index, a_queries = build_retrieval_task(ids, vectors, labels, 5, 3, seed=4)
        b_index, b_queries = build_retrieval_task(ids, vectors, labels, 5, 3, seed=4)
        assert a_index.doc_ids.tolist() == b_index.doc_ids.tolist()
        assert [m.tolist() for m in a_index.members] == [m.tolist() for m in b_index.members]
        assert np.array_equal(a_index.vectors, b_index.vectors)
        for qa, qb in zip(a_queries, b_queries):
            assert qa.term == qb.term
            assert np.array_equal(qa.embedding, qb.embedding)


# -- batched scoring against the per-word oracle -----------------------------

_components = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False),
)


@st.composite
def _archives(draw):
    """(query, index, top_k) over one pool matrix of word vectors, with rows
    shared across documents, documents that repeat another's rows in a new
    order, and doc ids whose sorted order differs from index order."""
    dim = draw(st.integers(2, 4))
    vector = st.lists(_components, min_size=dim, max_size=dim).map(np.array).filter(
        lambda v: np.linalg.norm(v) > 1e-3
    )
    pool = np.array(draw(st.lists(vector, min_size=1, max_size=6)))
    picks = st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=7)
    members = draw(st.lists(picks, min_size=1, max_size=6))
    for i in range(len(members)):
        if i and draw(st.booleans()):
            source = members[draw(st.integers(0, i - 1))]
            members[i] = draw(st.permutations(source))
    ids = draw(st.permutations(range(len(members))))
    index = DocumentIndex([f"doc{i}" for i in ids], pool, members)
    query = draw(vector)
    return query, index, draw(st.integers(1, 10))


class TestBatchedScoringProperties:
    @settings(max_examples=300, deadline=None)
    @given(_archives(), st.randoms(use_true_random=False))
    def test_scores_and_ranking_match_oracle(self, archive, random):
        query, index, top_k = archive
        ids = index.doc_ids.tolist()
        batched = relevance_score(query, index, top_k)
        single = [relevance_score(query, _alone(index, d), top_k)[0] for d in range(len(index))]
        assert batched.tolist() == single
        oracle = {
            doc_id: _brute_relevance(query, index.vectors[rows], top_k)
            for doc_id, rows in zip(ids, index.members)
        }
        assert max(abs(got - oracle[doc_id]) for doc_id, got in zip(ids, single)) < 1e-12

        ranked = _ranked(index, rank_documents(QuerySpec("q", query), index, top_k))
        by_id = dict(zip(ids, single))
        assert ranked == sorted(by_id.items(), key=lambda kv: (-kv[1], kv[0]))
        along = [oracle[doc_id] for doc_id, _ in ranked]
        assert all(a >= b - 1e-12 for a, b in zip(along, along[1:]))

        # documents with the same multiset of words tie exactly
        signature = {
            doc_id: sorted(tuple(v) for v in index.vectors[rows])
            for doc_id, rows in zip(ids, index.members)
        }
        for a in by_id:
            for b in by_id:
                if signature[a] == signature[b]:
                    assert by_id[a] == by_id[b]

        # the same archive with its documents and its rows in another order
        docs, rows = list(range(len(index))), list(range(len(index.vectors)))
        random.shuffle(docs)
        random.shuffle(rows)
        moved_to = np.argsort(rows)
        shuffled = DocumentIndex(index.doc_ids[docs], index.vectors[rows],
                                 [moved_to[index.members[d]] for d in docs])
        assert _ranked(shuffled, rank_documents(QuerySpec("q", query), shuffled, top_k)) == ranked

    @settings(max_examples=200, deadline=None)
    @given(_archives(), st.lists(st.integers(1, 10), max_size=3), st.data())
    def test_sequence_top_k_equals_per_k_calls(self, archive, drawn, data):
        query, index, top_k = archive
        # k = 1, k = 8 above every document's length (at most 7) and a repeat
        ks = (1, *drawn, 8, top_k, top_k)
        assert relevance_score(query, index, ks).tolist() == [
            relevance_score(query, index, k).tolist() for k in ks
        ]
        doc = _alone(index, -1)
        assert relevance_score(query, doc, ks).tolist() == [
            relevance_score(query, doc, k).tolist() for k in ks
        ]
        spec = QuerySpec("q", query)
        assert _ranked(index, rank_documents(spec, index, ks)) == [
            _ranked(index, rank_documents(spec, index, k)) for k in ks
        ]

        ids = sorted(index.doc_ids.tolist())
        queries = [
            QuerySpec(f"q{i}", index.vectors[rows[0]],
                      data.draw(st.sets(st.sampled_from(ids), min_size=1)))
            for i, rows in enumerate(index.members)
        ]
        reports = run_retrieval(index, queries, ks)
        assert reports == {k: run_retrieval(index, queries, k) for k in ks}
        assert list(reports) == list(dict.fromkeys(ks))


    @settings(max_examples=200, deadline=None)
    @given(_archives(), st.data())
    def test_query_batch_equals_one_query_at_a_time(self, archive, data):
        query, index, top_k = archive
        words = list(index.vectors[np.concatenate(index.members)])
        # word vectors as queries tie exactly with their own words; q0 repeats
        picks = data.draw(st.lists(st.sampled_from(words), max_size=4))
        vectors = [query, *picks, query]
        ids = sorted(index.doc_ids.tolist())
        specs = [
            QuerySpec(f"q{i}", v, data.draw(st.sets(st.sampled_from(ids), min_size=1)))
            for i, v in enumerate(vectors)
        ]
        ks = (top_k, 8, 1)  # 8 is above every document's length (at most 7)
        embeddings = np.array(vectors)
        for k in (top_k, ks):
            assert _ranked(index, rank_documents(specs, index, k)) == [
                _ranked(index, rank_documents(s, index, k)) for s in specs
            ]
            per_query = np.array([relevance_score(v, index, k) for v in vectors])
            assert relevance_score(embeddings, index, k).tobytes() == per_query.tobytes()
            doc = _alone(index, 0)
            assert relevance_score(embeddings, doc, k).tolist() == [
                relevance_score(v, doc, k).tolist() for v in vectors
            ]

        reports = run_retrieval(index, specs, ks)
        for k in ks:
            ranked = [index.doc_ids[rank_documents(s, index, k)[0]] for s in specs]
            one_at_a_time = mean_average_precision(
                [s.term for s in specs],
                [_hits(ids, s.relevant) for ids, s in zip(ranked, specs)],
                [len(s.relevant) for s in specs],
            )
            assert reports[k] == one_at_a_time
            assert run_retrieval(index, specs, k) == one_at_a_time

    @settings(max_examples=200, deadline=None)
    @given(_archives(), st.data())
    def test_reports_equal_each_query_and_top_k_alone(self, archive, data):
        """Every field of every report equals the one built from each
        query's own ranking at each top_k and the AP loop; a relevant set
        may be empty or name a document outside the index."""
        query, index, top_k = archive
        ids = index.doc_ids.tolist() + ["not-indexed"]
        vectors = [query, *(index.vectors[rows[0]] for rows in index.members[:3])]
        specs = [QuerySpec(f"q{i}", v, data.draw(st.sets(st.sampled_from(ids))))
                 for i, v in enumerate(vectors)]
        ks = (top_k, 8, 1)
        excluded = tuple(sorted(s.term for s in specs if not s.relevant))
        expected = {}
        for k in ks:
            per_query = {
                s.term: loop_average_precision(
                    index.doc_ids[rank_documents(s, index, k)[0]].tolist(), s.relevant
                )
                for s in specs if s.relevant
            }
            mean = float(np.mean(list(per_query.values()))) if per_query else None
            expected[k] = RetrievalReport(mean, per_query, excluded)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if len(excluded) == len(specs):
                with pytest.raises(EvaluationError, match="no query"):
                    run_retrieval(index, specs, ks)
                return
            reports = run_retrieval(index, specs, ks)
        assert reports == expected
        assert len(caught) == (len(ks) if excluded else 0)  # one per top_k

    def test_one_query_in_a_list_and_no_queries(self):
        index = _index([("x", [np.array([1.0, 0.0])]),
                        ("y", [np.array([0.0, 1.0]), np.array([1.0, 1.0])])])
        spec = QuerySpec("q", np.array([1.0, 0.5]))
        assert _ranked(index, rank_documents([spec], index, 2)) == [
            _ranked(index, rank_documents(spec, index, 2))
        ]
        assert _ranked(index, rank_documents((spec,), index, (1, 2))) == [
            _ranked(index, rank_documents(spec, index, (1, 2)))
        ]
        assert [a.shape for a in rank_documents([], index, 1)] == [(0, 2), (0, 2)]
        assert [a.shape for a in rank_documents([], index, (1, 2, 3))] == [(0, 3, 2)] * 2
        with pytest.raises(DataError, match="differ in length"):
            rank_documents([spec, QuerySpec("r", np.ones(3))], index, 1)
        with pytest.raises(DataError, match="must be 1-D"):
            QuerySpec("q", np.ones((2, 2)))


class TestMapCsv:
    """Byte format of the MAP table: one row per top_k, a column per
    variant, then d minus each other variant."""

    def test_bytes_with_difference_columns(self, tmp_path):
        path = tmp_path / "map.csv"
        table = {"d": {1: 0.75, 5: 0.5}, "a": {1: 0.5, 5: 0.625}, "b": {1: 0.1, 5: 0.2}}
        write_map_csv(path, table, (1, 5))
        assert path.read_bytes() == (
            b"top_k,a,b,d,d-a,d-b\r\n"
            b"1,0.5,0.1,0.75,0.25,0.65\r\n"
            b"5,0.625,0.2,0.5,-0.125,0.3\r\n"
        )

    def test_no_variant_d_means_no_difference_columns(self, tmp_path):
        path = tmp_path / "map.csv"
        write_map_csv(path, {"b": {10: 1 / 3}}, (10,))
        assert path.read_bytes() == b"top_k,b\r\n10,0.3333333333333333\r\n"

    def test_empty_table_writes_the_header_only(self, tmp_path):
        path = tmp_path / "map.csv"
        write_map_csv(path, {}, ())
        assert path.read_bytes() == b"top_k\r\n"
