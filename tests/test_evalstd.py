"""Spoken term detection: TF-IDF selection, relevance scoring, ranking, MAP."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_acceptance import _brute_relevance

from segembed.errors import DataError, EvaluationError
from segembed.evalcluster import cosine
from segembed.evalstd import (
    Document,
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


def _doc(doc_id, vectors, tokens=None):
    tokens = tokens or [f"w{i}" for i in range(len(vectors))]
    return Document(doc_id, tuple(zip(tokens, vectors)))


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


class TestRelevanceScore:
    def test_identical_singleton(self):
        q = RNG.normal(size=4)
        assert relevance_score(q, _doc("d", [q]), top_k=5) == pytest.approx(1.0)

    def test_hand_example(self):
        q = np.array([1.0, 0.0])
        doc = _doc(
            "d",
            [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
             np.array([math.sqrt(0.5), math.sqrt(0.5)])],
        )
        expected = (1.0 + math.sqrt(0.5)) / 2.0
        assert relevance_score(q, doc, top_k=2) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.8536, abs=1e-4)

    def test_short_document_divides_by_effective_k(self):
        q = np.array([1.0, 0.0])
        doc = _doc("d", [np.array([0.5, 0.5])])
        assert relevance_score(q, doc, top_k=5) == pytest.approx(
            cosine(q, np.array([0.5, 0.5]))
        )

    def test_monotone_in_word_similarity(self):
        q = np.array([1.0, 0.0])
        low = _doc("d", [np.array([0.0, 1.0]), np.array([1.0, 1.0])])
        high = _doc("d", [np.array([1.0, 0.1]), np.array([1.0, 1.0])])
        assert relevance_score(q, high, 2) > relevance_score(q, low, 2)

    def test_rescaling_invariance(self):
        q = RNG.normal(size=3)
        vectors = [RNG.normal(size=3) for _ in range(4)]
        doc = _doc("d", vectors)
        scaled = _doc("d", [7.0 * v for v in vectors])
        assert relevance_score(3.0 * q, scaled, 2) == pytest.approx(
            relevance_score(q, doc, 2), abs=1e-12
        )

    @pytest.mark.parametrize("top_k", [0, [1, 0], [[1, 2]], [], (), 2.0, [1, 2.5]])
    def test_bad_top_k_rejected(self, top_k):
        with pytest.raises(DataError, match="top_k"):
            relevance_score(np.ones(2), _doc("d", [np.ones(2)]), top_k)

    def test_k_beyond_doc_size_is_k_independent(self):
        q = RNG.normal(size=3)
        doc = _doc("d", [RNG.normal(size=3) for _ in range(3)])
        assert relevance_score(q, doc, 3) == relevance_score(q, doc, 10)


class TestRankDocuments:
    def test_single_document(self):
        q = QuerySpec("q", np.array([1.0, 0.0]))
        index = DocumentIndex((_doc("only", [np.array([0.2, 0.9])]),))
        positions, scores = rank_documents(q, index, 1)
        assert index.doc_ids[positions[0]] == "only"
        assert positions.shape == scores.shape == (1,)

    def test_exact_match_ranks_first(self):
        qv = np.array([1.0, 0.0])
        index = DocumentIndex(
            (_doc("hit", [qv]), _doc("miss", [np.array([0.0, 1.0])]))
        )
        positions, _ = rank_documents(QuerySpec("q", qv), index, 1)
        assert index.doc_ids[positions].tolist() == ["hit", "miss"]

    def test_scores_independent_of_document_order(self):
        docs = [
            _doc(f"d{i}", [RNG.normal(size=3) for _ in range(3)]) for i in range(4)
        ]
        q = QuerySpec("q", RNG.normal(size=3))
        a_index, b_index = DocumentIndex(tuple(docs)), DocumentIndex(tuple(reversed(docs)))
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


class TestDocumentTypes:
    def test_empty_document_rejected(self):
        with pytest.raises(DataError):
            Document("d", ())

    def test_mixed_dims_rejected(self):
        with pytest.raises(DataError):
            Document("d", (("a", np.zeros(3)), ("b", np.zeros(4))))

    def test_duplicate_doc_ids_rejected(self):
        doc = _doc("d", [np.zeros(2) + 1])
        with pytest.raises(DataError):
            DocumentIndex((doc, doc))


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

    def test_deterministic(self):
        ids, vectors, labels = self._entries()
        a_index, a_queries = build_retrieval_task(ids, vectors, labels, 5, 3, seed=4)
        b_index, b_queries = build_retrieval_task(ids, vectors, labels, 5, 3, seed=4)
        assert [d.transcript for d in a_index.documents] == [
            d.transcript for d in b_index.documents
        ]
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
    """(query, index, top_k) with shared word vectors across documents,
    documents that repeat another's words in a new order, and doc ids whose
    sorted order differs from index order."""
    dim = draw(st.integers(2, 4))
    vector = st.lists(_components, min_size=dim, max_size=dim).map(np.array).filter(
        lambda v: np.linalg.norm(v) > 1e-3
    )
    pool = draw(st.lists(vector, min_size=1, max_size=6))
    picks = st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=7)
    word_lists = draw(st.lists(picks, min_size=1, max_size=6))
    for i in range(len(word_lists)):
        if i and draw(st.booleans()):
            source = word_lists[draw(st.integers(0, i - 1))]
            word_lists[i] = draw(st.permutations(source))
    ids = draw(st.permutations(range(len(word_lists))))
    docs = [
        _doc(f"doc{ids[d]}", [pool[p] for p in picks])
        for d, picks in enumerate(word_lists)
    ]
    query = draw(vector)
    return query, DocumentIndex(tuple(docs)), draw(st.integers(1, 10))


class TestBatchedScoringProperties:
    @settings(max_examples=300, deadline=None)
    @given(_archives(), st.randoms(use_true_random=False))
    def test_scores_and_ranking_match_oracle(self, archive, random):
        query, index, top_k = archive
        batched = relevance_score(query, index, top_k)
        single = [relevance_score(query, doc, top_k) for doc in index.documents]
        assert batched.tolist() == single
        oracle = {
            doc.doc_id: _brute_relevance(query, [v for _, v in doc.words], top_k)
            for doc in index.documents
        }
        assert max(abs(got - oracle[doc.doc_id])
                   for doc, got in zip(index.documents, single)) < 1e-12

        ranked = _ranked(index, rank_documents(QuerySpec("q", query), index, top_k))
        by_id = {doc.doc_id: score for doc, score in zip(index.documents, single)}
        assert ranked == sorted(by_id.items(), key=lambda kv: (-kv[1], kv[0]))
        along = [oracle[doc_id] for doc_id, _ in ranked]
        assert all(a >= b - 1e-12 for a, b in zip(along, along[1:]))

        # documents with the same multiset of words tie exactly
        signature = {
            doc.doc_id: sorted(tuple(v) for _, v in doc.words) for doc in index.documents
        }
        for a in by_id:
            for b in by_id:
                if signature[a] == signature[b]:
                    assert by_id[a] == by_id[b]

        shuffled = list(index.documents)
        random.shuffle(shuffled)
        shuffled = DocumentIndex(tuple(shuffled))
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
        doc = index.documents[-1]
        assert relevance_score(query, doc, ks).tolist() == [
            relevance_score(query, doc, k) for k in ks
        ]
        spec = QuerySpec("q", query)
        assert _ranked(index, rank_documents(spec, index, ks)) == [
            _ranked(index, rank_documents(spec, index, k)) for k in ks
        ]

        ids = sorted(d.doc_id for d in index.documents)
        queries = [
            QuerySpec(f"q{i}", d.words[0][1],
                      data.draw(st.sets(st.sampled_from(ids), min_size=1)))
            for i, d in enumerate(index.documents)
        ]
        reports = run_retrieval(index, queries, ks)
        assert reports == {k: run_retrieval(index, queries, k) for k in ks}
        assert list(reports) == list(dict.fromkeys(ks))


    @settings(max_examples=200, deadline=None)
    @given(_archives(), st.data())
    def test_query_batch_equals_one_query_at_a_time(self, archive, data):
        query, index, top_k = archive
        words = [v for d in index.documents for _, v in d.words]
        # word vectors as queries tie exactly with their own words; q0 repeats
        picks = data.draw(st.lists(st.sampled_from(words), max_size=4))
        vectors = [query, *picks, query]
        ids = sorted(d.doc_id for d in index.documents)
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
            doc = index.documents[0]
            assert relevance_score(embeddings, doc, k).tolist() == [
                np.asarray(relevance_score(v, doc, k)).tolist() for v in vectors
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
        ids = [d.doc_id for d in index.documents] + ["not-indexed"]
        vectors = [query, *(d.words[0][1] for d in index.documents[:3])]
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
        index = DocumentIndex((_doc("x", [np.array([1.0, 0.0])]),
                               _doc("y", [np.array([0.0, 1.0]), np.array([1.0, 1.0])])))
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
