"""Spoken term detection over embedded archives.

Documents are bags of embedded spoken words. Queries are selected by
TF-IDF over the transcripts, each query is represented by the embedding of
one sampled spoken realization, documents are ranked by the mean of the
top-k cosine similarities between the query and the document's words, and
retrieval quality is summarized as mean average precision.

All queries are ranked in one pass, for all top_k, and on index arrays. A
``DocumentIndex`` is a table of word vectors (in ``build_retrieval_task``
the embedding table itself), its row norms computed once, and each
document's member rows as a padded index array, so the queries are scored
against the whole archive with one ``cosine`` call, one sort along the
padded axis and one sequential cumulative sum, which is read at each
document's effective k for every requested top_k. One ``np.lexsort``
then ranks the documents for every query at every top_k as index
positions. ``run_retrieval`` reads those positions against one (queries,
documents) boolean relevance matrix, and average precision is one
``np.cumsum`` of the hits and one sequential ``np.add.accumulate`` of the
precisions at the relevant ranks.
"""

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .corpus import embedding_matrix, write_csv
from .errors import DataError, EvaluationError, NumericError
from .evalcluster import _row_norms, cosine
from .seeding import rng_for

__all__ = [
    "DocumentIndex", "QuerySpec", "build_retrieval_task",
    "mean_average_precision", "rank_documents", "relevance_score", "run_retrieval",
    "tfidf_select_queries",
]


@dataclass(frozen=True, eq=False)
class DocumentIndex:
    """Immutable archive of spoken documents over one table of word vectors.

    ``doc_ids`` names the documents in index order. ``vectors`` is an
    (N, d) matrix of word vectors, copied once as read-only float64, and
    ``members`` holds one non-empty 1-D integer array of row indices per
    document, in word order; documents may share rows. Construction also
    builds the scoring arrays: row ``r`` of ``slots`` lists document
    ``r``'s rows padded with ``N``, ``norms`` holds the row norms of
    ``vectors``, ``lengths`` the word counts and ``id_ranks`` each doc id's
    rank in sorted order, the tie-break of ``rank_documents``.
    """

    doc_ids: np.ndarray
    vectors: np.ndarray
    members: tuple
    norms: np.ndarray = field(init=False, repr=False)
    slots: np.ndarray = field(init=False, repr=False)
    lengths: np.ndarray = field(init=False, repr=False)
    id_ranks: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ids, members = list(self.doc_ids), tuple(np.array(m) for m in self.members)
        if not ids:
            raise DataError("document index is empty")
        if len(members) != len(ids):
            raise DataError(f"need one member array per document: {len(ids)} ids, "
                            f"{len(members)} member arrays")
        if len(set(ids)) != len(ids):
            raise DataError("duplicate document ids")
        try:  # a copy, so that the caller's array stays writable and the index immutable
            vectors = np.array(self.vectors, dtype=np.float64)
            if vectors.ndim != 2 or not vectors.shape[1]:
                raise ValueError(f"got shape {vectors.shape}")
        except (TypeError, ValueError) as exc:  # also ragged rows, or not numbers
            raise DataError(f"word vectors must be an (N, d) matrix, d >= 1: {exc}") from exc
        finite = np.isfinite(vectors).all(axis=1)
        if not finite.all():
            raise NumericError(f"document index: word vector {int(np.argmin(finite))} "
                               "has a non-finite entry")
        for doc_id, rows in zip(ids, members):
            if (rows.ndim != 1 or not rows.size or rows.dtype.kind not in "iu"
                    or rows.min() < 0 or rows.max() >= len(vectors)):
                raise DataError(f"document {doc_id!r}: members must be a non-empty 1-D "
                                f"array of row indices in [0, {len(vectors)})")
            rows.flags.writeable = False
        lengths = np.array([len(rows) for rows in members])
        slots = np.full((len(ids), lengths.max()), len(vectors))
        for row, rows in zip(slots, members):
            row[:len(rows)] = rows
        id_ranks = np.empty(len(ids), dtype=np.intp)
        id_ranks[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
        for name, value in (("doc_ids", np.array(ids, dtype=object)), ("vectors", vectors),
                            ("norms", _row_norms(vectors)), ("slots", slots),
                            ("lengths", lengths), ("id_ranks", id_ranks)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "members", members)

    def __len__(self):
        return len(self.doc_ids)


@dataclass(frozen=True)
class QuerySpec:
    """A query term, its embedding, and its relevant documents."""

    term: str
    embedding: np.ndarray
    relevant: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        embedding = np.asarray(self.embedding, dtype=np.float64)
        if embedding.ndim != 1:
            raise DataError(f"query {self.term!r}: embedding must be 1-D")
        if not np.isfinite(embedding).all():
            raise NumericError(f"query {self.term!r}: non-finite embedding entry")
        object.__setattr__(self, "embedding", embedding)
        object.__setattr__(self, "relevant", frozenset(self.relevant))


def tfidf_select_queries(transcripts, n_queries: int):
    """Top-scoring terms by max-over-documents tf(t, d) * ln(N / df(t)).

    ``transcripts`` is one token sequence per document. Ties are broken
    lexicographically; a term occurring in every document scores zero.
    """
    transcripts = [list(tokens) for tokens in transcripts]
    if not transcripts or all(not t for t in transcripts):
        raise DataError("empty transcripts")
    n_docs = len(transcripts)
    max_tf = {}
    df = {}
    for tokens in transcripts:
        counts = {}
        for tok in tokens:
            counts[tok] = counts.get(tok, 0) + 1
        for tok, c in counts.items():
            max_tf[tok] = max(max_tf.get(tok, 0), c)
            df[tok] = df.get(tok, 0) + 1
    if not isinstance(n_queries, numbers.Integral) or not 1 <= n_queries <= len(max_tf):
        raise DataError(f"n_queries must be an integer in [1, {len(max_tf)}], "
                        f"got {n_queries!r}")
    scored = [
        (tok, max_tf[tok] * math.log(n_docs / df[tok])) for tok in max_tf
    ]
    scored.sort(key=lambda kv: (-kv[1], kv[0]))
    return [tok for tok, _ in scored[:n_queries]]


def relevance_score(query_embedding, index, top_k):
    """Mean of the top min(k, |d|) cosine similarities between the query
    embedding and a document's word embeddings, for every document of the
    ``DocumentIndex`` ``index``: one float64 per document in index order.

    ``top_k`` is an int or a sequence of ints; a sequence adds a leading
    axis with one row of scores per value, all read from the same sort and
    cumulative sum. A (Q, d) matrix of query embeddings adds a leading
    query axis in front of that, each query's scores bit-equal to its own
    call's. The top similarities are summed in descending order, left to
    right.
    """
    ks = np.asarray(top_k)
    if ks.ndim > 1 or ks.dtype.kind not in "iu" or np.any(ks < 1):  # [] is float
        raise DataError(
            f"top_k must be an int >= 1 or a non-empty sequence of them, got {top_k!r}"
        )
    if not isinstance(index, DocumentIndex):
        raise DataError(f"expected a DocumentIndex, got {type(index).__name__}")
    sims = cosine(index.vectors, query_embedding, norms=index.norms)
    padding = np.full(sims.shape[:-1] + (1,), -np.inf)
    sims = np.concatenate([sims, padding], axis=-1)[..., index.slots]
    sims.sort(axis=-1)
    cumulative = np.cumsum(sims[..., ::-1], axis=-1)
    k_eff = np.minimum(ks[..., None], index.lengths)
    return cumulative[..., np.arange(len(index)), k_eff - 1] / k_eff


def rank_documents(query, index: DocumentIndex, top_k):
    """Index positions and scores of all documents, sorted by descending
    relevance score (ties by doc id), as two arrays ``(positions, scores)``.

    ``query`` is a ``QuerySpec``, or a sequence of them, which adds a
    leading query axis whose row q equals query q's own result. A sequence
    ``top_k`` adds an axis of one ranking per value after it, as in
    ``relevance_score``. The ranked ids are ``index.doc_ids[positions]``.
    """
    single = isinstance(query, QuerySpec)
    specs = [query] if single else list(query)
    dims = {len(q.embedding) for q in specs} or {index.vectors.shape[1]}
    if len(dims) != 1:
        raise DataError(f"query embeddings differ in length: {sorted(dims)}")
    embeddings = np.array([q.embedding for q in specs]).reshape(len(specs), *dims)
    scores = relevance_score(embeddings[0] if single else embeddings, index, top_k)
    ties = np.broadcast_to(index.id_ranks, scores.shape)
    positions = np.lexsort((ties, -scores), axis=-1)
    return positions, np.take_along_axis(scores, positions, axis=-1)


def average_precision(hits, n_relevant):
    """AP along the last axis of ``hits``, which says whether the document
    at each rank is relevant, with ``n_relevant`` relevant documents per
    ranking: the mean over relevant documents of the precision at each
    one's rank, a relevant document missing from the ranking counting 0.

    The precisions are summed left to right, as a loop over the ranks would
    (not pairwise), so each AP is bit-equal to that loop's. Padding a
    ranking with ``False`` leaves its AP unchanged.
    """
    hits = np.asarray(hits, dtype=bool)
    n_relevant = np.asarray(n_relevant)
    if np.any(n_relevant < 1):
        raise EvaluationError("average precision needs a non-empty relevant set")
    precision = np.where(hits, np.cumsum(hits, axis=-1) / np.arange(1, hits.shape[-1] + 1), 0.0)
    start = np.zeros(hits.shape[:-1] + (1,))  # the loop's 0.0, and an empty ranking's total
    totals = np.add.accumulate(np.concatenate([start, precision], axis=-1), axis=-1)
    return totals[..., -1] / n_relevant


@dataclass(frozen=True)
class RetrievalReport:
    """MAP plus per-query detail; queries without relevant documents are
    excluded from the mean and listed here."""

    map: float
    per_query: dict
    excluded: tuple


def mean_average_precision(terms, hits, n_relevant) -> RetrievalReport:
    """MAP over queries.

    Row q of the (Q, R) boolean ``hits`` says whether the document at each
    rank of query ``terms[q]``'s ranking is relevant, and ``n_relevant[q]``
    is its number of relevant documents, an integer no smaller than the
    row's hits (else a DataError). Queries with none are excluded with a
    warning and reported; a repeated term keeps its last row.
    """
    terms = list(terms)
    hits = np.asarray(hits, dtype=bool)
    n_relevant = np.asarray(n_relevant)
    if hits.ndim != 2 or len(hits) != len(terms) or n_relevant.shape != (len(terms),):
        raise DataError(
            f"need one hits row and relevant count per term: {len(terms)} terms, "
            f"hits {hits.shape}, n_relevant {n_relevant.shape}"
        )
    if n_relevant.size and n_relevant.dtype.kind not in "iu":
        raise DataError(f"relevant counts must be integers, got {n_relevant.tolist()}")
    over = hits.sum(axis=1) > n_relevant
    if over.any():
        q = int(over.argmax())
        raise DataError(f"query {terms[q]!r}: {hits[q].sum()} hits but {n_relevant[q]} relevant")
    ap = average_precision(hits, np.where(n_relevant == 0, 1, n_relevant))
    rows = dict(zip(terms, zip(n_relevant.tolist(), ap.tolist())))
    per_query = {term: value for term, (n, value) in rows.items() if n}
    excluded = tuple(sorted(term for term, (n, _) in rows.items() if not n))
    if excluded:
        warnings.warn(
            f"{len(excluded)} queries with no relevant documents excluded from MAP"
        )
    if not per_query:
        raise EvaluationError("no query has a non-empty relevant set")
    return RetrievalReport(
        map=float(np.mean(list(per_query.values()))),
        per_query=per_query,
        excluded=excluded,
    )


# -- synthetic retrieval task ----------------------------------------------


def build_retrieval_task(ids, vectors, labels_by_id, n_documents: int,
                         n_queries: int, seed: int):
    """Partition embedded segments into documents and select queries.

    ``ids`` and ``vectors`` are an embedding table (``load_embeddings``):
    the segment ids and the rows of an (N, d) matrix; ``labels_by_id`` maps
    segment_id -> unit label, and a segment without one is a DataError.
    Segments are shuffled (seeded) into ``n_documents`` near-equal documents
    whose transcripts are the member labels. Queries are the top TF-IDF
    terms; each query's embedding is one seeded sampled realization of that
    term. Returns (DocumentIndex, [QuerySpec, ...]); the index's word
    vectors are the table's rows and each document's members are its
    bucket of the seeded permutation.
    """
    vectors = embedding_matrix(ids, vectors)
    if not isinstance(n_documents, numbers.Integral) or not 2 <= n_documents <= len(ids):
        raise DataError(f"n_documents must be an integer in [2, {len(ids)}], "
                        f"got {n_documents!r}")
    labels = [labels_by_id.get(sid) for sid in ids]
    order = rng_for(seed, "retrieval:partition").permutation(len(ids))
    buckets = np.array_split(order, n_documents)
    doc_ids = [f"doc-{d:04d}" for d in range(n_documents)]
    transcripts = []
    docs_by_label = {}
    for doc_id, bucket in zip(doc_ids, buckets):
        words = [labels[i] for i in bucket]
        if None in words:
            raise DataError(f"segment {ids[bucket[words.index(None)]]!r} has no unit label")
        for label in set(words):
            docs_by_label.setdefault(label, []).append(doc_id)
        transcripts.append(words)
    index = DocumentIndex(doc_ids, vectors, buckets)

    terms = tfidf_select_queries(transcripts, n_queries)
    rows_by_label = {}
    for r, label in enumerate(labels):
        rows_by_label.setdefault(label, []).append(r)
    query_rng = rng_for(seed, "retrieval:queries")
    queries = []
    for term in terms:
        pool = rows_by_label[term]
        embedding = vectors[pool[int(query_rng.integers(len(pool)))]]
        queries.append(QuerySpec(term, embedding, frozenset(docs_by_label[term])))
    return index, queries


def run_retrieval(index: DocumentIndex, queries, top_k):
    """Rank every document for every query and compute MAP at top_k.

    An int ``top_k`` gives one ``RetrievalReport``; a sequence gives
    ``{k: RetrievalReport}``. All queries are ranked in one
    ``rank_documents`` call, once for all values, and each ranking is
    read against one (Q, D) relevance matrix by index position.
    """
    ks = list(top_k) if np.ndim(top_k) else [top_k]
    queries = list(queries)
    positions, _ = rank_documents(queries, index, ks)
    position_of = dict(zip(index.doc_ids.tolist(), range(len(index))))
    relevant = np.zeros((len(queries), len(index)), dtype=bool)
    for row, q in zip(relevant, queries):
        row[[position_of[d] for d in q.relevant if d in position_of]] = True
    hits = np.take_along_axis(relevant[:, None], positions, axis=-1)
    terms = [q.term for q in queries]
    n_relevant = [len(q.relevant) for q in queries]
    reports = {
        k: mean_average_precision(terms, hits[:, i], n_relevant) for i, k in enumerate(ks)
    }
    return reports if np.ndim(top_k) else reports[ks[0]]


def write_map_csv(path, table, top_k_values) -> None:
    """``table`` maps variant -> {top_k: MAP}. Emits one row per top_k with
    a column per variant plus difference columns of variant d against every
    other variant present."""
    variants = sorted(table)
    diff_targets = [v for v in variants if v != "d"] if "d" in variants else []
    write_csv(
        path,
        ["top_k"] + variants + [f"d-{v}" for v in diff_targets],
        (
            [k] + [table[v][k] for v in variants]
            + [table["d"][k] - table[v][k] for v in diff_targets]
            for k in top_k_values
        ),
    )
