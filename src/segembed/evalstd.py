"""Spoken term detection over embedded archives.

Documents are bags of embedded spoken words. Queries are selected by
TF-IDF over the transcripts, each query is represented by the embedding of
one sampled spoken realization, documents are ranked by the mean of the
top-k cosine similarities between the query and the document's words, and
retrieval quality is summarized as mean average precision.

All queries are ranked in one pass, for all top_k. A ``DocumentIndex``
stacks every word vector into one matrix, computes its row norms once and
keeps each document's word slots as a padded index array, so the queries
are scored against the whole archive with one ``cosine`` call, one sort
along the padded axis and one sequential cumulative sum, which is read at
each document's effective k for every requested top_k. One ``np.lexsort``
then ranks the documents for every query at every top_k.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .corpus import embedding_matrix, write_csv
from .errors import DataError, EvaluationError
from .evalcluster import _row_norms, cosine
from .seeding import rng_for

__all__ = [
    "Document", "DocumentIndex", "QuerySpec", "build_retrieval_task",
    "mean_average_precision", "rank_documents", "relevance_score", "run_retrieval",
    "tfidf_select_queries",
]


@dataclass(frozen=True)
class Document:
    """One spoken document: embedded word tokens, and their transcript."""

    doc_id: str
    words: tuple  # of (token, vector)
    transcript: tuple = field(init=False)  # derived: the words' tokens, in order

    def __post_init__(self):
        if not self.words:
            raise DataError(f"document {self.doc_id!r} has no words")
        words = tuple((str(t), np.asarray(v, dtype=np.float64)) for t, v in self.words)
        dims = {v.shape for _, v in words}
        if len(dims) != 1 or any(len(s) != 1 for s in dims):
            raise DataError(f"document {self.doc_id!r}: inconsistent embedding dims")
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "transcript", tuple(t for t, _ in words))


@dataclass(frozen=True)
class DocumentIndex:
    """Immutable archive of spoken documents sharing one embedding dim.

    Construction also builds the scoring arrays: ``matrix`` stacks every
    word vector in document order, row ``r`` of ``slots`` lists document
    ``r``'s rows of ``matrix`` padded with ``len(matrix)``, ``norms``
    holds the row norms of ``matrix``, ``lengths`` the word counts,
    ``doc_ids`` the document ids in index order and ``id_ranks`` each doc
    id's rank in sorted order, the tie-break of ``rank_documents``.
    """

    documents: tuple
    doc_ids: np.ndarray = field(init=False, repr=False, compare=False)
    matrix: np.ndarray = field(init=False, repr=False, compare=False)
    norms: np.ndarray = field(init=False, repr=False, compare=False)
    slots: np.ndarray = field(init=False, repr=False, compare=False)
    lengths: np.ndarray = field(init=False, repr=False, compare=False)
    id_ranks: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        docs = tuple(self.documents)
        if not docs:
            raise DataError("document index is empty")
        ids = [d.doc_id for d in docs]
        if len(set(ids)) != len(ids):
            raise DataError("duplicate document ids")
        dims = {d.words[0][1].shape[0] for d in docs}
        if len(dims) != 1:
            raise DataError(f"mixed embedding dimensions across documents: {dims}")
        object.__setattr__(self, "documents", docs)
        matrix = np.array([v for d in docs for _, v in d.words])
        lengths = np.array([len(d.words) for d in docs])
        starts = np.cumsum(lengths) - lengths
        cols = np.arange(lengths.max())
        slots = np.where(cols < lengths[:, None], starts[:, None] + cols, len(matrix))
        id_ranks = np.empty(len(docs), dtype=np.intp)
        id_ranks[sorted(range(len(docs)), key=ids.__getitem__)] = np.arange(len(docs))
        doc_ids = np.array(ids, dtype=object)
        for name, value in (("doc_ids", doc_ids), ("matrix", matrix),
                            ("norms", _row_norms(matrix)), ("slots", slots),
                            ("lengths", lengths), ("id_ranks", id_ranks)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __len__(self):
        return len(self.documents)


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
    if n_queries < 1 or n_queries > len(max_tf):
        raise DataError(
            f"n_queries must be in [1, {len(max_tf)}], got {n_queries}"
        )
    scored = [
        (tok, max_tf[tok] * math.log(n_docs / df[tok])) for tok in max_tf
    ]
    scored.sort(key=lambda kv: (-kv[1], kv[0]))
    return [tok for tok, _ in scored[:n_queries]]


def relevance_score(query_embedding, document, top_k):
    """Mean of the top min(k, |d|) cosine similarities between the query
    embedding and a document's word embeddings.

    ``document`` is a ``Document``, scored as a float, or a
    ``DocumentIndex``, scored as one float64 per document in index order.
    ``top_k`` is an int or a sequence of ints; a sequence adds a leading
    axis with one score (or row of scores) per value, all read from the
    same sort and cumulative sum. A (Q, d) matrix of query embeddings adds
    a leading query axis in front of that, each query's scores bit-equal
    to its own call's. The top similarities are summed in descending
    order, left to right.
    """
    ks = np.asarray(top_k)
    if ks.ndim > 1 or ks.dtype.kind not in "iu" or np.any(ks < 1):  # [] is float
        raise DataError(
            f"top_k must be an int >= 1 or a non-empty sequence of them, got {top_k!r}"
        )
    index = DocumentIndex((document,)) if isinstance(document, Document) else document
    if not isinstance(index, DocumentIndex):
        raise DataError(f"expected a Document or DocumentIndex, got {type(index).__name__}")
    sims = cosine(index.matrix, query_embedding, norms=index.norms)
    padding = np.full(sims.shape[:-1] + (1,), -np.inf)
    sims = np.concatenate([sims, padding], axis=-1)[..., index.slots]
    sims.sort(axis=-1)
    cumulative = np.cumsum(sims[..., ::-1], axis=-1)
    k_eff = np.minimum(ks[..., None], index.lengths)
    scores = cumulative[..., np.arange(len(index)), k_eff - 1] / k_eff
    if index is document:
        return scores
    scores = scores[..., 0]
    return float(scores) if scores.ndim == 0 else scores


def rank_documents(query, index: DocumentIndex, top_k):
    """All documents as (doc_id, score) sorted by descending relevance
    score (ties by id); with a sequence ``top_k``, one such list per value.

    ``query`` is a ``QuerySpec``, or a sequence of them: then the result
    holds one entry per query, equal to that query's own result, and all
    queries are scored and sorted together.
    """
    single = isinstance(query, QuerySpec)
    specs = [query] if single else list(query)
    if not specs:
        return []
    dims = {len(q.embedding) for q in specs}
    if len(dims) != 1:
        raise DataError(f"query embeddings differ in length: {sorted(dims)}")
    embeddings = query.embedding if single else np.array([q.embedding for q in specs])
    scores = relevance_score(embeddings, index, top_k)
    ties = np.broadcast_to(index.id_ranks, scores.shape)
    order = np.lexsort((ties, -scores), axis=-1)
    flat_scores = scores.reshape(-1, len(index))
    rows = [
        list(zip(index.doc_ids[o].tolist(), row[o].tolist()))
        for o, row in zip(order.reshape(flat_scores.shape), flat_scores)
    ]
    if np.ndim(top_k):  # regroup the rows of each query's top_k values
        n_k = scores.shape[-2]
        rows = [rows[r:r + n_k] for r in range(0, len(rows), n_k)]
    return rows[0] if single else rows


def average_precision(ranked_ids, relevant) -> float:
    """AP of one ranked list: mean over relevant documents of the precision
    at each relevant document's rank."""
    relevant = set(relevant)
    if not relevant:
        raise EvaluationError("average precision needs a non-empty relevant set")
    hits = 0
    total = 0.0
    for rank, doc_id in enumerate(ranked_ids, start=1):
        if doc_id in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


@dataclass(frozen=True)
class RetrievalReport:
    """MAP plus per-query detail; queries without relevant documents are
    excluded from the mean and listed here."""

    map: float
    per_query: dict
    excluded: tuple


def mean_average_precision(rankings, relevant_sets) -> RetrievalReport:
    """MAP over queries.

    ``rankings`` maps query term -> ranked document ids; ``relevant_sets``
    maps query term -> relevant document ids. Queries with an empty
    relevant set are excluded with a warning and reported.
    """
    per_query = {}
    excluded = []
    for term, ranked in rankings.items():
        rel = set(relevant_sets.get(term, ()))
        if not rel:
            excluded.append(term)
            continue
        per_query[term] = average_precision(ranked, rel)
    if excluded:
        warnings.warn(
            f"{len(excluded)} queries with no relevant documents excluded from MAP"
        )
    if not per_query:
        raise EvaluationError("no query has a non-empty relevant set")
    return RetrievalReport(
        map=float(np.mean(list(per_query.values()))),
        per_query=per_query,
        excluded=tuple(sorted(excluded)),
    )


# -- synthetic retrieval task ----------------------------------------------


def build_retrieval_task(ids, vectors, labels_by_id, n_documents: int,
                         n_queries: int, seed: int):
    """Partition embedded segments into documents and select queries.

    ``ids`` and ``vectors`` are an embedding table (``load_embeddings``):
    the segment ids and the rows of an (N, d) matrix; ``labels_by_id`` maps
    segment_id -> unit label. Segments are shuffled (seeded) into
    ``n_documents`` near-equal documents whose transcripts are the member
    labels. Queries are the top TF-IDF terms; each query's embedding is one
    seeded sampled realization of that term. Returns (DocumentIndex,
    [QuerySpec, ...]).
    """
    vectors = embedding_matrix(ids, vectors)
    if n_documents < 2 or n_documents > len(ids):
        raise DataError("need 2 <= n_documents <= number of segments")
    labels = [labels_by_id[sid] for sid in ids]
    order = rng_for(seed, "retrieval:partition").permutation(len(ids))
    documents = []
    for d, bucket in enumerate(np.array_split(order, n_documents)):
        words = [labels[i] for i in bucket]
        if None in words:
            raise DataError(f"segment {ids[bucket[words.index(None)]]!r} has no unit label")
        documents.append(Document(doc_id=f"doc-{d:04d}", words=tuple(zip(words, vectors[bucket]))))
    index = DocumentIndex(tuple(documents))

    terms = tfidf_select_queries([d.transcript for d in index.documents], n_queries)
    rows_by_label = {}
    for r, label in enumerate(labels):
        rows_by_label.setdefault(label, []).append(r)
    query_rng = rng_for(seed, "retrieval:queries")
    queries = []
    for term in terms:
        pool = rows_by_label[term]
        embedding = vectors[pool[int(query_rng.integers(len(pool)))]]
        relevant = frozenset(
            d.doc_id for d in index.documents if term in d.transcript
        )
        queries.append(QuerySpec(term=term, embedding=embedding, relevant=relevant))
    return index, queries


def run_retrieval(index: DocumentIndex, queries, top_k):
    """Rank every document for every query and compute MAP at top_k.

    An int ``top_k`` gives one ``RetrievalReport``; a sequence gives
    ``{k: RetrievalReport}``. All queries are ranked in one
    ``rank_documents`` call, once for all values.
    """
    ks = list(top_k) if np.ndim(top_k) else [top_k]
    queries = list(queries)
    ranked = dict(zip([q.term for q in queries], rank_documents(queries, index, ks)))
    relevant = {q.term: q.relevant for q in queries}
    reports = {
        k: mean_average_precision(
            {term: [doc_id for doc_id, _ in lists[i]] for term, lists in ranked.items()},
            relevant,
        )
        for i, k in enumerate(ks)
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
