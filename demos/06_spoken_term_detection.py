"""Spoken term detection over an embedded archive.

Documents are bags of embedded spoken words. Query terms are picked by
TF-IDF over the transcripts, each query is represented by the embedding of
one sampled spoken realization, and documents are ranked by the mean of the
top-k cosine similarities between the query and their words. Mean average
precision summarizes the ranked lists.
"""

import numpy as np

from segembed import (
    Document,
    DocumentIndex,
    QuerySpec,
    build_retrieval_task,
    mean_average_precision,
    rank_documents,
    relevance_score,
    run_retrieval,
    tfidf_select_queries,
)

rng = np.random.default_rng(0)

print("=== TF-IDF query selection ===")
transcripts = [
    ["the", "cat", "sat"], ["the", "cat", "ran", "cat"],
    ["the", "dog", "ran"], ["the", "fox", "hid", "fox", "fox"],
]
for q in (1, 3):
    print(f"top {q} query terms: {tfidf_select_queries(transcripts, q)}")
print("('the' occurs everywhere, so its score is zero and it is never picked)")

print("\n=== relevance scoring ===")
query_vec = np.array([1.0, 0.0])
doc = Document("d0", (
    ("hit", np.array([0.9, 0.1])),
    ("near", np.array([0.7, 0.7])),
    ("far", np.array([-0.2, 1.0])),
))
# a sequence of top_k values is scored from one sort of the similarities
for k, score in zip((1, 2, 3), relevance_score(query_vec, doc, (1, 2, 3))):
    print(f"top-{k} mean cosine: {score:.4f}")

print("\n=== ranking and average precision ===")
index = DocumentIndex((
    doc,
    Document("d1", (("x", np.array([0.0, 1.0])), ("y", np.array([-1.0, 0.2])))),
    Document("d2", (("z", np.array([0.8, -0.3])),)),
))
ranked = rank_documents(QuerySpec("q", query_vec), index, top_k=2)
for doc_id, score in ranked:
    print(f"  {doc_id}: {score:+.4f}")
report = mean_average_precision(
    {"q": [doc_id for doc_id, _ in ranked]}, {"q": {"d0", "d2"}}
)
print(f"average precision with relevant = {{d0, d2}}: {report.map:.4f}")

print("\n=== end-to-end synthetic retrieval task ===")
n_labels, per_label, dim = 8, 12, 6
centers = rng.normal(size=(n_labels, dim)) * 3.0
entries, labels = [], {}
for i in range(n_labels * per_label):
    label = f"unit{i % n_labels}"
    sid = f"s{i:03d}"
    entries.append((sid, centers[i % n_labels] + 0.2 * rng.normal(size=dim)))
    labels[sid] = label
index, queries = build_retrieval_task(entries, labels, n_documents=12,
                                      n_queries=5, seed=4)
print(f"{len(index)} documents, {len(queries)} queries "
      f"({[q.term for q in queries]})")
for k, report in run_retrieval(index, queries, (1, 3, 5)).items():
    print(f"MAP at top_k={k}: {report.map:.4f}")
