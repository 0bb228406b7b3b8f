"""Positive/negative pair mining inside a mini-batch, two ways.

The k-NN graph miner links each point to its k nearest neighbors (all other
pairs are negatives). The unbalanced-data variant instead takes the k
globally shortest pairs of the fully-connected batch graph as positives and
draws k random negatives. Mining per batch keeps the total distance count
for one epoch at O(M * batch), not O(M^2).
"""

import numpy as np

from segembed import (
    DistanceCounter,
    SynthConfig,
    knn_graph_pairs,
    make_batches,
    pairwise_distances,
    synth_corpus,
    topk_global_pairs,
)

print("=== toy batch: two tight clumps and one outlier ===")
points = np.array([
    [0.0, 0.0], [0.3, 0.1], [0.1, 0.4],      # clump A
    [5.0, 5.0], [5.2, 4.9], [5.1, 5.3],      # clump B
    [10.0, 0.0],                              # outlier
])
dist = pairwise_distances(points)
print("distance matrix (rounded):")
print(np.round(dist, 2))

knn = knn_graph_pairs(points, k=2)
print(f"\nk-NN graph (k=2): {len(knn.positives)} positives, "
      f"{len(knn.negatives)} negatives")
print(f"positives: {knn.positives.tolist()}")
print("note: the outlier is forced to link into a clump -> false positives")

topk = topk_global_pairs(points, k=4, seed=0)
print(f"\ntop-k shortest pairs (k=4): positives {topk.positives.tolist()}")
print(f"seeded random negatives:     {topk.negatives.tolist()}")
print("note: the outlier no longer has to be anyone's positive")

print("\n=== per-batch mining keeps the distance budget linear in M ===")
corpus = synth_corpus(
    SynthConfig(n_units=8, n_speakers=4, instances_per_unit_speaker=8,
                feature_dim=6),
    seed=0,
)
batch_size = 16
counter = DistanceCounter()
for i, batch in enumerate(make_batches(corpus, batch_size, seed=1)):
    vectors = np.stack([corpus[j].features.mean(axis=0) for j in batch])
    topk_global_pairs(vectors, k=6, seed=i, counter=counter)
m = len(corpus)
print(f"M = {m}, batch = {batch_size}")
print(f"distance evaluations in one epoch: {counter.count}")
print(f"bound M * batch = {m * batch_size}, full-graph cost would be "
      f"M(M-1)/2 = {m * (m - 1) // 2}")
