"""Synthetic corpus generation, file round-trips, and mini-batching.

The generator builds labeled variable-length segments: each unit has a
prototype frame sequence, each speaker applies a fixed affine channel
transform, and instances add time-resampling plus noise. Everything is a
pure function of (config, seed).
"""

import tempfile
from pathlib import Path

import numpy as np

from segembed import SynthConfig, load_corpus, make_batches, save_corpus, synth_corpus

print("=== generating a small corpus ===")
cfg = SynthConfig(
    n_units=5, n_speakers=3, instances_per_unit_speaker=4,
    length_range=(6, 12), feature_dim=8,
    speaker_shift_scale=0.5, noise_scale=0.05,
)
corpus = synth_corpus(cfg, seed=0)
print(f"segments: {len(corpus)} (= {cfg.n_units} units x {cfg.n_speakers} "
      f"speakers x {cfg.instances_per_unit_speaker} instances)")
print(f"feature dim: {corpus.feature_dim}, level: {corpus.level}")

seg = corpus[0]
print(f"\nfirst segment: id={seg.segment_id} unit={seg.unit_label} "
      f"speaker={seg.speaker_id} utterance={seg.utterance_id} "
      f"frames={seg.features.shape}")

print("\n=== determinism ===")
again = synth_corpus(cfg, seed=0)
identical = all(
    np.array_equal(a.features, b.features)
    for a, b in zip(corpus.segments, again.segments)
)
print(f"same seed twice -> identical corpora: {identical}")

print("\n=== speaker transform is the only difference between speakers ===")
quiet = SynthConfig(
    n_units=2, n_speakers=2, instances_per_unit_speaker=2,
    length_range=(7, 7), feature_dim=8,
    speaker_shift_scale=0.5, noise_scale=0.0,
)
clean = synth_corpus(quiet, seed=1)
by_key = {}
for s in clean.segments:
    by_key.setdefault((s.unit_label, s.speaker_id), []).append(s.features)
same_speaker = np.array_equal(*by_key[("u000", "spk000")][:2])
cross_speaker = np.array_equal(
    by_key[("u000", "spk000")][0], by_key[("u000", "spk001")][0]
)
print(f"same unit + same speaker at equal length identical: {same_speaker}")
print(f"same unit across speakers identical: {cross_speaker} (expected False)")

print("\n=== JSONL round-trip ===")
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "corpus.jsonl"
    save_corpus(path, corpus)
    loaded = load_corpus(path)
    lossless = all(
        np.array_equal(a.features, b.features)
        for a, b in zip(corpus.segments, loaded.segments)
    )
    print(f"wrote {len(loaded)} records; bit-exact reload: {lossless}")

print("\n=== mini-batches ===")
batches = make_batches(corpus, batch_size=16, seed=3, drop_last=False)
# each batch is a read-only index array, a slice of one seeded permutation
print(f"batch sizes (keep last): {[len(b) for b in batches]}")
covered = sorted(np.concatenate(batches).tolist())
print(f"every index covered exactly once: {covered == list(range(len(corpus)))}")
