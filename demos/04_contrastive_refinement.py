"""The four embedding variants and the effect of contrastive refinement.

(a) plain autoencoder, (b) autoencoder with speaker disentanglement,
(c) disentanglement trained jointly with the mined-pair contrastive loss,
(d) a residual transform trained post-hoc on frozen (b) embeddings with the
contrastive loss over mined pairs. The intra/inter cosine gap shows how
compactly same-unit segments cluster.
"""

from segembed import (
    DisentangleConfig,
    SiameseConfig,
    SynthConfig,
    embed_corpus,
    intra_inter_stats,
    split_corpus,
    synth_corpus,
    train_disentangle,
    train_joint,
    train_refine,
)
from dataclasses import replace

corpus = synth_corpus(
    SynthConfig(
        n_units=10, n_speakers=4, instances_per_unit_speaker=12,
        length_range=(6, 12), feature_dim=10,
        speaker_shift_scale=0.6, noise_scale=0.05,
    ),
    seed=0,
)
train, test = split_corpus(corpus, 0.25, seed=1)
print(f"train {len(train)} / held-out {len(test)} segments")

base = DisentangleConfig(
    epochs=25, batch_size=32, embed_dim=12, enc_hidden=24, dec_hidden=24,
    disc_hidden=32, learning_rate=2e-3, disc_learning_rate=1e-2,
    disc_steps=3, disc_warmup_epochs=6, alpha_adv=0.5, seed=0,
)
siamese = SiameseConfig(
    epochs=30, batch_size=32, k=16, learning_rate=1e-2, refine_hidden=24,
    margin=6.0, seed=0,
)

print("training variant (a): plain autoencoder ...")
model_a, _ = train_disentangle(train, replace(base, alpha_spk=0.0, alpha_adv=0.0))
print("training variant (b): disentangled autoencoder ...")
model_b, _ = train_disentangle(train, base)
print("training variant (c): joint contrastive + disentanglement ...")
model_c, _ = train_joint(train, base, replace(siamese, gamma=1.0, learning_rate=2e-3))
print("training variant (d): refinement on frozen (b) embeddings ...")
refined, refine_log = train_refine(train, model_b, siamese)
print(f"refinement loss: {refine_log[0]['contrastive']:.4f} -> "
      f"{refine_log[-1]['contrastive']:.4f}")

labels = {s.segment_id: s.unit_label for s in test.segments}
gaps = {}
print("\nvariant   intra    inter    gap")
for variant, model, ref in (
    ("a", model_a, None), ("b", model_b, None),
    ("c", model_c, None), ("d", model_b, refined),
):
    ids, vectors = embed_corpus(model, test, variant, ref)  # ids and (N, d) rows
    labs = [labels[sid] for sid in ids]
    rep = intra_inter_stats(vectors, labs)
    gaps[variant] = rep.delta
    print(f"   ({variant})   {rep.intra:7.4f}  {rep.inter:7.4f}  {rep.delta:7.4f}")
best = max(gaps, key=gaps.get)
print(f"\nlargest intra/inter cosine gap on this run: variant ({best})")
print(f"refinement widened (b)'s gap from {gaps['b']:.4f} to {gaps['d']:.4f}: "
      "same-unit segments cluster more compactly after the residual transform")
