"""segembed: unsupervised refinement of acoustic segment embeddings.

A desk-scale, fully deterministic numpy implementation of
speaker-disentangled autoencoding of variable-length segment features,
within-mini-batch positive/negative pair mining, contrastive training
(joint and post-hoc refinement), and three evaluation protocols:
intra/inter cosine-gap analysis, k-means clustering accuracy, and
spoken term detection scored by mean average precision.

Typical flow::

    from segembed import (
        SynthConfig, synth_corpus, DisentangleConfig, SiameseConfig,
        train_disentangle, train_refine, embed_corpus, intra_inter_stats,
    )

    corpus = synth_corpus(SynthConfig(n_units=10, n_speakers=4), seed=0)
    model, log = train_disentangle(corpus, DisentangleConfig(epochs=10,
                                                             embed_dim=32))
    refine, _ = train_refine(corpus, model, SiameseConfig(epochs=10))
    entries = embed_corpus(model, corpus, "d", refine)

Every randomized operation takes an explicit seed; identical inputs and
seeds reproduce results bit-for-bit.
"""

from . import corpus, disentangle, evalcluster, evalstd, neuralcore, pairmine, seeding, siamese
from .corpus import *  # noqa: F403
from .disentangle import *  # noqa: F403
from .evalcluster import *  # noqa: F403
from .evalstd import *  # noqa: F403
from .neuralcore import *  # noqa: F403
from .pairmine import *  # noqa: F403
from .seeding import *  # noqa: F403
from .siamese import *  # noqa: F403

__all__ = sorted(
    corpus.__all__ + disentangle.__all__ + evalcluster.__all__ + evalstd.__all__
    + neuralcore.__all__ + pairmine.__all__ + seeding.__all__ + siamese.__all__
)

__version__ = "0.1.0"
