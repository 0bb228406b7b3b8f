"""Seeds: one check for every seeded operation, and derivation."""

import re

import numpy as np
import pytest

from segembed.corpus import make_batches
from segembed.errors import DataError
from segembed.evalcluster import kmeans
from segembed.neuralcore import ModelDims, init_encoder
from segembed.pairmine import topk_global_pairs
from segembed.seeding import derive_seed

POINTS = np.random.default_rng(5).normal(size=(8, 3))
DIMS = ModelDims(feature_dim=3, embed_dim=2, enc_hidden=2)



def _mined(seed):
    pairs = topk_global_pairs(POINTS, 2, seed)
    return np.concatenate([pairs.positives, pairs.negatives])


# each seeded operation, its result as one array
SEEDED = {
    "kmeans": lambda seed: kmeans(POINTS, 3, seed),
    "kmeans_runs": lambda seed: np.concatenate(kmeans(POINTS, [2, 3], [0, seed])),
    "make_batches": lambda seed: np.array([b.indices for b in make_batches(range(8), 4, seed)]),
    "topk_global_pairs": _mined,
    "init_encoder": lambda seed: init_encoder(DIMS, seed).flat,
}


@pytest.mark.parametrize("seed", [None, True, 2.5, "3", -1, np.int64(-1)])
@pytest.mark.parametrize("name", SEEDED)
def test_bad_seed_is_a_data_error_naming_it(name, seed):
    with pytest.raises(DataError, match=re.escape(f"seed must be an integer >= 0, got {seed!r}")):
        SEEDED[name](seed)


@pytest.mark.parametrize("name", SEEDED)
def test_numpy_integer_seed_gives_the_same_result(name):
    assert np.array_equal(SEEDED[name](np.uint32(7)), SEEDED[name](7))


@pytest.mark.parametrize("master", [None, True, 2.5, "3"])
def test_bad_master_seed_is_a_data_error(master):
    with pytest.raises(DataError, match=re.escape(f"master seed must be an integer, got {master!r}")):
        derive_seed(master, "tag")


def test_derive_seed_accepts_negative_and_numpy_masters():
    assert derive_seed(-1, "tag") == derive_seed(np.int8(-1), "tag") != derive_seed(1, "tag")
