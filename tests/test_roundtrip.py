"""Round-trip properties of the file formats: what a save function writes,
its load function reads back bit for bit, for any finite float64 values
(-0.0, subnormals, +-1e308) and any shapes the format allows."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from segembed.corpus import (
    LEVELS,
    Corpus,
    Segment,
    load_corpus,
    load_embeddings,
    save_corpus,
    save_embeddings,
)
from segembed.neuralcore import ComponentParams, load_checkpoint, save_checkpoint

EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, 0.1, -2.5)
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_VALUES)
NAMES = st.text(min_size=1, max_size=8)


def _float_arrays(shape):
    return arrays(np.float64, shape, elements=FINITE)


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _roundtrip(save, load, *args):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file"
        save(path, *args)
        return load(path)


COMPONENTS = st.dictionaries(
    NAMES,
    st.dictionaries(NAMES, _float_arrays(array_shapes(min_dims=0, max_dims=3, min_side=0,
                                                      max_side=4)), max_size=4),
    max_size=3,
)


@settings(max_examples=100, deadline=None)
@given(COMPONENTS, st.dictionaries(NAMES, st.integers() | NAMES, max_size=3))
@example({"E_p": {"w": np.array([[-0.0, 5e-324], [1e308, -1e308]])}}, {"kind": "disentangle"})
def test_checkpoint_roundtrips_bit_for_bit(components, meta):
    params = {name: ComponentParams(name, arrays) for name, arrays in components.items()}
    loaded, loaded_meta = _roundtrip(save_checkpoint, load_checkpoint, params, meta)
    assert loaded_meta == meta
    assert list(loaded) == list(params)
    for name, want in params.items():
        assert list(loaded[name].arrays) == list(want.arrays)
        for key, arr in want.arrays.items():
            assert _same_bits(loaded[name].arrays[key], arr), (name, key)
        assert _same_bits(loaded[name].flat, want.flat)


@st.composite
def _embedding_tables(draw):
    dim = draw(st.integers(1, 6))  # the format has no empty vector
    ids = draw(st.lists(NAMES, max_size=8, unique=True))
    return ids, draw(_float_arrays((len(ids), dim)))


@settings(max_examples=100, deadline=None)
@given(_embedding_tables())
@example((["a", "b"], np.array([[-0.0, 5e-324, -1e308], [1e308, 0.0, -5e-324]])))
def test_embeddings_roundtrip_bit_for_bit(table):
    ids, vectors = table
    got_ids, got = _roundtrip(save_embeddings, load_embeddings, ids, vectors)
    assert got_ids == ids
    # an empty file tells no dimension
    assert _same_bits(got, vectors) if ids else got.shape == (0, 0)


@st.composite
def _corpora(draw):
    n_features = draw(st.integers(1, 4))
    level = draw(st.sampled_from(LEVELS))
    ids = draw(st.lists(NAMES, min_size=1, max_size=6, unique=True))
    optional = st.none() | st.text(max_size=6)
    segments = [
        Segment(
            segment_id=sid,
            utterance_id=draw(st.text(max_size=6)),
            speaker_id=draw(optional),
            unit_label=draw(optional),
            level=level,
            features=draw(_float_arrays((draw(st.integers(1, 5)), n_features))),
        )
        for sid in ids
    ]
    return Corpus(tuple(segments))


@settings(max_examples=100, deadline=None)
@given(_corpora())
def test_corpus_roundtrips_bit_for_bit(corpus):
    loaded = _roundtrip(save_corpus, load_corpus, corpus)
    assert len(loaded) == len(corpus)
    for got, want in zip(loaded.segments, corpus.segments):
        assert (got.segment_id, got.utterance_id, got.speaker_id, got.unit_label, got.level) == (
            want.segment_id, want.utterance_id, want.speaker_id, want.unit_label, want.level)
        assert _same_bits(got.features, want.features), want.segment_id
