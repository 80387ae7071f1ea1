"""Bundled synthetic task generators."""

import numpy as np
import pytest

from fedmask.data import (
    GLYPH_CLASSES,
    GLYPH_DIM,
    glyph_prototypes,
    make_gaussian_mixture,
    make_glyphs,
    make_token_corpus,
    mixture_means,
    partition,
)
from fedmask.numeric import ParameterError, Rng
from oracles import xor_batch


def test_xor_batch_truth_table():
    b = xor_batch()
    assert b.inputs.shape == (4, 2)
    assert b.labels.tolist() == [0, 1, 1, 0]


def test_glyph_prototypes_fixed_and_binary():
    p1 = glyph_prototypes()
    p2 = glyph_prototypes()
    assert p1.shape == (GLYPH_CLASSES, GLYPH_DIM)
    assert np.array_equal(p1, p2)
    assert set(np.unique(p1)) <= {0.0, 1.0}
    # every pair of prototypes is distinguishable
    for i in range(GLYPH_CLASSES):
        for j in range(i + 1, GLYPH_CLASSES):
            assert np.any(p1[i] != p1[j])


def test_make_glyphs_shapes_and_balance():
    inputs, labels = make_glyphs(5, Rng(0).child("g"))
    assert inputs.shape == (50, GLYPH_DIM)
    assert labels.shape == (50,)
    counts = np.bincount(labels.astype(int), minlength=GLYPH_CLASSES)
    assert np.all(counts == 5)


def test_make_glyphs_noise_centered_on_prototypes():
    inputs, labels = make_glyphs(200, Rng(1).child("g"), noise=0.1)
    protos = glyph_prototypes()
    for c in range(GLYPH_CLASSES):
        mean = inputs[labels == c].mean(axis=0)
        assert np.max(np.abs(mean - protos[c])) < 0.1


def test_make_glyphs_validation():
    with pytest.raises(ParameterError):
        make_glyphs(0, Rng(0))


def test_mixture_means_unit_axes():
    means = mixture_means()
    assert means.shape == (4, 2)
    assert np.allclose(np.linalg.norm(means, axis=1), 1.0)


def test_gaussian_mixture_components_and_spread():
    points, comps = make_gaussian_mixture(2000, Rng(2).child("m"), std=0.05)
    assert points.shape == (2000, 2)
    means = mixture_means()
    # points cluster tightly around their assigned means
    dev = np.linalg.norm(points - means[comps], axis=1)
    assert np.mean(dev) < 0.15
    # all four components appear
    assert set(np.unique(comps)) == {0, 1, 2, 3}


def test_token_corpus_shapes_and_vocabulary():
    corpus = make_token_corpus(Rng(3).child("c"), vocab_size=6, n_sequences=30, length=15)
    assert len(corpus) == 30
    assert all(len(seq) == 15 for seq in corpus)
    assert all(0 <= t < 6 for seq in corpus for t in seq)


def test_token_corpus_has_bigram_structure():
    # the sparse Markov chain makes some transitions far more common than
    # uniform chance, which a bigram table can learn
    corpus = make_token_corpus(Rng(4).child("c"), vocab_size=8, n_sequences=200, length=20)
    counts = np.zeros((8, 8))
    for seq in corpus:
        for a, b in zip(seq[:-1], seq[1:]):
            counts[a, b] += 1
    row_max_share = (counts.max(axis=1) / np.maximum(counts.sum(axis=1), 1)).mean()
    assert row_max_share > 0.25  # uniform chance would be 0.125


def test_partition_covers_all_data():
    inputs, labels = make_glyphs(3, Rng(5).child("g"))
    parts = partition(inputs, labels, 4, Rng(5).child("p"))
    assert len(parts) == 4
    assert sum(x.shape[0] for x, _ in parts) == inputs.shape[0]
    assert all(x.shape[0] >= 1 for x, _ in parts)


def test_partition_validation():
    inputs, labels = make_glyphs(1, Rng(6).child("g"))
    with pytest.raises(ParameterError):
        partition(inputs, labels, 0, Rng(6))
    with pytest.raises(ParameterError):
        partition(inputs, labels, inputs.shape[0] + 1, Rng(6))
