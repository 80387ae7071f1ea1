"""Bundled synthetic task generators: 8x8 glyph classification, 2-D
Gaussian mixtures, and token corpora for the bigram language model."""

from __future__ import annotations

import numpy as np

from .numeric import ParameterError, Rng

GLYPH_CLASSES = 10
GLYPH_DIM = 64  # 8x8 images, flattened

# Prototypes are fixed (independent of caller seeds) so every experiment sees
# the same ten glyph shapes.
_PROTO_SEED = 0x67_6C_79_70


def glyph_prototypes() -> np.ndarray:
    """Ten fixed binary 8x8 prototypes, one per class."""
    rng = Rng(_PROTO_SEED)
    protos = (rng.uniform(0.0, 1.0, GLYPH_CLASSES * GLYPH_DIM) > 0.5).astype(np.float64)
    return protos.reshape(GLYPH_CLASSES, GLYPH_DIM)


def make_glyphs(n_per_class: int, rng: Rng, noise: float = 0.25):
    """Noisy samples around the class prototypes; returns (inputs, labels)."""
    if n_per_class < 1:
        raise ParameterError("n_per_class must be >= 1")
    protos = glyph_prototypes()
    inputs, labels = [], []
    for c in range(GLYPH_CLASSES):
        jitter = rng.normal(0.0, noise, n_per_class * GLYPH_DIM).reshape(n_per_class, GLYPH_DIM)
        inputs.append(protos[c] + jitter)
        labels.append(np.full(n_per_class, c))
    perm = np.arange(n_per_class * GLYPH_CLASSES)
    rng.shuffle(perm)
    return np.concatenate(inputs)[perm], np.concatenate(labels)[perm]


def mixture_means() -> np.ndarray:
    # Means sit on the axes rather than the square's corners: a tanh generator
    # saturates at the corners, so corner means would reward degenerate
    # collapsed generators under distance-to-nearest-mean metrics.
    return np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


def make_gaussian_mixture(n: int, rng: Rng, std: float = 0.1):
    """Points from an equal-weight 4-component mixture on the unit axes."""
    means = mixture_means()
    comps = rng.integers(0, len(means), size=n)
    noise = rng.normal(0.0, std, n * 2).reshape(n, 2)
    return means[comps] + noise, np.asarray(comps)


def make_token_corpus(rng: Rng, vocab_size: int = 8, n_sequences: int = 200, length: int = 20):
    """Sequences from a random sparse Markov chain, so bigram structure exists."""
    # each token prefers a small set of successors
    pref = rng.integers(0, vocab_size, size=(vocab_size, 2))
    corpus = []
    for _ in range(n_sequences):
        tok = int(rng.integers(0, vocab_size))
        seq = [tok]
        for _ in range(length - 1):
            if rng.uniform(0.0, 1.0, 1)[0] < 0.85:
                tok = int(pref[tok, int(rng.integers(0, 2))])
            else:
                tok = int(rng.integers(0, vocab_size))
            seq.append(tok)
        corpus.append(seq)
    return corpus


def partition(inputs: np.ndarray, labels: np.ndarray, n_clients: int, rng: Rng):
    """IID split into n_clients (inputs, labels) pieces, every piece nonempty."""
    n = inputs.shape[0]
    if n_clients < 1 or n_clients > n:
        raise ParameterError("need 1 <= n_clients <= sample count")
    order = np.arange(n)
    rng.shuffle(order)
    pieces = np.array_split(order, n_clients)
    return [(inputs[idx], labels[idx]) for idx in pieces]
