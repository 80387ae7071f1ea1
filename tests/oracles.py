"""Reference code and fixtures shared by several test modules; nothing in
``fedmask`` calls them."""

import math

import numpy as np

from fedmask.fedcore import DpConfig, _sample_group
from fedmask.models import Batch, TinyModel, flatten, per_example_backward, unflatten
from fedmask.numeric import Rng


def xor_batch() -> Batch:
    inputs = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    labels = np.array([0, 1, 1, 0])
    return Batch(inputs=inputs, labels=labels)


def sgd_loop(model: TinyModel, inputs, labels, cfg: DpConfig, rng: Rng) -> np.ndarray:
    """Plain SGD with the same sampling and 1/h scaling but no clip or noise.

    dp_sgd with noise_scale=0 and an infinite clip threshold must reproduce
    this trajectory bit-exactly on the same seed.
    """
    inputs, labels = np.asarray(inputs, dtype=np.float64), np.asarray(labels)
    n = inputs.shape[0]
    w = flatten(model)
    for t in range(cfg.steps):
        idx = _sample_group(n, cfg, rng, t)
        if idx.size == 0:
            continue
        current = unflatten(model, w)
        total = np.zeros_like(w)
        for g in per_example_backward(current, inputs[idx], labels[idx], cfg.loss):
            total = total + g
        w = w - cfg.eta * (total / cfg.group_size)
    return w


def loop_fd_gradient(objective, v, h):
    """Central differences of ``objective`` at the vector ``v``, one pair of
    probe points v + h e_i, v - h e_i per coordinate."""
    g = np.empty_like(v)
    for i in range(v.shape[0]):
        vp = v.copy()
        vp[i] += h
        vm = v.copy()
        vm[i] -= h
        g[i] = (objective(vp) - objective(vm)) / (2.0 * h)
    return g


def quadratic_interpolate(points, xs, prime):
    """Values at each x in xs of the polynomial through points, (x, y) pairs
    with distinct x, by Lagrange's formula with one product over the other
    points per (x, point): O(k^2) per x for k points."""
    weights = [yi * pow(math.prod(xi - xj for xj, _ in points if xj != xi), -1, prime) for xi, yi in points]
    return [
        sum(w * math.prod(x - xj for xj, _ in points if xj != xi) for (xi, _), w in zip(points, weights)) % prime
        for x in xs
    ]
