"""Byzantine-tolerant aggregation rules, pluggable in place of the mean.

All rules are pure functions over a list of equal-dimension vectors.  Krum is
a selection rule (returns one of its inputs); the others synthesize a vector.
"""

from __future__ import annotations

import math

import numpy as np

from .numeric import ParameterError, as_vector, as_vectors, vec_mean


def krum_scores(X: np.ndarray, n_excluded: int) -> np.ndarray:
    """Score of each row: sum of squared distances to its nearest neighbors.

    Neighbor count is n - n_excluded - 2 (self excluded).
    """
    n = X.shape[0]
    keep = n - n_excluded - 2
    if keep < 1:
        raise ParameterError(f"too few vectors ({n}) for {n_excluded} excluded")
    diffs = X[:, None, :] - X[None, :, :]
    d2 = np.sum(diffs * diffs, axis=2)
    np.fill_diagonal(d2, np.inf)
    sorted_d2 = np.sort(d2, axis=1)
    return np.sum(sorted_d2[:, :keep], axis=1)


def krum_index(X: np.ndarray, n_excluded: int) -> int:
    # ties break toward the lowest input index (argmin returns the first)
    return int(np.argmin(krum_scores(X, n_excluded)))


def krum(vectors, delta: float = 0.0) -> np.ndarray:
    """Return the input vector with the smallest Krum score.

    delta is the assumed Byzantine fraction; floor(delta * n) + 2 vectors are
    excluded from each score's neighbor set.
    """
    if not 0 <= delta < math.inf:
        raise ParameterError("delta must be finite and >= 0")
    X = np.stack(as_vectors(vectors))
    n = X.shape[0]
    f = int(np.floor(delta * n))
    if n < f + 3:
        raise ParameterError(f"krum needs n >= {f + 3} vectors, got {n}")
    return X[krum_index(X, f)].copy()


def geometric_median(vectors, max_iters: int = 200, tol: float = 1e-8) -> np.ndarray:
    """Weiszfeld iteration for the approximate geometric median."""
    if max_iters < 1:
        raise ParameterError("max_iters must be >= 1")
    if not 0 < tol < math.inf:
        raise ParameterError("tol must be finite and > 0")
    X = np.stack(as_vectors(vectors))
    if X.shape[0] == 1:
        return X[0].copy()
    nu = np.mean(X, axis=0)
    for _ in range(max_iters):
        dists = np.linalg.norm(X - nu, axis=1)
        if np.any(dists < tol):
            # iterate landed on a data point: perturb and continue
            nu = nu + tol
            dists = np.linalg.norm(X - nu, axis=1)
        weights = 1.0 / dists
        new_nu = np.sum(X * weights[:, None], axis=0) / np.sum(weights)
        if np.linalg.norm(new_nu - nu) < tol:
            return new_nu
        nu = new_nu
    return nu


def trimmed_mean(vectors, zeta: float = 0.1) -> np.ndarray:
    """Per-coordinate mean after removing the floor(zeta*n) extremes per side."""
    if not (0.0 <= zeta < 0.5):
        raise ParameterError("zeta must lie in [0, 0.5)")
    X = np.stack(as_vectors(vectors))
    n = X.shape[0]
    t = int(np.floor(zeta * n))
    if n - 2 * t < 1:
        raise ParameterError("trimming would remove every value")
    s = np.sort(X, axis=0)
    return np.mean(s[t : n - t], axis=0)


def coord_median(vectors) -> np.ndarray:
    """Per-coordinate median; even counts average the two central values."""
    return np.median(np.stack(as_vectors(vectors)), axis=0)


def centered_clip(vectors, v0=None, tau: float = 1.0, iters: int = 5) -> np.ndarray:
    """Iterative clipped averaging from an initial center v0.  The default
    center is the coordinate-wise median of the inputs: the iterate moves at
    most iters * tau, so from zeros a consensus far from zero is out of reach."""
    if not 0 <= tau < math.inf:
        raise ParameterError("tau must be finite and >= 0")
    if iters < 1:
        raise ParameterError("iters must be >= 1")
    X = np.stack(as_vectors(vectors))
    nu = np.median(X, axis=0) if v0 is None else as_vector(v0).copy()
    if nu.shape[0] != X.shape[1]:
        raise ParameterError("v0 dimension mismatch")
    n = X.shape[0]
    for _ in range(iters):
        diffs = X - nu
        norms = np.linalg.norm(diffs, axis=1)
        # zero distance contributes the raw (zero) difference
        factors = np.where(norms > 0, np.minimum(1.0, np.divide(tau, norms, out=np.full_like(norms, np.inf), where=norms > 0)), 1.0)
        nu = nu + np.sum(diffs * factors[:, None], axis=0) / n
    return nu


def bulyan(vectors, d: int = 1, inner: str = "krum") -> np.ndarray:
    """Recursive selection via the inner rule, then per-coordinate averaging
    of the values closest to the coordinate-wise median.

    gamma = n - 2d vectors are selected; zeta = gamma - 2d values per
    coordinate are averaged.  Requires n >= 4d + 3.  inner is "krum" or
    "geometric_median"; either way fewer than d + 3 remaining vectors fall
    back to the geometric median.
    """
    if inner not in ("krum", "geometric_median"):
        raise ParameterError(f"unknown inner rule {inner!r}")
    X = np.stack(as_vectors(vectors))
    n = X.shape[0]
    if d < 0:
        raise ParameterError("d must be >= 0")
    if n < 4 * d + 3:
        raise ParameterError(f"bulyan needs n >= {4 * d + 3} vectors, got {n}")
    gamma = n - 2 * d
    zeta = gamma - 2 * d

    remaining = list(range(n))
    selected: list[int] = []
    while len(selected) < gamma:
        if len(remaining) == gamma - len(selected):
            selected.extend(remaining)
            break
        pool = X[remaining]
        if inner == "krum" and len(remaining) >= d + 3:
            pick = krum_index(pool, d)
        else:
            gm = geometric_median(pool)
            pick = int(np.argmin(np.linalg.norm(pool - gm, axis=1)))
        selected.append(remaining.pop(pick))

    S = X[sorted(selected)]
    out = np.empty(X.shape[1])
    for i in range(X.shape[1]):
        col = S[:, i]
        # median restricted to the observed values (argmin of summed distance)
        costs = np.sum(np.abs(col[None, :] - col[:, None]), axis=1)
        med = col[int(np.argmin(costs))]
        order = np.argsort(np.abs(col - med), kind="stable")
        out[i] = float(np.mean(col[order[:zeta]]))
    return out


# Each rule takes the vectors, then keyword arguments with their defaults in
# its signature; a scenario's aggregator_params are those keyword arguments.
AGGREGATORS = {
    "mean": vec_mean,
    "krum": krum,
    "geometric_median": geometric_median,
    "bulyan": bulyan,
    "trimmed_mean": trimmed_mean,
    "coord_median": coord_median,
    "centered_clip": centered_clip,
}


def rule_for(name: str):
    """The aggregation rule named name; the one check of an aggregator name."""
    if name not in AGGREGATORS:
        raise ParameterError(f"aggregator: unknown aggregator {name!r}")
    return AGGREGATORS[name]


def aggregate(name: str, vectors, **params) -> np.ndarray:
    return rule_for(name)(vectors, **params)
