"""Federated training loops: FedAvg with and without weight masking, DP-SGD
with and without a final mask, and a basic-composition privacy accountant.

The mask defense adds uniform noise U[-alpha, alpha] to local weights once,
after all local steps; under aggregation over many clients the noise averages
toward zero while each individual masked model stays obscured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import aggregators
from .models import Batch, TinyModel, backward, flatten, per_example_backward, unflatten
from .numeric import ParameterError, Rng, uniform_mask


@dataclass(frozen=True)
class FedConfig:
    n_clients: int
    t_global: int = 1
    t_local: int = 1
    eta: float = 0.1
    alpha: float = 0.0
    loss: str = "cross_entropy"
    aggregator: str = "mean"
    aggregator_params: dict = field(default_factory=dict)
    weighted: bool = False  # weight client updates by dataset size
    # server-announced client count needed per aggregation; clients refuse to
    # mask below their configured minimum alpha for that threshold
    client_threshold: int | None = None
    client_min_alpha: float = 0.0

    def __post_init__(self):
        for name in ("n_clients", "t_global", "t_local"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1")
        for name in ("alpha", "client_min_alpha"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ParameterError(f"{name} must lie in [0, 1]")
        if not 0 < self.eta < math.inf:
            raise ParameterError("eta must be finite and > 0")


@dataclass(frozen=True)
class DpConfig:
    noise_scale: float  # xi
    clip_threshold: float  # gamma; math.inf disables clipping
    group_size: int  # h
    steps: int  # T
    delta_target: float = 1e-5
    eta: float = 0.1
    loss: str = "cross_entropy"

    def __post_init__(self):
        if self.clip_threshold <= 0:
            raise ParameterError("clip threshold must be > 0")
        if self.noise_scale < 0:
            raise ParameterError("noise scale must be >= 0")
        for name in ("group_size", "steps"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1")
        if self.noise_scale > 0 and math.isinf(self.clip_threshold):
            raise ParameterError("noise requires a finite clip threshold")
        if not 0.0 < self.delta_target < 1.0:
            raise ParameterError("delta_target must lie in (0, 1)")
        if not 0 < self.eta < math.inf:
            raise ParameterError("eta must be finite and > 0")


@dataclass
class PrivacyLedger:
    entries: list[tuple[float, float]] = field(default_factory=list)

    def record(self, epsilon: float, delta: float) -> None:
        self.entries.append((epsilon, delta))

    @property
    def totals(self) -> tuple[float, float]:
        return compose_privacy(self.entries)


def compose_privacy(entries) -> tuple[float, float]:
    """Basic composition: epsilons and deltas add."""
    entries = list(entries)
    if not entries:
        raise ParameterError("empty privacy ledger")
    return (float(sum(e for e, _ in entries)), float(sum(d for _, d in entries)))


def _step_epsilon(cfg: DpConfig, sampling_rate: float) -> float:
    # Gaussian mechanism: sensitivity gamma, noise std xi * gamma, so for the
    # delta target, epsilon = sqrt(2 ln(1.25/delta)) / xi; the random sample
    # amplifies this by the sampling rate (linear approximation).
    if cfg.noise_scale == 0:
        return math.inf
    base = math.sqrt(2.0 * math.log(1.25 / cfg.delta_target)) / cfg.noise_scale
    return sampling_rate * base


# ---------------------------------------------------------------------------
# Client updates and aggregation
# ---------------------------------------------------------------------------


def client_update(model: TinyModel, inputs, labels, t_local: int, eta: float, loss: str = "cross_entropy") -> np.ndarray:
    """Run t_local full-batch SGD steps; return the updated flat weights."""
    if t_local < 1:
        raise ParameterError("t_local must be >= 1")
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.shape[0] == 0:
        raise ParameterError("client has no data")
    batch = Batch(inputs=inputs, labels=labels)
    w = flatten(model)
    for _ in range(t_local):
        _, grad = backward(unflatten(model, w), batch, loss)
        w = w - eta * grad
    return w


def masked_client_update(
    model: TinyModel, inputs, labels, t_local: int, eta: float, alpha: float, rng: Rng, loss: str = "cross_entropy"
) -> np.ndarray:
    """client_update plus a single uniform mask applied after all local steps."""
    w = client_update(model, inputs, labels, t_local, eta, loss)
    return w + uniform_mask(w.shape[0], alpha, rng)


def run_fedavg(model: TinyModel, partitions, cfg: FedConfig, rng: Rng) -> TinyModel:
    """Full FedAvg loop over cfg.t_global rounds; alpha > 0 masks clients.

    Aggregation consumes client results in client-id order, so outcomes are
    seed-reproducible regardless of how clients would be scheduled.
    """
    if len(partitions) != cfg.n_clients:
        raise ParameterError("one data partition per client required")
    if cfg.client_threshold is not None and cfg.alpha < cfg.client_min_alpha:
        raise ParameterError(
            f"clients refuse: alpha {cfg.alpha} below the configured minimum "
            f"{cfg.client_min_alpha} for threshold {cfg.client_threshold}"
        )
    current = model
    for t in range(cfg.t_global):
        updates = []
        sizes = []
        for cid, (x, y) in enumerate(partitions):
            client_rng = rng.child("round", t, "client", cid)
            if cfg.alpha > 0:
                w = masked_client_update(current, x, y, cfg.t_local, cfg.eta, cfg.alpha, client_rng, cfg.loss)
            else:
                w = client_update(current, x, y, cfg.t_local, cfg.eta, cfg.loss)
            updates.append(w)
            sizes.append(x.shape[0])
        if cfg.weighted and cfg.aggregator == "mean":
            weights = np.asarray(sizes, dtype=np.float64)
            agg = np.sum([u * (s / weights.sum()) for u, s in zip(updates, weights)], axis=0)
        else:
            agg = aggregators.aggregate(cfg.aggregator, updates, **cfg.aggregator_params)
        current = unflatten(current, agg)
    return current


# ---------------------------------------------------------------------------
# DP-SGD
# ---------------------------------------------------------------------------


def _sample_group(n: int, cfg: DpConfig, rng: Rng, step: int) -> np.ndarray:
    """Independent inclusion with probability h/n (one stream per step)."""
    rate = min(1.0, cfg.group_size / n)
    draws = rng.child("sample", step).uniform(0.0, 1.0, n)
    return np.nonzero(draws < rate)[0]


def dp_sgd(model: TinyModel, inputs, labels, cfg: DpConfig, rng: Rng):
    """Clip per-example gradients, add Gaussian noise to the group sum, and
    descend; returns (flat weights, privacy ledger)."""
    inputs, labels = np.asarray(inputs, dtype=np.float64), np.asarray(labels)
    n = inputs.shape[0]
    rate = min(1.0, cfg.group_size / n)
    w = flatten(model)
    ledger = PrivacyLedger()
    for t in range(cfg.steps):
        idx = _sample_group(n, cfg, rng, t)
        ledger.record(_step_epsilon(cfg, rate), cfg.delta_target)
        if idx.size == 0:
            continue
        current = unflatten(model, w)
        total = np.zeros_like(w)
        for g in per_example_backward(current, inputs[idx], labels[idx], cfg.loss):
            norm = float(np.linalg.norm(g))
            if math.isfinite(cfg.clip_threshold):
                g = g / max(1.0, norm / cfg.clip_threshold)
            total = total + g
        if cfg.noise_scale > 0:
            noise = rng.child("noise", t).normal(
                0.0, cfg.noise_scale * cfg.clip_threshold, w.shape[0]
            )
            total = total + noise
        w = w - cfg.eta * (total / cfg.group_size)
    return w, ledger


def masked_dp_sgd(model: TinyModel, inputs, labels, cfg: DpConfig, alpha: float, rng: Rng):
    """dp_sgd followed by one final uniform mask (noise kept out of the local
    steps so local convergence is unaffected by the mask)."""
    w, ledger = dp_sgd(model, inputs, labels, cfg, rng)
    return w + uniform_mask(w.shape[0], alpha, rng.child("final-mask")), ledger


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
