"""Federated training loops: FedAvg over masked client updates, DP-SGD with
and without a final mask, and a basic-composition privacy accountant.

The mask defense adds uniform noise U[-alpha, alpha] to local weights once,
after all local steps; under aggregation over many clients the noise averages
toward zero while each individual masked model stays obscured.  Every FedAvg
client update is masked; alpha 0 is the zero mask, so it trains unmasked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import aggregators
from .models import Batch, TinyModel, flatten, per_example_backward, sgd_step, unflatten
from .numeric import ParameterError, Rng, check_alpha, uniform_mask


@dataclass(frozen=True)
class FedConfig:
    n_clients: int
    t_global: int = 1
    alpha: float = 0.0
    aggregator: str = "mean"
    aggregator_params: dict = field(default_factory=dict)
    t_local: ClassVar[int] = 1
    eta: ClassVar[float] = 0.1
    loss: ClassVar[str] = "cross_entropy"

    def __post_init__(self):
        for name in ("n_clients", "t_global"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1")
        check_alpha(self.alpha)
        aggregators.rule_for(self.aggregator)


@dataclass(frozen=True)
class DpConfig:
    noise_scale: float  # xi
    clip_threshold: float  # gamma; math.inf disables clipping
    group_size: int  # h
    steps: int  # T
    delta_target: ClassVar[float] = 1e-5
    eta: ClassVar[float] = 0.1
    loss: ClassVar[str] = "cross_entropy"

    def __post_init__(self):
        # written so that NaN fails both checks; an infinite clip stays legal
        if not self.clip_threshold > 0:
            raise ParameterError("clip threshold must be > 0")
        if not self.noise_scale >= 0:
            raise ParameterError("noise scale must be >= 0")
        for name in ("group_size", "steps"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1")
        if self.noise_scale > 0 and math.isinf(self.clip_threshold):
            raise ParameterError("noise requires a finite clip threshold")


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
    """Run t_local full-batch steps of `models.sgd_step`; return the updated
    flat weights (read-only, as `flatten` gives them)."""
    if t_local < 1:
        raise ParameterError("t_local must be >= 1")
    batch = Batch(inputs=inputs, labels=labels)
    for _ in range(t_local):
        model = sgd_step(model, batch, eta, loss)
    return flatten(model)


def masked_client_update(
    model: TinyModel, inputs, labels, t_local: int, eta: float, alpha: float, rng: Rng, loss: str = "cross_entropy"
) -> np.ndarray:
    """client_update plus a single uniform mask applied after all local steps."""
    w = client_update(model, inputs, labels, t_local, eta, loss)
    return w + uniform_mask(w.shape[0], alpha, rng)


def run_fedavg(model: TinyModel, partitions, cfg: FedConfig, rng: Rng) -> TinyModel:
    """Full FedAvg loop over cfg.t_global rounds of masked client updates.

    Aggregation consumes client results in client-id order, so outcomes are
    seed-reproducible regardless of how clients would be scheduled.
    """
    if len(partitions) != cfg.n_clients:
        raise ParameterError("one data partition per client required")
    current = model
    for t in range(cfg.t_global):
        updates = [
            masked_client_update(
                current, x, y, cfg.t_local, cfg.eta, cfg.alpha, rng.child("round", t, "client", cid), cfg.loss
            )
            for cid, (x, y) in enumerate(partitions)
        ]
        current = unflatten(current, aggregators.aggregate(cfg.aggregator, updates, **cfg.aggregator_params))
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
    batch = Batch(inputs=inputs, labels=labels)
    n = batch.size
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
        for g in per_example_backward(current, batch.inputs[idx], batch.labels[idx], cfg.loss):
            # an infinite clip divides by max(1.0, norm / inf) = 1.0, which
            # leaves g bit for bit, a NaN norm included
            total = total + g / max(1.0, float(np.linalg.norm(g)) / cfg.clip_threshold)
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

