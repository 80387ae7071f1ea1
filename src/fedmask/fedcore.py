"""Federated training: one FedAvg round of masked client steps, DP-SGD with
and without a final mask, and basic composition of its per-step privacy cost.

The mask defense adds uniform noise U[-alpha, alpha] to local weights once,
after the local step; under aggregation over many clients the noise averages
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
    alpha: float = 0.0
    aggregator: str = "mean"
    aggregator_params: dict = field(default_factory=dict)
    eta: ClassVar[float] = 0.1
    loss: ClassVar[str] = "cross_entropy"

    def __post_init__(self):
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


def compose_privacy(entries) -> tuple[float, float]:
    """Basic composition: epsilons and deltas add."""
    entries = list(entries)
    if not entries:
        raise ParameterError("no privacy entries to compose")
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


def masked_client_update(model: TinyModel, inputs, labels, alpha: float, rng: Rng) -> np.ndarray:
    """One full-batch `models.sgd_step` at FedConfig.eta on FedConfig.loss,
    then one uniform mask drawn from rng (alpha 0 is the zero mask); returns
    the masked flat weights.

    `run_fedavg` gives client cid the stream rng.child("round", 0, "client",
    cid), the path every FedAvg report and digest was recorded with.
    """
    w = flatten(sgd_step(model, Batch(inputs=inputs, labels=labels), FedConfig.eta, FedConfig.loss))
    return w + uniform_mask(w.shape[0], alpha, rng)


def run_fedavg(model: TinyModel, partitions, cfg: FedConfig, rng: Rng) -> TinyModel:
    """One FedAvg round (FedSGD): every partition is a client that returns
    its masked update, and cfg.aggregator combines them.

    Aggregation consumes client results in client-id order, so outcomes are
    seed-reproducible regardless of how clients would be scheduled.
    """
    updates = [
        masked_client_update(model, x, y, cfg.alpha, rng.child("round", 0, "client", cid))
        for cid, (x, y) in enumerate(partitions)
    ]
    return unflatten(model, aggregators.aggregate(cfg.aggregator, updates, **cfg.aggregator_params))


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
    descend; returns (flat weights, per-step (epsilon, delta) entries), which
    `compose_privacy` totals."""
    batch = Batch(inputs=inputs, labels=labels)
    n = batch.size
    rate = min(1.0, cfg.group_size / n)
    w = flatten(model)
    entries = []
    for t in range(cfg.steps):
        idx = _sample_group(n, cfg, rng, t)
        entries.append((_step_epsilon(cfg, rate), cfg.delta_target))
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
    return w, entries


def masked_dp_sgd(model: TinyModel, inputs, labels, cfg: DpConfig, alpha: float, rng: Rng):
    """dp_sgd followed by one final uniform mask (noise kept out of the local
    steps so local convergence is unaffected by the mask)."""
    w, entries = dp_sgd(model, inputs, labels, cfg, rng)
    return w + uniform_mask(w.shape[0], alpha, rng.child("final-mask")), entries

