"""Reconstruction and extraction attacks against tiny models: gradient
matching (DLG), model inversion, the GAN attack, and log-perplexity probing
of a bigram language model, each runnable with and without weight masking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import mixture_means
from .models import (
    Batch,
    TinyModel,
    backward,
    flatten,
    forward_batch,
    input_gradient,
    lm_log_perplexity,
    mask_bigram_probs,
    per_example_backward,
    softmax,
    unflatten,
)
from .numeric import ParameterError, Rng, uniform_mask

# Smallest alpha in the calibration grid at which gradient-matching
# reconstruction fails on every seed at desk scale (see calibrate_dlg_alpha).
# Calibrated on the glyph-input fixture: alpha 0.1 still succeeds on 4/10
# seeds; 0.2 fails on all 10 with at least a 2x margin over the threshold.
DLG_ALPHA_GRID = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5)
DLG_FAILURE_ALPHA = 0.2


# ---------------------------------------------------------------------------
# Gradient matching (DLG)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DlgConfig:
    iterations: int = 2000
    eta: float = 0.1
    seed: int = 0
    fd_step: float = 1e-4  # central finite-difference step h
    mse_threshold: float = 0.01
    init_scale: float = 0.3  # dummy-data init std; keeps tanh units unsaturated

    def __post_init__(self):
        if self.iterations < 1:
            raise ParameterError("iterations must be >= 1")
        for name in ("eta", "fd_step", "mse_threshold", "init_scale"):
            if not 0 < getattr(self, name) < math.inf:
                raise ParameterError(f"{name} must be finite and > 0")


@dataclass
class ReconstructionReport:
    final_mse: float
    trace: list  # per-iteration gradient-difference objective values
    success: bool
    recovered_x: np.ndarray | None = None
    recovered_y: np.ndarray | None = None
    aborted: str | None = None


def gradient_difference(model: TinyModel, known_grad: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """D = || grad_w L(model; x, y) - known_grad ||^2 for a single example."""
    _, g = backward(model, Batch(inputs=x[None, :], labels=y[None, :]), "mse")
    d = g - known_grad
    return float(d @ d)


def _batched_fd_gradient(model: TinyModel, known_grad: np.ndarray, v: np.ndarray, h: float) -> np.ndarray:
    """Central finite differences of gradient_difference over v = (x, y).

    The 2n probe points v + h e_i and v - h e_i are the rows of v + hI and
    v - hI, and one per_example_backward call gives all their gradients."""
    n, din = v.shape[0], model.input_dim
    step = h * np.eye(n)
    probes = np.concatenate([v + step, v - step])
    diff = per_example_backward(model, probes[:, :din], probes[:, din:], "mse")
    diff -= known_grad
    sq = np.einsum("ij,ij->i", diff, diff)
    return (sq[:n] - sq[n:]) / (2.0 * h)


def dlg_attack(model: TinyModel, known_grad: np.ndarray, truth: Batch, cfg: DlgConfig) -> ReconstructionReport:
    """Reconstruct a training example by matching gradients.

    Dummy data and labels start from Gaussian noise; each iteration computes
    the squared gradient difference D and descends the dummy pair along its
    finite-difference gradient with a backtracking step size.  The ground
    truth is used only for the post-hoc reconstruction error.
    """
    din, dout = model.input_dim, model.output_dim
    known_grad = np.asarray(known_grad, dtype=np.float64)
    rng = Rng(cfg.seed).child("dlg-init")
    v = rng.normal(0.0, cfg.init_scale, din + dout)

    def objective(vec):
        return gradient_difference(model, known_grad, vec[:din], vec[din:])

    trace = []
    d = objective(v)
    eta = cfg.eta
    aborted = None
    for _ in range(cfg.iterations):
        if not np.isfinite(d):
            aborted = "non-finite objective"
            break
        g = _batched_fd_gradient(model, known_grad, v, cfg.fd_step)
        stepped = False
        for _ in range(30):
            v_new = v - eta * g
            d_new = objective(v_new)
            if d_new < d:
                stepped = True
                break
            eta *= 0.5
        if not stepped:
            trace.append(d)
            break  # no descent direction at finite-difference resolution
        v, d = v_new, d_new
        eta *= 1.5
        trace.append(d)
        if d < 1e-18:
            break

    x_rec, y_rec = v[:din], v[din:]
    x_true = np.asarray(truth.inputs[0], dtype=np.float64)
    mse = float(np.mean((x_rec - x_true) ** 2))
    return ReconstructionReport(
        final_mse=mse,
        trace=trace,
        success=aborted is None and mse < cfg.mse_threshold,
        recovered_x=x_rec,
        recovered_y=y_rec,
        aborted=aborted,
    )


def calibrate_dlg_alpha(run_one, alphas=DLG_ALPHA_GRID, seeds=range(10)):
    """Smallest alpha at which run_one(alpha, seed).success is False for all
    seeds; run_one is a caller-supplied closure over model/data setup."""
    for alpha in alphas:
        if not any(run_one(alpha, s).success for s in seeds):
            return alpha
    return None


# ---------------------------------------------------------------------------
# Model inversion
# ---------------------------------------------------------------------------


def mia_attack(
    model: TinyModel,
    label: int,
    T: int = 200,
    zeta: int = 10,
    gamma: float = 0.0,
    eta: float = 1.0,
    clamp: tuple[float, float] = (0.0, 1.0),
):
    """Gradient-descent inversion of a target class.

    Cost C(x) = 1 - softmax(model(x))[label]; descent from x0 = 0 with each
    iterate clamped to the input range.  Stops when the cost has not improved
    on the best of the last ``zeta`` iterates, or when cost <= gamma; returns
    the argmin over all visited iterates and its cost.
    """
    if T < 1 or zeta < 1:
        raise ParameterError("T and zeta must be >= 1")
    if not (0 <= label < model.output_dim):
        raise ParameterError("label out of range")
    lo, hi = clamp
    x = np.zeros(model.input_dim)
    labels = np.array([label])

    def cost_and_grad(xv):
        batch = Batch(inputs=xv[None, :], labels=labels)
        probs = softmax(forward_batch(model, xv[None, :])[0])
        _, gx = input_gradient(model, batch, "cross_entropy")
        # C = 1 - p_label and L_ce = -log p_label, so dC/dx = p_label * dL/dx
        return 1.0 - float(probs[label]), float(probs[label]) * gx[0]

    c, g = cost_and_grad(x)
    costs = [c]
    visited = [x.copy()]
    for t in range(1, T + 1):
        x = np.clip(x - eta * g, lo, hi)
        c, g = cost_and_grad(x)
        costs.append(c)
        visited.append(x.copy())
        if c <= gamma:
            break
        window = costs[max(0, t - zeta) : t]
        if len(window) == zeta and c >= max(window):
            break
    best = int(np.argmin(costs))
    return visited[best], costs[best]


# ---------------------------------------------------------------------------
# GAN attack
# ---------------------------------------------------------------------------

GAN_MODES = ("normal", "masked", "pretrained")


@dataclass(frozen=True)
class GanPair:
    generator: TinyModel  # noise dim -> data dim
    discriminator: TinyModel  # data dim -> 1

    def __post_init__(self):
        if self.generator.output_dim != self.discriminator.input_dim:
            raise ParameterError("generator output dim must match discriminator input dim")
        if self.discriminator.output_dim != 1:
            raise ParameterError("discriminator must output one score")


@dataclass(frozen=True)
class GanSchedule:
    epochs: int = 40
    steps_per_epoch: int = 150
    batch_size: int = 64
    eta_d: float = 3.0
    eta_g: float = 0.05
    alpha: float = 1.0  # weight mask half-width for the masked mode
    d_clip: float = 3.0  # discriminator weights clipped to this box each update
    pretrain_epochs: int = 5  # discriminator head start for the pretrained mode
    pretrain_eta: float = 200.0  # oversized step drives the head start into saturation

    def __post_init__(self):
        if self.epochs < 11:
            raise ParameterError("need more than 10 epochs to assess convergence")
        for name in ("batch_size", "steps_per_epoch"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1")
        if self.pretrain_epochs < 0:
            raise ParameterError("pretrain_epochs must be >= 0")
        for name in ("eta_d", "eta_g", "pretrain_eta", "d_clip"):
            if not 0 < getattr(self, name) < math.inf:
                raise ParameterError(f"{name} must be finite and > 0")
        if not (0.0 <= self.alpha <= 1.0):
            raise ParameterError("alpha must lie in [0, 1]")


@dataclass
class GanReport:
    mode: str
    loss_trace: list  # per-epoch generator loss vs the honestly trained discriminator
    mode_distance: float  # mean distance of generated samples to nearest mixture mean
    non_convergent: bool  # loss after warmup stayed at or above its initial 10-epoch average
    diverged: bool
    samples: np.ndarray


def _gen_noise(rng: Rng, n: int, dim: int) -> np.ndarray:
    return rng.normal(0.0, 1.0, n * dim).reshape(n, dim)


def _d_step(d: TinyModel, real: np.ndarray, fake: np.ndarray, eta: float, clip: float) -> TinyModel:
    """One discriminator update, real examples toward 1 and fake toward 0,
    with the weights clipped to [-clip, clip] afterwards."""
    x = np.vstack([real, fake])
    y = np.vstack([np.ones((real.shape[0], 1)), np.zeros((fake.shape[0], 1))])
    _, grad = backward(d, Batch(inputs=x, labels=y), "mse")
    return unflatten(d, np.clip(flatten(d) - eta * grad, -clip, clip))


def _g_loss(d: TinyModel, fake: np.ndarray) -> float:
    score = forward_batch(d, fake)
    return 0.5 * float(np.mean((score - 1.0) ** 2))


def _g_step(g: TinyModel, d_for_signal: TinyModel, z: np.ndarray, fake: np.ndarray, eta: float) -> TinyModel:
    """One generator update pushing d(G(z)) toward the real label; fake is G(z)."""
    y_goal = np.ones((fake.shape[0], 1))
    # upstream gradient through the discriminator at the generated points
    _, up = input_gradient(d_for_signal, Batch(inputs=fake, labels=y_goal), "mse")
    # surrogate targets make the generator's own backprop consume `up`
    targets = fake - fake.shape[0] * up
    _, grad = backward(g, Batch(inputs=z, labels=targets), "mse")
    return unflatten(g, flatten(g) - eta * grad)


def mode_distance(samples: np.ndarray, means: np.ndarray | None = None) -> float:
    """Mean distance from each sample to its nearest mixture mean."""
    means = mixture_means() if means is None else means
    d = np.linalg.norm(samples[:, None, :] - means[None, :, :], axis=2)
    return float(np.mean(np.min(d, axis=1)))


def gan_attack(pair: GanPair, real_data: np.ndarray, schedule: GanSchedule, mode: str = "normal", seed: int = 0) -> GanReport:
    """Alternating generator/discriminator training over a point cloud.

    Modes: ``normal`` trains both honestly; ``masked`` gives the generator
    its learning signal through a masked snapshot of the discriminator,
    redrawn at the start of each epoch (the attacker only ever sees the
    masked weights it downloads); ``pretrained`` drives the discriminator
    into saturation with an oversized head start, after which the
    discriminator's weights stay fixed.  The recorded per-epoch generator
    loss is always measured against the honestly trained discriminator on a
    held-out noise probe at the start of the epoch.

    Non-convergence is declared when the post-warmup mean of that trace
    never falls materially (0.01) below the initial 10-epoch average.
    """
    if mode not in GAN_MODES:
        raise ParameterError(f"unknown mode {mode!r}")
    rng = Rng(seed).child("gan", mode)
    g, d = pair.generator, pair.discriminator
    real_data = np.asarray(real_data, dtype=np.float64)
    n_real = real_data.shape[0]
    zdim = g.input_dim
    B = schedule.batch_size

    frozen = False
    if mode == "pretrained":
        pre_rng = rng.child("pretrain")
        for _ in range(schedule.pretrain_epochs * schedule.steps_per_epoch):
            idx = pre_rng.choice(n_real, min(B, n_real), replace=True)
            fake = forward_batch(g, _gen_noise(pre_rng, B, zdim))
            d = _d_step(d, real_data[idx], fake, schedule.pretrain_eta, schedule.d_clip)
        frozen = True

    trace = []
    diverged = False
    for epoch in range(schedule.epochs):
        if mode == "masked":
            w = flatten(d)
            signal_d = unflatten(d, w + uniform_mask(w.shape[0], schedule.alpha, rng.child("mask", epoch)))
        else:
            signal_d = d
        probe = forward_batch(g, _gen_noise(rng.child("probe", epoch), 500, zdim))
        loss = _g_loss(d, probe)
        if not np.isfinite(loss):
            diverged = True
            break
        trace.append(loss)
        for step in range(schedule.steps_per_epoch):
            srng = rng.child("step", epoch, step)
            idx = srng.choice(n_real, min(B, n_real), replace=True)
            z = _gen_noise(srng, B, zdim)
            fake = forward_batch(g, z)
            if not frozen:
                d = _d_step(d, real_data[idx], fake, schedule.eta_d, schedule.d_clip)
                if mode != "masked":
                    signal_d = d
            g = _g_step(g, signal_d, z, fake, schedule.eta_g)

    samples = forward_batch(g, _gen_noise(rng.child("eval"), 500, zdim))
    initial = float(np.mean(trace[:10])) if len(trace) >= 10 else float("inf")
    non_convergent = diverged or len(trace) < 11 or float(np.mean(trace[10:])) >= initial - 0.01
    return GanReport(
        mode=mode,
        loss_trace=trace,
        mode_distance=mode_distance(samples),
        non_convergent=non_convergent,
        diverged=diverged,
        samples=samples,
    )


def default_gan_pair(seed: int) -> GanPair:
    """Generator (2-16-16-2, tanh) and discriminator (2-16-1, sigmoid) sized
    for the bundled 2-D mixture, with per-seed initializations."""
    from .models import init_model

    return GanPair(
        generator=init_model((2, 16, 16, 2), "tanh", Rng(seed).child("gen")),
        discriminator=init_model((2, 16, 1), "sigmoid", Rng(seed).child("disc")),
    )


# ---------------------------------------------------------------------------
# Log-perplexity probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LpRow:
    alpha: float
    mean_lp: float  # mean with zero-probability transitions scored at the floor
    saturated: int  # sequences with at least one exactly-zero transition
    total: int


LP_PROB_FLOOR = 1e-9  # a zero-probability transition scores -log2 of this


def lp_probe(lm, alphas, corpus, seed: int = 0, draws: int = 5) -> list[LpRow]:
    """Mean masked log-perplexity over the corpus at each mask level.

    Each alpha is averaged over ``draws`` fresh uniform-noise tables.
    Sequences crossing an exactly-zero transition have infinite
    log-perplexity; they are counted in ``saturated`` and enter the mean
    with the zero probability floored at LP_PROB_FLOOR, so the mean stays
    finite and every sequence keeps contributing (dropping saturated
    sequences would bias the mean down, since the hardest sequences
    saturate first).
    """
    corpus = list(corpus)
    if not corpus:
        raise ParameterError("corpus must be nonempty")
    if draws < 1:
        raise ParameterError("draws must be >= 1")
    rng = Rng(seed).child("lp-probe")
    rows = []
    for alpha in alphas:
        lps, n_sat = [], 0
        for rep in range(draws):
            table = mask_bigram_probs(lm, float(alpha), rng.child("alpha", alpha, rep))
            raw = np.array([lm_log_perplexity(table, seq) for seq in corpus])
            floored = [lm_log_perplexity(np.maximum(table, LP_PROB_FLOOR), seq) for seq in corpus]
            lps.extend(floored)
            n_sat += int(np.sum(~np.isfinite(raw)))
        rows.append(
            LpRow(
                alpha=float(alpha),
                mean_lp=float(np.mean(lps)),
                saturated=n_sat,
                total=len(corpus) * draws,
            )
        )
    return rows
