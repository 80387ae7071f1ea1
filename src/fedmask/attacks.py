"""Reconstruction and extraction attacks against tiny models: gradient
matching (DLG), model inversion, the GAN attack, and log-perplexity probing
of a bigram language model, each runnable with and without weight masking.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .data import mixture_means
from .models import (
    Batch,
    TinyModel,
    _backprop,
    _forward,
    _layers,
    _matching_backprop,
    _param_gradient,
    _trace_buffers,
    forward_batch,
    forward_trace,
    input_gradient,
    lm_log_perplexity,
    mask_bigram_probs,
    softmax,
)
from .numeric import ParameterError, Rng, as_vector, check_alpha, uniform_mask

# Mask level at which gradient-matching reconstruction fails on every seed at
# desk scale; acceptance criterion 06 checks it on seeds 0-9 of the
# glyph-input fixture.  Alpha 0.1 still succeeds on 4/10 seeds; 0.2 fails on
# all 10, the smallest reconstruction error (0.021) 2.1x the threshold.
DLG_FAILURE_ALPHA = 0.2


def _check_counts(cfg, minimums: dict) -> None:
    """Each named field of ``cfg`` is an integer, not a bool, at or above
    its minimum."""
    for name, low in minimums.items():
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ParameterError(f"{name} must be an integer, got {value!r}")
        if value < low:
            raise ParameterError(f"{name} must be >= {low}, got {value}")


class _Weights:
    """A network's parameters as the ``models`` kernels read them: the
    ``params`` vector (a writable copy under GAN training, updated in place)
    and the ``TinyModel`` attributes ``forward_trace`` reads.  ``layers``
    are views of ``params``, so the next pass sees each update; ``grad`` is
    the network's gradient vector, written through its ``grad_layers``
    views."""

    def __init__(self, model, params: np.ndarray):
        self.sizes, self.activation, self.params = model.sizes, model.activation, params
        self.layers = _layers(model.sizes, params)
        self.grad = np.empty_like(params)
        self.grad_layers = _layers(model.sizes, self.grad)
        self.input_dim, self.param_count = model.sizes[0], params.shape[0]


class _Pass:
    """Buffers for a forward and backward pass of the network ``net`` over
    fixed rows: the trace ``pre``/``acts``, whose ``acts[0]`` holds the
    inputs and whose output is ``out`` if given, and the ``deltas`` with
    their ``scratch``."""

    def __init__(self, net: _Weights, x: np.ndarray, out: np.ndarray | None = None):
        self.net = net
        self.pre, self.acts = _trace_buffers(net.sizes, net.activation, x, out)
        self.deltas = [np.empty_like(z) for z in self.pre]
        self.scratch = [np.empty_like(z) for z in self.pre]

    def forward(self) -> None:
        _forward(self.net.layers, self.net.activation, self.pre, self.acts)

    def backprop_mse(self, targets: np.ndarray) -> None:
        """Deltas of the batch-averaged mse loss of the traced outputs."""
        dout = self.deltas[-1]
        np.subtract(self.acts[-1], targets, out=dout)
        np.divide(dout, dout.shape[0], out=dout)
        _backprop(self.net.layers, self.net.activation, self.pre, self.acts, self.deltas, self.scratch)

    def gradient(self) -> np.ndarray:
        """The network's parameter gradient, written into its ``grad``."""
        _param_gradient(self.acts, self.deltas, self.net.grad_layers)
        return self.net.grad


# ---------------------------------------------------------------------------
# Gradient matching (DLG)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DlgConfig:
    iterations: int = 2000
    seed: int = 0
    eta: ClassVar[float] = 0.1  # first step size of the backtracking search
    mse_threshold: ClassVar[float] = 0.01
    init_scale: ClassVar[float] = 0.3  # dummy-data init std; keeps tanh units unsaturated

    def __post_init__(self):
        _check_counts(self, {"iterations": 1, "seed": 0})


@dataclass
class ReconstructionReport:
    final_mse: float
    trace: list  # per-iteration gradient-difference objective values
    success: bool
    recovered_x: np.ndarray | None = None
    recovered_y: np.ndarray | None = None
    aborted: str | None = None


class _Matching:
    """The gradient-matching objective D(v) = || grad_w L(model; x, y) -
    known_grad ||^2 of one example v = (x, y) under the mse loss, over
    buffers allocated once.  ``objective`` leaves the trace, deltas and
    residual r = grad_w L - known_grad of its point in them, and
    ``gradient`` differentiates D at that point."""

    def __init__(self, model: TinyModel, known_grad: np.ndarray):
        self.din, self.known_grad = model.input_dim, known_grad
        self.net = _Weights(model, model.params)
        self.buffers = _Pass(self.net, np.empty((1, model.input_dim)))
        self.y = np.empty((1, model.output_dim))
        self.g = np.empty(model.input_dim + model.output_dim)

    def objective(self, v: np.ndarray) -> float:
        p, din = self.buffers, self.din
        p.acts[0][0], self.y[0] = v[:din], v[din:]
        p.forward()
        p.backprop_mse(self.y)
        r = np.subtract(p.gradient(), self.known_grad, out=self.net.grad)
        return float(r @ r)

    def gradient(self) -> np.ndarray:
        """grad_v D = 2 grad_v <grad_w L, r> with r held fixed, at the point
        of the last ``objective`` call, written into ``g``."""
        p, net, g = self.buffers, self.net, self.g
        gx, gy = g[None, : self.din], g[None, self.din :]
        _matching_backprop(net.layers, net.activation, p.acts, p.deltas, p.scratch, self.y, net.grad_layers, gx, gy)
        return np.multiply(g, 2.0, out=g)


def gradient_difference(model: TinyModel, known_grad: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """D = || grad_w L(model; x, y) - known_grad ||^2 for a single example."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if x.shape != (model.input_dim,) or y.shape != (model.output_dim,):
        raise ParameterError(f"x and y must be vectors of {model.input_dim} and {model.output_dim} values")
    return _Matching(model, known_grad).objective(np.concatenate([x, y]))


def dlg_attack(model: TinyModel, known_grad: np.ndarray, truth: Batch, cfg: DlgConfig) -> ReconstructionReport:
    """Reconstruct a training example by matching gradients.

    Dummy data and labels start from Gaussian noise; each iteration descends
    the dummy pair along the exact gradient of the squared gradient
    difference D, with a backtracking step size.  The line search evaluates
    D alone at each trial point; the gradient is formed once per accepted
    point, by double backpropagation over that point's trace, deltas and
    residual (Zhu et al., "Deep Leakage from Gradients", NeurIPS 2019).
    Every recorded objective is ``gradient_difference`` at its point.  The
    ground truth is used only for the post-hoc reconstruction error.
    """
    din, dout = model.input_dim, model.output_dim
    known_grad = np.asarray(known_grad, dtype=np.float64)
    if known_grad.shape != (model.param_count,):
        raise ParameterError(f"known_grad must be a vector of {model.param_count} values, got shape {known_grad.shape}")
    if truth.inputs.shape[1] != din:
        raise ParameterError(f"truth inputs must be {din} wide, got shape {truth.inputs.shape}")
    rng = Rng(cfg.seed).child("dlg-init")
    v = rng.normal(0.0, cfg.init_scale, din + dout)
    match = _Matching(model, known_grad)

    trace = []
    d = match.objective(v)
    eta = cfg.eta
    aborted = None
    for _ in range(cfg.iterations):
        if not np.isfinite(d):
            aborted = "non-finite objective"
            break
        # the buffers hold v's trace: the last objective was v's
        g = match.gradient()
        stepped = False
        for _ in range(30):
            v_new = v - eta * g
            d_new = match.objective(v_new)
            if d_new < d:
                stepped = True
                break
            eta *= 0.5
        if not stepped:
            trace.append(d)
            break  # no step along the gradient lowers D in float64
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


# ---------------------------------------------------------------------------
# Model inversion
# ---------------------------------------------------------------------------


MIA_PATIENCE = 10  # zeta: iterates without improvement before inversion stops
MIA_COST_TARGET = 0.0  # gamma: a cost at or below this stops inversion


def mia_attack(model: TinyModel, label: int, T: int = 200, eta: float = 1.0, clamp: tuple[float, float] = (0.0, 1.0)):
    """Gradient-descent inversion of a target class.

    Cost C(x) = 1 - softmax(model(x))[label]; descent from x0 = 0 with each
    iterate clamped to the input range, for at most T steps.  Stops early
    when the cost is no better than the worst of the previous MIA_PATIENCE
    iterates, or when it reaches MIA_COST_TARGET; returns the argmin over
    all visited iterates and its cost.
    """
    if T < 1:
        raise ParameterError("T must be >= 1")
    if not (0 <= label < model.output_dim):
        raise ParameterError("label out of range")
    lo, hi = clamp
    if not lo <= hi:
        raise ParameterError("clamp must be (lo, hi) with lo <= hi")
    x = np.zeros(model.input_dim)
    labels = np.array([label])

    def cost_and_grad(xv):
        trace = forward_trace(model, xv[None, :])
        probs = softmax(trace[1][-1][0])
        gx = input_gradient(model, trace, labels, "cross_entropy")
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
        if c <= MIA_COST_TARGET:
            break
        window = costs[max(0, t - MIA_PATIENCE) : t]
        if len(window) == MIA_PATIENCE and c >= max(window):
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
    alpha: float = 1.0  # weight mask half-width for the masked mode
    eta_d: ClassVar[float] = 3.0
    eta_g: ClassVar[float] = 0.05
    d_clip: ClassVar[float] = 3.0  # discriminator weights clipped to this box each update
    pretrain_epochs: ClassVar[int] = 5  # discriminator head start for the pretrained mode
    pretrain_eta: ClassVar[float] = 200.0  # oversized step drives the head start into saturation

    def __post_init__(self):
        # more than 10 epochs, to assess convergence against the first 10
        _check_counts(self, {"epochs": 11, "steps_per_epoch": 1, "batch_size": 1})
        check_alpha(self.alpha)


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


def _d_step(p: _Pass, labels: np.ndarray, eta: float, clip: float) -> None:
    """One discriminator update in place over the rows in ``p``'s inputs,
    real examples toward 1 and fake toward 0 (``labels`` holds those
    targets, real rows first), with the weights clipped to [-clip, clip]
    afterwards; non-finite weights raise."""
    p.forward()
    p.backprop_mse(labels)
    d = p.net
    as_vector(np.clip(d.params - eta * p.gradient(), -clip, clip, out=d.params))


def _g_loss(d: _Weights, fake: np.ndarray) -> float:
    score = forward_batch(d, fake)
    return 0.5 * float(np.mean((score - 1.0) ** 2))


def _g_step(gp: _Pass, sp: _Pass, goal: np.ndarray, up: np.ndarray, eta: float) -> None:
    """One generator update in place pushing d(G(z)) toward ``goal``, the
    real label; ``gp`` holds the trace of G(z), whose output rows are the
    inputs of the signal discriminator's pass ``sp``, and ``up`` takes the
    upstream gradient.  Non-finite weights raise."""
    fake = gp.acts[-1]
    # upstream gradient through the discriminator at the generated points
    sp.forward()
    sp.backprop_mse(goal)
    np.matmul(sp.deltas[0], sp.net.layers[0][0].T, out=up)
    # surrogate targets make the generator's own backprop consume `up`
    targets = np.subtract(fake, np.multiply(fake.shape[0], up, out=up), out=up)
    gp.backprop_mse(targets)
    g = gp.net
    as_vector(np.subtract(g.params, eta * gp.gradient(), out=g.params))


def mode_distance(samples: np.ndarray) -> float:
    """Mean distance from each sample to its nearest mixture mean."""
    means = mixture_means()
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

    Both networks train in place on private writable copies of the pair's
    parameters, so ``pair`` is left untouched; a step whose update is not
    finite raises ``ParameterError``.  Every step runs the ``models``
    kernels on trace, delta and gradient buffers allocated once per attack.
    """
    if mode not in GAN_MODES:
        raise ParameterError(f"unknown mode {mode!r}")
    rng = Rng(seed).child("gan", mode)
    g = _Weights(pair.generator, np.array(pair.generator.params))
    d = _Weights(pair.discriminator, np.array(pair.discriminator.params))
    real_data = np.asarray(real_data, dtype=np.float64)
    if real_data.ndim != 2 or real_data.shape[0] < 1 or real_data.shape[1] != d.input_dim:
        raise ParameterError(f"real_data must be a nonempty (n, {d.input_dim}) array, got shape {real_data.shape}")
    if not np.all(np.isfinite(real_data)):
        raise ParameterError("real_data contains non-finite values")
    n_real = real_data.shape[0]
    zdim = g.input_dim
    B = schedule.batch_size
    n_batch = min(B, n_real)
    d_labels = np.vstack([np.ones((n_batch, 1)), np.zeros((B, 1))])
    g_goal = np.ones((B, 1))
    # one step's discriminator inputs: sampled real rows, then G's output rows
    d_in = np.empty((n_batch + B, d.input_dim))
    real, fake = d_in[:n_batch], d_in[n_batch:]
    signal_d = _Weights(d, np.empty_like(d.params)) if mode == "masked" else d
    g_pass, d_pass, signal_pass = _Pass(g, np.empty((B, zdim)), out=fake), _Pass(d, d_in), _Pass(signal_d, fake)
    up = np.empty_like(fake)

    def draw(r: Rng) -> None:
        """Sample a real batch and trace G on fresh noise, both from ``r``."""
        np.take(real_data, r.integers(0, n_real, n_batch), axis=0, out=real)
        g_pass.acts[0] = _gen_noise(r, B, zdim)
        g_pass.forward()

    frozen = False
    if mode == "pretrained":
        pre_rng = rng.child("pretrain")
        for _ in range(schedule.pretrain_epochs * schedule.steps_per_epoch):
            draw(pre_rng)
            _d_step(d_pass, d_labels, schedule.pretrain_eta, schedule.d_clip)
        frozen = True

    trace = []
    diverged = False
    srng = Rng(seed)
    for epoch in range(schedule.epochs):
        if mode == "masked":
            np.add(d.params, uniform_mask(d.param_count, schedule.alpha, rng.child("mask", epoch)), out=signal_d.params)
        probe = forward_batch(g, _gen_noise(rng.child("probe", epoch), 500, zdim))
        loss = _g_loss(d, probe)
        if not np.isfinite(loss):
            diverged = True
            break
        trace.append(loss)
        for step in range(schedule.steps_per_epoch):
            srng.restart(*rng.path, "step", epoch, step)
            draw(srng)
            if not frozen:
                _d_step(d_pass, d_labels, schedule.eta_d, schedule.d_clip)
            _g_step(g_pass, signal_pass, g_goal, up, schedule.eta_g)

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
