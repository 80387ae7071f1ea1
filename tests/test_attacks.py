"""Reconstruction and extraction attacks: gradient matching, model
inversion, the adversarial-pair training loop, and the log-perplexity probe."""

import dataclasses
import hashlib

import numpy as np
import pytest

from fedmask import attacks, models
from fedmask.attacks import (
    DLG_FAILURE_ALPHA,
    DlgConfig,
    GAN_MODES,
    GanPair,
    GanSchedule,
    LP_PROB_FLOOR,
    default_gan_pair,
    dlg_attack,
    gan_attack,
    gradient_difference,
    lp_probe,
    mia_attack,
    mode_distance,
)
from fedmask.data import make_gaussian_mixture, make_glyphs, make_token_corpus, mixture_means
from fedmask.fedcore import DpConfig, FedConfig
from fedmask.models import (
    Batch,
    TinyModel,
    backward,
    flatten,
    forward_trace,
    init_model,
    trace_gradient,
    train_bigram,
    unflatten,
)
from fedmask.numeric import ParameterError, Rng, uniform_mask
from oracles import loop_fd_gradient


# ---------------------------------------------------------------------------
# Gradient matching
# ---------------------------------------------------------------------------


def test_gradient_difference_zero_at_truth():
    model = init_model((6, 4, 3), "tanh", Rng(0).child("m"))
    rng = Rng(0).child("d")
    x = rng.uniform(-1, 1, 6)
    y = rng.uniform(-1, 1, 3)
    _, g = backward(model, Batch(inputs=x[None, :], labels=y[None, :]), "mse")
    assert gradient_difference(model, g, x, y) == 0.0


def exact_gradient(model, known, v):
    """The attack's gradient of D at v, from its objective's buffers."""
    match = attacks._Matching(model, known)
    match.objective(v)
    return match.gradient().copy()


def test_fd_gradient_matches_analytic_on_linear_model():
    """The exact gradient of the gradient-difference objective vs the
    closed-form derivative for a single linear layer with mse loss."""
    din, dout = 3, 2
    rng = Rng(1).child("lin")
    W = rng.uniform(-1, 1, din * dout).reshape(din, dout)
    b = rng.uniform(-1, 1, dout)
    model = TinyModel(sizes=(din, dout), params=np.concatenate([W.ravel(), b]), activation="identity")
    G = rng.uniform(-1, 1, din * dout).reshape(din, dout)  # target weight grad
    h_t = rng.uniform(-1, 1, dout)  # target bias grad
    known = np.concatenate([G.ravel(), h_t])
    v = rng.uniform(-1, 1, din + dout)

    exact = exact_gradient(model, known, v)

    # analytic: r = xW + b - y; grad_w = x^T r, grad_b = r
    x, y = v[:din], v[din:]
    r = x @ W + b - y
    gx = np.zeros(din)
    for k in range(din):
        for i in range(din):
            for j in range(dout):
                gx[k] += 2 * (x[i] * r[j] - G[i, j]) * ((i == k) * r[j] + x[i] * W[k, j])
        for j in range(dout):
            gx[k] += 2 * (r[j] - h_t[j]) * W[k, j]
    gy = np.zeros(dout)
    for j in range(dout):
        for i in range(din):
            gy[j] += 2 * (x[i] * r[j] - G[i, j]) * (-x[i])
        gy[j] += 2 * (r[j] - h_t[j]) * (-1.0)
    analytic = np.concatenate([gx, gy])
    assert np.max(np.abs(exact - analytic)) / max(np.max(np.abs(analytic)), 1.0) < 1e-12


def criterion_06_setup(seed):
    """Criterion 06's 64-8-4 tanh model, one glyph and its true gradient."""
    model = init_model((64, 8, 4), "tanh", Rng(seed).child("model"))
    inputs, _ = make_glyphs(1, Rng(seed).child("data"))
    y = Rng(seed).child("y").uniform(-1.0, 1.0, 4)
    truth = Batch(inputs=inputs[:1], labels=y[None, :])
    _, known = backward(model, truth, "mse")
    return model, known, truth


def dlg_iterates(model, known, truth, seed, count):
    """The dummy start point and the first ``count`` iterates of the attack."""
    points = [Rng(seed).child("dlg-init").normal(0.0, DlgConfig.init_scale, 68)]
    for iterations in range(1, count + 1):
        report = dlg_attack(model, known, truth, DlgConfig(seed=seed, iterations=iterations))
        points.append(np.concatenate([report.recovered_x, report.recovered_y]))
    assert len({p.tobytes() for p in points}) == count + 1
    return points


def test_exact_gradient_matches_central_differences_on_dlg_iterates():
    """Criterion 06's setup, seed 0: at the dummy start point and the first
    five iterates the exact gradient agrees with central differences."""
    model, known, truth = criterion_06_setup(0)

    def objective(vec):
        return gradient_difference(model, known, vec[:64], vec[64:])

    for v in dlg_iterates(model, known, truth, 0, 5):
        want = loop_fd_gradient(objective, v, 1e-5)
        got = exact_gradient(model, known, v)
        assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))


def test_dlg_objectives_are_gradient_difference_bit_for_bit(monkeypatch):
    """The attack's first objective is gradient_difference at the start point
    and each recorded one is gradient_difference at its iterate, bit for
    bit; both equal D formed from trace_gradient."""
    model, known, truth = criterion_06_setup(0)
    points = dlg_iterates(model, known, truth, 0, 5)
    seen = []
    objective = attacks._Matching.objective

    def recording(self, v):
        seen.append(objective(self, v))
        return seen[-1]

    monkeypatch.setattr(attacks._Matching, "objective", recording)
    report = dlg_attack(model, known, truth, DlgConfig(seed=0, iterations=5))
    monkeypatch.undo()
    want = [gradient_difference(model, known, v[:64], v[64:]) for v in points]
    assert seen[0] == want[0]
    assert report.trace == want[1:]
    for v, d in zip(points, want):
        r = trace_gradient(model, forward_trace(model, v[None, :64]), v[None, 64:], "mse") - known
        assert float(r @ r) == d


def test_dlg_known_answer():
    """Criterion 06's setup (64-8-4 tanh model, one glyph) at seeds 0-2,
    unmasked and at the failure alpha, 200 iterations each: pins the
    objective traces and the recovered pairs, which follow the exact
    gradient of D."""
    h = hashlib.sha256()
    for seed in range(3):
        model = init_model((64, 8, 4), "tanh", Rng(seed).child("model"))
        inputs, _ = make_glyphs(1, Rng(seed).child("data"))
        y = Rng(seed).child("y").uniform(-1.0, 1.0, 4)
        truth = Batch(inputs=inputs[:1], labels=y[None, :])
        _, known = backward(model, truth, "mse")
        for alpha in (0.0, DLG_FAILURE_ALPHA):
            attacked = model
            if alpha > 0:
                w = flatten(model)
                attacked = unflatten(model, w + uniform_mask(w.shape[0], alpha, Rng(seed).child("mask")))
            report = dlg_attack(attacked, known, truth, DlgConfig(seed=seed, iterations=200))
            h.update(np.asarray(report.trace, dtype=np.float64).tobytes())
            h.update(report.recovered_x.tobytes())
            h.update(report.recovered_y.tobytes())
    assert h.hexdigest()[:16] == "b9a4e1f75bcfb8c9"


def test_dlg_recovers_single_example_small_model():
    model = init_model((8, 4, 2), "tanh", Rng(2).child("m"))
    rng = Rng(2).child("truth")
    x = rng.uniform(-1, 1, 8)
    y = rng.uniform(-1, 1, 2)
    truth = Batch(inputs=x[None, :], labels=y[None, :])
    _, g = backward(model, truth, "mse")
    report = dlg_attack(model, g, truth, DlgConfig(iterations=400, seed=0))
    assert report.success
    assert report.final_mse < 0.01
    assert report.trace[-1] < report.trace[0]


def test_dlg_config_validation():
    """Bools, floats (even integral ones) and counts below the minimum are
    refused at construction, naming the field; numpy integers are counts."""
    for bad in (
        {"iterations": 0},
        {"iterations": 2.5},
        {"iterations": True},
        {"iterations": 2.0},
        {"seed": 1.5},
        {"seed": True},
        {"seed": -1},
    ):
        with pytest.raises(ParameterError, match=next(iter(bad))):
            DlgConfig(**bad)
    cfg = DlgConfig(iterations=np.int64(3), seed=np.uint32(7))
    assert (cfg.iterations, cfg.seed) == (3, 7)


def test_dlg_attack_rejects_mismatched_truth(monkeypatch):
    """A truth batch narrower than the model's inputs is rejected before the
    first objective is formed."""
    model, known, _ = criterion_06_setup(0)
    monkeypatch.setattr(attacks, "_Matching", None)
    with pytest.raises(ParameterError, match="truth"):
        dlg_attack(model, known, Batch(inputs=np.zeros((1, 10)), labels=np.zeros((1, 4))), DlgConfig())


def test_dlg_attack_known_grad_shape_checked():
    model = init_model((6, 4, 3), "tanh", Rng(0).child("m"))
    truth = Batch(inputs=np.zeros((1, 6)), labels=np.zeros((1, 3)))
    cfg = DlgConfig(iterations=5)
    for bad in (np.zeros(model.param_count - 1), np.zeros((1, model.param_count))):
        with pytest.raises(ParameterError, match="known_grad"):
            dlg_attack(model, bad, truth, cfg)
    # a vector of the right shape is taken as given: a NaN entry ends the
    # attack at its first objective rather than being rejected up front
    report = dlg_attack(model, np.full(model.param_count, np.nan), truth, cfg)
    assert report.aborted == "non-finite objective"
    assert not report.success


@pytest.mark.parametrize(
    "config, required, fields, constants",
    [
        (
            DlgConfig,
            {},
            ["iterations", "seed"],
            {"eta": 0.1, "mse_threshold": 0.01, "init_scale": 0.3},
        ),
        (
            GanSchedule,
            {},
            ["epochs", "steps_per_epoch", "batch_size", "alpha"],
            {"eta_d": 3.0, "eta_g": 0.05, "d_clip": 3.0, "pretrain_epochs": 5, "pretrain_eta": 200.0},
        ),
        (
            FedConfig,
            {},
            ["alpha", "aggregator", "aggregator_params"],
            {"eta": 0.1, "loss": "cross_entropy"},
        ),
        (
            DpConfig,
            {"noise_scale": 0.0, "clip_threshold": 1.0, "group_size": 1, "steps": 1},
            ["noise_scale", "clip_threshold", "group_size", "steps"],
            {"delta_target": 1e-5, "eta": 0.1, "loss": "cross_entropy"},
        ),
    ],
)
def test_config_fields_and_constants(config, required, fields, constants):
    # the settable fields are pinned, so a constant cannot become a knob again
    assert [f.name for f in dataclasses.fields(config)] == fields
    for name, value in constants.items():
        assert getattr(config(**required), name) == value
        with pytest.raises(TypeError):
            config(**required, **{name: value})


# ---------------------------------------------------------------------------
# Model inversion
# ---------------------------------------------------------------------------


def test_mia_linear_softmax_recovers_weight_direction():
    # binary case: with mean-centered columns the softmax cross-entropy input
    # gradient stays exactly parallel to the target column, so the closed-form
    # ascent direction is w_label at every iterate, not just the first
    din, classes = 8, 2
    rng = Rng(3).child("mia")
    W = rng.uniform(-1, 1, din * classes).reshape(din, classes)
    W = W - W.mean(axis=1, keepdims=True)
    model = TinyModel(
        sizes=(din, classes),
        params=np.concatenate([W.ravel(), np.zeros(classes)]),
        activation="identity",
    )
    for label in range(classes):
        x, cost = mia_attack(model, label, T=300, eta=0.5, clamp=(-10.0, 10.0))
        w = W[:, label]
        cosine = float(x @ w / (np.linalg.norm(x) * np.linalg.norm(w)))
        assert cosine >= 0.99, (label, cosine)
        assert cost < 0.5


def test_mia_validation():
    model = init_model((4, 3), "identity", Rng(0))
    with pytest.raises(ParameterError):
        mia_attack(model, label=5)
    with pytest.raises(ParameterError):
        mia_attack(model, label=0, T=0)
    with pytest.raises(ParameterError, match="clamp"):
        mia_attack(model, label=0, clamp=(1.0, 0.0))


# ---------------------------------------------------------------------------
# Adversarial pair training
# ---------------------------------------------------------------------------


def small_schedule():
    return GanSchedule(epochs=12, steps_per_epoch=5, batch_size=16)


def test_gan_pair_validation():
    g = init_model((2, 4, 2), "tanh", Rng(0).child("g"))
    d_bad_in = init_model((3, 1), "sigmoid", Rng(0).child("d1"))
    d_bad_out = init_model((2, 2), "sigmoid", Rng(0).child("d2"))
    with pytest.raises(ParameterError):
        GanPair(generator=g, discriminator=d_bad_in)
    with pytest.raises(ParameterError):
        GanPair(generator=g, discriminator=d_bad_out)


def test_gan_schedule_validation():
    with pytest.raises(ParameterError):
        GanSchedule(epochs=10)
    with pytest.raises(ParameterError):
        GanSchedule(batch_size=0)
    for bad in (
        {"steps_per_epoch": 0},
        {"alpha": 2.0},
        {"alpha": -0.1},
        {"epochs": 11.5},
        {"epochs": True},
        {"steps_per_epoch": True},
        {"batch_size": 2.5},
        {"batch_size": 64.0},
    ):
        with pytest.raises(ParameterError):
            GanSchedule(**bad)


@pytest.mark.parametrize("mode", GAN_MODES)
def test_gan_attack_report_structure(mode):
    pair = default_gan_pair(0)
    data, _ = make_gaussian_mixture(128, Rng(0).child("real"))
    report = gan_attack(pair, data, small_schedule(), mode=mode, seed=0)
    assert report.mode == mode
    assert len(report.loss_trace) == 12
    assert report.samples.shape == (500, 2)
    assert np.isfinite(report.mode_distance)
    assert not report.diverged


def test_gan_attack_deterministic():
    pair = default_gan_pair(1)
    data, _ = make_gaussian_mixture(128, Rng(1).child("real"))
    r1 = gan_attack(pair, data, small_schedule(), mode="normal", seed=1)
    r2 = gan_attack(pair, data, small_schedule(), mode="normal", seed=1)
    assert r1.loss_trace == r2.loss_trace
    assert np.array_equal(r1.samples, r2.samples)


def test_gan_attack_unknown_mode():
    pair = default_gan_pair(0)
    data, _ = make_gaussian_mixture(64, Rng(0).child("real"))
    with pytest.raises(ParameterError):
        gan_attack(pair, data, small_schedule(), mode="frozen")


@pytest.mark.parametrize(
    "real",
    [
        np.zeros((64, 3)),  # wrong width for the discriminator
        np.zeros(64),
        np.zeros((0, 2)),  # no real example to train the discriminator on
        np.array([[0.0, np.nan], [1.0, 0.0]]),
        np.array([[0.0, np.inf], [1.0, 0.0]]),
    ],
)
def test_gan_attack_rejects_malformed_real_data(real):
    with pytest.raises(ParameterError, match="real_data"):
        gan_attack(default_gan_pair(0), real, small_schedule())


@pytest.mark.parametrize("mode", GAN_MODES)
def test_gan_attack_forward_trace_count(monkeypatch, mode):
    """Per step one forward pass of G(z), which the discriminator update and
    the generator's own gradient share, one of D for its update (unless
    frozen) and one of the signal D for the generator's upstream gradient;
    per epoch one probe of G and one of D for the recorded loss; one final
    sample of G.  A pretrained head start adds a pass of G and one of D per
    step.  Every pass, buffered or allocating, runs the one forward kernel."""
    calls = []
    kernel = models._forward

    def counting(layers, activation, pre, acts):
        calls.append(len(layers))
        return kernel(layers, activation, pre, acts)

    monkeypatch.setattr(models, "_forward", counting)
    monkeypatch.setattr(attacks, "_forward", counting)
    schedule = GanSchedule(epochs=11, steps_per_epoch=3)
    real, _ = make_gaussian_mixture(128, Rng(0).child("real"))
    gan_attack(default_gan_pair(0), real, schedule, mode=mode)
    E, S = schedule.epochs, schedule.steps_per_epoch
    P = schedule.pretrain_epochs * S
    expected = 2 * P + 2 * E * S + 2 * E + 1 if mode == "pretrained" else 3 * E * S + 2 * E + 1
    assert len(calls) == expected == (119 if mode == "pretrained" else 122)


@pytest.mark.parametrize("mode", GAN_MODES)
def test_gan_attack_calls_no_backward_batch_or_choice(monkeypatch, mode):
    """Both networks' steps differentiate their forward traces directly and
    draw batch indices with `Rng.integers`: no `backward` call, no `Batch`
    built and no `Rng.choice` draw, in any mode."""
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapped

    backward = counting("backward", models.backward)
    monkeypatch.setattr(models, "backward", backward)
    # a by-name import of backward into attacks would bypass the patch above
    monkeypatch.setattr(attacks, "backward", backward, raising=False)
    monkeypatch.setattr(models.Batch, "__post_init__", counting("Batch", models.Batch.__post_init__))
    monkeypatch.setattr(Rng, "choice", counting("choice", Rng.choice))
    real, _ = make_gaussian_mixture(128, Rng(0).child("real"))
    gan_attack(default_gan_pair(0), real, GanSchedule(epochs=11, steps_per_epoch=3), mode=mode)
    assert calls == []


@pytest.mark.parametrize("network", ["generator", "discriminator"])
@pytest.mark.parametrize("mode", GAN_MODES)
def test_gan_attack_non_finite_update_raises(monkeypatch, mode, network):
    """A NaN gradient for either network makes its updated weights
    non-finite, which raises ParameterError in every mode."""
    pair = default_gan_pair(0)
    n_layers = len(getattr(pair, network).sizes) - 1  # G has 3 layers, D 2
    kernel = models._param_gradient

    def nan_for_one_network(acts, deltas, grad_layers):
        kernel(acts, deltas, grad_layers)
        if len(grad_layers) == n_layers:
            for grad_w, grad_b in grad_layers:
                grad_w.fill(np.nan)
                grad_b.fill(np.nan)

    monkeypatch.setattr(models, "_param_gradient", nan_for_one_network)
    monkeypatch.setattr(attacks, "_param_gradient", nan_for_one_network)
    real, _ = make_gaussian_mixture(128, Rng(0).child("real"))
    with pytest.raises(ParameterError, match="non-finite"):
        gan_attack(pair, real, GanSchedule(epochs=11, steps_per_epoch=3), mode=mode)


@pytest.mark.parametrize("mode", GAN_MODES)
def test_gan_attack_leaves_the_pair_unchanged(mode):
    pair = default_gan_pair(0)
    g, d = pair.generator.params.copy(), pair.discriminator.params.copy()
    real, _ = make_gaussian_mixture(128, Rng(0).child("real"))
    gan_attack(pair, real, GanSchedule(epochs=11, steps_per_epoch=3), mode=mode)
    assert np.array_equal(pair.generator.params, g) and np.array_equal(pair.discriminator.params, d)
    assert not pair.generator.params.flags.writeable and not pair.discriminator.params.flags.writeable


def test_mia_attack_traces_once_per_cost_evaluation(monkeypatch):
    """The cost's probabilities and its input gradient share one trace: T = 50
    descent steps and the start point make 51 cost evaluations."""
    calls = []
    traced = models.forward_trace

    def counting(model, X):
        calls.append(model.sizes)
        return traced(model, X)

    monkeypatch.setattr(models, "forward_trace", counting)
    monkeypatch.setattr(attacks, "forward_trace", counting)
    mia_attack(init_model((64, 16, 10), "tanh", Rng(3).child("m")), 2, T=50)
    assert len(calls) == 51


def test_gan_and_model_inversion_known_answer():
    # pins the GAN loss traces and samples of every mode and one model
    # inversion result; the digest was computed before either loop was reworked
    real, _ = make_gaussian_mixture(128, Rng(0).child("real"))
    schedule = GanSchedule(epochs=11, steps_per_epoch=3)
    h = hashlib.sha256()
    for mode in GAN_MODES:
        report = gan_attack(default_gan_pair(0), real, schedule, mode=mode)
        h.update(np.asarray(report.loss_trace, dtype=np.float64).tobytes())
        h.update(report.samples.tobytes())
    x, cost = mia_attack(init_model((64, 16, 10), "tanh", Rng(3).child("m")), 2, T=50)
    h.update(x.tobytes())
    h.update(np.float64(cost).tobytes())
    assert h.hexdigest()[:16] == "56d397840138fd61"


def test_gan_known_answer_with_fewer_real_points_than_a_batch():
    # 40 real points under a 64-sample batch: the discriminator trains on
    # 40 + 64 rows; the digest was computed before the step was buffered
    real, _ = make_gaussian_mixture(40, Rng(0).child("real"))
    schedule = GanSchedule(epochs=11, steps_per_epoch=3)
    h = hashlib.sha256()
    for mode in GAN_MODES:
        report = gan_attack(default_gan_pair(0), real, schedule, mode=mode)
        assert len(report.loss_trace) == 11 and not report.diverged
        h.update(np.asarray(report.loss_trace, dtype=np.float64).tobytes())
        h.update(report.samples.tobytes())
    assert h.hexdigest()[:16] == "2ab5658c05cf281c"


def test_mode_distance_zero_at_means():
    assert mode_distance(mixture_means()) == 0.0


def test_mode_distance_known_offset():
    samples = mixture_means() + np.array([0.1, 0.0])
    # each sample sits 0.1 from its own mean and farther from the others
    assert mode_distance(samples) == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# Log-perplexity probe
# ---------------------------------------------------------------------------


def lm_and_corpus(seed=0):
    corpus = make_token_corpus(Rng(seed).child("corpus"), vocab_size=8, n_sequences=60, length=20)
    lm = train_bigram(corpus[:40], vocab_size=8)
    return lm, corpus[40:]


def test_lp_probe_row_structure():
    lm, held = lm_and_corpus()
    rows = lp_probe(lm, [0.0, 0.4, 0.8], held, seed=0, draws=2)
    assert [r.alpha for r in rows] == [0.0, 0.4, 0.8]
    assert all(r.total == len(held) * 2 for r in rows)
    assert all(np.isfinite(r.mean_lp) for r in rows)


def test_lp_probe_zero_alpha_never_saturates():
    lm, held = lm_and_corpus(1)
    (row,) = lp_probe(lm, [0.0], held, seed=1)
    assert row.saturated == 0


def test_lp_probe_high_alpha_saturates():
    lm, held = lm_and_corpus(2)
    (row,) = lp_probe(lm, [0.8], held, seed=2)
    assert row.saturated > 0


def test_lp_probe_mean_increases_with_alpha():
    lm, held = lm_and_corpus(3)
    rows = lp_probe(lm, [0.0, 0.4, 0.8], held, seed=3)
    assert rows[0].mean_lp < rows[1].mean_lp < rows[2].mean_lp


def test_lp_probe_validation():
    lm, held = lm_and_corpus(4)
    with pytest.raises(ParameterError):
        lp_probe(lm, [0.0], [])
    with pytest.raises(ParameterError):
        lp_probe(lm, [0.0], held, draws=0)


def test_lp_floor_is_positive_and_small():
    assert 0.0 < LP_PROB_FLOOR < 1e-6
