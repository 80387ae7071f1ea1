"""Federated training loops, DP-SGD contracts, and privacy composition."""

import math

import numpy as np
import pytest

from fedmask.data import make_glyphs, partition
from fedmask.fedcore import (
    DpConfig,
    FedConfig,
    PrivacyLedger,
    _sample_group,
    client_update,
    compose_privacy,
    dp_sgd,
    masked_client_update,
    masked_dp_sgd,
    run_fedavg,
)
from fedmask.models import Batch, accuracy, backward, flatten, init_model, per_example_backward, unflatten
from fedmask.numeric import ParameterError, Rng, vec_mean
from oracles import sgd_loop


def glyph_setup(seed=0, n_per_class=5):
    rng = Rng(seed)
    inputs, labels = make_glyphs(n_per_class, rng.child("data"))
    model = init_model((64, 16, 10), "tanh", rng.child("init"))
    return model, inputs, labels


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def test_fed_config_validation():
    with pytest.raises(ParameterError):
        FedConfig(n_clients=0)
    with pytest.raises(ParameterError):
        FedConfig(n_clients=2, alpha=1.5)
    for bad in (
        {"t_global": 0},
        {"aggregator": "bogus"},
    ):
        with pytest.raises(ParameterError):
            FedConfig(n_clients=2, **bad)


def test_dp_config_validation():
    with pytest.raises(ParameterError):
        DpConfig(noise_scale=0.0, clip_threshold=0.0, group_size=1, steps=1)
    with pytest.raises(ParameterError):
        DpConfig(noise_scale=-1.0, clip_threshold=1.0, group_size=1, steps=1)
    with pytest.raises(ParameterError):
        DpConfig(noise_scale=0.0, clip_threshold=1.0, group_size=0, steps=1)
    with pytest.raises(ParameterError):
        DpConfig(noise_scale=0.0, clip_threshold=1.0, group_size=1, steps=0)
    with pytest.raises(ParameterError):
        # noise without a finite clip has unbounded sensitivity
        DpConfig(noise_scale=1.0, clip_threshold=math.inf, group_size=1, steps=1)
    for bad in (
        {"noise_scale": math.nan},
        {"clip_threshold": math.nan},
    ):
        with pytest.raises(ParameterError):
            DpConfig(**{"noise_scale": 0.0, "clip_threshold": 1.0, "group_size": 1, "steps": 1, **bad})
    # an infinite clip threshold disables clipping and stays legal without noise
    DpConfig(noise_scale=0.0, clip_threshold=math.inf, group_size=1, steps=1)


# ---------------------------------------------------------------------------
# Client updates
# ---------------------------------------------------------------------------


def test_client_update_single_step_matches_manual_sgd():
    model, inputs, labels = glyph_setup()
    w = client_update(model, inputs, labels, t_local=1, eta=0.1)
    _, grad = backward(model, Batch(inputs=inputs, labels=labels), "cross_entropy")
    assert np.allclose(w, flatten(model) - 0.1 * grad)


def test_client_update_reduces_loss_small_eta():
    model, inputs, labels = glyph_setup()
    batch = Batch(inputs=inputs, labels=labels)
    before, _ = backward(model, batch, "cross_entropy")
    w = client_update(model, inputs, labels, t_local=3, eta=0.05)
    after, _ = backward(unflatten(model, w), batch, "cross_entropy")
    assert after <= before


def test_client_update_validation():
    model, inputs, labels = glyph_setup()
    with pytest.raises(ParameterError):
        client_update(model, inputs, labels, t_local=0, eta=0.1)
    with pytest.raises(ParameterError):
        client_update(model, inputs[:0], labels[:0], t_local=1, eta=0.1)
    with pytest.raises(ParameterError, match="eta"):
        client_update(model, inputs, labels, t_local=1, eta=-0.1)


def test_masked_update_alpha_zero_equals_plain():
    model, inputs, labels = glyph_setup()
    plain = client_update(model, inputs, labels, 2, 0.1)
    masked = masked_client_update(model, inputs, labels, 2, 0.1, 0.0, Rng(1).child("m"))
    assert np.array_equal(plain, masked)


def test_masked_update_mask_bounded():
    model, inputs, labels = glyph_setup()
    alpha = 0.2
    plain = client_update(model, inputs, labels, 1, 0.1)
    masked = masked_client_update(model, inputs, labels, 1, 0.1, alpha, Rng(2).child("m"))
    assert np.all(np.abs(masked - plain) <= alpha)


# ---------------------------------------------------------------------------
# FedAvg loop
# ---------------------------------------------------------------------------


def test_run_fedavg_unmasked_matches_manual_loop():
    model, inputs, labels = glyph_setup(seed=4)
    parts = partition(inputs, labels, 3, Rng(4).child("part"))
    cfg = FedConfig(n_clients=3, t_global=2)
    trained = run_fedavg(model, parts, cfg, Rng(4).child("fed"))
    # manual oracle
    current = model
    for _ in range(2):
        updates = [client_update(current, x, y, 1, 0.1) for x, y in parts]
        current = unflatten(current, vec_mean(updates))
    assert np.array_equal(flatten(trained), flatten(current))


def test_run_fedavg_masked_deviation_shrinks_with_n():
    """Masked vs unmasked aggregate deviation decreases as n grows."""
    model, inputs, labels = glyph_setup(seed=5, n_per_class=100)
    devs = []
    for n in (10, 100, 1000):
        parts = partition(inputs, labels, n, Rng(5).child("part", n))
        plain_cfg = FedConfig(n_clients=n, alpha=0.0)
        mask_cfg = FedConfig(n_clients=n, alpha=0.5)
        rng_a = Rng(5).child("fed", n)
        rng_b = Rng(5).child("fed", n)
        plain = flatten(run_fedavg(model, parts, plain_cfg, rng_a))
        masked = flatten(run_fedavg(model, parts, mask_cfg, rng_b))
        devs.append(np.max(np.abs(masked - plain)))
    assert devs[0] > devs[1] > devs[2]
    # and the n=1000 deviation obeys the five-sigma CLT bound
    assert devs[2] < 5 * 0.5 / np.sqrt(3 * 1000)


def test_run_fedavg_partition_count_checked():
    model, inputs, labels = glyph_setup(seed=7)
    parts = partition(inputs, labels, 2, Rng(7).child("part"))
    with pytest.raises(ParameterError):
        run_fedavg(model, parts, FedConfig(n_clients=3), Rng(7))


def test_run_fedavg_alternative_aggregator():
    model, inputs, labels = glyph_setup(seed=9)
    parts = partition(inputs, labels, 5, Rng(9).child("part"))
    cfg = FedConfig(n_clients=5, aggregator="coord_median")
    trained = run_fedavg(model, parts, cfg, Rng(9).child("fed"))
    updates = [client_update(model, x, y, 1, 0.1) for x, y in parts]
    assert np.array_equal(flatten(trained), np.median(np.stack(updates), axis=0))


# ---------------------------------------------------------------------------
# DP-SGD
# ---------------------------------------------------------------------------


def test_dp_sgd_post_clip_norms_bounded():
    model, inputs, labels = glyph_setup(seed=10)
    gamma = 0.05
    cfg = DpConfig(noise_scale=0.0, clip_threshold=gamma, group_size=8, steps=5)
    rng = Rng(10).child("dp")
    # oracle: recompute the per-example clipped gradients at every step and
    # confirm each entering contribution has norm <= gamma
    w = flatten(model)
    for t in range(cfg.steps):
        idx = _sample_group(inputs.shape[0], cfg, rng, t)
        current = unflatten(model, w)
        total = np.zeros_like(w)
        for g in per_example_backward(current, inputs[idx], labels[idx], cfg.loss):
            clipped = g / max(1.0, float(np.linalg.norm(g)) / gamma)
            assert np.linalg.norm(clipped) <= gamma + 1e-12
            total += clipped
        if idx.size:
            w = w - cfg.eta * (total / cfg.group_size)
    # and the library run matches this manual clipped trajectory bit-exactly
    lib_w, _ = dp_sgd(model, inputs, labels, cfg, Rng(10).child("dp"))
    assert np.array_equal(lib_w, w)


def test_dp_sgd_no_noise_no_clip_equals_plain_sgd():
    model, inputs, labels = glyph_setup(seed=11)
    cfg = DpConfig(noise_scale=0.0, clip_threshold=math.inf, group_size=4, steps=6)
    w_dp, ledger = dp_sgd(model, inputs, labels, cfg, Rng(11).child("s"))
    w_plain = sgd_loop(model, inputs, labels, cfg, Rng(11).child("s"))
    assert np.array_equal(w_dp, w_plain)
    assert len(ledger.entries) == cfg.steps


def test_dp_sgd_noise_changes_trajectory_but_ledger_deterministic():
    model, inputs, labels = glyph_setup(seed=12)
    cfg = DpConfig(noise_scale=1.0, clip_threshold=0.1, group_size=4, steps=4)
    w1, l1 = dp_sgd(model, inputs, labels, cfg, Rng(1).child("s"))
    w2, l2 = dp_sgd(model, inputs, labels, cfg, Rng(2).child("s"))
    assert not np.array_equal(w1, w2)
    assert l1.entries == l2.entries  # ledger depends only on the config


@pytest.mark.parametrize("rows, n_labels, match", [(0, 0, "nonempty"), (3, 2, "label count")], ids=["empty", "label-count"])
def test_dp_sgd_rejects_bad_data(rows, n_labels, match):
    # these used to raise ZeroDivisionError and, for some sampled rows, IndexError
    model, inputs, labels = glyph_setup(seed=15)
    inputs, labels = inputs[:rows], labels[:n_labels]
    cfg = DpConfig(noise_scale=0.0, clip_threshold=1.0, group_size=2, steps=3)
    with pytest.raises(ParameterError, match=match):
        dp_sgd(model, inputs, labels, cfg, Rng(15).child("s"))
    with pytest.raises(ParameterError, match=match):
        masked_dp_sgd(model, inputs, labels, cfg, 0.1, Rng(15).child("s"))


def test_masked_dp_sgd_alpha_zero_equals_dp_sgd():
    model, inputs, labels = glyph_setup(seed=13)
    cfg = DpConfig(noise_scale=0.0, clip_threshold=1.0, group_size=4, steps=3)
    w_plain, _ = dp_sgd(model, inputs, labels, cfg, Rng(13).child("s"))
    w_masked, _ = masked_dp_sgd(model, inputs, labels, cfg, 0.0, Rng(13).child("s"))
    assert np.array_equal(w_plain, w_masked)


def test_masked_dp_sgd_mask_bounded():
    model, inputs, labels = glyph_setup(seed=14)
    cfg = DpConfig(noise_scale=0.0, clip_threshold=1.0, group_size=4, steps=3)
    alpha = 0.3
    w_plain, _ = dp_sgd(model, inputs, labels, cfg, Rng(14).child("s"))
    w_masked, _ = masked_dp_sgd(model, inputs, labels, cfg, alpha, Rng(14).child("s"))
    assert np.all(np.abs(w_masked - w_plain) <= alpha)


def test_masked_dp_sgd_aggregate_error_slope():
    """Aggregate error vs unmasked shrinks ~ 1/sqrt(n): log-log slope -0.5."""
    model, inputs, labels = glyph_setup(seed=15)
    cfg = DpConfig(noise_scale=0.0, clip_threshold=1.0, group_size=4, steps=1)
    w_plain, _ = dp_sgd(model, inputs, labels, cfg, Rng(15).child("c"))
    ns = (10, 100, 1000)
    errs = []
    for n in ns:
        masked = [
            masked_dp_sgd(model, inputs, labels, cfg, 0.5, Rng(15).child("c", "m", n, i))[0]
            for i in range(n)
        ]
        # each client shares the same data here; the aggregate error is purely
        # the surviving mask average
        errs.append(float(np.linalg.norm(vec_mean(masked) - w_plain) / np.sqrt(len(w_plain))))
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert abs(slope - (-0.5)) < 0.15


# ---------------------------------------------------------------------------
# Privacy composition
# ---------------------------------------------------------------------------


def test_compose_two_entries_doubles():
    assert compose_privacy([(1.0, 1e-5), (1.0, 1e-5)]) == (2.0, 2e-5)


def test_compose_single_entry_identity():
    assert compose_privacy([(0.7, 1e-6)]) == (0.7, 1e-6)


def test_compose_t_entries():
    T = 13
    eps, delta = compose_privacy([(0.5, 1e-5)] * T)
    assert abs(eps - 0.5 * T) < 1e-12
    assert abs(delta - 1e-5 * T) < 1e-18


def test_ledger_totals_match_compose():
    ledger = PrivacyLedger()
    for i in range(5):
        ledger.record(0.1 * (i + 1), 1e-6)
    assert ledger.totals == compose_privacy(ledger.entries)


def test_compose_empty_rejected():
    with pytest.raises(ParameterError):
        compose_privacy([])
