"""End-to-end acceptance battery.

Each test covers one headline guarantee of the artifact and prints a single
"criterion NN ...: PASS" line when it holds; tolerances and time budgets are
stated inline.
"""

import time

import numpy as np
from scipy.stats import spearmanr

from fedmask.adversary import (
    AdversaryStrategy,
    AttackScenario,
    run_mitm,
    run_share_compromise,
    shamir_candidates,
    two_party_solve,
)
from fedmask.aggregators import aggregate, bulyan, coord_median, geometric_median, krum, krum_scores, trimmed_mean
from fedmask.attacks import (
    DLG_FAILURE_ALPHA,
    DlgConfig,
    GanSchedule,
    default_gan_pair,
    dlg_attack,
    gan_attack,
    lp_probe,
)
from fedmask.crypto import TOY_GROUP, shamir_split
from fedmask.data import make_gaussian_mixture, make_glyphs, make_token_corpus
from fedmask.fedcore import DpConfig, _sample_group, dp_sgd
from fedmask.harness import clt_check, run_scenario, scenario_from_dict
from fedmask.models import Batch, backward, flatten, init_model, per_example_backward, train_bigram, unflatten
from fedmask.numeric import Rng, encode_fixed, field_sum, uniform_mask, vec_mean
from fedmask.secagg import run_protocol
from oracles import sgd_loop


def report(num, label, elapsed, budget):
    assert elapsed < budget, f"criterion {num:02d} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"criterion {num:02d} ({label}): PASS [{elapsed:.1f}s]")


# ---------------------------------------------------------------------------
# 1. Aggregation correctness across the (n, dim, dropouts) grid
# ---------------------------------------------------------------------------


def test_criterion_01_aggregation_bit_exact_across_grid():
    start = time.perf_counter()
    for n in (3, 10, 50):
        for dim in (4, 64):
            for drops in (0, 1, 2):
                k = min(max(1, n // 2), n - drops)
                rng = Rng(n * 1000 + dim * 10 + drops).child("inputs")
                inputs = [rng.child(i).uniform(-1.0, 1.0, dim) for i in range(n)]
                # dropped clients complete key sharing, then vanish: their
                # dangling pairwise masks must be reconstructed and removed
                dropout = {i: 1 for i in range(drops)}
                t = run_protocol(inputs, k, seed=7, dropout_after=dropout, params=TOY_GROUP).transcript
                assert not t.aborted, (n, dim, drops, t.abort_reason)
                assert t.included == tuple(range(drops, n))
                expected = field_sum([encode_fixed(inputs[i]) for i in t.included])
                assert t.aggregate_field == expected, (n, dim, drops)
    report(1, "aggregation bit-exact across n/dim/dropout grid", time.perf_counter() - start, 10)


# ---------------------------------------------------------------------------
# 2. Attack soundness: MITM and share compromise
# ---------------------------------------------------------------------------


def test_criterion_02_attack_soundness():
    start = time.perf_counter()
    # MITM: each honest client isolated in a cell of n-1 sybils
    rng = Rng(0).child("mitm")
    honest = tuple(rng.child(i).uniform(-1.0, 1.0, 8) for i in range(3))
    scenario = AttackScenario(inputs=honest, k=3, seed=0, params=TOY_GROUP)
    rep = run_mitm(scenario, AdversaryStrategy(kind="sybil_mitm", sybil_count=9))
    assert rep.success and rep.max_field_error == 0
    for cid in range(3):
        assert rep.recovered_field[cid] == encode_fixed(honest[cid])

    # share compromise with exactly k controlled clients
    rng = Rng(1).child("sc")
    inputs = tuple(rng.child(i).uniform(-1.0, 1.0, 8) for i in range(5))
    scenario = AttackScenario(inputs=inputs, k=3, seed=1, params=TOY_GROUP)
    ok = run_share_compromise(scenario, AdversaryStrategy(kind="share_compromise", controlled_ids=(0, 1, 2)))
    assert ok.success and ok.max_field_error == 0
    for cid in (3, 4):
        assert ok.recovered_field[cid] == encode_fixed(inputs[cid])

    # with k-1 controlled the reconstruction fails ...
    bad = run_share_compromise(scenario, AdversaryStrategy(kind="share_compromise", controlled_ids=(0, 1)))
    assert not bad.success

    # ... and an exhaustive toy-field scan confirms the held shares stay
    # consistent with at least two candidate secrets (here: all of them)
    prime = 101
    shares = shamir_split(42, 3, 5, Rng(2).child("toy"), prime=prime)
    candidates = shamir_candidates(shares[:2], prime)
    assert len(candidates) >= 2
    assert len(candidates) == prime
    report(2, "MITM and share-compromise recover bit-exactly; k-1 fails", time.perf_counter() - start, 30)


# ---------------------------------------------------------------------------
# 3. Two-party algebraic solve
# ---------------------------------------------------------------------------


def test_criterion_03_two_party_solve():
    start = time.perf_counter()
    rng = Rng(3).child("solve")
    for i in range(100):
        x1 = rng.child("x1", i).uniform(-5.0, 5.0, 32)
        x2 = rng.child("x2", i).uniform(-5.0, 5.0, 32)
        y = vec_mean([x1, x2])
        assert np.max(np.abs(two_party_solve(y, x2) - x1)) <= 1e-12
    report(3, "two-party solve exact on 100 random rounds", time.perf_counter() - start, 1)


# ---------------------------------------------------------------------------
# 4. Mask-mean cancellation statistic
# ---------------------------------------------------------------------------


def test_criterion_04_mask_mean_std_matches_prediction():
    start = time.perf_counter()
    for n in (10, 100, 1000):
        for alpha in (0.1, 0.5):
            cell = clt_check(n, alpha, dim=100, n_seeds=30, seed=0)
            assert cell["rel_err"] < 0.10, cell
    report(4, "mask-mean std within 10% of alpha/sqrt(3n)", time.perf_counter() - start, 10)


# ---------------------------------------------------------------------------
# 5. Local destruction with global preservation, and tolerance growth in n
# ---------------------------------------------------------------------------


def test_criterion_05_local_destroyed_global_preserved():
    start = time.perf_counter()
    cfg = scenario_from_dict({"kind": "alpha_sweep", "seeds": [0, 1, 2]})
    rep = run_scenario(cfg)
    baseline = rep.summary["baseline_accuracy"]
    assert baseline >= 0.95
    # at n=100 some alpha drives mean local accuracy to near-chance while the
    # averaged global model stays within 2 points of baseline
    qualifying = [
        r for r in rep.rows if r[0] == 100 and r[2] <= 0.15 and r[3] >= baseline - 0.02
    ]
    assert qualifying, rep.rows
    # the largest global-safe alpha grows (weakly) with the client count
    tol = rep.summary["tolerance_by_n"]
    tols = [tol[str(n)] for n in (10, 100, 1000)]
    assert tols[0] <= tols[1] <= tols[2], tol
    assert tols[0] < tols[2], tol
    report(5, "masking kills local models, preserves the global average", time.perf_counter() - start, 600)


# ---------------------------------------------------------------------------
# 6. Gradient-matching reconstruction and its masked failure
# ---------------------------------------------------------------------------


def dlg_run_one(alpha, seed):
    """One reconstruction attempt: the observed gradient comes from the true
    model; the attacker descends against the (possibly masked) model."""
    model = init_model((64, 8, 4), "tanh", Rng(seed).child("model"))
    inputs, _ = make_glyphs(1, Rng(seed).child("data"))
    x = inputs[0]
    y = Rng(seed).child("y").uniform(-1.0, 1.0, 4)
    truth = Batch(inputs=x[None, :], labels=y[None, :])
    _, grad = backward(model, truth, "mse")
    attacked = model
    if alpha > 0:
        w = flatten(model)
        attacked = unflatten(model, w + uniform_mask(w.shape[0], alpha, Rng(seed).child("mask")))
    return dlg_attack(attacked, grad, truth, DlgConfig(seed=seed))


def test_criterion_06_gradient_matching_blocked_by_masking():
    start = time.perf_counter()
    unmasked = [dlg_run_one(0.0, s) for s in range(10)]
    assert sum(r.success for r in unmasked) >= 8, [r.final_mse for r in unmasked]
    masked = [dlg_run_one(DLG_FAILURE_ALPHA, s) for s in range(10)]
    assert sum(r.success for r in masked) == 0, [r.final_mse for r in masked]
    report(6, "gradient matching: >=8/10 unmasked, 0/10 at the failure alpha", time.perf_counter() - start, 900)


# ---------------------------------------------------------------------------
# 7. Log-perplexity grows with the mask level
# ---------------------------------------------------------------------------


def test_criterion_07_log_perplexity_monotone_in_alpha():
    start = time.perf_counter()
    grid = (0.0, 0.2, 0.4, 0.6, 0.8)
    corpus = make_token_corpus(Rng(0).child("corpus"))
    train, held = corpus[:150], corpus[150:]
    lm = train_bigram(train, 8)
    curves = []
    for seed in range(10):
        rows = lp_probe(lm, grid, held, seed=seed)
        lps = [r.mean_lp for r in rows]
        curves.append(lps)
        rho = spearmanr(grid, lps).statistic
        assert rho >= 0.9 - 1e-9, (seed, rho, lps)
        assert rows[0].saturated == 0
        assert rows[-1].saturated > 0  # infinite-LP saturation at alpha 0.8
    mean_rho = spearmanr(grid, np.mean(curves, axis=0)).statistic
    assert mean_rho >= 0.9
    report(7, "mean log-perplexity non-decreasing in alpha, saturates high", time.perf_counter() - start, 60)


# ---------------------------------------------------------------------------
# 8. Adversarial pair training degraded by masked / frozen discriminators
# ---------------------------------------------------------------------------


def test_criterion_08_generator_fails_against_degraded_discriminators():
    start = time.perf_counter()
    schedule = GanSchedule()
    order_masked = order_pretrained = nc_masked = nc_pretrained = 0
    for seed in range(10):
        pair = default_gan_pair(seed)
        data, _ = make_gaussian_mixture(512, Rng(seed).child("real"))
        normal = gan_attack(pair, data, schedule, "normal", seed)
        masked = gan_attack(pair, data, schedule, "masked", seed)
        pretrained = gan_attack(pair, data, schedule, "pretrained", seed)
        order_masked += normal.mode_distance < masked.mode_distance
        order_pretrained += normal.mode_distance < pretrained.mode_distance
        nc_masked += masked.non_convergent
        nc_pretrained += pretrained.non_convergent
    # 9/10 one-sided wins reject the coin-flip null at p ~ 0.011 < 0.05
    assert order_masked >= 9, order_masked
    assert order_pretrained >= 9, order_pretrained
    assert nc_masked >= 9, nc_masked
    assert nc_pretrained >= 9, nc_pretrained
    report(8, "generator beats masked/frozen critics on mode distance", time.perf_counter() - start, 600)


# ---------------------------------------------------------------------------
# 9. Gradient correctness over the full layer matrix
# ---------------------------------------------------------------------------


def test_criterion_09_gradients_match_finite_differences():
    start = time.perf_counter()
    matrix = [
        ((2, 3), "identity"),
        ((2, 3), "sigmoid"),
        ((3, 5, 2), "tanh"),
        ((3, 5, 2), "relu"),
        ((4, 6, 6, 3), "sigmoid"),
        ((4, 6, 6, 3), "tanh"),
        ((5, 4, 3, 2), "relu"),
        ((5, 4, 3, 2), "identity"),
    ]
    h = 1e-5
    for sizes, activation in matrix:
        for loss in ("mse", "cross_entropy"):
            model = init_model(sizes, activation, Rng(9).child(str(sizes), activation))
            rng = Rng(10).child(str(sizes), activation, loss)
            x = rng.uniform(-1, 1, 3 * sizes[0]).reshape(3, sizes[0])
            if loss == "mse":
                y = rng.uniform(-1, 1, 3 * sizes[-1]).reshape(3, sizes[-1])
            else:
                y = np.asarray(rng.integers(0, sizes[-1], size=3))
            batch = Batch(inputs=x, labels=y)
            _, grad = backward(model, batch, loss)
            w0 = flatten(model)
            fd = np.empty_like(w0)
            for i in range(w0.shape[0]):
                wp, wm = w0.copy(), w0.copy()
                wp[i] += h
                wm[i] -= h
                fd[i] = (
                    backward(unflatten(model, wp), batch, loss)[0]
                    - backward(unflatten(model, wm), batch, loss)[0]
                ) / (2 * h)
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-8)
            assert rel < 1e-4, (sizes, activation, loss, rel)
    report(9, "backprop matches finite differences on the layer matrix", time.perf_counter() - start, 30)


# ---------------------------------------------------------------------------
# 10. Byzantine-robust aggregation suite
# ---------------------------------------------------------------------------


def brute_krum_scores(X, excluded):
    n = X.shape[0]
    keep = n - excluded - 2
    return np.array(
        [sum(sorted(float(np.sum((X[i] - X[j]) ** 2)) for j in range(n) if j != i)[:keep]) for i in range(n)]
    )


def test_criterion_10_byzantine_suite():
    start = time.perf_counter()
    # the +-1 odd-count instance: selection rules pick a member, mean does not
    vs = [np.array([v]) for v in (1.0, -1.0, 1.0, -1.0, 1.0)]
    assert krum(vs)[0] in (1.0, -1.0)
    assert coord_median(vs)[0] in (1.0, -1.0)
    assert abs(vec_mean(vs)[0] - 0.2) < 1e-12

    # the 1e6-outlier instance: mean displaced, robust rules stay in the hull
    rng = Rng(10).child("bd")
    honest = [rng.child(i).uniform(-1, 1, 4) for i in range(9)]
    vs = honest + [np.full(4, 1e6)]
    assert np.max(np.abs(vec_mean(vs))) > 1e4
    lo = np.min(np.stack(honest), axis=0)
    hi = np.max(np.stack(honest), axis=0)
    for rule, params in (("krum", {}), ("trimmed_mean", {"zeta": 0.1}), ("coord_median", {}), ("geometric_median", {})):
        out = aggregate(rule, vs, **params)
        assert np.all(out >= lo - 1e-6) and np.all(out <= hi + 1e-6), rule

    # brute-force oracles on every small instance size
    for trial in range(5):
        for n in range(3, 10):
            X = Rng(11).child("bf", trial, n).uniform(-2, 2, n * 3).reshape(n, 3)
            scores = krum_scores(X, 0)
            assert np.allclose(scores, brute_krum_scores(X, 0))
            assert np.array_equal(krum(list(X)), X[int(np.argmin(scores))])
            if n >= 7:
                d = 1
                # independent reimplementation of the selection-then-trim rule
                remaining = list(range(n))
                selected = []
                gamma, zeta = n - 2 * d, n - 4 * d
                while len(selected) < gamma:
                    if len(remaining) == gamma - len(selected):
                        selected.extend(remaining)
                        break
                    pool = X[remaining]
                    if len(pool) >= d + 3:
                        pick = int(np.argmin(brute_krum_scores(pool, d)))
                    else:
                        gm = geometric_median(list(pool))
                        pick = int(np.argmin(np.linalg.norm(pool - gm, axis=1)))
                    selected.append(remaining.pop(pick))
                S = X[sorted(selected)]
                expected = np.empty(3)
                for i in range(3):
                    col = S[:, i]
                    med = col[int(np.argmin([np.sum(np.abs(col - c)) for c in col]))]
                    order = np.argsort(np.abs(col - med), kind="stable")
                    expected[i] = float(np.mean(col[order[:zeta]]))
                assert np.allclose(bulyan(list(X), d), expected), (trial, n)
    report(10, "robust aggregation suite vs brute-force oracles", time.perf_counter() - start, 30)


# ---------------------------------------------------------------------------
# 11. Noisy clipped SGD contracts
# ---------------------------------------------------------------------------


def test_criterion_11_private_sgd_contracts():
    start = time.perf_counter()
    rng = Rng(12)
    inputs, labels = make_glyphs(5, rng.child("data"))
    model = init_model((64, 16, 10), "tanh", rng.child("init"))

    # clipping contract: replay the update rule on the same seed, checking
    # every per-example contribution has norm <= gamma, and confirm the
    # replayed trajectory is the one dp_sgd actually took
    gamma = 0.05
    cfg = DpConfig(noise_scale=0.0, clip_threshold=gamma, group_size=8, steps=5)
    w_dp, _ = dp_sgd(model, inputs, labels, cfg, Rng(12).child("dp"))
    replay = Rng(12).child("dp")
    w = flatten(model)
    for t in range(cfg.steps):
        idx = _sample_group(inputs.shape[0], cfg, replay, t)
        if idx.size == 0:
            continue
        current = unflatten(model, w)
        total = np.zeros_like(w)
        for g in per_example_backward(current, inputs[idx], labels[idx], cfg.loss):
            norm = float(np.linalg.norm(g))
            g = g / max(1.0, norm / cfg.clip_threshold)
            assert np.linalg.norm(g) <= gamma * (1 + 1e-12)
            total = total + g
        w = w - cfg.eta * (total / cfg.group_size)
    assert np.array_equal(w_dp, w)

    # zero noise + infinite clip reproduces plain SGD bit-exactly
    free = DpConfig(noise_scale=0.0, clip_threshold=float("inf"), group_size=4, steps=6)
    w_dp, _ = dp_sgd(model, inputs, labels, free, Rng(13).child("s"))
    w_plain = sgd_loop(model, inputs, labels, free, Rng(13).child("s"))
    assert np.array_equal(w_dp, w_plain)

    # ledger composition: T identical steps compose to (T e, T d)
    noisy = DpConfig(noise_scale=1.0, clip_threshold=0.1, group_size=8, steps=7)
    _, ledger = dp_sgd(model, inputs, labels, noisy, Rng(14).child("s"))
    rate = min(1.0, noisy.group_size / inputs.shape[0])
    step_eps = rate * np.sqrt(2.0 * np.log(1.25 / noisy.delta_target)) / noisy.noise_scale
    total_eps, total_delta = ledger.totals
    assert abs(total_eps - noisy.steps * step_eps) < 1e-12
    assert abs(total_delta - noisy.steps * noisy.delta_target) < 1e-18
    report(11, "clipping, plain-SGD equivalence, and ledger composition", time.perf_counter() - start, 30)


# ---------------------------------------------------------------------------
# 12. Byte-identical report bodies on repeated runs
# ---------------------------------------------------------------------------


def test_criterion_12_reports_reproduce_byte_identically():
    start = time.perf_counter()
    cases = [
        {"kind": "secagg_run", "n": 3, "k": 2, "dim": 4, "seeds": [0, 1]},
        {"kind": "attack_demo", "n": 5, "k": 3, "dim": 4, "strategy": "share_compromise",
         "controlled_ids": [0, 1, 2], "seeds": [0]},
        {"kind": "fed_training", "n": 2, "alpha": 0.1, "seeds": [0]},
        {"kind": "alpha_sweep", "client_counts": [10], "alphas": [0.0, 0.5], "seeds": [0]},
        {"kind": "clt_check", "client_counts": [10], "alphas": [0.5], "dim": 50, "n_mask_seeds": 5},
    ]
    for data in cases:
        first = run_scenario(scenario_from_dict(dict(data))).body_json()
        second = run_scenario(scenario_from_dict(dict(data))).body_json()
        assert first == second, data["kind"]
    report(12, "identical seeds give byte-identical report bodies", time.perf_counter() - start, 120)
