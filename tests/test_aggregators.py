"""Byzantine-tolerant aggregation rules vs brute-force and second-
implementation oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmask.aggregators import (
    AGGREGATORS,
    aggregate,
    bulyan,
    centered_clip,
    coord_median,
    geometric_median,
    krum,
    krum_index,
    krum_scores,
    trimmed_mean,
)
from fedmask.numeric import ParameterError, Rng, uniform_mask, vec_mean


def brute_force_krum_scores(X, n_excluded):
    """Literal reimplementation: per row, sum of squared distances to its
    n - n_excluded - 2 nearest other rows."""
    n = X.shape[0]
    keep = n - n_excluded - 2
    scores = []
    for i in range(n):
        d2 = sorted(float(np.sum((X[i] - X[j]) ** 2)) for j in range(n) if j != i)
        scores.append(sum(d2[:keep]))
    return np.array(scores)


# ---------------------------------------------------------------------------
# Krum
# ---------------------------------------------------------------------------


def test_krum_pm_one_returns_a_member():
    vs = [np.array([v]) for v in (1.0, -1.0, 1.0, -1.0, 1.0)]
    out = krum(vs)
    assert out[0] in (1.0, -1.0)
    assert out[0] != 0.2
    # while the mean is the arithmetic mean
    assert vec_mean(vs)[0] == pytest.approx(0.2)


def test_krum_all_identical():
    v = np.array([2.0, -3.0])
    assert np.array_equal(krum([v] * 5), v)


def test_krum_cluster_beats_outlier_with_score_oracle():
    rng = Rng(0).child("krum")
    cluster = [rng.child(i).uniform(-0.1, 0.1, 3) for i in range(6)]
    outlier = np.full(3, 50.0)
    vs = cluster + [outlier]
    X = np.stack(vs)
    out = krum(vs, delta=1 / 7)
    scores = krum_scores(X, 1)
    assert np.allclose(scores, brute_force_krum_scores(X, 1))
    assert np.array_equal(out, X[int(np.argmin(scores))])
    assert any(np.array_equal(out, c) for c in cluster)


def test_krum_matches_brute_force_small_instances():
    rng = Rng(1).child("bf")
    for trial in range(20):
        n = int(rng.integers(3, 10))
        X = rng.child("x", trial).uniform(-2, 2, n * 2).reshape(n, 2)
        assert np.allclose(krum_scores(X, 0), brute_force_krum_scores(X, 0))
        assert krum_index(X, 0) == int(np.argmin(brute_force_krum_scores(X, 0)))


def test_krum_too_few_vectors():
    with pytest.raises(ParameterError):
        krum([np.zeros(2)] * 2)


# ---------------------------------------------------------------------------
# Geometric median
# ---------------------------------------------------------------------------


def test_geometric_median_collinear_is_median():
    out = geometric_median([np.array([0.0]), np.array([1.0]), np.array([10.0])])
    # 1-D geometric median is the middle point; confirm with a grid scan
    grid = np.linspace(-1, 11, 2401)
    costs = [sum(abs(g - v) for v in (0.0, 1.0, 10.0)) for g in grid]
    best = grid[int(np.argmin(costs))]
    assert abs(out[0] - best) < 1e-2
    assert abs(out[0] - 1.0) < 1e-2


def test_geometric_median_single_point():
    v = np.array([3.0, -4.0])
    assert np.array_equal(geometric_median([v]), v)


def test_geometric_median_all_identical():
    v = np.array([1.0, 2.0])
    out = geometric_median([v] * 4)
    assert np.max(np.abs(out - v)) < 1e-6


# ---------------------------------------------------------------------------
# Trimmed mean
# ---------------------------------------------------------------------------


def test_trimmed_mean_worked_example():
    vs = [np.array([v]) for v in (1.0, 2.0, 3.0, 100.0)]
    assert trimmed_mean(vs, zeta=0.25)[0] == pytest.approx(2.5)


def test_trimmed_mean_zeta_zero_is_mean():
    rng = Rng(2).child("tm")
    vs = [rng.child(i).uniform(-1, 1, 5) for i in range(6)]
    assert np.allclose(trimmed_mean(vs, 0.0), vec_mean(vs))


def test_trimmed_mean_matches_sort_trim_oracle():
    rng = Rng(3).child("tm2")
    for trial in range(20):
        n = int(rng.integers(5, 12))
        X = rng.child(trial).uniform(-3, 3, n * 4).reshape(n, 4)
        zeta = 0.2
        t = int(np.floor(zeta * n))
        expected = np.array(
            [np.mean(np.sort(X[:, j])[t : n - t]) for j in range(4)]
        )
        assert np.allclose(trimmed_mean(list(X), zeta), expected)


def test_trimmed_mean_validation():
    with pytest.raises(ParameterError):
        trimmed_mean([np.zeros(2)] * 3, zeta=0.5)
    with pytest.raises(ParameterError):
        trimmed_mean([np.zeros(2)] * 3, zeta=-0.1)


# ---------------------------------------------------------------------------
# Coordinate median
# ---------------------------------------------------------------------------


def test_coord_median_worked_example():
    vs = [np.array([1.0, 5.0]), np.array([2.0, 4.0]), np.array([3.0, 3.0])]
    assert np.array_equal(coord_median(vs), [2.0, 4.0])


def test_coord_median_odd_pm_one_never_zero():
    rng = Rng(4).child("cm")
    for trial in range(20):
        n = int(rng.integers(1, 5)) * 2 + 1  # odd
        vals = np.where(rng.child(trial).uniform(0, 1, n) < 0.5, -1.0, 1.0)
        out = coord_median([np.array([v]) for v in vals])
        assert out[0] in (-1.0, 1.0)


def test_coord_median_matches_sort_oracle():
    rng = Rng(5).child("cm2")
    X = rng.uniform(-2, 2, 7 * 3).reshape(7, 3)
    expected = np.sort(X, axis=0)[3]
    assert np.array_equal(coord_median(list(X)), expected)


# ---------------------------------------------------------------------------
# Centered clip and momentum
# ---------------------------------------------------------------------------


def test_centered_clip_tau_zero_returns_center():
    v0 = np.array([1.0, -1.0])
    vs = [np.array([5.0, 5.0]), np.array([-5.0, 3.0])]
    assert np.array_equal(centered_clip(vs, v0, tau=0.0, iters=3), v0)


def test_centered_clip_hand_evaluated_step():
    # inputs {0, 10}, v0=0, tau=1, one iteration:
    # 0 + (0*min(1, inf) + 10*min(1, 1/10)) / 2 = 0.5
    vs = [np.array([0.0]), np.array([10.0])]
    out = centered_clip(vs, np.array([0.0]), tau=1.0, iters=1)
    assert out[0] == pytest.approx(0.5)


def test_centered_clip_reaches_a_consensus_far_from_zero():
    # from a zero center five iterations of tau 1 reach norm 5 at most; the
    # default center, the coordinate-wise median, is the norm-10 consensus
    v = np.full(4, 5.0)
    assert np.array_equal(centered_clip([v.copy() for _ in range(5)]), v)


def test_centered_clip_validation():
    with pytest.raises(ParameterError):
        centered_clip([np.zeros(2)], np.zeros(2), tau=-1.0)
    with pytest.raises(ParameterError):
        centered_clip([np.zeros(2)], np.zeros(2), tau=1.0, iters=0)
    with pytest.raises(ParameterError):
        centered_clip([np.zeros(2)], np.zeros(3), tau=1.0)


# ---------------------------------------------------------------------------
# Bulyan
# ---------------------------------------------------------------------------


def brute_force_bulyan(X, d):
    """Literal reimplementation: repeated Krum selection, then per coordinate
    average the zeta values closest to the observed-value median."""
    n = X.shape[0]
    gamma = n - 2 * d
    zeta = gamma - 2 * d
    remaining = list(range(n))
    selected = []
    while len(selected) < gamma:
        if len(remaining) == gamma - len(selected):
            selected.extend(remaining)
            break
        pool = X[remaining]
        if len(pool) >= d + 3:
            pick = int(np.argmin(brute_force_krum_scores(pool, d)))
        else:
            gm = geometric_median(list(pool))
            pick = int(np.argmin(np.linalg.norm(pool - gm, axis=1)))
        selected.append(remaining.pop(pick))
    S = X[sorted(selected)]
    out = np.empty(X.shape[1])
    for i in range(S.shape[1]):
        col = S[:, i]
        costs = [float(np.sum(np.abs(col - c))) for c in col]
        med = col[int(np.argmin(costs))]
        order = np.argsort(np.abs(col - med), kind="stable")
        out[i] = float(np.mean(col[order[:zeta]]))
    return out


def test_bulyan_matches_brute_force_oracle():
    rng = Rng(6).child("bul")
    for trial in range(10):
        for n, d in ((7, 1), (8, 1), (9, 1)):
            X = rng.child(trial, n).uniform(-2, 2, n * 3).reshape(n, 3)
            assert np.allclose(bulyan(list(X), d), brute_force_bulyan(X, d))


def test_bulyan_all_identical():
    v = np.array([1.0, -2.0, 3.0])
    assert np.allclose(bulyan([v] * 7, d=1), v)


def test_bulyan_validation():
    with pytest.raises(ParameterError):
        bulyan([np.zeros(2)] * 6, d=1)  # needs n >= 7
    with pytest.raises(ParameterError):
        bulyan([np.zeros(2)] * 7, d=-1)
    with pytest.raises(ParameterError):
        bulyan([np.zeros(2)] * 7, d=1, inner="bulyan")


@pytest.mark.parametrize("n, d", [(3, 0), (7, 1)])
def test_bulyan_rejects_an_unknown_inner_rule(n, d):
    # at d = 0 the selection never reaches the inner rule, so it is checked first
    with pytest.raises(ParameterError, match="unknown inner rule 'bogus'"):
        bulyan([np.ones(3)] * n, d=d, inner="bogus")


# ---------------------------------------------------------------------------
# Parameter ranges
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "rule, name, value",
    [
        ("krum", "delta", math.nan),
        ("krum", "delta", math.inf),
        ("krum", "delta", -0.5),
        ("centered_clip", "tau", math.nan),
        ("centered_clip", "tau", math.inf),
        ("geometric_median", "tol", math.nan),
        ("geometric_median", "tol", math.inf),
        ("geometric_median", "tol", 0.0),
        ("geometric_median", "max_iters", 0),
    ],
)
def test_rule_parameter_out_of_range(rule, name, value):
    # checked before any arithmetic, so a NaN or infinite parameter never
    # reaches floor(), a clip factor or a stopping test
    with pytest.raises(ParameterError, match=name):
        aggregate(rule, [np.zeros(2)] * 5, **{name: value})


# ---------------------------------------------------------------------------
# Cross-rule properties
# ---------------------------------------------------------------------------

ROBUST_RULES = ["krum", "trimmed_mean", "coord_median", "geometric_median"]


def test_outlier_breakdown_demonstration():
    rng = Rng(7).child("bd")
    honest = [rng.child(i).uniform(-1, 1, 4) for i in range(9)]
    adversarial = np.full(4, 1e6)
    vs = honest + [adversarial]
    displaced = aggregate("mean", vs)
    assert np.max(np.abs(displaced)) > 1e4
    lo = np.min(np.stack(honest), axis=0)
    hi = np.max(np.stack(honest), axis=0)
    for rule in ROBUST_RULES:
        params = {"zeta": 0.1} if rule == "trimmed_mean" else {}
        out = aggregate(rule, vs, **params)
        assert np.all(out >= lo - 1e-6) and np.all(out <= hi + 1e-6), rule


@pytest.mark.parametrize("rule", ["mean", "trimmed_mean", "coord_median", "geometric_median", "krum"])
def test_permutation_invariance(rule):
    rng = Rng(8).child("perm", rule)
    vs = [rng.child(i).uniform(-1, 1, 3) for i in range(5)]
    base = aggregate(rule, vs)
    for perm in itertools.islice(itertools.permutations(range(5)), 12):
        out = aggregate(rule, [vs[i] for i in perm])
        assert np.allclose(out, base), perm


def test_krum_scores_permutation_invariant():
    rng = Rng(9).child("ks")
    X = rng.uniform(-1, 1, 6 * 2).reshape(6, 2)
    base = np.sort(krum_scores(X, 0))
    perm = Rng(9).child("p")
    order = np.arange(6)
    perm.shuffle(order)
    assert np.allclose(np.sort(krum_scores(X[order], 0)), base)


@pytest.mark.parametrize("rule", sorted(AGGREGATORS))
def test_all_identical_inputs_fixed_point(rule):
    v = np.array([0.5, -1.5, 2.5])
    n = 7
    params = {}
    if rule == "centered_clip":
        params = {"v0": v.copy(), "tau": 1.0}
    out = aggregate(rule, [v.copy() for _ in range(n)], **params)
    assert np.allclose(out, v, atol=1e-6), rule


def test_averaging_rules_preserve_mask_cancellation():
    # masked vs unmasked outputs of averaging-based rules stay within the
    # CLT bound at n=1000 (median-style rules are exempt by design)
    rng = Rng(10).child("mc")
    n, dim, alpha = 1000, 20, 0.5
    base = [rng.child("v", i).uniform(-1, 1, dim) for i in range(n)]
    masked = [v + uniform_mask(dim, alpha, rng.child("m", i)) for i, v in enumerate(base)]
    bound = 5.0 * alpha / np.sqrt(3.0 * n)
    for rule, params, c in (
        ("mean", {}, 1.0),
        ("trimmed_mean", {"zeta": 0.1}, 2.0),
        ("centered_clip", {"v0": np.zeros(dim), "tau": 100.0}, 1.0),
    ):
        plain = aggregate(rule, base, **params)
        noisy = aggregate(rule, masked, **params)
        assert np.max(np.abs(noisy - plain)) < c * bound, rule


def test_aggregate_unknown_rule():
    with pytest.raises(ParameterError):
        aggregate("average", [np.zeros(2)])


def test_aggregate_empty_and_mismatched():
    with pytest.raises(ParameterError):
        aggregate("mean", [])
    with pytest.raises(ParameterError):
        aggregate("mean", [np.zeros(2), np.zeros(3)])


@given(st.integers(0, 100_000), st.integers(3, 9))
@settings(max_examples=50, deadline=None)
def test_property_krum_output_is_an_input(seed, n):
    X = Rng(seed).child("pk").uniform(-5, 5, n * 2).reshape(n, 2)
    out = krum(list(X))
    assert any(np.array_equal(out, row) for row in X)
