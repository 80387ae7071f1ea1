"""Malicious-server strategies: MITM, share compromise, strategic dropping,
the two-party solve, and the brute-force hiding oracles."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmask.adversary import (
    AdversaryStrategy,
    AttackScenario,
    _recover,
    run_attack,
    run_mitm,
    run_share_compromise,
    run_strategic_drop,
    shamir_candidates,
    two_party_solve,
)
from fedmask.crypto import RFC3526_2048, TOY_GROUP, shamir_split
from fedmask.numeric import ParameterError, Rng, encode_fixed, field_sum
from fedmask.secagg import run_protocol, unmask_sum


def random_inputs(n, dim, seed=0):
    rng = Rng(seed).child("adv-inputs")
    return tuple(rng.child(i).uniform(-1.0, 1.0, dim) for i in range(n))


def toy_scenario(n, dim, k, seed=0, **kw):
    return AttackScenario(inputs=random_inputs(n, dim, seed), k=k, seed=seed, params=TOY_GROUP, **kw)


# ---------------------------------------------------------------------------
# MITM
# ---------------------------------------------------------------------------


def test_mitm_one_honest_nine_sybils_bit_exact():
    scenario = toy_scenario(1, 8, k=2, seed=0)
    report = run_mitm(scenario, AdversaryStrategy(kind="sybil_mitm", sybil_count=9))
    assert report.success
    assert report.max_field_error == 0
    truth = encode_fixed(np.clip(scenario.inputs[0], -32, 32))
    assert report.recovered_field[0] == truth


def test_mitm_three_honest_all_recovered():
    scenario = toy_scenario(3, 6, k=2, seed=1)
    report = run_mitm(scenario, AdversaryStrategy(kind="sybil_mitm", sybil_count=4))
    assert report.success
    assert set(report.recovered_field) == {0, 1, 2}
    for cid in range(3):
        truth = encode_fixed(np.clip(scenario.inputs[cid], -32, 32))
        assert report.recovered_field[cid] == truth


def test_mitm_blocked_by_trusted_third_party():
    scenario = toy_scenario(2, 4, k=2, seed=2, trusted_third_party=True)
    report = run_mitm(scenario, AdversaryStrategy(kind="sybil_mitm", sybil_count=5))
    assert not report.success
    assert "third party" in report.reason


def test_mitm_needs_enough_sybils():
    scenario = toy_scenario(1, 4, k=5, seed=3)
    report = run_mitm(scenario, AdversaryStrategy(kind="sybil_mitm", sybil_count=3))
    assert not report.success


# ---------------------------------------------------------------------------
# Share compromise
# ---------------------------------------------------------------------------


def test_share_compromise_with_k_controlled_succeeds():
    scenario = toy_scenario(5, 6, k=3, seed=4)
    strategy = AdversaryStrategy(kind="share_compromise", controlled_ids=(0, 2, 4))
    report = run_share_compromise(scenario, strategy)
    assert report.success
    assert report.max_field_error == 0
    for cid in (1, 3):
        truth = encode_fixed(np.clip(scenario.inputs[cid], -32, 32))
        assert report.recovered_field[cid] == truth


def test_share_compromise_with_k_minus_one_fails():
    scenario = toy_scenario(5, 6, k=3, seed=5)
    strategy = AdversaryStrategy(kind="share_compromise", controlled_ids=(0, 2))
    report = run_share_compromise(scenario, strategy)
    assert not report.success
    assert "shares needed" in report.reason


def test_share_compromise_controlled_id_out_of_range():
    scenario = toy_scenario(3, 4, k=2, seed=6)
    strategy = AdversaryStrategy(kind="share_compromise", controlled_ids=(0, 7))
    with pytest.raises(ParameterError):
        run_share_compromise(scenario, strategy)


def test_unmask_sum_serves_the_server_and_the_share_pool_alike():
    """A round where U1, U2 and U3 differ: client 0 never advertises, 1 drops
    after advertising and 2 after key sharing.  The share pool of 3, 4 and 5
    reads every other survivor exactly, and `unmask_sum` over each survivor
    alone, with every other U2 client's sk1, sums to the server's aggregate."""
    inputs = random_inputs(8, 5, seed=9)
    run = run_protocol(inputs, 3, seed=9, dropout_after={0: -1, 1: 0, 2: 1}, params=TOY_GROUP)
    server = run.server
    assert (server.u1, server.u2, server.u3) == (tuple(range(1, 8)), tuple(range(2, 8)), tuple(range(3, 8)))
    recovered = _recover(run, [3, 4, 5])
    assert recovered == {i: encode_fixed(inputs[i]) for i in (6, 7)}
    sk1 = {j: run.clients[j].kp1.sk for j in server.u2}
    alone = [
        unmask_sum(server, (i,), {j: s for j, s in sk1.items() if j != i}, {i: run.clients[i].kp2.sk}) for i in server.u3
    ]
    assert alone == [encode_fixed(inputs[i]) for i in server.u3]
    assert field_sum(alone) == server.aggregate_field


# ---------------------------------------------------------------------------
# Strategic drop
# ---------------------------------------------------------------------------


def test_strategic_drop_controlled_id_out_of_range():
    scenario = toy_scenario(6, 4, k=2, seed=6)
    strategy = AdversaryStrategy(kind="strategic_drop", controlled_ids=(0, 99))
    with pytest.raises(ParameterError, match="controlled id out of range"):
        run_strategic_drop(scenario, strategy)



def test_strategic_drop_succeeds_with_majority_control():
    scenario = toy_scenario(20, 4, k=5, seed=0)
    strategy = AdversaryStrategy(
        kind="strategic_drop", controlled_ids=tuple(range(15)), round_size=8, retry_limit=10
    )
    report = run_strategic_drop(scenario, strategy)
    assert report.success
    assert 1 <= report.rounds_consumed <= 10
    # every recovered input is bit-exact or the round was entirely controlled
    if report.recovered_field:
        assert report.max_field_error == 0


def test_strategic_drop_fails_without_enough_control():
    scenario = toy_scenario(20, 4, k=8, seed=1)
    strategy = AdversaryStrategy(
        kind="strategic_drop", controlled_ids=(0, 1, 2), round_size=8, retry_limit=5
    )
    report = run_strategic_drop(scenario, strategy)
    assert not report.success
    assert report.reason == "retry limit exhausted"
    assert report.rounds_consumed == 5
    assert all(e["outcome"] == "round discarded" for e in report.attempts)


def test_strategic_drop_round_size_validation():
    scenario = toy_scenario(4, 4, k=2, seed=2)
    strategy = AdversaryStrategy(kind="strategic_drop", controlled_ids=(0,), round_size=9)
    with pytest.raises(ParameterError):
        run_strategic_drop(scenario, strategy)


# ---------------------------------------------------------------------------
# Dispatch and strategy validation
# ---------------------------------------------------------------------------


def test_honest_but_curious_recovers_nothing():
    scenario = toy_scenario(3, 4, k=2, seed=7)
    report = run_attack(scenario, AdversaryStrategy(kind="honest_but_curious"))
    assert not report.success
    assert report.recovered_field == {}


def test_scenario_without_inputs_rejected():
    # an attack on no clients would report success with nothing recovered
    with pytest.raises(ParameterError):
        AttackScenario(inputs=(), k=2, params=TOY_GROUP)


def test_strategy_validation():
    with pytest.raises(ParameterError):
        AdversaryStrategy(kind="replay_everything")
    with pytest.raises(ParameterError):
        AdversaryStrategy(kind="share_compromise", controlled_ids=(1, 1))
    with pytest.raises(ParameterError):
        AdversaryStrategy(kind="sybil_mitm", retry_limit=0)


@pytest.mark.parametrize(
    "field, value",
    [("round_size", 0), ("round_size", -3), ("sybil_count", -2)],
)
def test_strategy_rejects_counts_below_range(field, value):
    # unchecked, round_size 0 would silently mean the default size, -3 would
    # reach the selector as a negative sample size, and a negative sybil
    # count would return a report
    with pytest.raises(ParameterError, match=f"^{field}:"):
        AdversaryStrategy(kind="strategic_drop", **{field: value})


@pytest.mark.parametrize("round_size, k", [(7, 2), (None, 7)], ids=["given", "default"])
def test_round_size_above_population_rejected(round_size, k):
    # the default round size max(k, n // 2) exceeds n when k does
    strategy = AdversaryStrategy(kind="strategic_drop", controlled_ids=(0, 1), round_size=round_size)
    with pytest.raises(ParameterError, match="^round_size:"):
        run_strategic_drop(toy_scenario(6, 4, k=k, seed=6), strategy)


# ---------------------------------------------------------------------------
# Known answer: every strategy's reports, byte for byte
# ---------------------------------------------------------------------------


def attack_battery(seed, params):
    """(scenario, strategy) pairs covering each strategy's success and
    failure paths at one seed."""

    def scenario(n, k, **kw):
        return AttackScenario(inputs=random_inputs(n, 4, seed), k=k, seed=seed, params=params, **kw)

    def drop(controlled, round_size, retry_limit):
        return AdversaryStrategy(
            kind="strategic_drop", controlled_ids=controlled, round_size=round_size, retry_limit=retry_limit
        )

    return [
        (scenario(3, 3), AdversaryStrategy(kind="sybil_mitm", sybil_count=4)),
        (scenario(2, 2), AdversaryStrategy(kind="sybil_mitm", sybil_count=1)),
        (scenario(2, 2), AdversaryStrategy(kind="sybil_mitm")),
        (scenario(2, 2, trusted_third_party=True), AdversaryStrategy(kind="sybil_mitm", sybil_count=5)),
        (scenario(5, 3), AdversaryStrategy(kind="share_compromise", controlled_ids=(0, 2, 4))),
        (scenario(5, 3), AdversaryStrategy(kind="share_compromise", controlled_ids=(1, 3))),
        (scenario(5, 3), AdversaryStrategy(kind="share_compromise", controlled_ids=tuple(range(5)))),
        (scenario(10, 3), drop(tuple(range(5)), 5, 10)),
        (scenario(12, 4), drop((0, 1, 2), 6, 3)),
    ]


def report_record(report):
    return {
        "kind": report.strategy.kind,
        "success": report.success,
        "recovered": {str(cid): v.residues.tolist() for cid, v in report.recovered_field.items()},
        "max_field_error": report.max_field_error,
        "rounds_consumed": report.rounds_consumed,
        "reason": report.reason,
        "attempts": report.attempts,
    }


def test_attack_reports_known_answer():
    # pins the recovered vectors, attempt logs, reasons and round counts of
    # every strategy, on the toy group at four seeds and on RFC 3526 at one
    cases = [case for seed in range(4) for case in attack_battery(seed, TOY_GROUP)]
    cases += attack_battery(0, RFC3526_2048)
    records = [report_record(run_attack(scenario, strategy)) for scenario, strategy in cases]
    assert sum(r["success"] for r in records) == 20
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()[:16]
    assert digest == "bf020693417176b0"


# ---------------------------------------------------------------------------
# Two-party solve
# ---------------------------------------------------------------------------


def test_two_party_solve_trivial():
    # if the aggregate equals the server's own vector, the honest input does too
    y = np.array([1.0, -2.0, 3.0])
    assert np.allclose(two_party_solve(y, y), y)


def test_two_party_solve_random_rounds():
    rng = Rng(8).child("solve")
    for i in range(100):
        x1 = rng.child("x1", i).uniform(-5, 5, 16)
        x2 = rng.child("x2", i).uniform(-5, 5, 16)
        y = (x1 + x2) / 2.0
        assert np.max(np.abs(two_party_solve(y, x2) - x1)) <= 1e-12


def test_two_party_solve_dim_mismatch():
    with pytest.raises(ParameterError):
        two_party_solve(np.zeros(3), np.zeros(4))


# ---------------------------------------------------------------------------
# Brute-force hiding oracles
# ---------------------------------------------------------------------------


def test_shamir_candidates_below_threshold_covers_field():
    prime = 101
    shares = shamir_split(42, 3, 4, Rng(9).child("sh"), prime=prime)
    candidates = shamir_candidates(shares[:2], prime)  # k-1 shares held
    assert len(candidates) == prime  # every secret remains consistent
    assert 42 in candidates


def test_shamir_candidates_at_threshold_pins_secret():
    prime = 101
    shares = shamir_split(42, 3, 4, Rng(10).child("sh"), prime=prime)
    candidates = shamir_candidates(shares[:3], prime)
    assert candidates == [42]


def test_shamir_candidates_no_shares():
    assert shamir_candidates([], 13) == list(range(13))


def scan_candidates(shares, prime):
    """Reference oracle: every s in [0, prime) for which (0, s) and all the
    held points lie on one polynomial of degree below the threshold, found by
    checking each s in turn with an independent Lagrange evaluation."""
    shares = list(shares)
    if not shares:
        return list(range(prime))
    k = shares[0].threshold
    candidates = []
    for s in range(prime):
        points = [(0, s)] + [(sh.index, sh.value) for sh in shares]
        if len(points) <= k or points_on_low_degree_poly(points, k, prime):
            candidates.append(s)
    return candidates


def points_on_low_degree_poly(points, k, prime):
    """True if all points lie on the degree-(k-1) polynomial through the first k."""
    base = points[:k]
    for x, y in points[k:]:
        acc = 0
        for i, (xi, yi) in enumerate(base):
            num, den = 1, 1
            for j, (xj, _) in enumerate(base):
                if i == j:
                    continue
                num = (num * (x - xj)) % prime
                den = (den * (xi - xj)) % prime
            acc = (acc + yi * num * pow(den, -1, prime)) % prime
        if acc != y % prime:
            return False
    return True


@given(st.integers(0, 100), st.integers(1, 6), st.integers(0, 1000), st.data())
@settings(max_examples=150, deadline=None)
def test_property_shamir_candidates_match_scan(secret, n, seed, data):
    prime = 101
    k = data.draw(st.integers(1, n), label="k")
    shares = shamir_split(secret, k, n, Rng(seed).child("h"), prime=prime)
    held = data.draw(st.lists(st.integers(0, n - 1), unique=True), label="held")
    altered = held[: data.draw(st.integers(0, 2), label="altered")]
    subset = [
        dataclasses.replace(shares[i], value=(shares[i].value + data.draw(st.integers(1, prime - 1))) % prime)
        if i in altered
        else shares[i]
        for i in held
    ]
    assert shamir_candidates(subset, prime) == scan_candidates(subset, prime)
