"""Malicious-server strategies executed against the aggregation protocol:
Sybil man-in-the-middle, share compromise, strategic dropping, and the
two-party algebraic solve, plus the closed-form set of secrets consistent
with a set of Shamir shares.

Successful attacks recover honest clients' encoded weight vectors bit-exactly
(the comparisons are in field arithmetic, with no tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .crypto import (
    DhParams,
    ProtocolError,
    RFC3526_2048,
    ThresholdError,
    dh_shared_secret,
    shamir_reconstruct,
)
from .numeric import (
    FieldVector,
    ParameterError,
    Rng,
    as_vector,
    clip_for_encoding,
    encode_fixed,
    field_sub,
)
from .secagg import ProtocolRun, client_mask, run_protocol

@dataclass(frozen=True)
class AdversaryStrategy:
    kind: str
    sybil_count: int = 0
    controlled_ids: tuple = ()
    retry_limit: int = 10
    round_size: int | None = None

    def __post_init__(self):
        if self.kind not in STRATEGIES:
            raise ParameterError(f"unknown strategy {self.kind!r}")
        if self.retry_limit < 1:
            raise ParameterError("retry limit must be >= 1")
        if len(set(self.controlled_ids)) != len(self.controlled_ids):
            raise ParameterError("duplicate controlled ids")


@dataclass(frozen=True)
class AttackScenario:
    inputs: tuple  # ground-truth honest weight vectors, one per client id
    k: int
    seed: int = 0
    params: DhParams = RFC3526_2048
    trusted_third_party: bool = False  # third party certifies advertised keys


@dataclass
class AttackReport:
    strategy: AdversaryStrategy
    success: bool
    recovered_field: dict = field(default_factory=dict)  # honest id -> FieldVector
    max_field_error: int | None = None  # max |recovered - truth| over field ints
    rounds_consumed: int = 0
    reason: str | None = None
    attempts: list = field(default_factory=list)  # per-attempt log entries


def _truth_field(scenario: AttackScenario, cid: int) -> FieldVector:
    return encode_fixed(clip_for_encoding(as_vector(scenario.inputs[cid])))


def _field_error(a: FieldVector, b: FieldVector) -> int:
    return int(np.max(np.abs(a.residues.astype(np.int64) - b.residues.astype(np.int64)), initial=0))


def _pooled_shares(run: ProtocolRun, holders, owner: int) -> tuple[list, list]:
    """The shares of owner's sk1 and of its sk2 that the holders received."""
    held = [run.clients[h].held_shares[owner] for h in holders if h != owner and owner in run.clients[h].held_shares]
    return [pair[0] for pair in held], [pair[1] for pair in held]


def _cell_seed(seed: int, cell: int) -> int:
    return (seed * 0x9E3779B97F4A7C15 + cell + 1) % (1 << 64)


def run_mitm(scenario: AttackScenario, strategy: AdversaryStrategy) -> AttackReport:
    """Sybil man-in-the-middle: each honest client is isolated in a round cell
    whose other participants are all server-controlled identities, so every
    pairwise secret and enough key shares are known to the server."""
    report = AttackReport(strategy=strategy, success=False)
    if scenario.trusted_third_party:
        report.reason = "third party certifies keys; sybil identities rejected"
        return report
    s = strategy.sybil_count
    if s < 1:
        report.reason = "no sybil identities available"
        return report
    if scenario.k > s:
        report.reason = "threshold exceeds sybil count; not enough shares observable"
        return report
    max_err = 0
    for cell, w in enumerate(scenario.inputs):
        # honest client is id 0; ids 1..s are sybils running the genuine logic
        inputs = [as_vector(w)] + [np.zeros(np.asarray(w).shape[0])] * s
        run = run_protocol(inputs, scenario.k, seed=_cell_seed(scenario.seed, cell), params=scenario.params)
        report.rounds_consumed += 1
        if run.transcript.aborted:
            report.reason = f"protocol aborted: {run.transcript.abort_reason}"
            return report
        sybils = range(1, s + 1)
        sk2 = shamir_reconstruct(_pooled_shares(run, sybils, 0)[1])
        pair_secrets = {j: run.clients[j].pair_secrets[0] for j in sybils}
        # encode(w_0) = c_0 - client_mask_0, as the server unmasks a survivor
        rec = field_sub(run.server.masked[0], client_mask(0, sk2, pair_secrets, run.server.dim))
        report.recovered_field[cell] = rec
        max_err = max(max_err, _field_error(rec, _truth_field(scenario, cell)))
    report.max_field_error = max_err
    report.success = max_err == 0
    return report


def run_share_compromise(scenario: AttackScenario, strategy: AdversaryStrategy) -> AttackReport:
    """Controlled clients pool the key shares they received; with at least k
    of them the server reconstructs every honest client's keys and unmasks."""
    report = AttackReport(strategy=strategy, success=False)
    controlled = tuple(sorted(strategy.controlled_ids))
    n = len(scenario.inputs)
    if any(not (0 <= c < n) for c in controlled):
        raise ParameterError("controlled id out of range")
    run = run_protocol(list(scenario.inputs), scenario.k, seed=scenario.seed, params=scenario.params)
    report.rounds_consumed = 1
    if run.transcript.aborted:
        report.reason = f"protocol aborted: {run.transcript.abort_reason}"
        return report
    honest = [i for i in run.server.u3 if i not in controlled]
    max_err = 0
    for cid in honest:
        try:
            sk1_shares, sk2_shares = _pooled_shares(run, controlled, cid)
            sk1 = shamir_reconstruct(sk1_shares)
            sk2 = shamir_reconstruct(sk2_shares)
        except ThresholdError:
            report.reason = (
                f"only {len(controlled)} controlled clients; {scenario.k} shares needed"
            )
            return report
        pair_secrets = {
            j: dh_shared_secret(sk1, run.clients[j].kp1.pk, scenario.params, run.server.tables)
            for j in run.clients[cid].participants
            if j != cid
        }
        rec = field_sub(run.server.masked[cid], client_mask(cid, sk2, pair_secrets, run.server.dim))
        report.recovered_field[cid] = rec
        max_err = max(max_err, _field_error(rec, _truth_field(scenario, cid)))
    report.max_field_error = max_err
    report.success = bool(honest) and max_err == 0
    if not honest:
        report.success = True
        report.reason = "no honest participants; round pretended complete"
    return report


def run_strategic_drop(scenario: AttackScenario, strategy: AdversaryStrategy) -> AttackReport:
    """A third party selects round participants; the server retries rounds
    until the controlled clients alone meet the share threshold, then falsely
    declares honest clients dropped and proceeds as share compromise."""
    report = AttackReport(strategy=strategy, success=False)
    population = len(scenario.inputs)
    controlled = set(strategy.controlled_ids)
    round_size = strategy.round_size or max(scenario.k, population // 2)
    if round_size > population:
        raise ParameterError("round size exceeds population")
    selector = Rng(scenario.seed).child("third-party")
    for attempt in range(strategy.retry_limit):
        selected = tuple(sorted(int(i) for i in selector.choice(population, round_size)))
        picked_controlled = [i for i in selected if i in controlled]
        entry = {"attempt": attempt, "selected": list(selected), "controlled": len(picked_controlled)}
        if len(picked_controlled) == len(selected):
            entry["outcome"] = "round pretended complete"
            report.attempts.append(entry)
            report.success = True
            report.reason = "round pretended complete"
            report.rounds_consumed = attempt + 1
            return report
        if len(picked_controlled) >= scenario.k:
            sub = AttackScenario(
                inputs=tuple(scenario.inputs[i] for i in selected),
                k=scenario.k,
                seed=_cell_seed(scenario.seed, attempt),
                params=scenario.params,
            )
            remap = {orig: pos for pos, orig in enumerate(selected)}
            sub_strategy = AdversaryStrategy(
                kind="share_compromise",
                controlled_ids=tuple(remap[i] for i in picked_controlled),
            )
            inner = run_share_compromise(sub, sub_strategy)
            entry["outcome"] = "share compromise" if inner.success else "inner attack failed"
            report.attempts.append(entry)
            if inner.success:
                back = {orig: pos for pos, orig in remap.items()}
                report.recovered_field = {back[i]: v for i, v in inner.recovered_field.items()}
                report.max_field_error = inner.max_field_error
                report.success = True
                report.rounds_consumed = attempt + 1
                return report
        else:
            entry["outcome"] = "round discarded"
            report.attempts.append(entry)
    report.rounds_consumed = strategy.retry_limit
    report.reason = "retry limit exhausted"
    return report


def run_honest_but_curious(scenario: AttackScenario, strategy: AdversaryStrategy) -> AttackReport:
    """Observe one honest round and recover nothing."""
    run_protocol(list(scenario.inputs), scenario.k, seed=scenario.seed, params=scenario.params)
    return AttackReport(strategy=strategy, success=False, rounds_consumed=1, reason="passive observation only")


STRATEGIES = {
    "honest_but_curious": run_honest_but_curious,
    "sybil_mitm": run_mitm,
    "share_compromise": run_share_compromise,
    "strategic_drop": run_strategic_drop,
}


def run_attack(scenario: AttackScenario, strategy: AdversaryStrategy) -> AttackReport:
    return STRATEGIES[strategy.kind](scenario, strategy)


# ---------------------------------------------------------------------------
# Two-party algebraic solve
# ---------------------------------------------------------------------------


def two_party_solve(aggregate_y, server_x2) -> np.ndarray:
    """With a 2-party mean y = (x1 + x2)/2, the server solves x1 = 2y - x2."""
    y = as_vector(aggregate_y)
    x2 = as_vector(server_x2)
    if y.shape != x2.shape:
        raise ParameterError("aggregate and server input dims differ")
    return 2.0 * y - x2


# ---------------------------------------------------------------------------
# Hiding oracle (toy fields)
# ---------------------------------------------------------------------------


def shamir_candidates(shares, prime: int) -> list[int]:
    """All secrets in [0, prime) consistent with the held shares.

    With fewer than threshold shares, a degree-(k-1) polynomial exists through
    (0, s) and every held point for EVERY candidate s, so this is the whole
    field: the textbook hiding property, made explicit.  With k or more, the
    polynomial through the first k fixes s, so the only candidate is the secret
    `shamir_reconstruct` returns, and there is none if a further share is off
    that polynomial.
    """
    shares = list(shares)
    if not shares or len(shares) < shares[0].threshold:
        return list(range(prime))
    try:
        return [shamir_reconstruct(shares)]
    except ProtocolError:
        return []
