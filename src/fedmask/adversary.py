"""Malicious-server strategies executed against the aggregation protocol:
Sybil man-in-the-middle, share compromise, strategic dropping, and the
two-party algebraic solve, plus the closed-form set of secrets consistent
with a set of Shamir shares.

Successful attacks recover honest clients' encoded weight vectors bit-exactly
(the comparisons are in field arithmetic, with no tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .crypto import DhParams, ProtocolError, RFC3526_2048, ThresholdError, shamir_reconstruct
from .numeric import ParameterError, Rng, as_vector, clip_for_encoding, encode_fixed
from .secagg import ProtocolRun, run_protocol, unmask_sum


@dataclass(frozen=True)
class AdversaryStrategy:
    kind: str
    sybil_count: int = 0
    controlled_ids: tuple = ()
    retry_limit: int = 10
    round_size: int | None = None

    # each ParameterError starts with the scenario config field it rejects
    def __post_init__(self):
        if self.kind not in STRATEGIES:
            raise ParameterError(f"strategy: unknown strategy {self.kind!r}")
        if self.sybil_count < 0:
            raise ParameterError("sybil_count: must be >= 0")
        if self.retry_limit < 1:
            raise ParameterError("retry_limit: must be >= 1")
        if len(set(self.controlled_ids)) != len(self.controlled_ids):
            raise ParameterError("controlled_ids: duplicate client id")
        if self.round_size is not None and self.round_size < 1:
            raise ParameterError(f"round_size: must be >= 1, got {self.round_size}")

    def check_population(self, n: int) -> None:
        """The rules that depend on the number n of scenario clients."""
        if any(not 0 <= c < n for c in self.controlled_ids):
            raise ParameterError(f"controlled_ids: controlled id out of range [0, {n})")
        if self.round_size is not None and self.round_size > n:
            raise ParameterError(f"round_size: need round_size <= {n} clients, got {self.round_size}")


@dataclass(frozen=True)
class AttackScenario:
    inputs: tuple  # ground-truth honest weight vectors, one per client id
    k: int
    seed: int = 0
    params: DhParams = RFC3526_2048
    trusted_third_party: bool = False  # third party certifies advertised keys

    def __post_init__(self):
        if not self.inputs:
            raise ParameterError("an attack needs at least one client input")


@dataclass
class AttackReport:
    strategy: AdversaryStrategy
    success: bool
    recovered_field: dict = field(default_factory=dict)  # honest id -> FieldVector
    max_field_error: int | None = None  # max |recovered - truth| over field ints
    rounds_consumed: int = 0
    reason: str | None = None
    attempts: list = field(default_factory=list)  # per-attempt log entries


def _recover(run: ProtocolRun, controlled) -> dict:
    """Each survivor outside controlled -> its encoded input: the server's own
    `unmask_sum` over that survivor alone, with every other client that
    completed key sharing counted as dropped.  The sk1 of each such client and
    the survivor's sk2 are rebuilt from the shares the controlled clients
    hold.  Raises ThresholdError when they hold fewer than k shares."""
    server = run.server
    victims = [i for i in server.u3 if i not in controlled]
    if not victims:
        return {}

    def rebuild(owner: int, key: int) -> int:  # key 0 is sk1, 1 is sk2
        held = (run.clients[h].held_shares for h in controlled)
        return shamir_reconstruct([shares[owner][key] for shares in held if owner in shares])

    sk1 = {j: rebuild(j, 0) for j in server.u2}
    return {i: unmask_sum(server, (i,), {j: s for j, s in sk1.items() if j != i}, {i: rebuild(i, 1)}) for i in victims}


def _score(report: AttackReport, scenario: AttackScenario) -> AttackReport:
    """Score the recovered inputs against their encoded truth, residue by residue."""
    report.max_field_error = 0
    for i, v in report.recovered_field.items():
        truth = encode_fixed(clip_for_encoding(as_vector(scenario.inputs[i])))
        error = np.abs(v.residues.astype(np.int64) - truth.residues.astype(np.int64))
        report.max_field_error = max(report.max_field_error, int(np.max(error, initial=0)))
    report.success = report.max_field_error == 0
    return report


def _cell_seed(seed: int, cell: int) -> int:
    return (seed * 0x9E3779B97F4A7C15 + cell + 1) % (1 << 64)


def _compromise(report: AttackReport, scenario: AttackScenario, ids, controlled, seed: int) -> bool:
    """One round among the scenario's clients ids (ids[p] is round id p) in
    which the controlled ones unmask every other survivor.  Records the result,
    or why it failed, in report, and returns whether the attack succeeded."""
    run = run_protocol([scenario.inputs[i] for i in ids], scenario.k, seed=seed, params=scenario.params)
    if run.transcript.aborted:
        report.reason = f"protocol aborted: {run.transcript.abort_reason}"
        return False
    try:
        recovered = _recover(run, [p for p, i in enumerate(ids) if i in controlled])
    except ThresholdError:
        report.reason = f"only {len(controlled)} controlled clients; {scenario.k} shares needed"
        return False
    report.recovered_field = {ids[p]: v for p, v in recovered.items()}
    return _score(report, scenario).success


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
    for cell, w in enumerate(scenario.inputs):
        # honest client is id 0; ids 1..s are sybils running the genuine logic
        inputs = [as_vector(w)] + [np.zeros(np.asarray(w).shape[0])] * s
        run = run_protocol(inputs, scenario.k, seed=_cell_seed(scenario.seed, cell), params=scenario.params)
        report.rounds_consumed += 1
        if run.transcript.aborted:
            report.reason = f"protocol aborted: {run.transcript.abort_reason}"
            return report
        report.recovered_field[cell] = _recover(run, range(1, s + 1))[0]
    return _score(report, scenario)


def run_share_compromise(scenario: AttackScenario, strategy: AdversaryStrategy) -> AttackReport:
    """Controlled clients pool the key shares they received; with at least k
    of them the server reconstructs every honest client's keys and unmasks."""
    strategy.check_population(len(scenario.inputs))
    report = AttackReport(strategy=strategy, success=False, rounds_consumed=1)
    ids = range(len(scenario.inputs))
    if _compromise(report, scenario, ids, strategy.controlled_ids, scenario.seed) and not report.recovered_field:
        report.reason = "no honest participants; round pretended complete"
    return report


def run_strategic_drop(scenario: AttackScenario, strategy: AdversaryStrategy) -> AttackReport:
    """A third party selects round participants; the server retries rounds
    until the controlled clients alone meet the share threshold, then falsely
    declares honest clients dropped and proceeds as share compromise."""
    report = AttackReport(strategy=strategy, success=False)
    population = len(scenario.inputs)
    round_size = strategy.round_size or max(scenario.k, population // 2)
    replace(strategy, round_size=round_size).check_population(population)
    selector = Rng(scenario.seed).child("third-party")
    for attempt in range(strategy.retry_limit):
        report.rounds_consumed += 1
        selected = tuple(sorted(int(i) for i in selector.choice(population, round_size)))
        picked = [i for i in selected if i in strategy.controlled_ids]
        entry = {"attempt": attempt, "selected": list(selected), "controlled": len(picked)}
        report.attempts.append(entry)
        if len(picked) == len(selected):
            entry["outcome"] = "round pretended complete"
            report.success = True
            report.reason = "round pretended complete"
            return report
        if len(picked) < scenario.k:
            entry["outcome"] = "round discarded"
        elif _compromise(report, scenario, selected, picked, _cell_seed(scenario.seed, attempt)):
            entry["outcome"] = "share compromise"
            return report
        else:
            entry["outcome"] = "inner attack failed"
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
