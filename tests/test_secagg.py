"""Five-round aggregation protocol: correctness, dropout handling, abort
paths, mask sign convention, and transcript replay."""

import dataclasses
import itertools
import json

import numpy as np
import pytest

from fedmask import adversary, crypto, secagg
from fedmask.crypto import RFC3526_2048, TOY_GROUP, prg_expand, seed_from_secret, sign
from fedmask.numeric import (
    ParameterError,
    Rng,
    decode_fixed,
    encode_fixed,
    field_add,
    field_sub,
    field_sum,
)
from fedmask.secagg import (
    TRANSCRIPT_SCHEMA_VERSION,
    client_mask,
    masked_input_vector,
    run_protocol,
)


def random_inputs(n, dim, seed=0):
    rng = Rng(seed).child("inputs")
    return [rng.child(i).uniform(-1.0, 1.0, dim) for i in range(n)]


def field_sum_oracle(inputs):
    """Plain field sum of the encoded inputs, the bit-exact expectation."""
    return field_sum([encode_fixed(v) for v in inputs])


# ---------------------------------------------------------------------------
# Honest runs
# ---------------------------------------------------------------------------


def test_two_clients_worked_example():
    t = run_protocol([[1.0, 2.0], [3.0, 4.0]], k=2, seed=0, params=TOY_GROUP).transcript
    assert not t.aborted
    assert t.included == (0, 1)
    assert np.allclose(t.aggregate, [4.0, 6.0], atol=2**-20)
    assert t.aggregate_field == field_sum_oracle([np.array([1.0, 2.0]), np.array([3.0, 4.0])])


def test_honest_n10_matches_plain_sum():
    inputs = random_inputs(10, 8, seed=1)
    t = run_protocol(inputs, k=5, seed=1, params=TOY_GROUP).transcript
    assert not t.aborted
    assert t.aggregate_field == field_sum_oracle(inputs)
    assert np.max(np.abs(t.aggregate - np.sum(inputs, axis=0))) < 2**-20


def test_n3_k2_honest_bit_exact():
    inputs = random_inputs(3, 4, seed=2)
    t = run_protocol(inputs, k=2, seed=2, params=TOY_GROUP).transcript
    assert t.aggregate_field == field_sum_oracle(inputs)


def test_deterministic_given_seed():
    inputs = random_inputs(4, 6, seed=3)
    t1 = run_protocol(inputs, k=3, seed=3, params=TOY_GROUP).transcript
    t2 = run_protocol(inputs, k=3, seed=3, params=TOY_GROUP).transcript
    assert t1.to_jsonl() == t2.to_jsonl()
    assert t1.aggregate_field == t2.aggregate_field


# ---------------------------------------------------------------------------
# Dropouts
# ---------------------------------------------------------------------------


def test_dropout_before_masked_input_excludes_client():
    inputs = random_inputs(3, 4, seed=4)
    # client 1 answers through round 1 (key sharing), never sends masked input
    t = run_protocol(inputs, k=2, seed=4, dropout_after={1: 1}, params=TOY_GROUP).transcript
    assert not t.aborted
    assert t.included == (0, 2)
    assert t.aggregate_field == field_sum_oracle([inputs[0], inputs[2]])


def test_dropout_after_masked_input_keeps_contribution():
    inputs = random_inputs(5, 4, seed=5)
    # client 2 sends its masked input but vanishes before unmasking
    t = run_protocol(inputs, k=3, seed=5, dropout_after={2: 2}, params=TOY_GROUP).transcript
    assert not t.aborted
    assert 2 in t.included
    assert t.aggregate_field == field_sum_oracle(inputs)


def test_two_scheduled_dropouts():
    inputs = random_inputs(5, 4, seed=6)
    t = run_protocol(inputs, k=3, seed=6, dropout_after={0: 1, 4: 2}, params=TOY_GROUP).transcript
    assert not t.aborted
    assert t.included == (1, 2, 3, 4)
    assert t.aggregate_field == field_sum_oracle([inputs[i] for i in (1, 2, 3)] + [inputs[4]])


def test_abort_below_threshold():
    inputs = random_inputs(5, 4, seed=7)
    t = run_protocol(inputs, k=5, seed=7, dropout_after={0: 1}, params=TOY_GROUP).transcript
    assert t.aborted
    assert "below threshold" in t.abort_reason
    assert t.included == ()
    assert t.aggregate is None


def test_dropout_before_any_message():
    inputs = random_inputs(4, 4, seed=8)
    # dropout_after=-1 means the client never even advertises
    t = run_protocol(inputs, k=2, seed=8, dropout_after={3: -1}, params=TOY_GROUP).transcript
    assert not t.aborted
    assert t.included == (0, 1, 2)
    assert t.aggregate_field == field_sum_oracle(inputs[:3])


# ---------------------------------------------------------------------------
# Hostile key-share deliveries
# ---------------------------------------------------------------------------


def deliver_with(monkeypatch, change):
    """Make the server pass every ShareDelivery through change(recipient, msg)."""
    original = secagg._server_after_shares

    def patched(state):
        return {r: [change(r, m) for m in msgs] for r, msgs in original(state).items()}

    monkeypatch.setattr(secagg, "_server_after_shares", patched)


def assert_aborted_or_exact(t, inputs):
    if t.aborted:
        assert t.abort_reason
    else:
        assert t.aggregate_field == field_sum_oracle([inputs[i] for i in t.included])


@pytest.mark.parametrize("flip", [0x01, 0x80])  # bad JSON, bad UTF-8
def test_tampered_bundle_aborts_its_recipient(monkeypatch, flip):
    def tamper(recipient, msg):
        if recipient != 2:
            return msg
        (owner, blob), *rest = msg.bundles
        return dataclasses.replace(msg, bundles=((owner, bytes([blob[0] ^ flip]) + blob[1:]), *rest))

    deliver_with(monkeypatch, tamper)
    inputs = random_inputs(4, 5, seed=17)
    run = run_protocol(inputs, k=3, seed=17, params=TOY_GROUP)
    assert run.clients[2].abort_reason == "malformed key-share bundle from client 0"
    assert run.transcript.included == (0, 1, 3)
    assert_aborted_or_exact(run.transcript, inputs)


@pytest.mark.parametrize(
    "change",
    [
        lambda r, msg: dataclasses.replace(msg, participants=msg.participants + (99,)),
        lambda r, msg: dataclasses.replace(msg, bundles=msg.bundles + ((99, b"\0"),)),
    ],
    ids=["participant", "bundle-owner"],
)
def test_unknown_client_in_delivery_aborts(monkeypatch, change):
    deliver_with(monkeypatch, change)
    inputs = random_inputs(4, 5, seed=18)
    run = run_protocol(inputs, k=3, seed=18, params=TOY_GROUP)
    for state in run.clients.values():
        assert state.abort_reason == "share delivery names client 99, not in the roster"
    assert run.transcript.aborted
    assert_aborted_or_exact(run.transcript, inputs)


def test_delivery_omitting_a_peer_aborts_its_recipient(monkeypatch):
    # client 2 would leave out its pairwise mask with client 0, which
    # client 0's input still carries, and the sum would be off
    deliver_with(monkeypatch, lambda r, msg: dataclasses.replace(msg, participants=msg.participants[1:]) if r == 2 else msg)
    inputs = random_inputs(4, 5, seed=18)
    run = run_protocol(inputs, k=3, seed=18, params=TOY_GROUP)
    assert run.clients[2].abort_reason == "share delivery's participants are not this client and its bundle owners"
    assert run.transcript.included == (0, 1, 3)
    assert_aborted_or_exact(run.transcript, inputs)


def test_missing_share_delivery_aborts_its_recipient(monkeypatch):
    original = secagg._server_after_shares

    def patched(state):
        out = original(state)
        out[2] = []
        return out

    monkeypatch.setattr(secagg, "_server_after_shares", patched)
    inputs = random_inputs(4, 5, seed=19)
    run = run_protocol(inputs, k=3, seed=19, params=TOY_GROUP)
    assert run.clients[2].abort_reason == "expected one ShareDelivery, got 0"
    assert run.transcript.included == (0, 1, 3)
    assert_aborted_or_exact(run.transcript, inputs)


def test_doubled_survivor_broadcast_aborts_every_client(monkeypatch):
    original = secagg._server_after_masked

    def patched(state):
        out = original(state)
        out[secagg.SERVER] = out[secagg.SERVER] * 2
        return out

    monkeypatch.setattr(secagg, "_server_after_masked", patched)
    inputs = random_inputs(4, 5, seed=20)
    run = run_protocol(inputs, k=3, seed=20, params=TOY_GROUP)
    for state in run.clients.values():
        assert state.abort_reason == "expected one SurvivorBroadcast, got 2"
    assert run.transcript.aborted
    assert_aborted_or_exact(run.transcript, inputs)


def test_signed_public_key_out_of_range_aborts_its_recipients(monkeypatch):
    original = secagg._client_advertise

    def patched(state, inbox):
        state, out = original(state, inbox)
        if state.cid != 1:
            return state, out
        (advert,) = out
        sig = sign(secagg.advert_signing_bytes(1, advert.pk1, 1), state.kp1.sk, state.params, state.tables)
        return state, [dataclasses.replace(advert, pk2=1, sig=sig)]

    monkeypatch.setattr(secagg, "_client_advertise", patched)
    inputs = random_inputs(4, 5, seed=21)
    run = run_protocol(inputs, k=3, seed=21, params=TOY_GROUP)
    for cid in (0, 2, 3):
        assert run.clients[cid].abort_reason == "bad public key from client 1"
    assert run.transcript.aborted
    assert_aborted_or_exact(run.transcript, inputs)


@pytest.mark.parametrize("key", ["pk1", "pk2"])
@pytest.mark.parametrize("value", [RFC3526_2048.prime, 1, 2.5, "2"], ids=["p", "one", "float", "str"])
def test_malformed_public_key_in_2048_bit_roster_aborts_its_recipients(monkeypatch, key, value):
    """Client 1 advertises a bad key and signs it with its real sk1: a bad pk1
    cannot verify that signature, and a bad pk2 fails the key range check."""
    original = secagg._client_advertise

    def patched(state, inbox):
        state, out = original(state, inbox)
        if state.cid != 1:
            return state, out
        (advert,) = out
        advert = dataclasses.replace(advert, **{key: value})
        sig = sign(secagg.advert_signing_bytes(1, advert.pk1, advert.pk2), state.kp1.sk, state.params, state.tables)
        return state, [dataclasses.replace(advert, sig=sig)]

    monkeypatch.setattr(secagg, "_client_advertise", patched)
    inputs = random_inputs(4, 3, seed=23)
    run = run_protocol(inputs, k=3, seed=23, params=RFC3526_2048)
    reason = "bad keypair signature from client 1" if key == "pk1" else "bad public key from client 1"
    for cid in (0, 2, 3):
        assert run.clients[cid].abort_reason == reason
    assert run.transcript.aborted
    assert_aborted_or_exact(run.transcript, inputs)


def test_overlong_signature_response_aborts_before_a_long_exponentiation(monkeypatch):
    """Client 1's advert signature carries the response s + 2^20000; every
    other client rejects it before raising g to it, so no exponentiation of
    the round has an exponent of 2^253 + 2^64 * (2^61 - 1) or more, the bound
    on an honest response."""
    original = secagg._client_advertise

    def patched(state, inbox):
        state, out = original(state, inbox)
        if state.cid != 1:
            return state, out
        (advert,) = out
        sig = dataclasses.replace(advert.sig, response=advert.sig.response + 2**20000)
        return state, [dataclasses.replace(advert, sig=sig)]

    exponents = []
    original_modexp = crypto.modexp

    def counted(base, exp, modulus, tables):
        exponents.append(exp)
        return original_modexp(base, exp, modulus, tables)

    monkeypatch.setattr(secagg, "_client_advertise", patched)
    monkeypatch.setattr(crypto, "modexp", counted)
    inputs = random_inputs(4, 3, seed=23)
    run = run_protocol(inputs, k=3, seed=23, params=RFC3526_2048)
    for cid in (0, 2, 3):
        assert run.clients[cid].abort_reason == "bad keypair signature from client 1"
    assert run.transcript.aborted
    assert exponents and max(exponents) < crypto.NONCE_BOUND + (crypto.MAX_SECRET_EXPONENT << 64)


def test_split_unmask_request_cannot_reveal_a_signed_survivors_sk1(monkeypatch):
    """A server that tells clients 1 and 2 that client 0 dropped, and tells
    clients 0 and 3 the truth, would get sk1 of client 0 from the first pair
    and sk2 from the second; a client refuses an sk1 request for a survivor
    it signed."""
    original = secagg._server_after_consistency

    def patched(state):
        (honest,) = original(state)[secagg.SERVER]
        lying = dataclasses.replace(honest, dropped=(0,), survivors=(1, 2, 3))
        return {0: [honest], 1: [lying], 2: [lying], 3: [honest]}

    monkeypatch.setattr(secagg, "_server_after_consistency", patched)
    inputs, k = random_inputs(4, 5, seed=5), 2
    run = run_protocol(inputs, k=k, seed=5, params=TOY_GROUP)
    for cid in (1, 2):
        assert run.clients[cid].abort_reason == "server requested sk1 of client 0, a signed survivor"
    assert_aborted_or_exact(run.transcript, inputs)
    sk1_shares_of_0 = [m for m in run.server.unmask.values() if 0 in m.sk1_shares]
    assert len(sk1_shares_of_0) < k


def rewrite_server_messages(monkeypatch, kind, change):
    """Make server_step send each outgoing message m of the given type as
    dataclasses.replace(m, **change(to, m)), where to is its outbox key."""
    original = secagg.server_step

    def patched(state, inbox):
        state, out = original(state, inbox)
        return state, {
            to: [dataclasses.replace(m, **change(to, m)) if isinstance(m, kind) else m for m in msgs]
            for to, msgs in out.items()
        }

    monkeypatch.setattr(secagg, "server_step", patched)


def split_view_victim_input(run):
    """Client 0's input as the server rebuilds it from the unmask responses it
    holds (its sk1 and sk2, then its mask), or None when either key does not
    reconstruct."""
    server = run.server
    try:
        sk1 = secagg._reconstruct(server, 0, "sk1")
        sk2 = secagg._reconstruct(server, 0, "sk2")
    except crypto.ProtocolError:
        return None
    pair_secrets = {j: crypto.dh_shared_secret(sk1, server.adverts[j].pk1, server.params, {}) for j in server.u1 if j != 0}
    return field_sub(server.masked[0].masked, client_mask(0, sk2, pair_secrets, server.dim))


@pytest.mark.parametrize(
    "n, k",
    [
        (5, 3),
        pytest.param(
            4,
            2,
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="with k <= n/2 a split-view server gets k sk1 shares from one side and k sk2 shares from the other",
            ),
        ),
    ],
)
def test_split_survivor_view_recovers_no_input(monkeypatch, n, k):
    """For every group A of clients 1..n-1, the server tells A that client 0
    dropped after sending its masked input and tells the others the truth.
    Each client's UnmaskRequest carries only the signatures over the list it
    signed, so no client sees the other list: A reveals sk1 shares of client
    0 and the others sk2 shares of it.  A signature-count rule cannot stop
    this, because each side has its own signers; only k > n/2, so that the
    two sides cannot both hold k share holders, does (Bonawitz et al., CCS
    2017)."""

    def listed(cid, u3):
        return tuple(j for j in u3 if j != 0) if cid in group_a else u3

    def after_masked(state):
        return {cid: [secagg.SurvivorBroadcast(survivors=listed(cid, state.u3))] for cid in state.u2}

    def after_consistency(state):
        out = {}
        for cid in state.u3:
            survivors = listed(cid, state.u3)
            sigs = tuple((j, m.sig) for j, m in sorted(state.consistency.items()) if m.participants == survivors)
            dropped = tuple(sorted(set(state.u2) - set(survivors)))
            out[cid] = [secagg.UnmaskRequest(sigs=sigs, dropped=dropped, survivors=survivors)]
        return out

    monkeypatch.setattr(secagg, "_server_after_masked", after_masked)
    monkeypatch.setattr(secagg, "_server_after_consistency", after_consistency)
    inputs = random_inputs(n, 5, seed=1)
    for size in range(n):
        for group_a in itertools.combinations(range(1, n), size):
            run = run_protocol(inputs, k=k, seed=1, params=TOY_GROUP)
            assert split_view_victim_input(run) != encode_fixed(inputs[0]), group_a


@pytest.mark.parametrize(
    "kind, change",
    [
        (secagg.RosterBroadcast, lambda m: {"roster": (m.roster[0][:3],) + m.roster[1:]}),
        (secagg.RosterBroadcast, lambda m: {"roster": 5}),
        (secagg.ShareDelivery, lambda m: {"bundles": (1,)}),
        (secagg.ShareDelivery, lambda m: {"participants": None}),
        (secagg.SurvivorBroadcast, lambda m: {"survivors": None}),
        (secagg.UnmaskRequest, lambda m: {"sigs": (1, 2)}),
        (secagg.UnmaskRequest, lambda m: {"dropped": None}),
    ],
    ids=["roster-entry", "roster-int", "bundles", "participants", "survivors", "sigs", "dropped"],
)
def test_malformed_server_message_aborts_its_recipients(monkeypatch, kind, change):
    """A server message field of the wrong shape aborts every client that
    receives it, instead of raising out of run_protocol."""
    rewrite_server_messages(monkeypatch, kind, lambda to, m: change(m))
    inputs = random_inputs(4, 5, seed=1)
    run = run_protocol(inputs, k=3, seed=1, params=TOY_GROUP)
    for state in run.clients.values():
        assert state.abort_reason.startswith("malformed server message")
    assert_aborted_or_exact(run.transcript, inputs)


@pytest.mark.parametrize(
    "kind, change, reasons",
    [
        (secagg.RosterBroadcast, lambda to, m: {"roster": m.roster[:2]},
         ["below threshold at key sharing"] * 2 + ["roster leaves out client 2", "roster leaves out client 3"]),
        (secagg.ShareDelivery, lambda to, m: {"bundles": m.bundles[:1], "participants": tuple(sorted({to, m.bundles[0][0]}))},
         ["below threshold at masked input"] * 4),
        (secagg.UnmaskRequest, lambda to, m: {"dropped": (1,), "survivors": (1, 2, 3)},
         ["server requested both masks for one client"] * 4),
        (secagg.UnmaskRequest, lambda to, m: {"sigs": ()},
         ["below threshold at unmasking"] * 4),
    ],
    ids=["roster-of-two", "one-bundle", "both-masks", "no-sigs"],
)
def test_hostile_server_message_aborts_with_its_named_reason(monkeypatch, kind, change, reasons):
    """A server message a client can read but must refuse: a roster below
    the threshold, a delivery of fewer than k consistent participants, an
    unmask request for both keys of one client, and an unmask request that
    carries fewer than k consistency signatures."""
    rewrite_server_messages(monkeypatch, kind, change)
    inputs = random_inputs(4, 5, seed=1)
    run = run_protocol(inputs, k=3, seed=1, params=TOY_GROUP)
    assert [state.abort_reason for state in run.clients.values()] == reasons
    assert run.transcript.aborted
    assert_aborted_or_exact(run.transcript, inputs)


def test_server_keeps_key_shares_only_from_advertised_int_ids():
    """server_step, called directly with no transport in front of it, stores
    a KeyShares only from an int id that advertised: not from client 2, which
    did not, nor from the sender True, which equals id 1."""
    adverts = {cid: secagg.KeyAdvert(sender=cid, pk1=2, pk2=2, sig=None) for cid in (0, 1)}
    state = secagg.ServerState(k=2, dim=5, params=TOY_GROUP, round=1, adverts=adverts)
    shares = [secagg.KeyShares(sender=sender, bundles={}) for sender in (0, 1, 2, True)]
    state, _ = secagg.server_step(state, shares)
    assert list(state.share_msgs) == [0, 1]
    assert state.share_msgs[0] is shares[0] and state.share_msgs[1] is shares[1]


def with_share_values(pool, value):
    return {j: dataclasses.replace(share, value=value) for j, share in pool.items()}


@pytest.mark.parametrize(
    "kind, change, refused",
    [
        (secagg.KeyAdvert, lambda m: {"pk1": "2"}, False),
        (secagg.KeyAdvert, lambda m: {"sender": "0"}, True),
        (secagg.KeyAdvert, lambda m: {"sender": 99}, False),
        (secagg.KeyAdvert, lambda m: {"sig": None}, False),
        (secagg.KeyShares, lambda m: {"bundles": 5}, True),
        (secagg.KeyShares, lambda m: {"bundles": None}, True),
        (secagg.KeyShares, lambda m: {"sender": 99}, True),
        (secagg.KeyShares, lambda m: {"sender": "0"}, True),
        (secagg.MaskedInput, lambda m: {"masked": secagg.FieldVector(np.zeros(3, dtype=np.uint64))}, True),
        (secagg.MaskedInput, lambda m: {"masked": None}, True),
        (secagg.MaskedInput, lambda m: {"sender": 99}, True),
        (secagg.ConsistencySig, lambda m: {"sig": None}, False),
        (secagg.ConsistencySig, lambda m: {"sender": 99}, True),
        (secagg.UnmaskShares, lambda m: {"sk2_shares": None}, True),
        (secagg.UnmaskShares, lambda m: {"sk2_shares": {j: 5 for j in m.sk2_shares}}, True),
        (secagg.UnmaskShares, lambda m: {"sk1_shares": list(m.sk1_shares)}, True),
        (secagg.UnmaskShares, lambda m: {"sender": 99}, True),
        (secagg.UnmaskShares, lambda m: {"sk2_shares": with_share_values(m.sk2_shares, "x")}, True),
    ],
    ids=[
        "advert-pk1-str", "advert-sender-str", "advert-sender-99", "advert-sig-none",
        "shares-bundles-int", "shares-bundles-none", "shares-sender-99", "shares-sender-str",
        "masked-dim-3", "masked-none", "masked-sender-99",
        "consistency-sig-none", "consistency-sender-99",
        "unmask-sk2-none", "unmask-non-share", "unmask-sk1-list", "unmask-sender-99", "unmask-share-value-str",
    ],
)
def test_malformed_client_message_never_raises(monkeypatch, kind, change, refused):
    """One field of client 0's message of one round is changed.  The round
    never raises out of run_protocol.  A message from a sender outside the
    previous round's set, or whose fields the server cannot read, is refused,
    as if client 0 had dropped out before sending it, and the other clients'
    sum is exact; client 0's input counts only if its masked input was
    admitted."""
    original = secagg.client_step

    def patched(state, inbox):
        state, out = original(state, inbox)
        if state.cid == 0:
            out = [dataclasses.replace(m, **change(m)) if isinstance(m, kind) else m for m in out]
        return state, out

    monkeypatch.setattr(secagg, "client_step", patched)
    inputs = random_inputs(4, 5, seed=1)
    t = run_protocol(inputs, k=3, seed=1, params=TOY_GROUP).transcript
    assert_aborted_or_exact(t, inputs)
    if refused:
        assert not t.aborted
        assert (0 in t.included) == (kind in (secagg.ConsistencySig, secagg.UnmaskShares))


@pytest.mark.parametrize(
    "kind, included",
    [
        (secagg.KeyAdvert, (0, 1, 2)),
        (secagg.KeyShares, (0, 1, 2)),
        (secagg.MaskedInput, (0, 1, 2)),
        (secagg.ConsistencySig, (0, 1, 2, 3)),
        (secagg.UnmaskShares, (0, 1, 2, 3)),
    ],
    ids=["advert", "shares", "masked", "consistency", "unmask"],
)
def test_message_under_another_clients_id_is_not_delivered(monkeypatch, kind, included):
    """Client 3's message of one round is relabelled as client 0's.  The
    transport drops it, so it neither overwrites client 0's message nor
    counts as client 3's: client 3 looks like a dropout at that round, and
    the round returns the exact sum of the clients it includes."""
    original = secagg.client_step

    def patched(state, inbox):
        state, out = original(state, inbox)
        if state.cid == 3:
            out = [dataclasses.replace(m, sender=0) if isinstance(m, kind) else m for m in out]
        return state, out

    monkeypatch.setattr(secagg, "client_step", patched)
    inputs = random_inputs(4, 5, seed=1)
    t = run_protocol(inputs, k=3, seed=1, params=TOY_GROUP).transcript
    assert not t.aborted
    assert tuple(t.included) == included
    assert t.aggregate_field == field_sum_oracle([inputs[i] for i in included])


def stop(*args):
    raise crypto.ProtocolError("stop")


@pytest.mark.parametrize(
    "handler",
    ["_server_after_advertise", "_server_after_shares", "_server_after_masked",
     "_server_after_consistency", "_server_after_unmask"],
)
def test_protocol_error_in_a_server_handler_aborts_the_round(monkeypatch, handler):
    """server_step turns a ProtocolError from any of its handlers into the
    round's abort reason, instead of raising out of run_protocol."""
    monkeypatch.setattr(secagg, handler, stop)
    t = run_protocol(random_inputs(4, 3, seed=2), k=3, seed=2, params=TOY_GROUP).transcript
    assert t.aborted and t.abort_reason == "stop"
    assert t.included == () and t.aggregate_field is None


@pytest.mark.parametrize(
    "handler",
    ["_client_advertise", "_client_share_keys", "_client_masked_input", "_client_consistency", "_client_unmask"],
)
def test_protocol_error_in_a_client_handler_aborts_that_client(monkeypatch, handler):
    """client_step keeps a handler's ProtocolError as the abort reason as it
    is, not as a malformed server message, and the others finish exactly."""
    original = getattr(secagg, handler)

    def stop_client_0(state, msg):
        if state.cid == 0:
            stop()
        return original(state, msg)

    monkeypatch.setattr(secagg, handler, stop_client_0)
    inputs = random_inputs(4, 3, seed=2)
    run = run_protocol(inputs, k=3, seed=2, params=TOY_GROUP)
    assert [state.abort_reason for state in run.clients.values()] == ["stop", None, None, None]
    assert not run.transcript.aborted
    assert_aborted_or_exact(run.transcript, inputs)


@pytest.mark.parametrize("n, k", [(4, 3), (4, 2), (5, 3)])
def test_roster_naming_a_client_twice_aborts(monkeypatch, n, k):
    """Each client deals share x to the x-th id of its roster and the server
    reads share x as the x-th client's of its own, so a repeated smallest id
    shifts every share to f(x + 1), still on one polynomial: without the
    client's check these rounds return a wrong sum with no abort."""
    rewrite_server_messages(monkeypatch, secagg.RosterBroadcast, lambda to, m: {"roster": m.roster + m.roster[:1]})
    inputs = random_inputs(n, 5, seed=1)
    run = run_protocol(inputs, k=k, seed=1, params=TOY_GROUP)
    for state in run.clients.values():
        assert state.abort_reason == "roster names client 0 twice"
    assert run.transcript.aborted


def sweep_tampered_share_bundle(monkeypatch, k):
    """One 4-client round per byte of client 0's key-share bundle to client 2,
    with that byte XOR-ed with 0x01 in transit; returns (inputs, transcripts)."""
    pos = None

    def tamper(recipient, msg):
        if recipient != 2 or pos is None:
            return msg
        bundles = tuple((o, b[:pos] + bytes([b[pos] ^ 0x01]) + b[pos + 1 :] if o == 0 else b) for o, b in msg.bundles)
        return dataclasses.replace(msg, bundles=bundles)

    deliver_with(monkeypatch, tamper)
    inputs = random_inputs(4, 4, seed=17)
    clean = run_protocol(inputs, k, seed=17, params=TOY_GROUP).transcript
    (shares,) = [m for m in clean.messages if type(m).__name__ == "KeyShares" and m.sender == 0]
    transcripts = []
    for pos in range(len(shares.bundles[2])):
        transcripts.append(run_protocol(inputs, k, seed=17, params=TOY_GROUP).transcript)
    return inputs, transcripts


@pytest.mark.parametrize(
    "k",
    [
        2,
        3,
        pytest.param(
            4,
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="with exactly k shares an altered sk2 share value goes unseen until the g^sk == pk check",
            ),
        ),
    ],
)
def test_tampered_share_aborts_or_stays_exact(monkeypatch, k):
    inputs, transcripts = sweep_tampered_share_bundle(monkeypatch, k)
    for t in transcripts:
        assert_aborted_or_exact(t, inputs)


def test_tampered_share_never_raises(monkeypatch):
    # at k = 4 every share is needed: an altered index digit used to raise
    # ThresholdError out of run_protocol, and the server now ignores it
    _, transcripts = sweep_tampered_share_bundle(monkeypatch, 4)
    assert all(t.aborted == (t.aggregate_field is None) for t in transcripts)


# ---------------------------------------------------------------------------
# Mask structure
# ---------------------------------------------------------------------------


def prg_mask(secret, label, dim=4):
    """A mask expanded straight from the PRG, independent of secagg."""
    return prg_expand(seed_from_secret(secret, label=label), dim)


def test_pairwise_mask_sign_convention():
    """For a pair (i, j), i adds M_ij and j subtracts the same M_ij: the sum
    of both clients' mask terms for the pair is exactly zero in the field."""
    run = run_protocol(random_inputs(3, 4, seed=9), k=2, seed=9, params=TOY_GROUP)
    ci, cj = run.clients[0], run.clients[1]
    # both parties derived the same DH secret, hence the same mask
    s = ci.pair_secrets[1]
    assert s == cj.pair_secrets[0]
    m2_i, m2_j, m = prg_mask(ci.kp2.sk, "m2"), prg_mask(cj.kp2.sk, "m2"), prg_mask(s, "mask")
    # i (lower id) adds, j subtracts
    mask_i = client_mask(0, ci.kp2.sk, {1: s}, 4)
    mask_j = client_mask(1, cj.kp2.sk, {0: s}, 4)
    assert mask_i == field_add(m2_i, m)
    assert mask_j == field_sub(m2_j, m)
    # the pair's contributions cancel
    assert field_add(mask_i, mask_j) == field_add(m2_i, m2_j)


def test_masked_input_vector_definition():
    """c_i = encode(w_i) + M2_i + sum_{j>i} M_ij - sum_{j<i} M_ij."""
    run = run_protocol(random_inputs(3, 4, seed=10), k=2, seed=10, params=TOY_GROUP)
    state = run.clients[1]
    c = run.server.masked[1].masked
    expected = field_add(encode_fixed(state.weights), prg_mask(state.kp2.sk, "m2"))
    for j in state.participants:
        if j == 1:
            continue
        m = prg_mask(state.pair_secrets[j], "mask")
        expected = field_add(expected, m) if 1 < j else field_sub(expected, m)
    assert c == expected
    assert c == masked_input_vector(state)


def test_masked_input_hides_the_plain_encoding():
    inputs = random_inputs(2, 4, seed=11)
    run = run_protocol(inputs, k=2, seed=11, params=TOY_GROUP)
    plain = encode_fixed(inputs[0])
    assert run.server.masked[0].masked != plain


def test_client_phases_terminal():
    run = run_protocol(random_inputs(3, 4, seed=12), k=2, seed=12, params=TOY_GROUP)
    for state in run.clients.values():
        assert state.round == secagg.ROUNDS and state.abort_reason is None


# ---------------------------------------------------------------------------
# Transcript
# ---------------------------------------------------------------------------


def test_transcript_replay_byte_identical():
    inputs = random_inputs(4, 5, seed=13)
    a = run_protocol(inputs, k=3, seed=13, dropout_after={2: 2}, params=TOY_GROUP).transcript.to_jsonl()
    b = run_protocol(inputs, k=3, seed=13, dropout_after={2: 2}, params=TOY_GROUP).transcript.to_jsonl()
    assert a == b


def test_transcript_header_schema():
    t = run_protocol(random_inputs(2, 3, seed=14), k=2, seed=14, params=TOY_GROUP).transcript
    lines = t.to_jsonl().splitlines()
    header = json.loads(lines[0])
    assert header["schema_version"] == TRANSCRIPT_SCHEMA_VERSION
    assert header["aborted"] is False
    assert header["included"] == [0, 1]
    # every message line parses and carries a type tag
    for line in lines[1:]:
        msg = json.loads(line)
        assert "type" in msg


def test_transcript_serializes_messages_only_in_to_jsonl(monkeypatch):
    """A round keeps the delivered message objects and serializes none;
    to_jsonl serializes each once, and every line is the message's dict."""
    calls = []
    original = secagg.serialize_message

    def counted(msg):
        calls.append(msg)
        return original(msg)

    monkeypatch.setattr(secagg, "serialize_message", counted)
    t = run_protocol(random_inputs(4, 3, seed=18), k=3, seed=18, dropout_after={3: 1}, params=TOY_GROUP).transcript
    assert calls == []
    lines = t.to_jsonl().splitlines()[1:]
    assert len(calls) == len(t.messages) == len(lines)
    assert all(a is b for a, b in zip(calls, t.messages))
    assert lines == [json.dumps(original(m)) for m in t.messages]


def test_transcript_message_round_tags_monotone_per_sender():
    t = run_protocol(random_inputs(3, 3, seed=15), k=2, seed=15, params=TOY_GROUP).transcript
    last_round = {}
    for line in t.to_jsonl().splitlines()[1:]:
        msg = json.loads(line)
        sender = msg.get("sender")
        rnd = msg.get("round")
        if sender is None or rnd is None:
            continue
        assert rnd >= last_round.get(sender, -1)
        last_round[sender] = rnd


@pytest.mark.parametrize(
    "n, dropout",
    [(5, {}), (6, {0: 1, 1: 1}), (6, {0: 2}), (6, {0: 0}), (6, {1: 2, 4: 3})],
)
def test_message_counts_match_closed_forms(n, dropout):
    """Per-type message counts of an unaborted round, from the dropout schedule
    alone: U1 advertises, U2 sends key shares, U3 sends masked input."""
    t = run_protocol(random_inputs(n, 3, seed=22), k=3, seed=22, dropout_after=dropout, params=TOY_GROUP).transcript
    assert not t.aborted

    def responding(rnd):
        return [c for c in range(n) if dropout.get(c, secagg.ROUNDS - 1) >= rnd]

    u1, u2, u3 = responding(0), responding(1), responding(2)
    by_type = {}
    for m in t.messages:
        by_type.setdefault(type(m).__name__, []).append(m)
    assert {kind: len(msgs) for kind, msgs in by_type.items()} == {
        "KeyAdvert": len(u1),
        "RosterBroadcast": 1,
        "KeyShares": len(u2),
        "ShareDelivery": len(u2),
        "MaskedInput": len(u3),
        "SurvivorBroadcast": 1,
        "ConsistencySig": len(responding(3)),
        "UnmaskRequest": 1,
        "UnmaskShares": len(responding(4)),
    }
    assert all(len(m.bundles) == len(u1) - 1 for m in by_type["KeyShares"])
    assert all(len(m.bundles) == len(u2) - 1 for m in by_type["ShareDelivery"])


def count_calls(monkeypatch, original):
    """A list that gets each result of `original`, called through any of its
    bindings in crypto, secagg and adversary: every binding is counted, as
    the benchmark's tracer wraps them."""
    results = []

    def counted(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    for module in (crypto, secagg, adversary):
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, counted)
    return results


@pytest.mark.parametrize("n, d", [(4, 0), (5, 1), (6, 2)])
def test_modexp_calls_match_cost_formula(monkeypatch, n, d):
    """One crypto.modexp call per exponentiation in a 2048-bit round with d
    clients dropped after key sharing: 2n key generations, n advert
    signatures and 2n modexps to verify them, 2n(n - 1) key agreements,
    n - d consistency signatures and 2(n - d) to verify them, and (n - d)d
    pair secrets on the server.  The round is run twice, and each must make
    them all."""
    calls = count_calls(monkeypatch, crypto.modexp)
    inputs = random_inputs(n, 3, seed=24)
    # rounds share nothing: a second same-seed round redoes every check
    for _ in range(2):
        calls.clear()
        t = run_protocol(inputs, k=3, seed=24, dropout_after={i: 1 for i in range(d)}, params=RFC3526_2048).transcript
        assert t.included == tuple(range(d, n))
        assert t.aggregate_field == field_sum_oracle(inputs[d:])
        assert len(calls) == 5 * n + 2 * n * (n - 1) + 3 * (n - d) + (n - d) * d


@pytest.mark.parametrize("n, d", [(4, 0), (5, 1), (6, 2)])
def test_prg_and_stream_calls_match_cost_formula(monkeypatch, n, d):
    """With d clients dropped after key sharing, a round expands
    (n - d)(n + 1 + d) masks of dim words: each of the n - d survivors its
    self mask and n - 1 pairwise masks, and the server each survivor's self
    mask and its pairwise mask with each dropped client.  It makes
    (2n - d)(n - 1) stream_xor calls: each client encrypts a share bundle
    for each peer, and each survivor decrypts the n - 1 it is delivered."""
    masks = count_calls(monkeypatch, crypto.prg_expand)
    bundles = count_calls(monkeypatch, crypto.stream_xor)
    inputs = random_inputs(n, 5, seed=25)
    t = run_protocol(inputs, k=3, seed=25, dropout_after={i: 1 for i in range(d)}, params=TOY_GROUP).transcript
    assert t.included == tuple(range(d, n))
    assert t.aggregate_field == field_sum_oracle(inputs[d:])
    assert len(masks) == (n - d) * (n + 1 + d)
    assert {m.dim for m in masks} == {5}
    assert len(bundles) == (2 * n - d) * (n - 1)


def test_decoded_aggregate_matches_field_decode():
    inputs = random_inputs(3, 4, seed=16)
    t = run_protocol(inputs, k=2, seed=16, params=TOY_GROUP).transcript
    assert np.array_equal(t.aggregate, decode_fixed(t.aggregate_field))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_run_protocol_validation():
    with pytest.raises(ParameterError):
        run_protocol([[1.0]], k=1).transcript
    with pytest.raises(ParameterError):
        run_protocol([[1.0], [2.0]], k=3).transcript
    with pytest.raises(ParameterError):
        run_protocol([[1.0], [2.0]], k=0).transcript
    with pytest.raises(ParameterError):
        run_protocol([[1.0, 2.0], [3.0]], k=2).transcript
    # a client id that names no client, a round that does not exist, and the
    # string key a JSON config produces
    for dropout in ({7: 1}, {0: 9}, {"0": 1}):
        with pytest.raises(ParameterError, match="dropout_after"):
            run_protocol([[1.0], [2.0], [3.0]], k=2, dropout_after=dropout, params=TOY_GROUP)


def test_run_protocol_rejects_zero_dimension_inputs():
    # unchecked, every client would abort with a misleading "malformed server
    # message" and the round would fall below threshold
    with pytest.raises(ParameterError, match="^dim:"):
        run_protocol([[], []], k=2, params=TOY_GROUP)


@pytest.mark.parametrize("dropout", [{0: True}, {True: 1}], ids=["round", "client"])
def test_run_protocol_rejects_a_bool_in_dropout_after(dropout):
    # the scenario config rejects a bool there, so the round does too
    with pytest.raises(ParameterError, match="^dropout_after:"):
        run_protocol([[1.0], [2.0], [3.0]], k=2, dropout_after=dropout, params=TOY_GROUP)
