"""Five-round secure-aggregation protocol as explicit client/server state
machines over an in-process message transport.

Rounds: key advertising (0), key sharing (1), masked input collection (2),
consistency check (3), unmasking (4).  Dropouts follow a declarative schedule
(client i stops responding after round r); there are no wall-clock timers, so
every run is deterministic given its seed.

Masks: a client adds an individual mask M2, derived from its second secret
key, plus one pairwise mask per peer.  `client_mask` builds that sum and is
the one home of the sign rule: for a pair (i, j) with i < j, i adds the
common mask M_ij and j subtracts it.  The server subtracts `client_mask` once
per survivor, using the survivor's sk2 (survivors' sk2 shares are revealed)
and its pair secrets with the clients dropped after key sharing (only the
dropped clients' sk1 shares are revealed); masks between two survivors
cancel in the sum.

Exponent tables: `run_protocol` creates one dict per round and hands it to
every party as its `tables` field.  It holds the round's exponent tables, the
powers of g and of each public key that `crypto.modexp` tabulates, built once
and shared by all the parties that raise those bases, and the results of
`crypto.verify`, so each broadcast signature is checked once per round (see
`crypto`).  The dict is freed with the round, and no round shares anything
with another.

Aborts: a handler that rejects a message raises `ProtocolError` with the
reason, and `client_step` or `server_step` catches it, stores it as the
party's `abort_reason` and ends that party's round, so a new check is one
`raise`.  A client whose server message has fields of the wrong shape (a
`TypeError` or `ValueError`) aborts with `malformed server message: ...`.

Intake: `run_protocol`'s transport drops a client message whose `sender` is
not the client that produced it, so no client speaks under another's id.
`server_step` is the one place the server admits a client message.  It
keeps a message only if it is of the round's type, its sender is an int id
from the previous round's set (any id in round 0; U1, U2, then U3), and the
fields the server reads have the shape it reads them with.  Anything else is
ignored, which is how a client that never sent the message looks: a dropout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .crypto import (
    DhParams,
    KeyPair,
    ProtocolError,
    RFC3526_2048,
    ShamirShare,
    ThresholdError,
    dh_shared_secret,
    generate_keypair,
    prg_expand,
    seed_from_secret,
    shamir_reconstruct,
    shamir_split,
    sign,
    stream_xor,
    verify,
)
from .numeric import (
    FieldVector,
    ParameterError,
    Rng,
    as_vectors,
    clip_for_encoding,
    decode_fixed,
    encode_fixed,
    field_add,
    field_sub,
    field_zero,
)

TRANSCRIPT_SCHEMA_VERSION = 1

SERVER = "server"

ROUNDS = 5


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KeyAdvert:
    sender: int
    pk1: int
    pk2: int
    sig: object
    round: int = 0


@dataclass(frozen=True)
class RosterBroadcast:
    roster: tuple  # tuple of (id, pk1, pk2, sig)
    sender: str = SERVER
    round: int = 0


@dataclass(frozen=True)
class KeyShares:
    sender: int
    bundles: dict  # recipient id -> encrypted bytes
    round: int = 1


@dataclass(frozen=True)
class ShareDelivery:
    participants: tuple  # ids that completed key sharing (U2)
    bundles: tuple  # (owner id, encrypted bytes) addressed to the recipient
    sender: str = SERVER
    round: int = 1


@dataclass(frozen=True)
class MaskedInput:
    sender: int
    masked: FieldVector
    round: int = 2


@dataclass(frozen=True)
class SurvivorBroadcast:
    survivors: tuple  # ids whose masked input arrived (U3)
    sender: str = SERVER
    round: int = 2


@dataclass(frozen=True)
class ConsistencySig:
    sender: int
    participants: tuple
    sig: object
    round: int = 3


@dataclass(frozen=True)
class UnmaskRequest:
    sigs: tuple  # (id, sig) over the survivor list
    dropped: tuple  # U2 \ U3: reveal sk1 shares
    survivors: tuple  # U3: reveal sk2 shares
    sender: str = SERVER
    round: int = 3


@dataclass(frozen=True)
class UnmaskShares:
    sender: int
    sk1_shares: dict  # owner id -> ShamirShare
    sk2_shares: dict  # owner id -> ShamirShare
    round: int = 4


def advert_signing_bytes(cid: int, pk1: int, pk2: int) -> bytes:
    return f"advert|{cid}|{pk1}|{pk2}".encode()


def roster_signing_bytes(ids) -> bytes:
    return ("roster|" + ",".join(str(i) for i in sorted(ids))).encode()


# ---------------------------------------------------------------------------
# Client state machine
# ---------------------------------------------------------------------------


@dataclass
class ClientState:
    cid: int
    weights: np.ndarray
    k: int
    params: DhParams
    rng: Rng
    round: int = 0
    kp1: KeyPair | None = None
    kp2: KeyPair | None = None
    roster: dict = field(default_factory=dict)  # id -> (pk1, pk2)
    participants: tuple = ()  # U2, mask peers
    pair_secrets: dict = field(default_factory=dict)  # id -> s_ij (keypair 1)
    enc_secrets: dict = field(default_factory=dict)  # id -> s2_ij (keypair 2)
    held_shares: dict = field(default_factory=dict)  # owner id -> (sk1 share, sk2 share)
    consistency_list: tuple = ()
    abort_reason: str | None = None
    tables: dict = field(default_factory=dict, repr=False, compare=False)  # the round's exponent tables and signature results


def _bundle_key(state: ClientState, peer: int) -> int:
    return seed_from_secret(state.enc_secrets[peer], label="share-enc")


def _encode_share(share: ShamirShare) -> dict:
    return {
        "index": share.index,
        "value": str(share.value),
        "threshold": share.threshold,
        "total": share.total,
        "prime": str(share.prime),
    }


def _decode_share(d: dict) -> ShamirShare:
    return ShamirShare(
        index=d["index"],
        value=int(d["value"]),
        threshold=d["threshold"],
        total=d["total"],
        prime=int(d["prime"]),
    )


def client_mask(cid: int, sk2: int, pair_secrets: dict, dim: int) -> FieldVector:
    """M2(sk2) + sum_j sign(cid, j) * M(s_cid,j) over pair_secrets (peer id ->
    s_cid,j), where sign(cid, j) is +1 when cid < j and -1 otherwise."""
    mask = prg_expand(seed_from_secret(sk2, label="m2"), dim)
    for j, secret in pair_secrets.items():
        m = prg_expand(seed_from_secret(secret, label="mask"), dim)
        mask = field_add(mask, m) if cid < j else field_sub(mask, m)
    return mask


def masked_input_vector(state: ClientState) -> FieldVector:
    """encode(w_i) + client_mask over the peers that completed key sharing."""
    peers = {j: state.pair_secrets[j] for j in state.participants if j != state.cid}
    mask = client_mask(state.cid, state.kp2.sk, peers, state.weights.shape[0])
    return field_add(encode_fixed(clip_for_encoding(state.weights)), mask)


def client_step(state: ClientState, inbox) -> tuple[ClientState, list]:
    """Advance one protocol round; returns the state and outgoing messages.
    A client that aborted or finished every round sends nothing.  Each round
    after the first reads exactly one server message of the type in the
    table."""
    if state.abort_reason is not None or state.round == ROUNDS:
        return state, []
    kind, handler = [
        (None, _client_advertise),
        (RosterBroadcast, _client_share_keys),
        (ShareDelivery, _client_masked_input),
        (SurvivorBroadcast, _client_consistency),
        (UnmaskRequest, _client_unmask),
    ][state.round]
    # key advertising reads no server message: its handler takes the inbox
    msgs = [m for m in inbox if isinstance(m, kind)] if kind else [inbox]
    out = []
    try:
        if len(msgs) != 1:
            raise ProtocolError(f"expected one {kind.__name__}, got {len(msgs)}")
        state, out = handler(state, msgs[0])
    except ProtocolError as e:  # a ValueError too, so it is caught first
        state.abort_reason = str(e)
    except (TypeError, ValueError) as e:
        state.abort_reason = f"malformed server message: {e}"
    state.round += 1
    return state, out


def _client_advertise(state: ClientState, inbox) -> tuple[ClientState, list]:
    state.kp1 = generate_keypair(state.params, state.rng.child("kp1"), state.tables)
    state.kp2 = generate_keypair(state.params, state.rng.child("kp2"), state.tables)
    sig = sign(advert_signing_bytes(state.cid, state.kp1.pk, state.kp2.pk), state.kp1.sk, state.params, state.tables)
    return state, [KeyAdvert(sender=state.cid, pk1=state.kp1.pk, pk2=state.kp2.pk, sig=sig)]


def _client_share_keys(state: ClientState, msg: RosterBroadcast) -> tuple[ClientState, list]:
    # share x goes to the x-th smallest id, and the server reads it as the
    # share of the x-th client of its own roster, so the ids must be distinct
    ids = sorted([e[0] for e in msg.roster])
    twice = [a for a, b in zip(ids, ids[1:]) if a == b]
    if twice:
        raise ProtocolError(f"roster names client {twice[0]} twice")
    if state.cid not in ids:
        raise ProtocolError(f"roster leaves out client {state.cid}")
    for cid, pk1, pk2, sig in msg.roster:
        if cid == state.cid:
            continue
        if not verify(advert_signing_bytes(cid, pk1, pk2), sig, pk1, state.params, state.tables):
            raise ProtocolError(f"bad keypair signature from client {cid}")
        state.roster[cid] = (pk1, pk2)
        try:
            state.pair_secrets[cid] = dh_shared_secret(state.kp1.sk, pk1, state.params, state.tables)
            state.enc_secrets[cid] = dh_shared_secret(state.kp2.sk, pk2, state.params, state.tables)
        except ProtocolError:
            raise ProtocolError(f"bad public key from client {cid}")
    if len(ids) < state.k:
        raise ProtocolError("below threshold at key sharing")
    n = len(ids)
    sk1_shares = shamir_split(state.kp1.sk, state.k, n, state.rng.child("shamir-sk1"))
    sk2_shares = shamir_split(state.kp2.sk, state.k, n, state.rng.child("shamir-sk2"))
    bundles = {}
    # share x = 1..n goes to the x-th smallest id
    for peer, sk1, sk2 in zip(ids, sk1_shares, sk2_shares):
        if peer == state.cid:
            state.held_shares[peer] = (sk1, sk2)  # own share, kept locally
            continue
        payload = json.dumps({"owner": state.cid, "sk1": _encode_share(sk1), "sk2": _encode_share(sk2)}).encode()
        bundles[peer] = stream_xor(_bundle_key(state, peer), payload)
    return state, [KeyShares(sender=state.cid, bundles=bundles)]


def _client_masked_input(state: ClientState, msg: ShareDelivery) -> tuple[ClientState, list]:
    state.participants = tuple(sorted(msg.participants))
    owners = [owner for owner, _ in msg.bundles]
    named = [j for j in state.participants if j != state.cid] + owners
    unknown = [j for j in named if j not in state.roster]
    if unknown:
        raise ProtocolError(f"share delivery names client {unknown[0]!r}, not in the roster")
    # a peer left out of participants keeps its pairwise mask with this
    # client out of this client's input, and nothing cancels the peer's side
    if state.participants != tuple(sorted({state.cid, *owners})):
        raise ProtocolError("share delivery's participants are not this client and its bundle owners")
    for owner, blob in msg.bundles:
        try:
            info = json.loads(stream_xor(_bundle_key(state, owner), blob))
            state.held_shares[owner] = (_decode_share(info["sk1"]), _decode_share(info["sk2"]))
        except (ValueError, KeyError, TypeError):
            raise ProtocolError(f"malformed key-share bundle from client {owner}")
    if len(state.participants) < state.k:
        raise ProtocolError("below threshold at masked input")
    c = masked_input_vector(state)
    return state, [MaskedInput(sender=state.cid, masked=c)]


def _client_consistency(state: ClientState, msg: SurvivorBroadcast) -> tuple[ClientState, list]:
    survivors = tuple(sorted(msg.survivors))
    if len(survivors) < state.k:
        raise ProtocolError("below threshold at consistency check")
    state.consistency_list = survivors
    sig = sign(roster_signing_bytes(survivors), state.kp1.sk, state.params, state.tables)
    return state, [ConsistencySig(sender=state.cid, participants=survivors, sig=sig)]


def _client_unmask(state: ClientState, msg: UnmaskRequest) -> tuple[ClientState, list]:
    if set(msg.dropped) & set(msg.survivors):
        raise ProtocolError("server requested both masks for one client")
    # a client this one signed as a survivor keeps its sk1 hidden, whatever
    # the server tells the other clients
    signed = [j for j in msg.dropped if j in state.consistency_list]
    if signed:
        raise ProtocolError(f"server requested sk1 of client {signed[0]}, a signed survivor")
    expected = roster_signing_bytes(state.consistency_list)
    for cid, sig in msg.sigs:
        if cid == state.cid:
            continue
        pk1 = state.roster.get(cid, (None, None))[0]
        if pk1 is None or not verify(expected, sig, pk1, state.params, state.tables):
            raise ProtocolError(f"bad consistency signature from client {cid}")
    # k signers of this client's survivor list, itself among them, before it
    # reveals any share
    if len({cid for cid, _ in msg.sigs} | {state.cid}) < state.k:
        raise ProtocolError("below threshold at unmasking")
    held = state.held_shares
    sk1_shares = {j: held[j][0] for j in msg.dropped if j in held and j != state.cid}
    sk2_shares = {i: held[i][1] for i in msg.survivors if i in held}
    return state, [UnmaskShares(sender=state.cid, sk1_shares=sk1_shares, sk2_shares=sk2_shares)]


# ---------------------------------------------------------------------------
# Server state machine
# ---------------------------------------------------------------------------


@dataclass
class ServerState:
    k: int
    dim: int
    params: DhParams = RFC3526_2048
    round: int = 0
    adverts: dict = field(default_factory=dict)  # id -> KeyAdvert
    share_msgs: dict = field(default_factory=dict)  # id -> KeyShares
    masked: dict = field(default_factory=dict)  # id -> MaskedInput
    consistency: dict = field(default_factory=dict)  # id -> ConsistencySig
    unmask: dict = field(default_factory=dict)  # id -> UnmaskShares
    abort_reason: str | None = None
    aggregate_field: FieldVector | None = None
    tables: dict = field(default_factory=dict, repr=False, compare=False)  # the round's exponent tables and signature results

    @property
    def u1(self):
        return tuple(sorted(self.adverts))

    @property
    def u2(self):
        return tuple(sorted(self.share_msgs))

    @property
    def u3(self):
        return tuple(sorted(self.masked))


def server_step(state: ServerState, inbox) -> tuple[ServerState, dict]:
    """Consume one round's client messages; returns per-client outboxes, in
    which the key ``SERVER`` addresses every active client.  The table names
    the round's message type, the dict that stores it, and the previous
    round's senders (None: any id); the module's Intake gives the rule."""
    kind, store, senders, handler = [
        (KeyAdvert, state.adverts, None, _server_after_advertise),
        (KeyShares, state.share_msgs, state.adverts, _server_after_shares),
        (MaskedInput, state.masked, state.share_msgs, _server_after_masked),
        (ConsistencySig, state.consistency, state.masked, _server_after_consistency),
        (UnmaskShares, state.unmask, state.masked, _server_after_unmask),
    ][state.round]
    for m in inbox:
        # type() rejects a bool sender, which isinstance(..., int) lets through
        if isinstance(m, kind) and type(m.sender) is int and (senders is None or m.sender in senders) and _well_formed(state, m):
            store[m.sender] = m
    out = {}
    try:
        out = handler(state)
    except ProtocolError as e:
        state.abort_reason = str(e)
    state.round += 1
    return state, out


def _well_formed(state: ServerState, m) -> bool:
    """Whether the fields the server reads from m have the shape it reads them
    with: a bundles dict, a masked vector of the round's dim, and share dicts
    of ShamirShares with int values."""
    if isinstance(m, KeyShares):
        return isinstance(m.bundles, dict)
    if isinstance(m, MaskedInput):
        return isinstance(m.masked, FieldVector) and m.masked.dim == state.dim
    if isinstance(m, UnmaskShares):
        pools = (m.sk1_shares, m.sk2_shares)
        return all(isinstance(p, dict) and all(isinstance(s, ShamirShare) and type(s.value) is int for s in p.values()) for p in pools)
    return True


def _server_after_advertise(state: ServerState) -> dict:
    roster = tuple((m.sender, m.pk1, m.pk2, m.sig) for m in (state.adverts[i] for i in state.u1))
    return {SERVER: [RosterBroadcast(roster=roster)]}


def _server_after_shares(state: ServerState) -> dict:
    if len(state.u2) < state.k:
        raise ProtocolError("below threshold: too few clients completed key sharing")
    out = {}
    for recipient in state.u2:
        bundles = tuple(
            (owner, state.share_msgs[owner].bundles[recipient])
            for owner in state.u2
            if owner != recipient and recipient in state.share_msgs[owner].bundles
        )
        out[recipient] = [ShareDelivery(participants=state.u2, bundles=bundles)]
    return out


def _server_after_masked(state: ServerState) -> dict:
    return {SERVER: [SurvivorBroadcast(survivors=state.u3)]}


def _server_after_consistency(state: ServerState) -> dict:
    if len(state.consistency) < state.k:
        raise ProtocolError("below threshold: too few consistency signatures")
    sigs = tuple((cid, state.consistency[cid].sig) for cid in sorted(state.consistency))
    dropped = tuple(sorted(set(state.u2) - set(state.u3)))
    return {SERVER: [UnmaskRequest(sigs=sigs, dropped=dropped, survivors=state.u3)]}


def _server_after_unmask(state: ServerState) -> dict:
    if len(state.unmask) < state.k:
        raise ProtocolError("below threshold: too few unmask responses")
    state.aggregate_field = _server_unmask_aggregate(state)
    return {}


def _reconstruct(state: ServerState, owner: int, kind: str) -> int:
    """owner's sk1 or sk2 from the unmask responses.  The x-th smallest id in
    U1 was sent share x, so a share's index is its sender's position there and
    only its value is read from the message."""
    u1 = state.u1
    shares = []
    for cid, m in sorted(state.unmask.items()):
        pool = m.sk1_shares if kind == "sk1" else m.sk2_shares
        if owner in pool:
            shares.append(ShamirShare(index=u1.index(cid) + 1, value=pool[owner].value, threshold=state.k, total=len(u1)))
    try:
        return shamir_reconstruct(shares)
    except (ThresholdError, ProtocolError) as e:
        raise ProtocolError(f"cannot reconstruct {kind} of client {owner}: {e}") from e


def _server_unmask_aggregate(state: ServerState) -> FieldVector:
    """Sum of c_i - client_mask_i over the survivors i.  Pairwise masks
    between two survivors cancel in the sum, so each survivor's mask needs
    only its sk2 and its pair secrets with the clients dropped after key
    sharing, derived from their reconstructed sk1 keys.  A public key out of
    range raises ProtocolError, which `server_step` turns into the abort."""
    dropped_sk1 = {j: _reconstruct(state, j, "sk1") for j in sorted(set(state.u2) - set(state.u3))}
    total = field_zero(state.dim)
    for cid in state.u3:
        sk2 = _reconstruct(state, cid, "sk2")
        pk1 = state.adverts[cid].pk1
        pair_secrets = {j: dh_shared_secret(sk1, pk1, state.params, state.tables) for j, sk1 in dropped_sk1.items()}
        mask = client_mask(cid, sk2, pair_secrets, state.dim)
        total = field_add(total, field_sub(state.masked[cid].masked, mask))
    return total


# ---------------------------------------------------------------------------
# Round transcript and driver
# ---------------------------------------------------------------------------


@dataclass
class RoundTranscript:
    messages: list  # the delivered message objects, in delivery order; to_jsonl serializes them
    dropouts: dict  # client id -> last round it responded in
    included: tuple  # client ids whose input entered the aggregate (U3)
    aggregate_field: FieldVector | None
    aggregate: np.ndarray | None
    abort_reason: str | None

    @property
    def aborted(self) -> bool:
        return self.abort_reason is not None

    def to_jsonl(self) -> str:
        header = json.dumps(
            {
                "schema_version": TRANSCRIPT_SCHEMA_VERSION,
                "aborted": self.aborted,
                "abort_reason": self.abort_reason,
                "included": list(self.included),
                "dropouts": {str(k): v for k, v in self.dropouts.items()},
            }
        )
        return "\n".join([header] + [json.dumps(serialize_message(m)) for m in self.messages])


def _serialize_value(v):
    if isinstance(v, FieldVector):
        return {"residues": list(map(str, v.residues.tolist())), "modulus": str(v.modulus), "frac_bits": v.frac_bits}
    if isinstance(v, ShamirShare):
        return _encode_share(v)
    if isinstance(v, bytes):
        return v.hex()
    if isinstance(v, dict):
        return {str(k): _serialize_value(x) for k, x in v.items()}
    if isinstance(v, (tuple, list)):
        return [_serialize_value(x) for x in v]
    if hasattr(v, "commitment"):  # Signature
        return {"commitment": _big_text(v.commitment), "response": _big_text(v.response)}
    if isinstance(v, (int, str, float)) or v is None:
        return _big_text(v) if isinstance(v, int) and abs(v) > 2**53 else v
    return repr(v)


def _big_text(v) -> str:
    """str(v), or hex for a peer's int too long for Python's decimal
    conversion (over 4300 digits by default; honest values are far shorter)."""
    try:
        return str(v)
    except ValueError:
        return hex(v)


def serialize_message(msg) -> dict:
    data = {"type": type(msg).__name__}
    for name, value in vars(msg).items():
        data[name] = _serialize_value(value)
    return data


@dataclass
class ProtocolRun:
    """A completed round plus the final party states, for instrumentation."""

    transcript: RoundTranscript
    clients: dict  # id -> ClientState
    server: ServerState


def check_round(n: int, k: int, dim: int, dropout_after: dict) -> None:
    """The rules for a round's arguments, shared by `run_protocol` and the
    scenario config; each ParameterError starts with the field it rejects."""
    if n < 2:
        raise ParameterError("n: secure aggregation needs at least 2 clients")
    if not 1 <= k <= n:
        raise ParameterError(f"k: need 1 <= k <= n, got k={k}, n={n}")
    if dim < 1:
        raise ParameterError("dim: must be >= 1")
    for cid, rnd in dropout_after.items():
        # type() rejects a bool, which isinstance(..., int) lets through
        if not (type(cid) is int and cid in range(n) and type(rnd) is int and rnd in range(-1, ROUNDS)):
            raise ParameterError(
                f"dropout_after: bad entry {cid!r}: {rnd!r}; need a client id in 0..{n - 1} and a round in -1..{ROUNDS - 1}"
            )


def run_protocol(
    inputs,
    k: int,
    seed: int = 0,
    dropout_after: dict | None = None,
    params: DhParams = RFC3526_2048,
) -> ProtocolRun:
    """Execute one full protocol round over the given client input vectors.

    dropout_after maps client id -> last protocol round (-1 to ROUNDS - 1) in
    which that client still responds; -1 means it never advertises.
    """
    inputs = as_vectors(inputs)
    n, dim = len(inputs), inputs[0].shape[0]
    dropout_after = dict(dropout_after or {})
    check_round(n, k, dim, dropout_after)

    root = Rng(seed)
    tables: dict = {}  # exponent tables and signature results, shared by every party of this round
    clients = {
        cid: ClientState(cid=cid, weights=inputs[cid], k=k, params=params, rng=root.child("client", cid), tables=tables)
        for cid in range(n)
    }
    server = ServerState(k=k, dim=dim, params=params, tables=tables)

    log: list = []
    pending: dict[int, list] = {cid: [] for cid in clients}

    for round_no in range(ROUNDS):
        round_msgs = []
        for cid, state in clients.items():
            if dropout_after.get(cid, ROUNDS - 1) < round_no:
                continue
            state, outbox = client_step(state, pending[cid])
            pending[cid] = []
            # the transport knows each message's producer: none goes under another id
            outbox = [m for m in outbox if m.sender == cid]
            log.extend(outbox)
            round_msgs.extend(outbox)
        server, outboxes = server_step(server, round_msgs)
        if server.abort_reason is not None:
            break
        # the SERVER key addresses every client
        for to, msgs in outboxes.items():
            for m in msgs:
                log.append(m)
                for cid in clients if to == SERVER else (to,):
                    pending[cid].append(m)

    aggregate_field = server.aggregate_field
    transcript = RoundTranscript(
        messages=log,
        dropouts=dropout_after,
        included=() if server.abort_reason is not None else server.u3,
        aggregate_field=aggregate_field,
        aggregate=None if aggregate_field is None else decode_fixed(aggregate_field),
        abort_reason=server.abort_reason,
    )
    return ProtocolRun(transcript=transcript, clients=clients, server=server)
