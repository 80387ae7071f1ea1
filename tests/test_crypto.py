"""Modular exponentiation, Diffie-Hellman, Shamir sharing, PRG expansion,
stream cipher, and Schnorr signatures."""

import copy
import ctypes
import dataclasses
import gc
import hashlib
import itertools
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmask import crypto, secagg
from fedmask.crypto import (
    DhParams,
    ProtocolError,
    RFC3526_2048,
    SHARING_PRIME,
    ShamirShare,
    Signature,
    TOY_GROUP,
    ThresholdError,
    dh_shared_secret,
    generate_keypair,
    modexp,
    prg_expand,
    seed_from_secret,
    shamir_reconstruct,
    shamir_split,
    sign,
    stream_xor,
    verify,
)
from fedmask.numeric import FieldVector, ParameterError, Rng, encode_fixed, field_reduce, field_sum
from oracles import quadratic_interpolate


def naive_modexp(base, exp, modulus):
    r = 1
    for _ in range(exp):
        r = (r * base) % modulus
    return r


# ---------------------------------------------------------------------------
# modexp
# ---------------------------------------------------------------------------


def test_modexp_zero_exponent():
    for x in (0, 1, 5, 12345):
        assert modexp(x, 0, 97, {}) == 1


def test_modexp_known_value():
    assert modexp(5, 15, 23, {}) == 19
    assert modexp(5, 15, 23, {}) == naive_modexp(5, 15, 23)


def test_modexp_matches_naive_oracle_small():
    rng = Rng(0).child("me")
    for _ in range(100):
        base = int(rng.integers(0, 1000))
        exp = int(rng.integers(0, 200))
        mod = 2 * int(rng.integers(1, 500)) + 1
        assert modexp(base, exp, mod, {}) == naive_modexp(base, exp, mod)


def test_modexp_matches_builtin_big_modulus():
    rng = Rng(1).child("big")
    p = RFC3526_2048.prime
    for _ in range(10):
        base = rng.randbelow(p)
        exp = rng.randbelow(1 << 61)
        assert modexp(base, exp, p, {}) == pow(base, exp, p)


# RFC 3526 section 3, the 2048-bit MODP group (group 14), as printed there
RFC3526_2048_HEX = """
    FFFFFFFF FFFFFFFF C90FDAA2 2168C234 C4C6628B 80DC1CD1
    29024E08 8A67CC74 020BBEA6 3B139B22 514A0879 8E3404DD
    EF9519B3 CD3A431B 302B0A6D F25F1437 4FE1356D 6D51C245
    E485B576 625E7EC6 F44C42E9 A637ED6B 0BFF5CB6 F406B7ED
    EE386BFB 5A899FA5 AE9F2411 7C4B1FE6 49286651 ECE45B3D
    C2007CB8 A163BF05 98DA4836 1C55D39A 69163FA8 FD24CF5F
    83655D23 DCA3AD96 1C62F356 208552BB 9ED52907 7096966D
    670C354E 4ABC9804 F1746C08 CA18217C 32905E46 2E36CE3B
    E39E772C 180E8603 9B2783A2 EC07A28F B5C55DF0 6F4C52C9
    DE2BCBF6 95581718 3995497C EA956AE5 15D22618 98FA0510
    15728E5A 8AACAA68 FFFFFFFF FFFFFFFF
"""


def miller_rabin(n, bases=(2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)):
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_rfc3526_group_is_the_published_safe_prime():
    digits = "".join(RFC3526_2048_HEX.split())
    assert len(digits) == 512
    p = RFC3526_2048.prime
    assert p == int(digits, 16)
    assert p.bit_length() == 2048
    assert miller_rabin(p) and miller_rabin((p - 1) // 2)
    assert not miller_rabin(p * 2**64 + 2**64 - 1)  # the literal with 16 extra F digits
    # 2 generates the subgroup of order (p - 1) / 2
    assert RFC3526_2048.generator == 2 and pow(2, (p - 1) // 2, p) == 1


def test_modexp_validation():
    with pytest.raises(ParameterError):
        modexp(2, 3, 1, {})
    with pytest.raises(ParameterError):
        modexp(2, -1, 7, {})


# Exponents with edge bit patterns: powers of two and all-ones runs,
# alternating bits, long zero runs, and 101 repeated far apart.
EDGE_EXPONENTS = (
    7, 8, 2**61, 2**61 - 1, 2**64,
    0x5555_5555_5555_5555, 0xAAAA_AAAA_AAAA_AAAA,
    2**60 + 1, 2**125 + 1,
    2**63 - 1, 0b101 << 60 | 0b101,
)


def test_modexp_table_path_matches_pow():
    """Every base and exponent at one modulus runs from one context."""
    p = RFC3526_2048.prime
    tables = {}
    bases = (0, 1, 2, p - 1, p, p + 3, 5 * p + 7)
    exps = (0, 1, 2, 2**61 - 2, 2**64 - 1, 2**125 + 0x1234567, 2**126 - 1) + EDGE_EXPONENTS
    for base in bases:
        for exp in exps:
            assert modexp(base, exp, p, tables) == pow(base, exp, p)
    assert set(tables) == {("modexp", p)}


def test_modexp_table_grows_past_its_depth():
    """A context first used with a 61-bit exponent serves longer ones, up to
    a 4096-bit exponent, and stays the dict's one entry."""
    p = RFC3526_2048.prime
    tables = {}
    assert modexp(3, 2**61 - 2, p, tables) == pow(3, 2**61 - 2, p)
    (context,) = tables.values()
    top = 1 << 61  # one bit past the first exponent
    for exp in (top - 1, top, top + 1, 2 * top - 1, 2**300 + 1, 2**4096 - 1):
        assert modexp(3, exp, p, tables) == pow(3, exp, p)
    assert tables == {("modexp", p): context}


def test_modexp_one_tables_dict_across_bases_and_exponents():
    rng = Rng(3).child("tables")
    p = RFC3526_2048.prime
    bases = (RFC3526_2048.generator, rng.randbelow(p))
    tables = {}
    for i in range(60):
        base = bases[i % 2]
        exp = rng.randbelow(1 << int(rng.integers(1, 130)))
        assert modexp(base, exp, p, tables) == pow(base, exp, p)
    assert list(tables) == [("modexp", p)]


@pytest.mark.parametrize("p", [3, 23, TOY_GROUP.prime, 2**61 - 1, 2**64 - 59])
def test_modexp_small_moduli_use_the_table_path(p):
    """Odd moduli of 64 bits or fewer, the smallest one 3 included, run from
    one context per modulus too, each result equal to pow."""
    rng = Rng(4).child("small", p)
    bases = (0, 1, 2, p - 1, p, p + 3, rng.randbelow(p))
    tables = {}
    for base in bases:
        for exp in (0, 1) + EDGE_EXPONENTS + tuple(rng.randbelow(1 << int(rng.integers(1, 131))) for _ in range(12)):
            assert modexp(base, exp, p, tables) == pow(base, exp, p)
    assert set(tables) == {("modexp", p)}


@settings(max_examples=200, deadline=None)
@given(
    modulus=st.one_of(
        st.sampled_from([3, 9, 1001, 2**64 + 1, TOY_GROUP.prime, RFC3526_2048.prime]),
        st.integers(1, 2**299).map(lambda m: 2 * m + 1),
    ),
    base=st.integers(-(2**2100), 2**2100),
    exp=st.integers(0, 2**300),
)
def test_property_modexp_equals_pow(modulus, base, exp):
    """Odd moduli, composite ones among them, negative bases and bases of the
    modulus or more, and exponents up to 2^300: one context per modulus,
    pow's result."""
    tables = {}
    assert modexp(base, exp, modulus, tables) == pow(base, exp, modulus)
    assert modexp(-base, exp + 1, modulus, tables) == pow(-base, exp + 1, modulus)
    assert list(tables) == [("modexp", modulus)]


@pytest.mark.parametrize(
    "modulus", [2, 4, 1000, 2**64, 2 * RFC3526_2048.prime], ids=["2", "4", "1000", "2^64", "twice-rfc3526"]
)
def test_modexp_and_dh_params_reject_an_even_modulus(modulus):
    """No group has an even prime, so neither modexp nor DhParams takes one."""
    tables = {}
    with pytest.raises(ParameterError):
        modexp(3, 5, modulus, tables)
    assert tables == {}
    with pytest.raises(ParameterError, match="prime"):
        DhParams(prime=modulus, generator=modulus - 1)


def test_modexp_context_is_freed_with_its_round():
    """A round's libcrypto context lives in the round's tables dict and goes
    with it; a copy of the dict gets a context of its own."""
    run = secagg.run_protocol([np.zeros(2)] * 3, k=2, seed=0, params=RFC3526_2048)
    context = run.server.tables["modexp", RFC3526_2048.prime]
    copied = copy.deepcopy(run.server.tables)["modexp", RFC3526_2048.prime]
    assert copied is not context and copied.pow(3, 2**61 + 5) == pow(3, 2**61 + 5, RFC3526_2048.prime)
    ref = weakref.ref(context)
    del run, context, copied
    gc.collect()
    assert ref() is None


def test_import_loads_neither_ssl_nor_subprocess():
    """libcrypto is found by soname: no `ssl` module (its memory) and no
    `subprocess` (ctypes.util.find_library's ldconfig run) in a fresh
    process that imports fedmask."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(crypto.__file__)))
    code = "import sys, fedmask; print(sorted({'ssl', 'subprocess'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("base, exp", [(2.0, 3), ("2", 3), (2, 3.0), (2, "3"), (None, 3)])
def test_modexp_table_path_rejects_non_ints_as_pow_does(base, exp):
    for p in (RFC3526_2048.prime, TOY_GROUP.prime):
        with pytest.raises(TypeError):
            pow(base, exp, p)
        with pytest.raises(TypeError):
            modexp(base, exp, p, {})


# ---------------------------------------------------------------------------
# Diffie-Hellman
# ---------------------------------------------------------------------------


def test_dh_tiny_worked_example():
    params = DhParams(prime=23, generator=5)
    a = 6
    b = 15
    pk_a = modexp(5, a, 23, {})
    pk_b = modexp(5, b, 23, {})
    assert (pk_a, pk_b) == (8, 19)
    from fedmask.crypto import KeyPair

    kp_a = KeyPair(sk=a, pk=pk_a)
    kp_b = KeyPair(sk=b, pk=pk_b)
    s_ab = dh_shared_secret(kp_a.sk, pk_b, params, {})
    s_ba = dh_shared_secret(kp_b.sk, pk_a, params, {})
    assert s_ab == s_ba == 2


def test_dh_symmetric_same_secret():
    params = DhParams(prime=23, generator=5)
    from fedmask.crypto import KeyPair

    kp = KeyPair(sk=7, pk=modexp(5, 7, 23, {}))
    assert dh_shared_secret(kp.sk, kp.pk, params, {}) == dh_shared_secret(kp.sk, kp.pk, params, {})


def test_dh_symmetry_rfc_group():
    rng = Rng(2).child("dh")
    for i in range(25):
        a = generate_keypair(RFC3526_2048, rng.child("a", i), {})
        b = generate_keypair(RFC3526_2048, rng.child("b", i), {})
        assert dh_shared_secret(a.sk, b.pk, RFC3526_2048, {}) == dh_shared_secret(b.sk, a.pk, RFC3526_2048, {})


def test_dh_rejects_out_of_range_pk():
    from fedmask.crypto import ProtocolError

    kp = generate_keypair(TOY_GROUP, Rng(0).child("kp"), {})
    with pytest.raises(ProtocolError):
        dh_shared_secret(kp.sk, TOY_GROUP.prime, TOY_GROUP, {})
    with pytest.raises(ProtocolError):
        dh_shared_secret(kp.sk, 1, TOY_GROUP, {})
    for pk in (2.0, "2", None):
        with pytest.raises(ProtocolError):
            dh_shared_secret(kp.sk, pk, TOY_GROUP, {})


def test_dh_params_validation():
    with pytest.raises(ParameterError):
        DhParams(prime=23, generator=23)
    with pytest.raises(ParameterError):
        DhParams(prime=23, generator=1)


# ---------------------------------------------------------------------------
# Shamir sharing
# ---------------------------------------------------------------------------


def lagrange_at_zero(points, prime):
    secret = 0
    for i, (xi, yi) in enumerate(points):
        num, den = 1, 1
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            num = (num * (-xj)) % prime
            den = (den * (xi - xj)) % prime
        secret = (secret + yi * num * pow(den, -1, prime)) % prime
    return secret


def test_shamir_2_of_3_all_pairs():
    shares = shamir_split(5, 2, 3, Rng(0).child("s"), prime=7919)
    for pair in itertools.combinations(shares, 2):
        assert shamir_reconstruct(pair) == 5
        # independent Lagrange oracle
        assert lagrange_at_zero([(s.index, s.value) for s in pair], 7919) == 5


def test_shamir_3_of_5_all_subsets_identical():
    secret = 123456
    shares = shamir_split(secret, 3, 5, Rng(1).child("s"))
    results = {shamir_reconstruct(sub) for sub in itertools.combinations(shares, 3)}
    assert results == {secret}


def test_shamir_round_trip_random():
    rng = Rng(2).child("rt")
    for _ in range(100):
        n = int(rng.integers(1, 8))
        k = int(rng.integers(1, n + 1))
        m = rng.randbelow(SHARING_PRIME)
        shares = shamir_split(m, k, n, rng.child("split"))
        assert shamir_reconstruct(shares) == m


def test_shamir_below_threshold_raises():
    shares = shamir_split(42, 3, 5, Rng(3).child("s"))
    with pytest.raises(ThresholdError):
        shamir_reconstruct(shares[:2])
    with pytest.raises(ThresholdError):
        shamir_reconstruct([])


def test_shamir_reconstruct_checks_every_share_past_k():
    prime = 7919
    shares = shamir_split(42, 3, 6, Rng(6).child("s"), prime=prime)
    assert shamir_reconstruct(shares) == 42
    for i in range(3, 6):
        altered = list(shares)
        altered[i] = dataclasses.replace(shares[i], value=(shares[i].value + 1) % prime)
        with pytest.raises(ProtocolError, match=f"share {i + 1} is off the polynomial"):
            shamir_reconstruct(altered)
        assert shamir_reconstruct(altered[:3]) == 42  # the first k alone never see it


def test_shamir_duplicate_indices_rejected():
    shares = shamir_split(42, 2, 3, Rng(4).child("s"))
    with pytest.raises(ParameterError):
        shamir_reconstruct([shares[0], shares[0]])


def test_shamir_hiding_small_field():
    # with k-1 shares, every candidate secret in the field admits a consistent
    # degree-(k-1) polynomial: holding the shares reveals nothing
    prime = 97
    shares = shamir_split(33, 3, 4, Rng(5).child("s"), prime=prime)
    held = shares[:2]  # k-1 = 2 shares
    consistent = 0
    for candidate in range(prime):
        pts = [(0, candidate)] + [(s.index, s.value) for s in held]
        # 3 points always determine a degree-2 polynomial
        assert lagrange_at_zero(pts[:3], prime) == candidate
        consistent += 1
    assert consistent == prime


def test_shamir_validation():
    with pytest.raises(ParameterError):
        shamir_split(1, 4, 3, Rng(0))
    with pytest.raises(ParameterError):
        ShamirShare(index=0, value=1, threshold=1, total=1)


@given(st.integers(0, 7919 - 1), st.integers(1, 6), st.integers(0, 5), st.integers(0, 1000))
@settings(max_examples=100, deadline=None)
def test_property_shamir_round_trip(secret, k, extra, seed):
    n = k + extra
    shares = shamir_split(secret, k, n, Rng(seed).child("h"), prime=7919)
    assert shamir_reconstruct(shares) == secret


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_property_interpolate_matches_quadratic_formula(data):
    # the prefix-and-suffix products give Lagrange's formula bit for bit,
    # with query points on and off the base points
    prime = data.draw(st.sampled_from([7919, SHARING_PRIME]))
    k = data.draw(st.integers(1, 30))
    bases = data.draw(st.lists(st.integers(1, 300), min_size=k, max_size=k, unique=True))
    points = [(x, data.draw(st.integers(0, prime - 1))) for x in bases]
    xs = data.draw(st.lists(st.integers(0, 300), max_size=31))
    assert crypto._interpolate(points, xs, prime) == quadratic_interpolate(points, xs, prime)


# ---------------------------------------------------------------------------
# PRG and stream cipher
# ---------------------------------------------------------------------------


def test_prg_deterministic_and_in_range():
    a = prg_expand(987654321, 1000)
    b = prg_expand(987654321, 1000)
    assert a == b
    assert np.all(a.residues < np.uint64(a.modulus))


def test_prg_distinct_seeds_differ_almost_everywhere():
    rng = Rng(6).child("prg")
    for _ in range(5):
        s1 = rng.randbelow(1 << 61)
        s2 = rng.randbelow(1 << 61)
        if s1 == s2:
            continue
        a = prg_expand(s1, 10_000)
        b = prg_expand(s2, 10_000)
        frac_diff = np.mean(a.residues != b.residues)
        assert frac_diff >= 0.99


def test_prg_prefix_stability():
    # expanding to a longer dim preserves the shorter prefix
    short = prg_expand(42, 10)
    long = prg_expand(42, 50)
    assert np.array_equal(short.residues, long.residues[:10])
    # at a realistic model size too, one word past a power of two
    assert np.array_equal(prg_expand(42, 8192).residues, prg_expand(42, 8193).residues[:8192])


@pytest.mark.parametrize("dim", [1, 2, 3, 8193])
def test_prg_expand_is_a_prefix_across_block_edges(dim):
    # a 16-byte AES block holds two words: dims 1 and 3 end halfway into one
    assert np.array_equal(prg_expand(7, dim).residues, prg_expand(7, 8195).residues[:dim])


def test_stream_xor_involution():
    # either side of one and two 16-byte AES blocks, and a bundle's 600 bytes,
    # which end inside a block
    assert stream_xor(5, b"") == b""
    rng = Rng(7).child("sx")
    for n in (0, 1, 15, 16, 17, 31, 32, 33, 500, 600):
        data = bytes(int(b) for b in rng.integers(0, 256, size=max(n, 1))[:n])
        key = rng.randbelow(1 << 61)
        assert stream_xor(key, stream_xor(key, data)) == data


def test_stream_xor_key_sensitivity():
    data = b"attack at dawn" * 3
    assert stream_xor(1, data) != stream_xor(2, data)


@pytest.mark.parametrize("m", [1, 15, 16, 17, 31, 32, 33, 500])
def test_stream_xor_of_a_prefix_is_a_prefix(m):
    # 15 to 17 and 31 to 33 straddle 16-byte AES blocks; 500 ends 4 bytes
    # into block 31
    data = Rng(15).child("prefix").integers(0, 256, size=500).astype(np.uint8).tobytes()
    assert stream_xor(12345, data[:m]) == stream_xor(12345, data)[:m]


def test_prg_and_stream_labels_separate_the_keystreams():
    # one seed: the words its mask reads are not its bundle keystream's words
    for seed in (0, 42, SHARING_PRIME - 1):
        bundle_words = field_reduce(np.frombuffer(stream_xor(seed, bytes(8 * 64)), dtype=">u8"))
        assert np.mean(bundle_words.residues != prg_expand(seed, 64).residues) >= 0.99


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _canonical(value: int) -> bytes:
    return value.to_bytes(max(1, (value.bit_length() + 7) // 8), "big")


def aes128_block(key: bytes, block: bytes) -> bytes:
    """AES-128 of one 16-byte block, through libcrypto's ECB mode."""
    lib = crypto._libcrypto
    # a prototype of its own, so no declaration on the shared handle changes
    aes_128_ecb = ctypes.CFUNCTYPE(ctypes.c_void_p)(("EVP_aes_128_ecb", lib))
    ctx, out, outl = lib.EVP_CIPHER_CTX_new(), ctypes.create_string_buffer(32), ctypes.c_int()
    try:
        assert lib.EVP_EncryptInit_ex(ctx, aes_128_ecb(), None, key, None) == 1
        assert lib.EVP_EncryptUpdate(ctx, out, ctypes.byref(outl), block, 16) == 1
    finally:
        lib.EVP_CIPHER_CTX_free(ctx)
    assert outl.value == 16
    return out.raw[:16]


def test_aes128_block_matches_fips197():
    # FIPS-197 Appendix C.1, the AES-128 example vector
    plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
    assert aes128_block(bytes(range(16)), plaintext).hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"


def reference_keystream(label: bytes, seed: int, nbytes: int) -> bytes:
    # one 16-byte block at a time: block i is AES-128 of the counter i as 16
    # big-endian bytes, keyed by the first 16 bytes of SHA-256(label | seed)
    key = hashlib.sha256(label + b"|" + _canonical(seed)).digest()[:16]
    blocks = [aes128_block(key, i.to_bytes(16, "big")) for i in range(-(-nbytes // 16))]
    return b"".join(blocks)[:nbytes]


def reference_prg_expand(seed, dim):
    # one word at a time: the layout prg_expand documents
    stream = reference_keystream(b"prg", seed, 8 * dim)
    words = [int.from_bytes(stream[8 * i : 8 * i + 8], "big") % SHARING_PRIME for i in range(dim)]
    return FieldVector(np.array(words, dtype=np.uint64))


def reference_stream_xor(key_seed, data):
    # one byte at a time
    keystream = reference_keystream(b"stream", key_seed, len(data))
    return bytes(d ^ k for d, k in zip(data, keystream))


@pytest.mark.parametrize(
    "seed, dim, digest",
    [
        (42, 10, "9f751bc6246d32c2"),
        (987654321, 8193, "444a701f44bc28e1"),
    ],
)
def test_prg_known_answers(seed, dim, digest):
    assert _digest(prg_expand(seed, dim).residues.astype("<u8").tobytes()) == digest


@pytest.mark.parametrize(
    "n, digest",
    [
        (1, "5c62e091b8c0565f"),
        (31, "8fdaa0d34621c14b"),
        (32, "539ba6f5f64a0536"),
        (33, "56ff4086db709a13"),
        (500, "518629c0890a71dc"),
    ],
)
def test_stream_xor_known_answers(n, digest):
    assert _digest(stream_xor(12345, bytes(i % 256 for i in range(n)))) == digest


def test_transcript_known_answer():
    # pins every PRG mask and every encrypted share bundle of a round with a dropout
    inputs = [Rng(1).child(i).uniform(-1, 1, 37) for i in range(5)]
    run = secagg.run_protocol(inputs, 3, seed=11, dropout_after={0: 1}, params=TOY_GROUP)
    assert _digest(run.transcript.to_jsonl().encode()) == "127c9113f1a4f661"


def test_transcript_known_answer_dropouts_in_three_rounds():
    # client 0 drops after key sharing, 2 after masked input, 4 after the
    # consistency check: the server cancels client 0's pairwise masks only
    inputs = [Rng(2).child(i).uniform(-1, 1, 37) for i in range(6)]
    run = secagg.run_protocol(inputs, 3, seed=12, dropout_after={0: 1, 2: 2, 4: 3}, params=TOY_GROUP)
    t = run.transcript
    assert t.included == (1, 2, 3, 4, 5)
    assert t.aggregate_field == field_sum([encode_fixed(inputs[i]) for i in t.included])
    assert _digest(t.to_jsonl().encode()) == "83423b7651fc40e8"


def test_transcript_known_answer_rfc3526():
    # the 2048-bit group: pins every DH secret through the masks and the
    # encrypted share bundles; client 0 drops after key sharing, so the
    # server derives the survivors' pair secrets with it too
    inputs = [Rng(3).child(i).uniform(-1, 1, 6) for i in range(5)]
    t = secagg.run_protocol(inputs, 3, seed=13, dropout_after={0: 1}, params=RFC3526_2048).transcript
    assert t.included == (1, 2, 3, 4)
    assert t.aggregate_field == field_sum([encode_fixed(inputs[i]) for i in t.included])
    assert _digest(t.to_jsonl().encode()) == "fbfc396c3af08ebe"


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**70), dim=st.integers(1, 70))
def test_property_prg_matches_reference(seed, dim):
    assert prg_expand(seed, dim) == reference_prg_expand(seed, dim)


@settings(max_examples=40, deadline=None)
@given(key=st.integers(0, 2**70), data=st.binary(max_size=130))
def test_property_stream_xor_matches_reference(key, data):
    assert stream_xor(key, data) == reference_stream_xor(key, data)


def test_seed_from_secret_deterministic_and_label_separated():
    assert seed_from_secret(99) == seed_from_secret(99)
    assert seed_from_secret(99, "mask") != seed_from_secret(99, "m2")
    assert 0 <= seed_from_secret(12345) < SHARING_PRIME


# ---------------------------------------------------------------------------
# Schnorr signatures
# ---------------------------------------------------------------------------


def test_schnorr_round_trip_many_messages():
    kp = generate_keypair(TOY_GROUP, Rng(8).child("kp"), {})
    rng = Rng(8).child("msgs")
    for i in range(100):
        msg = bytes(int(b) for b in rng.integers(0, 256, size=20))
        assert verify(msg, sign(msg, kp.sk, TOY_GROUP, {}), kp.pk, TOY_GROUP, {})


def test_schnorr_rejects_tampered_message():
    kp = generate_keypair(TOY_GROUP, Rng(9).child("kp"), {})
    sig = sign(b"hello", kp.sk, TOY_GROUP, {})
    assert not verify(b"hellp", sig, kp.pk, TOY_GROUP, {})


def test_schnorr_rejects_wrong_pk():
    kp1 = generate_keypair(TOY_GROUP, Rng(10).child("a"), {})
    kp2 = generate_keypair(TOY_GROUP, Rng(10).child("b"), {})
    sig = sign(b"msg", kp1.sk, TOY_GROUP, {})
    assert not verify(b"msg", sig, kp2.pk, TOY_GROUP, {})


def test_schnorr_rejects_malformed_signature():
    kp = generate_keypair(TOY_GROUP, Rng(11).child("kp"), {})
    assert not verify(b"m", Signature(commitment=0, response=5), kp.pk, TOY_GROUP, {})
    assert not verify(b"m", Signature(commitment=5, response=-1), kp.pk, TOY_GROUP, {})
    assert not verify(b"m", "not a signature", kp.pk, TOY_GROUP, {})


def test_schnorr_big_group():
    kp = generate_keypair(RFC3526_2048, Rng(12).child("kp"), {})
    msg = b"roster|0,1,2"
    assert verify(msg, sign(msg, kp.sk, RFC3526_2048, {}), kp.pk, RFC3526_2048, {})


GROUPS = pytest.mark.parametrize("params", [TOY_GROUP, RFC3526_2048], ids=["toy", "rfc3526"])
# verify's bound: the largest nonce plus the largest e * sk
MAX_RESPONSE = crypto.NONCE_BOUND + (crypto.MAX_SECRET_EXPONENT << 64)


@pytest.fixture
def modexp_calls(monkeypatch):
    """A list that gets one entry per crypto.modexp call."""
    calls = []
    original = crypto.modexp

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(crypto, "modexp", counted)
    return calls


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32), message=st.binary(max_size=40))
def test_property_honest_response_below_bound(seed, message):
    for params in (TOY_GROUP, RFC3526_2048):
        kp = generate_keypair(params, Rng(seed).child("kp"), {})
        sig = sign(message, kp.sk, params, {})
        assert 0 <= sig.response < MAX_RESPONSE
        assert verify(message, sig, kp.pk, params, {})


@GROUPS
def test_overlong_response_rejected_before_any_exponentiation(modexp_calls, params):
    kp = generate_keypair(params, Rng(13).child("kp"), {})
    sig = sign(b"m", kp.sk, params, {})
    modexp_calls.clear()
    tables = {}
    for response in (sig.response + 2**20000, MAX_RESPONSE):
        assert not verify(b"m", dataclasses.replace(sig, response=response), kp.pk, params, tables)
    assert modexp_calls == []
    assert tables == {}


def signature_cases(params):
    """(message, signature, pk) triples: honest, wrong message, wrong key,
    commitments 0 and p, a negative response, and a non-Signature."""
    kp = generate_keypair(params, Rng(14).child("a"), {})
    other = generate_keypair(params, Rng(14).child("b"), {})
    sig = sign(b"msg", kp.sk, params, {})
    return [
        (b"msg", sig, kp.pk),
        (b"msh", sig, kp.pk),
        (b"msg", sig, other.pk),
        (b"msg", dataclasses.replace(sig, commitment=0), kp.pk),
        (b"msg", dataclasses.replace(sig, commitment=params.prime), kp.pk),
        (b"msg", dataclasses.replace(sig, response=-1), kp.pk),
        (b"msg", "not a signature", kp.pk),
    ]


@GROUPS
def test_verify_with_tables_matches_direct_check(params):
    cases = signature_cases(params)
    tables = {}
    results = [verify(m, sig, pk, params, tables) for m, sig, pk in cases]
    assert results == [verify(m, sig, pk, params, {}) for m, sig, pk in cases]
    assert results == [True] + [False] * (len(cases) - 1)
    # a second pass reads the kept results
    assert [verify(m, sig, pk, params, tables) for m, sig, pk in cases] == results


@GROUPS
def test_verify_runs_each_check_once_per_tables_dict(modexp_calls, params):
    for message, sig, pk in signature_cases(params)[:3]:
        modexp_calls.clear()
        tables = {}
        verify(message, sig, pk, params, tables)
        assert len(modexp_calls) == 2
        verify(message, sig, pk, params, tables)
        assert len(modexp_calls) == 2
        verify(message, sig, pk, params, {})
        assert len(modexp_calls) == 4


@GROUPS
def test_recorded_signatures_do_not_give_away_sk1(params):
    """A passive observer of a round divides each advert and consistency
    signature's response s by its challenge e: neither floor(s / e) nor any of
    its 64 neighbours on each side reproduces the signer's pk1."""
    inputs = [Rng(5).child(i).uniform(-1, 1, 3) for i in range(5)]
    messages = secagg.run_protocol(inputs, 3, seed=15, params=params).transcript.messages
    adverts = {m.sender: m for m in messages if isinstance(m, secagg.KeyAdvert)}
    signed = [(secagg.advert_signing_bytes(i, m.pk1, m.pk2), m.sig, m.pk1) for i, m in adverts.items()] + [
        (secagg.roster_signing_bytes(m.participants), m.sig, adverts[m.sender].pk1)
        for m in messages
        if isinstance(m, secagg.ConsistencySig)
    ]
    assert len(signed) == 10
    tables = {}
    for message, sig, pk1 in signed:
        assert verify(message, sig, pk1, params, tables)
        quotient = sig.response // crypto._challenge(sig.commitment, message)
        for candidate in range(max(1, quotient - 64), quotient + 65):
            assert modexp(params.generator, candidate, params.prime, tables) != pk1
