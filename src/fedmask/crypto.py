"""Modular-arithmetic primitives for the aggregation protocol: Diffie-Hellman,
Shamir threshold sharing, PRG mask expansion, and Schnorr signatures.

Exponentiation runs in OpenSSL's libcrypto (1.1 or 3), the library CPython's
`hashlib` already loads, through `ctypes`.  `modexp` serves odd moduli only,
as every group here has an odd prime, and keeps one context per modulus in a
`tables` dict: a BN_CTX, the modulus, its Montgomery form and three scratch
numbers.  A call converts the base and exponent, makes one `BN_mod_exp_mont`
call and converts the result back.  On a 2-vCPU Intel Xeon (Python 3.11.7,
OpenSSL 3.0), a 61-bit exponent in the 2048-bit group takes about 80 us and a
125-bit one about 150 us; a call in the 23-bit toy group takes about 8 us.  A
secure-aggregation round holds one such dict for all its parties, and the
context is freed with it.  `verify` also keeps its results in that dict, so
a signature broadcast to every client is checked once per round; it rejects
a response too long for an honest signature before any exponentiation, so
no peer chooses how long an exponentiation it forces.  Everything in the
dict is a function of public values, every result is bit-identical to
`pow`, and nothing is cached at module level.

Shamir reconstruction uses every share it is given: it interpolates through
the first k and rejects any further share off that polynomial.

Masks and share bundles read one keystream: AES-128 in counter mode (the PRG
of Bonawitz et al., CCS 2017), through the same libcrypto.  The key is the
first 16 bytes of SHA-256 over a label, `|` and the seed's canonical
big-endian bytes; the initial counter block is zero, so a shorter keystream
is a prefix of a longer one.  `prg_expand` uses the label `prg` and
`stream_xor` the label `stream`, so one seed gives them different streams.
Each call sets up and frees its own cipher context.  On the host above, a
dim-8192 mask's 64 KiB of keystream takes about 15 us, and a call's fixed
cost, mostly the key schedule and the ctypes calls, about 5 us.

Everything here is simulation-grade.  No constant-time guarantees, no side
channel resistance, and key sizes are chosen for determinism and speed, not
security.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import operator
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .numeric import FieldVector, MERSENNE61, ParameterError, Rng, field_reduce

# Nothing here calls it: `perfbench/worker.py` reads this alias for its
# environment record, and that read is its only use.
_powmod = pow

# Prime used for Shamir sharing; identical to the mask field so mask seeds
# and secret keys are shareable directly.
SHARING_PRIME = MERSENNE61

# Secret exponents are sampled below 2^61 - 1 so they can be Shamir-shared in
# the same field.  Exponentiation stays cheap even in the 2048-bit group.
MAX_SECRET_EXPONENT = MERSENNE61

# Signature nonces lie in [1, 2^253]: 2^128 times the largest e * sk (a 64-bit
# challenge times a key below 2^61), so the response s = nonce + e * sk, taken
# over the integers, hides sk (Girault, Poupard and Stern, J. Cryptology 2006).
NONCE_BOUND = 1 << 253


class ProtocolError(ValueError):
    """Peer-supplied value violates protocol preconditions."""


class ThresholdError(ValueError):
    """Not enough shares to reconstruct a secret."""


# ---------------------------------------------------------------------------
# Modular exponentiation and Diffie-Hellman
# ---------------------------------------------------------------------------


# The sonames of OpenSSL 3 and 1.1, the library CPython's `hashlib` already
# loads.  Neither `ctypes.util.find_library` (it runs ldconfig in a
# subprocess) nor `import ssl` (1.7 MB of resident memory) finds it.
_LIBCRYPTO_SONAMES = ("libcrypto.so.3", "libcrypto.so.1.1")
_PTR, _INT, _BYTES = ctypes.c_void_p, ctypes.c_int, ctypes.c_char_p
_LIBCRYPTO_SIGNATURES = {
    "BN_CTX_new": (_PTR, []),
    "BN_CTX_free": (None, [_PTR]),
    "BN_new": (_PTR, []),
    "BN_free": (None, [_PTR]),
    "BN_MONT_CTX_new": (_PTR, []),
    "BN_MONT_CTX_set": (_INT, [_PTR, _PTR, _PTR]),
    "BN_MONT_CTX_free": (None, [_PTR]),
    "BN_bin2bn": (_PTR, [_BYTES, _INT, _PTR]),
    "BN_bn2binpad": (_INT, [_PTR, _BYTES, _INT]),
    "BN_mod_exp_mont": (_INT, [_PTR, _PTR, _PTR, _PTR, _PTR, _PTR]),
    "EVP_aes_128_ctr": (_PTR, []),
    "EVP_CIPHER_CTX_new": (_PTR, []),
    "EVP_CIPHER_CTX_free": (None, [_PTR]),
    "EVP_EncryptInit_ex": (_INT, [_PTR, _PTR, _PTR, _BYTES, _BYTES]),
    "EVP_EncryptUpdate": (_INT, [_PTR, _BYTES, ctypes.POINTER(_INT), _BYTES, _INT]),
}


def _load_libcrypto() -> ctypes.CDLL:
    """OpenSSL 3 or 1.1 libcrypto by soname, each function's signature
    declared, so a pointer result is not cut to a C int."""
    for soname in _LIBCRYPTO_SONAMES:
        try:
            lib = ctypes.CDLL(soname)
        except OSError:
            continue
        for name, (restype, argtypes) in _LIBCRYPTO_SIGNATURES.items():
            function = getattr(lib, name)
            function.restype, function.argtypes = restype, argtypes
        return lib
    raise ImportError(f"fedmask needs OpenSSL's libcrypto: none of {', '.join(_LIBCRYPTO_SONAMES)} loads")


_libcrypto = _load_libcrypto()


def _checked(result, name: str):
    """result, unless it is libcrypto's NULL or 0 for failure, which for the
    valid inputs given here means an allocation failed."""
    if not result:
        raise MemoryError(f"libcrypto {name} failed")
    return result


def _to_bn(value: int, bn: int) -> None:
    """Set the BIGNUM bn to the non-negative int value."""
    nbytes = (value.bit_length() + 7) // 8
    _checked(_libcrypto.BN_bin2bn(value.to_bytes(nbytes, "big"), nbytes, bn), "BN_bin2bn")


class _ModulusContext:
    """libcrypto state for one odd modulus: a BN_CTX, the modulus, its
    Montgomery form and scratch numbers for the base, the exponent and the
    result, all freed with this object.  The scratch numbers make a context
    serve one thread at a time, as a round's parties run one after another."""

    _lib = _libcrypto  # kept on the class, so __del__ still reaches it at exit
    _ctx = _modulus = _mont = _base = _exp = _result = None

    def __init__(self, modulus: int):
        lib = self._lib
        self.modulus = modulus
        self._out = ctypes.create_string_buffer((modulus.bit_length() + 7) // 8)
        self._ctx = _checked(lib.BN_CTX_new(), "BN_CTX_new")
        for name in ("_modulus", "_base", "_exp", "_result"):
            setattr(self, name, _checked(lib.BN_new(), "BN_new"))
        _to_bn(modulus, self._modulus)
        self._mont = _checked(lib.BN_MONT_CTX_new(), "BN_MONT_CTX_new")
        _checked(lib.BN_MONT_CTX_set(self._mont, self._modulus, self._ctx), "BN_MONT_CTX_set")

    def __del__(self):
        lib = self._lib
        lib.BN_MONT_CTX_free(self._mont)
        for bn in (self._modulus, self._base, self._exp, self._result):
            lib.BN_free(bn)
        lib.BN_CTX_free(self._ctx)

    def __reduce__(self):
        # a copy or an unpickled context gets libcrypto state of its own
        return type(self), (self.modulus,)

    def pow(self, base: int, exp: int) -> int:
        """base^exp mod the modulus, for 0 <= base < modulus and exp >= 0."""
        lib = self._lib
        _to_bn(base, self._base)
        _to_bn(exp, self._exp)
        _checked(
            lib.BN_mod_exp_mont(self._result, self._base, self._exp, self._modulus, self._ctx, self._mont),
            "BN_mod_exp_mont",
        )
        _checked(lib.BN_bn2binpad(self._result, self._out, len(self._out)) >= 0, "BN_bn2binpad")
        return int.from_bytes(self._out.raw, "big")


def modexp(base: int, exp: int, modulus: int, tables: dict) -> int:
    """base^exp mod modulus, bit-identical to pow(base, exp, modulus), by one
    libcrypto exponentiation from the modulus's context, which tables keeps
    under ("modexp", modulus) and frees with the dict.  The modulus must be
    odd and at least 3.  A non-int base, exponent or modulus raises
    TypeError, as `pow` does."""
    if modulus < 3 or not modulus & 1:
        raise ParameterError("modulus must be odd and >= 3")
    if exp < 0:
        raise ParameterError("exponent must be >= 0")
    base, exp, modulus = operator.index(base), operator.index(exp), operator.index(modulus)
    context = tables.get(("modexp", modulus))
    if context is None:
        context = tables["modexp", modulus] = _ModulusContext(modulus)
    return context.pow(base % modulus, exp)


@dataclass(frozen=True)
class DhParams:
    prime: int
    generator: int

    def __post_init__(self):
        if self.prime < 3 or not self.prime & 1:
            raise ParameterError("prime must be odd and >= 3")
        if not (1 < self.generator < self.prime):
            raise ParameterError("generator must lie in (1, p)")


# RFC 3526 group 14 (2048-bit MODP), the default group.
RFC3526_2048 = DhParams(
    prime=int(
        "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
        "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
        "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
        "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
        "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
        "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
        "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
        "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
        "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9"
        "DE2BCBF6955817183995497CEA956AE515D2261898FA0510"
        "15728E5A8AACAA68FFFFFFFFFFFFFFFF",
        16,
    ),
    generator=2,
)

# 23-bit toy group for fast exhaustive tests (p prime, 5 is a generator).
TOY_GROUP = DhParams(prime=8_380_417, generator=5)


@dataclass(frozen=True)
class KeyPair:
    sk: int
    pk: int

    def __post_init__(self):
        if self.sk < 1:
            raise ParameterError("secret key must be >= 1")


def generate_keypair(params: DhParams, rng: Rng, tables: dict) -> KeyPair:
    bound = min(params.prime - 2, MAX_SECRET_EXPONENT)
    sk = 1 + rng.randbelow(bound - 1)
    return KeyPair(sk=sk, pk=modexp(params.generator, sk, params.prime, tables))


def dh_shared_secret(sk: int, their_pk: int, params: DhParams, tables: dict) -> int:
    """Symmetric shared secret pk_j^sk_i = g^(sk_i * sk_j) mod p, for the
    secret exponent sk_i; a peer key that is not an int in (1, p) raises
    ProtocolError."""
    if not (isinstance(their_pk, int) and 1 < their_pk < params.prime):
        raise ProtocolError(f"public key {their_pk} out of range")
    return modexp(their_pk, sk, params.prime, tables)


def seed_from_secret(secret: int, label: str = "mask") -> int:
    """Derive a sharing-field seed from a shared secret's canonical bytes."""
    data = label.encode() + b"|" + _canonical_bytes(secret)
    digest = hashlib.sha256(data).digest()
    return int.from_bytes(digest, "big") % SHARING_PRIME


def _canonical_bytes(value: int) -> bytes:
    if value < 0:
        raise ParameterError("negative value has no canonical encoding")
    length = max(1, (value.bit_length() + 7) // 8)
    return value.to_bytes(length, "big")


# ---------------------------------------------------------------------------
# Shamir secret sharing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShamirShare:
    index: int
    value: int
    threshold: int
    total: int
    prime: int = SHARING_PRIME

    def __post_init__(self):
        if not (1 <= self.index <= self.total):
            raise ParameterError("share index out of range")
        if self.threshold > self.total:
            raise ParameterError("threshold exceeds share count")


def shamir_split(secret: int, k: int, n: int, rng: Rng, prime: int = SHARING_PRIME) -> list[ShamirShare]:
    """Evaluate a random degree-(k-1) polynomial with rho(0)=secret at 1..n."""
    if not (1 <= k <= n):
        raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    if n >= prime:
        raise ParameterError("share count must be below the sharing prime")
    secret %= prime
    coeffs = [secret] + [rng.randbelow(prime) for _ in range(k - 1)]
    shares = []
    for x in range(1, n + 1):
        y = 0
        for c in reversed(coeffs):
            y = (y * x + c) % prime
        shares.append(ShamirShare(index=x, value=y, threshold=k, total=n, prime=prime))
    return shares


def _products_but_one(factors: list[int]):
    """For each i, the product of every factor but factors[i]: the product
    of those before i times the product of those after it, O(k) in all."""
    before = accumulate(factors[:-1], operator.mul, initial=1)
    after = list(accumulate(reversed(factors[1:]), operator.mul, initial=1))
    return map(operator.mul, before, reversed(after))


def _interpolate(points, xs, prime: int) -> list[int]:
    """Values at each x in xs of the polynomial of degree < len(points)
    through points, (x, y) pairs with distinct x, by Lagrange's formula.
    Point i's denominator, the product of (x_i - x_j) over j != i, and its
    numerator at x, the product of (x - x_j) over j != i, come from prefix
    and suffix products, and one inversion serves every denominator: O(k)
    multiplications per x for k points, however many xs there are."""
    bases = [xi for xi, _ in points]
    denominators = [math.prod(xi - xj for xj in bases if xj != xi) % prime for xi in bases]
    # 1 / d_i is the product of the other denominators over the product of all
    inverse = pow(math.prod(denominators), -1, prime)
    weights = [yi * others * inverse % prime for (_, yi), others in zip(points, _products_but_one(denominators))]
    return [sum(map(operator.mul, weights, _products_but_one([x - xj for xj in bases]))) % prime for x in xs]


def shamir_reconstruct(shares) -> int:
    """The secret at 0 of the polynomial through the first k shares; every
    further share must lie on that polynomial too, or ProtocolError names it."""
    shares = list(shares)
    if not shares:
        raise ThresholdError("no shares given")
    k = shares[0].threshold
    prime = shares[0].prime
    indices = [s.index for s in shares]
    if len(set(indices)) != len(indices):
        raise ParameterError("duplicate share indices")
    if len(shares) < k:
        raise ThresholdError(f"need {k} shares, got {len(shares)}")
    rest = shares[k:]
    secret, *checks = _interpolate([(s.index, s.value) for s in shares[:k]], [0] + [s.index for s in rest], prime)
    for s, value in zip(rest, checks):
        if value != s.value % prime:
            raise ProtocolError(f"share {s.index} is off the polynomial through the first {k}")
    return secret


# ---------------------------------------------------------------------------
# PRG expansion and stream encryption
# ---------------------------------------------------------------------------


# AES-CTR's initial counter block: every keystream starts at block 0
_ZERO_IV = bytes(16)


def _keystream(label: bytes, seed: int, buffer) -> None:
    """Encrypt buffer, a ctypes char array, in place: XOR into it the
    AES-128-CTR keystream keyed by the first 16 bytes of SHA-256(label |
    seed), the seed in its canonical big-endian bytes, from a zero counter.
    A shorter keystream is a prefix of a longer one."""
    key = hashlib.sha256(label + b"|" + _canonical_bytes(seed)).digest()[:16]
    lib, outl = _libcrypto, _INT()
    cipher = _checked(lib.EVP_aes_128_ctr(), "EVP_aes_128_ctr")
    ctx = _checked(lib.EVP_CIPHER_CTX_new(), "EVP_CIPHER_CTX_new")
    try:
        _checked(lib.EVP_EncryptInit_ex(ctx, cipher, None, key, _ZERO_IV), "EVP_EncryptInit_ex")
        _checked(lib.EVP_EncryptUpdate(ctx, buffer, ctypes.byref(outl), buffer, len(buffer)), "EVP_EncryptUpdate")
    finally:
        lib.EVP_CIPHER_CTX_free(ctx)
    _checked(outl.value == len(buffer), "EVP_EncryptUpdate")


def prg_expand(seed: int, dim: int) -> FieldVector:
    """Deterministically expand a seed into dim field elements.

    Keystream: AES-128-CTR from a zero counter, keyed by the first 16 bytes of
    SHA-256 over b"prg|" followed by the seed's canonical big-endian bytes.
    Element i is the i-th big-endian 64-bit word of that stream reduced mod
    2^61 - 1, so a shorter expansion is a prefix of a longer one.  Both
    protocol parties holding the same seed derive the identical vector.
    """
    if dim < 1:
        raise ParameterError("dim must be >= 1")
    stream = ctypes.create_string_buffer(8 * dim)
    _keystream(b"prg", seed, stream)
    return field_reduce(np.frombuffer(stream, dtype=">u8"))


def stream_xor(key_seed: int, data: bytes) -> bytes:
    """XOR data with an AES-128-CTR keystream derived from key_seed.

    Keystream: AES-128-CTR from a zero counter, keyed by the first 16 bytes of
    SHA-256 over b"stream|" followed by the key seed's canonical big-endian
    bytes, cut to len(data).  Applying it twice returns the data.
    """
    buffer = ctypes.create_string_buffer(data, len(data))
    _keystream(b"stream", key_seed, buffer)
    return buffer.raw


# ---------------------------------------------------------------------------
# Schnorr signatures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Signature:
    commitment: int  # r = g^nonce mod p
    response: int  # s = nonce + e * sk, over the integers


def _challenge(commitment: int, message: bytes) -> int:
    # 64-bit truncated challenge keeps verification exponents small
    digest = hashlib.sha256(_canonical_bytes(commitment) + b"|" + message).digest()
    return int.from_bytes(digest[:8], "big")


def sign(message: bytes, sk: int, params: DhParams, tables: dict) -> Signature:
    # Deterministic nonce from (sk, message): no RNG needed, reproducible runs
    nonce_src = hashlib.sha512(b"nonce|" + _canonical_bytes(sk) + b"|" + message).digest()
    nonce = int.from_bytes(nonce_src, "big") % NONCE_BOUND + 1
    commitment = modexp(params.generator, nonce, params.prime, tables)
    e = _challenge(commitment, message)
    return Signature(commitment=commitment, response=nonce + e * sk)


def verify(message: bytes, sig: Signature, pk: int, params: DhParams, tables: dict) -> bool:
    """Whether sig is a Schnorr signature of message under pk: g^s == r *
    pk^e mod p for e the challenge of (r, message).  A malformed signature,
    and a response s of 2^253 + 2^64 * (2^61 - 1) or more (no honest s
    reaches it), give False before any exponentiation, so a peer can make no
    exponentiation longer than the 254 bits of the largest honest s.

    Both exponentiations go through `modexp` with the tables dict, and the
    result is kept there under a tagged key, so every client of a round
    checking the same broadcast signature runs the check once."""
    try:
        commitment, response = sig.commitment, sig.response
        # an honest s = nonce + e * sk lies below NONCE_BOUND + 2^64 *
        # (2^61 - 1), as the nonce is at most NONCE_BOUND, sk below 2^61 - 1
        # and e below 2^64; a larger one would cost an exponentiation as long
        # as the peer chooses
        if not (0 < commitment < params.prime and 0 <= response < NONCE_BOUND + (MAX_SECRET_EXPONENT << 64)):
            return False
        key = ("verify", message, commitment, response, pk, params.prime, params.generator)
        if key in tables:
            return tables[key]
        e = _challenge(commitment, message)
        ok = modexp(params.generator, response, params.prime, tables) == (
            commitment * modexp(pk, e, params.prime, tables) % params.prime
        )
    except (ParameterError, AttributeError, TypeError):
        return False
    tables[key] = ok
    return ok
