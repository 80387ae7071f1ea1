"""Parameter vectors, seeded randomness, uniform masks, and the fixed-point
prime-field codec shared by every other module.

Vectors are plain 1-D float64 numpy arrays ("param vectors").  Field vectors
carry fixed-point encodings with 24 fractional bits modulo the prime
2^61 - 1, one field for the whole protocol, so that mask arithmetic cancels
exactly, with no floating-point drift.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

# Mersenne prime 2^61 - 1: fast reduction, and enough headroom above the
# 24-fractional-bit encoding for sums of ~10^4 values.
MERSENNE61 = (1 << 61) - 1
_P = np.uint64(MERSENNE61)

DEFAULT_FRAC_BITS = 24
MAX_SUMMANDS = 10_000

# Weight values are clipped to this range before field encoding so that sums
# of up to MAX_SUMMANDS encoded values never wrap around the modulus.
ENCODE_CLIP = 32.0


class ParameterError(ValueError):
    """Invalid argument to a numeric operation."""


class RangeError(ValueError):
    """Value too large for the fixed-point field encoding."""


# ---------------------------------------------------------------------------
# Seeded randomness
# ---------------------------------------------------------------------------


class Rng:
    """Deterministic counter-based random stream (Philox-4x64).

    A stream is identified by a 64-bit root seed plus a path of string tags.
    ``child(tag)`` derives an independent stream whose output depends only on
    (seed, path), so two protocol parties that agree on the path derive
    identical values.  ``restart(*path)`` moves an instance to the start of
    another path's stream in place, for a loop that would otherwise build a
    child per iteration.  Instances are single-owner: never share one across
    threads; split children instead.
    """

    def __init__(self, seed: int, _path: tuple[str, ...] = ()):
        if not (0 <= int(seed) < (1 << 64)):
            raise ParameterError("seed must be a 64-bit unsigned integer")
        self.seed = int(seed)
        self.path = _path
        key = _derive_key(self.seed, self.path)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def child(self, *tags) -> "Rng":
        """Derive an independent child stream addressed by string tags."""
        return Rng(self.seed, self.path + tuple(str(t) for t in tags))

    def restart(self, *path) -> None:
        """Continue from the start of ``Rng(self.seed, path)``'s stream:
        the same draws follow as from that fresh instance, whatever this one
        drew before, and no Philox is built."""
        self.path = tuple(str(t) for t in path)
        high, low = divmod(_derive_key(self.seed, self.path), 1 << 64)
        # a fresh Philox: zero counter, empty buffer, no cached 32-bit half
        self._gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [low, high]},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def uniform(self, low: float, high: float, size: int) -> np.ndarray:
        return self._gen.uniform(low, high, size)

    def normal(self, loc: float, scale: float, size: int) -> np.ndarray:
        return self._gen.normal(loc, scale, size)

    def integers(self, low: int, high: int, size: int | None = None):
        return self._gen.integers(low, high, size=size)

    def randbelow(self, bound: int) -> int:
        """Uniform big integer in [0, bound), for crypto-sized values."""
        if bound <= 0:
            raise ParameterError("bound must be positive")
        nbits = bound.bit_length()
        nwords = (nbits + 63) // 64
        while True:
            words = self._gen.integers(0, 1 << 64, size=nwords, dtype=np.uint64)
            value = 0
            for w in words:
                value = (value << 64) | int(w)
            value >>= nwords * 64 - nbits
            if value < bound:
                return value

    def shuffle(self, items: list) -> None:
        self._gen.shuffle(items)

    def choice(self, n: int, size: int) -> np.ndarray:
        """``size`` distinct values below n; ``integers`` draws with replacement."""
        return self._gen.choice(n, size=size, replace=False)


def _derive_key(seed: int, path: tuple[str, ...]) -> int:
    """BLAKE2b-128 of the seed's 8 little-endian bytes, then "/" and the
    UTF-8 of each tag."""
    data = seed.to_bytes(8, "little") + "/".join(("",) + path).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(data, digest_size=16).digest(), "little")


# ---------------------------------------------------------------------------
# Param vectors
# ---------------------------------------------------------------------------


def as_vector(values) -> np.ndarray:
    """Validate and return a finite 1-D float64 vector."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ParameterError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ParameterError("vector contains non-finite values")
    return v


def as_vectors(vectors) -> list[np.ndarray]:
    """Validate a nonempty list of finite 1-D float64 vectors of one dimension."""
    vs = [as_vector(v) for v in vectors]
    if not vs:
        raise ParameterError("expected at least one vector")
    for i, v in enumerate(vs):
        if v.shape[0] != vs[0].shape[0]:
            raise ParameterError(f"vector {i} has dim {v.shape[0]}, expected {vs[0].shape[0]}")
    return vs


def check_alpha(alpha: float) -> None:
    """The one rule for a mask half-width: alpha lies in [0, 1]."""
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"alpha: must lie in [0, 1], got {alpha}")


def uniform_mask(dim: int, alpha: float, rng: Rng) -> np.ndarray:
    """I.i.d. uniform noise on [-alpha, alpha], deterministic given rng."""
    if dim < 1:
        raise ParameterError("dim must be >= 1")
    check_alpha(alpha)
    if alpha == 0.0:
        # uniform(0, 0) is ill-defined for numpy; the degenerate mask is zero
        return np.zeros(dim)
    return rng.uniform(-alpha, alpha, dim)


def vec_mean(vectors) -> np.ndarray:
    """Coordinate-wise arithmetic mean of same-dimension vectors."""
    return np.mean(np.stack(as_vectors(vectors)), axis=0)


# ---------------------------------------------------------------------------
# Fixed-point prime field
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldVector:
    """Residues modulo p = MERSENNE61, encoding fixed-point reals with
    DEFAULT_FRAC_BITS fractional bits.  Every field vector uses this one
    field; ``modulus`` and ``frac_bits`` are read-only class constants.

    residues: uint64 array, every entry in [0, p), read-only.  The input must
    have an integer dtype; a float or bool array raises.  It is stored
    without a copy and its writeable flag is cleared, so a vector in a
    delivered message cannot change before its transcript is serialized.
    """

    residues: np.ndarray
    modulus: ClassVar[int] = MERSENNE61
    frac_bits: ClassVar[int] = DEFAULT_FRAC_BITS

    def __post_init__(self):
        r = np.asarray(self.residues)
        # a cast to uint64 would truncate floats and read bools as 0/1
        if r.dtype.kind not in "ui":
            raise ParameterError(f"residues must be integers, got dtype {r.dtype}")
        r = r.astype(np.uint64, copy=False)
        if r.ndim != 1:
            raise ParameterError("residues must be 1-D")
        if np.any(r >= _P):
            raise ParameterError("residue out of range [0, p)")
        r.flags.writeable = False
        object.__setattr__(self, "residues", r)

    @property
    def dim(self) -> int:
        return self.residues.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldVector) and np.array_equal(self.residues, other.residues)


def _check_compat(a: FieldVector, b: FieldVector) -> None:
    if a.dim != b.dim:
        raise ParameterError(f"dim mismatch: {a.dim} vs {b.dim}")


def field_add(a: FieldVector, b: FieldVector) -> FieldVector:
    _check_compat(a, b)
    # residues < 2^61, so the sum s < 2p fits in uint64; below p, s - p
    # wraps above s, so the minimum is s mod p
    s = a.residues + b.residues
    return FieldVector(np.minimum(s, s - _P, out=s))


def field_sub(a: FieldVector, b: FieldVector) -> FieldVector:
    _check_compat(a, b)
    # for a < b, a - b wraps to 2^64 + a - b and adding p wraps it back into [0, p)
    d = a.residues - b.residues
    return FieldVector(np.minimum(d, d + _P, out=d))


def field_reduce(words: np.ndarray) -> FieldVector:
    """uint64 words mod p.  Since 2^61 = 1 (mod p), a word is congruent to
    its low 61 bits plus its top 3, a sum below 2p."""
    r = (words & _P) + (words >> np.uint64(61))
    return FieldVector(np.minimum(r, r - _P, out=r))


def field_zero(dim: int) -> FieldVector:
    return FieldVector(np.zeros(dim, dtype=np.uint64))


def field_sum(vectors) -> FieldVector:
    vs = list(vectors)
    if not vs:
        raise ParameterError("sum of empty sequence")
    acc = vs[0]
    for v in vs[1:]:
        acc = field_add(acc, v)
    return acc


def encode_fixed(v: np.ndarray) -> FieldVector:
    """Encode reals as round(v * 2^f) mod p; negatives map to p - |.|.

    Raises RangeError if any |v_i| * 2^f reaches p / (2 * MAX_SUMMANDS),
    the bound that guarantees sums of up to MAX_SUMMANDS encoded values
    never wrap the modulus.
    """
    v = as_vector(v)
    scaled = np.rint(v * float(1 << DEFAULT_FRAC_BITS)).astype(np.int64)
    over = np.abs(scaled) >= MERSENNE61 // (2 * MAX_SUMMANDS)
    if np.any(over):
        i = int(np.argmax(over))
        raise RangeError(f"coordinate {i} (value {v[i]}) overflows the field encoding")
    return FieldVector(np.where(scaled >= 0, scaled, MERSENNE61 + scaled).astype(np.uint64))


def decode_fixed(fv: FieldVector) -> np.ndarray:
    """Inverse of encode_fixed up to quantization; residues > p/2 are negative."""
    # p < 2^63, so residues and their signed lifts r - p are exact in int64
    r = fv.residues.astype(np.int64)
    signed = np.where(r > MERSENNE61 // 2, r - MERSENNE61, r)
    return signed.astype(np.float64) / float(1 << DEFAULT_FRAC_BITS)


def clip_for_encoding(v: np.ndarray) -> np.ndarray:
    """Clip weights to [-ENCODE_CLIP, ENCODE_CLIP] before field encoding."""
    return np.clip(as_vector(v), -ENCODE_CLIP, ENCODE_CLIP)
