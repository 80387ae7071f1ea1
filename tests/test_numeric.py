"""Vectors, seeded randomness, masks, and the fixed-point field codec."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmask.numeric import (
    DEFAULT_FRAC_BITS,
    ENCODE_CLIP,
    FieldVector,
    MERSENNE61,
    ParameterError,
    RangeError,
    Rng,
    _derive_key,
    as_vector,
    clip_for_encoding,
    decode_fixed,
    encode_fixed,
    field_add,
    field_reduce,
    field_sub,
    field_sum,
    field_zero,
    uniform_mask,
    vec_mean,
)


# ---------------------------------------------------------------------------
# Rng
# ---------------------------------------------------------------------------


def test_rng_same_seed_identical():
    a = Rng(123).uniform(-1, 1, 64)
    b = Rng(123).uniform(-1, 1, 64)
    assert np.array_equal(a, b)


def test_rng_child_streams_independent_and_deterministic():
    a = Rng(5).child("x").normal(0, 1, 32)
    b = Rng(5).child("x").normal(0, 1, 32)
    c = Rng(5).child("y").normal(0, 1, 32)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_child_path_order_matters():
    a = Rng(1).child("a", "b").uniform(0, 1, 8)
    b = Rng(1).child("b", "a").uniform(0, 1, 8)
    assert not np.array_equal(a, b)


def test_rng_rejects_bad_seed():
    with pytest.raises(ParameterError):
        Rng(-1)
    with pytest.raises(ParameterError):
        Rng(1 << 64)


def reference_derive_key(seed, path):
    """The key with the seed and each "/" and tag fed to BLAKE2b one update
    at a time."""
    h = hashlib.blake2b(digest_size=16)
    h.update(seed.to_bytes(8, "little"))
    for tag in path:
        h.update(b"/")
        h.update(tag.encode("utf-8"))
    return int.from_bytes(h.digest(), "little")


@pytest.mark.parametrize("path", [(), ("gan",), ("step", "3", "17"), ("", "/", "é", "ß\u20ac")])
def test_derive_key_matches_streamed_hash(path):
    for seed in (0, 1, 2**64 - 1):
        assert _derive_key(seed, path) == reference_derive_key(seed, path)


def test_choice_samples_without_replacement_only():
    draw = Rng(3).choice(10, 10)
    assert sorted(draw.tolist()) == list(range(10))
    with pytest.raises(TypeError):
        Rng(3).choice(10, 4, replace=True)


def philox_position(gen):
    """Everything that fixes a Philox generator's next draw."""
    state = gen.bit_generator.state
    counter, key = state["state"]["counter"].tolist(), state["state"]["key"].tolist()
    return counter, key, state["buffer"].tolist(), state["buffer_pos"], state["has_uint32"], state["uinteger"]


def test_integers_matches_numpy_choice_with_replacement():
    """``Rng.integers(0, n, size)`` draws what numpy's ``choice(n, size,
    replace=True)`` draws and leaves the stream at the same point, so batch
    draws by either give the same indices and the same later draws."""
    for seed in range(40):
        for n in (1, 2, 3, 5, 7, 64, 100, 128, 512, 1000, 2**20):
            for size in (1, 64, 200):
                rng = Rng(seed).child("batch")
                numpy_gen = np.random.Generator(np.random.Philox(key=_derive_key(seed, ("batch",))))
                assert np.array_equal(rng.integers(0, n, size), numpy_gen.choice(n, size, replace=True))
                assert philox_position(rng._gen) == philox_position(numpy_gen)


@pytest.mark.parametrize("path", [(), ("gan", "masked", "step", 3, 17), ("é",)])
def test_restart_draws_what_a_fresh_instance_draws(path):
    """A re-pointed instance draws bit for bit what a fresh instance at the
    same path draws, even when the stream it left holds a partly used
    buffer and a cached 32-bit half."""
    for seed in (0, 7, 2**64 - 1):
        rng = Rng(seed).child("previous")
        rng.integers(0, 100, 3)
        assert rng._gen.bit_generator.state["has_uint32"] == 1
        rng.restart(*path)
        fresh = Rng(seed).child(*path)
        assert rng.path == fresh.path == tuple(str(t) for t in path)
        assert philox_position(rng._gen) == philox_position(fresh._gen)
        assert np.array_equal(rng.integers(0, 100, 5), fresh.integers(0, 100, 5))
        assert np.array_equal(rng.normal(0.0, 1.0, 9), fresh.normal(0.0, 1.0, 9))
        assert np.array_equal(rng.uniform(-1.0, 1.0, 9), fresh.uniform(-1.0, 1.0, 9))
        assert rng.randbelow((1 << 70) + 7) == fresh.randbelow((1 << 70) + 7)
        assert np.array_equal(rng.child("x").uniform(0.0, 1.0, 4), fresh.child("x").uniform(0.0, 1.0, 4))


def test_randbelow_range_and_determinism():
    bound = (1 << 70) + 7
    vals = [Rng(9).child("r", i).randbelow(bound) for i in range(50)]
    assert all(0 <= v < bound for v in vals)
    again = [Rng(9).child("r", i).randbelow(bound) for i in range(50)]
    assert vals == again


# ---------------------------------------------------------------------------
# Param vectors
# ---------------------------------------------------------------------------


def test_as_vector_rejects_non_1d_and_non_finite():
    with pytest.raises(ParameterError):
        as_vector(np.zeros((2, 2)))
    with pytest.raises(ParameterError):
        as_vector([1.0, np.nan])
    with pytest.raises(ParameterError):
        as_vector([np.inf])


def test_vec_mean_trivial():
    assert np.array_equal(vec_mean([[1.0, 2.0], [3.0, 4.0]]), [2.0, 3.0])


def test_vec_mean_dim_mismatch():
    with pytest.raises(ParameterError):
        vec_mean([[1.0], [1.0, 2.0]])
    with pytest.raises(ParameterError):
        vec_mean([])


# ---------------------------------------------------------------------------
# Masks
# ---------------------------------------------------------------------------


def test_uniform_mask_bounds_and_zero_alpha():
    m = uniform_mask(1000, 0.3, Rng(0).child("m"))
    assert np.all(np.abs(m) <= 0.3)
    assert np.array_equal(uniform_mask(10, 0.0, Rng(0)), np.zeros(10))


def test_uniform_mask_validation():
    with pytest.raises(ParameterError):
        uniform_mask(0, 0.5, Rng(0))
    with pytest.raises(ParameterError):
        uniform_mask(4, 1.5, Rng(0))
    with pytest.raises(ParameterError):
        uniform_mask(4, -0.1, Rng(0))


def test_mask_mean_cancellation_monte_carlo():
    # oracle: std of the mean of n U[-a, a] masks is a / sqrt(3 n); the mean's
    # sup-norm over dim=100 stays below five of those standard deviations
    n, alpha, dim = 1000, 0.5, 100
    bound = 5.0 * alpha / np.sqrt(3.0 * n)
    for seed in range(30):
        rng = Rng(seed).child("mc")
        mean = vec_mean([uniform_mask(dim, alpha, rng.child(i)) for i in range(n)])
        assert np.max(np.abs(mean)) < bound


# ---------------------------------------------------------------------------
# Field codec
# ---------------------------------------------------------------------------


def test_decode_zero_trivial():
    assert decode_fixed(field_zero(1)).tolist() == [0.0]


def test_quarter_encodes_exactly():
    assert decode_fixed(encode_fixed(np.array([0.25]))).tolist() == [0.25]


def test_round_trip_random_vectors():
    for seed in range(50):
        v = Rng(seed).child("rt").uniform(-10, 10, 8)
        back = decode_fixed(encode_fixed(v))
        assert np.max(np.abs(back - v)) <= 2.0 ** -DEFAULT_FRAC_BITS


def reference_decode(residues):
    # pure-integer signed lift, then one rounding to float and one exact scaling
    p = MERSENNE61
    return [float(r - p if r > p // 2 else r) / float(1 << DEFAULT_FRAC_BITS) for r in residues]


def test_decode_boundary_residues_match_integer_reference():
    half = MERSENNE61 // 2
    residues = [0, 1, half - 1, half, half + 1, half + 2, MERSENNE61 - 1]
    out = decode_fixed(FieldVector(np.array(residues, dtype=np.uint64)))
    assert out.dtype == np.float64
    assert out.tolist() == reference_decode(residues)
    assert out[3] > 0 > out[4]


@settings(max_examples=50, deadline=None)
@given(residues=st.lists(st.integers(0, MERSENNE61 - 1), min_size=1, max_size=40))
def test_property_decode_matches_integer_reference(residues):
    fv = FieldVector(np.array(residues, dtype=np.uint64))
    assert decode_fixed(fv).tolist() == reference_decode(residues)


def test_field_add_matches_float_addition():
    for seed in range(20):
        rng = Rng(seed).child("fa")
        a = rng.uniform(-10, 10, 16)
        b = rng.uniform(-10, 10, 16)
        out = decode_fixed(field_add(encode_fixed(a), encode_fixed(b)))
        assert np.max(np.abs(out - (a + b))) <= 2.0 ** -(DEFAULT_FRAC_BITS - 1)


def test_field_add_matches_integer_oracle():
    # residues after add/sub equal plain big-int arithmetic mod p
    rng = Rng(4).child("int")
    a = encode_fixed(rng.uniform(-20, 20, 8))
    b = encode_fixed(rng.uniform(-20, 20, 8))
    add = field_add(a, b).residues
    sub = field_sub(a, b).residues
    for i in range(8):
        ia, ib = int(a.residues[i]), int(b.residues[i])
        assert int(add[i]) == (ia + ib) % MERSENNE61
        assert int(sub[i]) == (ia - ib) % MERSENNE61


RESIDUE_EDGES = [0, 1, MERSENNE61 - 1]
WORD_EDGES = [0, MERSENNE61 - 1, MERSENNE61, 2**64 - 1]


@settings(max_examples=100, deadline=None)
@given(
    pairs=st.lists(st.tuples(st.integers(0, MERSENNE61 - 1), st.integers(0, MERSENNE61 - 1)), max_size=20),
    words=st.lists(st.integers(0, 2**64 - 1), max_size=20),
)
def test_property_field_reductions_match_python_ints(pairs, words):
    """Add, subtract and word reduction against Python-int arithmetic mod p,
    on every pair of edge residues and every edge word plus drawn ones.  Only
    arrays enter the field code: numpy warns on scalar uint64 wraparound."""
    a = [x for x in RESIDUE_EDGES for _ in RESIDUE_EDGES] + [x for x, _ in pairs]
    b = RESIDUE_EDGES * len(RESIDUE_EDGES) + [y for _, y in pairs]
    fa, fb = FieldVector(np.array(a, dtype=np.uint64)), FieldVector(np.array(b, dtype=np.uint64))
    assert field_add(fa, fb).residues.tolist() == [(x + y) % MERSENNE61 for x, y in zip(a, b)]
    assert field_sub(fa, fb).residues.tolist() == [(x - y) % MERSENNE61 for x, y in zip(a, b)]
    words = WORD_EDGES + words
    for dtype in ("<u8", ">u8"):  # prg_expand reduces big-endian words
        got = field_reduce(np.array(words, dtype=dtype)).residues
        assert got.tolist() == [w % MERSENNE61 for w in words]


def test_exact_mask_cancellation():
    rng = Rng(11).child("cancel")
    x = encode_fixed(rng.uniform(-5, 5, 64))
    m = FieldVector(np.mod(rng.integers(0, 1 << 61, 64).astype(np.uint64), np.uint64(MERSENNE61)))
    assert field_sub(field_add(x, m), m) == x
    assert field_add(m, field_sub(field_zero(64), m)) == field_zero(64)


def test_field_sum_associates_bit_exactly():
    vs = [encode_fixed(Rng(i).uniform(-1, 1, 4)) for i in range(5)]
    fwd = field_sum(vs)
    rev = field_sum(list(reversed(vs)))
    assert fwd == rev


def test_encode_range_error():
    bound = MERSENNE61 // (2 * 10_000) / float(1 << DEFAULT_FRAC_BITS)
    with pytest.raises(RangeError):
        encode_fixed(np.array([bound * 1.01]))
    # just inside the bound is fine
    encode_fixed(np.array([bound * 0.99]))


def test_clip_for_encoding():
    v = np.array([-100.0, 0.5, 100.0])
    assert clip_for_encoding(v).tolist() == [-ENCODE_CLIP, 0.5, ENCODE_CLIP]


def test_field_vector_validation():
    with pytest.raises(ParameterError):
        FieldVector(np.array([MERSENNE61], dtype=np.uint64))
    with pytest.raises(ParameterError):
        field_add(field_zero(2), field_zero(3))
    # one field for every vector: its parameters are constants, not arguments
    assert (field_zero(2).modulus, field_zero(2).frac_bits) == (MERSENNE61, DEFAULT_FRAC_BITS)
    with pytest.raises(TypeError):
        FieldVector(np.zeros(2, dtype=np.uint64), 8380417)


@pytest.mark.parametrize(
    "residues",
    [np.array([1.5, 2.7]), np.array([True, False]), np.array([1.0, 2.0]), np.array([1 + 0j]), np.array([], dtype=float)],
    ids=["float", "bool", "whole-float", "complex", "empty-float"],
)
def test_field_vector_rejects_non_integer_residues(residues):
    # a cast to uint64 would give [1, 2] for [1.5, 2.7] and 0/1 for bools
    with pytest.raises(ParameterError, match="integers"):
        FieldVector(residues)


def test_field_vector_accepts_every_integer_dtype():
    for dtype in (np.uint8, np.uint64, np.int32, np.int64):
        fv = FieldVector(np.array([0, 1, 5], dtype=dtype))
        assert fv.residues.dtype == np.uint64
        assert fv.residues.tolist() == [0, 1, 5]


def test_field_vectors_are_read_only():
    """Residues are stored without a copy and cannot be written in place, so a
    delivered vector stays as it was sent until its transcript is written."""
    r = np.arange(4, dtype=np.uint64)
    fv = FieldVector(r)
    assert fv.residues is r
    a, b = encode_fixed(np.array([1.0, -2.0])), field_reduce(np.array([2**64 - 1, 5], dtype=np.uint64))
    for v in (fv, a, b, field_zero(2), field_add(a, b), field_sub(a, b)):
        with pytest.raises(ValueError, match="read-only"):
            v.residues[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            v.residues += np.uint64(1)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------


@given(st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=32))
@settings(max_examples=200, deadline=None)
def test_property_round_trip(values):
    v = np.asarray(values)
    back = decode_fixed(encode_fixed(v))
    assert np.max(np.abs(back - v)) <= 2.0 ** -DEFAULT_FRAC_BITS


@given(
    st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=16),
    st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=16),
)
@settings(max_examples=200, deadline=None)
def test_property_add_then_sub_is_identity(xs, ms):
    dim = min(len(xs), len(ms))
    x = encode_fixed(np.asarray(xs[:dim]))
    m = encode_fixed(np.asarray(ms[:dim]))
    assert field_sub(field_add(x, m), m) == x


@given(st.integers(0, (1 << 64) - 1), st.integers(1, 512))
@settings(max_examples=50, deadline=None)
def test_property_rng_determinism(seed, dim):
    assert np.array_equal(Rng(seed).uniform(-1, 1, dim), Rng(seed).uniform(-1, 1, dim))
