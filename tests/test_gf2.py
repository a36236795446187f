"""Field tables, the Cauchy matrix and the elimination solver."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macc import FieldTooSmall, OutOfRange, SingularSystem
from macc.gf2 import (
    GF,
    PRIMITIVE_POLY,
    cauchy_matrix,
    field,
    packet_to_symbols,
    symbols_to_packet,
)


def ref_mul(a: int, b: int, width: int) -> int:
    """Carry-less multiply with reduction, independent of the tables."""
    poly = PRIMITIVE_POLY[width]
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> width & 1:
            a ^= poly
    return out


@pytest.mark.parametrize("width", [2, 3, 4, 8])
def test_mul_matches_reference(width):
    gf = field(width)
    rng = random.Random(width)
    pairs = [(a, b) for a in range(gf.order) for b in range(gf.order)]
    if len(pairs) > 2000:
        pairs = [tuple(rng.randrange(gf.order) for _ in range(2)) for _ in range(2000)]
    for a, b in pairs:
        assert gf.mul(a, b) == ref_mul(a, b, width), (a, b)


def test_mul_matches_reference_wide():
    gf = field(16)
    rng = random.Random(16)
    for _ in range(500):
        a, b = rng.randrange(gf.order), rng.randrange(gf.order)
        assert gf.mul(a, b) == ref_mul(a, b, 16)


@pytest.mark.parametrize("width", [2, 3, 4, 8])
def test_every_nonzero_element_inverts(width):
    gf = field(width)
    for a in range(1, gf.order):
        assert gf.mul(a, gf.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        gf.inv(0)


def test_field_axioms_sampled():
    gf = field(8)
    rng = random.Random(0)
    for _ in range(300):
        a, b, c = (rng.randrange(256) for _ in range(3))
        assert gf.mul(a, b) == gf.mul(b, a)
        assert gf.mul(a, gf.mul(b, c)) == gf.mul(gf.mul(a, b), c)
        assert gf.mul(a, b ^ c) == gf.mul(a, b) ^ gf.mul(a, c)
        assert gf.mul(a, 1) == a


def test_unknown_width_rejected():
    with pytest.raises(OutOfRange):
        GF(5)


def test_field_cache_returns_same_instance():
    assert field(8) is field(8)


def test_matmul_matches_scalar_loop():
    gf = field(8)
    rng = np.random.default_rng(1)
    a = rng.integers(0, 256, size=(5, 7), dtype=np.uint32)
    x = rng.integers(0, 256, size=(7, 3), dtype=np.uint32)
    got = gf.matmul(a, x)
    for i in range(5):
        for j in range(3):
            acc = 0
            for k in range(7):
                acc ^= gf.mul(int(a[i, k]), int(x[k, j]))
            assert got[i, j] == acc


def test_cauchy_2x4_minors_nonzero():
    gf = field(3)
    m = cauchy_matrix(2, 4, gf)
    assert m.shape == (2, 4)
    assert np.all(m > 0)
    for c1 in range(4):
        for c2 in range(c1 + 1, 4):
            det = gf.mul(int(m[0, c1]), int(m[1, c2])) ^ gf.mul(int(m[0, c2]), int(m[1, c1]))
            assert det != 0, (c1, c2)


@pytest.mark.parametrize("width, m1, m2", [(8, 2, 4), (8, 24, 32), (16, 216, 270)])
def test_cauchy_matches_entrywise_definition(width, m1, m2):
    gf = field(width)
    want = [[gf.inv(i ^ (m1 + j)) for j in range(m2)] for i in range(m1)]
    got = cauchy_matrix(m1, m2, gf)
    assert got.dtype == np.uint32
    assert got.tolist() == want


def test_cauchy_random_column_subsets_invertible():
    gf = field(8)
    m = cauchy_matrix(24, 32, gf)
    rng = random.Random(7)
    for _ in range(100):
        cols = sorted(rng.sample(range(32), 24))
        assert gf.is_invertible(m[:, cols])


def test_cauchy_range_errors():
    gf = field(3)
    with pytest.raises(OutOfRange):
        cauchy_matrix(0, 4, gf)
    with pytest.raises(OutOfRange):
        cauchy_matrix(5, 4, gf)
    with pytest.raises(FieldTooSmall):
        cauchy_matrix(4, 5, gf)


def test_solve_recovers_known_vector():
    gf = field(8)
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = rng.integers(0, 256, size=(10, 10), dtype=np.uint32)
        while not gf.is_invertible(a):
            a = rng.integers(0, 256, size=(10, 10), dtype=np.uint32)
        x = rng.integers(0, 256, size=(10, 2), dtype=np.uint32)
        b = gf.matmul(a, x)
        assert np.array_equal(gf.solve(a, b), x)


def test_solve_flags_singular():
    gf = field(8)
    a = np.array([[1, 2], [1, 2]], dtype=np.uint32)
    with pytest.raises(SingularSystem):
        gf.solve(a, np.zeros((2, 1), dtype=np.uint32))
    zero_col = np.array([[0, 1], [0, 2]], dtype=np.uint32)
    with pytest.raises(SingularSystem):
        gf.solve(zero_col, np.zeros((2, 1), dtype=np.uint32))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 48) - 1))
def test_symbol_packing_round_trip(x):
    for width, nbytes in [(8, 6), (16, 6)]:
        syms = packet_to_symbols(x, nbytes, width)
        assert all(0 <= s < (1 << width) for s in syms)
        assert symbols_to_packet(syms, nbytes, width) == x


def test_symbol_packing_small_width():
    syms = packet_to_symbols(0x0102, 2, 3)
    assert syms == [1, 2]
    assert symbols_to_packet(syms, 2, 3) == 0x0102
