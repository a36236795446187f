"""Field tables, the Cauchy matrix and the elimination solver."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macc import DimensionMismatch, FieldTooSmall, OutOfRange, SingularSystem
from macc.gf2 import (
    GF,
    PRIMITIVE_POLY,
    bytes_to_symbols,
    cauchy_matrix,
    field,
    packet_to_symbols,
    packets_to_symbols,
    symbols_to_bytes,
    symbols_to_packet,
    symbols_to_packets,
)
from oracles import is_invertible, packet_to_symbols_by_bytes, symbols_to_packet_by_bytes


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


@pytest.mark.parametrize("width", sorted(PRIMITIVE_POLY))
def test_primitive_polys_have_full_period(width):
    gf = GF(width)
    n = gf.order - 1
    assert sorted(gf._exp[:n].tolist()) == list(range(1, gf.order))


def test_non_primitive_poly_is_rejected(monkeypatch):
    # x^4 + x^3 + x^2 + x + 1 is irreducible, but x has order 5, not 15
    monkeypatch.setitem(PRIMITIVE_POLY, 4, 0b11111)
    with pytest.raises(OutOfRange, match="width 4 is not primitive"):
        GF(4)


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
    with pytest.raises(SingularSystem, match="0 has no inverse"):
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


def test_matmul_wide_with_zeros_matches_scalar_loop():
    gf = field(16)
    rng = np.random.default_rng(16)
    a = rng.integers(0, 1 << 16, size=(6, 9), dtype=np.uint32)
    x = rng.integers(0, 1 << 16, size=(9, 5), dtype=np.uint32)
    a[rng.random(a.shape) < 0.3] = 0
    x[rng.random(x.shape) < 0.3] = 0
    a[2] = 0
    x[:, 1] = 0
    got = gf.matmul(a, x)
    assert got.dtype == np.uint32
    for i in range(6):
        for j in range(5):
            acc = 0
            for k in range(9):
                acc ^= gf.mul(int(a[i, k]), int(x[k, j]))
            assert got[i, j] == acc


def test_steps_wider_than_the_step_budget():
    """One row against more columns, or labels, than _STEP_ELEMENTS = 2^14:
    each step then takes a single row. Against none, every sum is empty."""
    gf = field(16)
    rng = np.random.default_rng(14)
    x = rng.integers(0, 1 << 16, size=(1, (1 << 14) + 1), dtype=np.uint32)
    a = np.array([[3], [0], [1 << 15]], dtype=np.uint32)
    got = gf.matmul(a, x)
    assert [row.tolist() for row in got] == [gf.scale_row(x[0], int(v)).tolist() for v in a[:, 0]]
    labels = np.arange((1 << 14) + 1, dtype=np.int32) + 7
    rows = np.array([1, 2, 3], dtype=np.int32)
    sums = gf._log_sums(rows, labels)
    assert sums.tolist() == [int(gf._log[r ^ labels].sum(dtype=np.int64)) for r in rows]
    assert gf.matmul(a, x[:, :0]).shape == (3, 0)
    assert gf._log_sums(rows, labels[:0]).tolist() == [0, 0, 0]


def test_mul_by_zero_through_the_sentinel():
    for width in (3, 8, 16):
        gf = field(width)
        for a in (0, 1, gf.order - 1):
            assert gf.mul(a, 0) == gf.mul(0, a) == 0
        v = np.array([0, 1, gf.order - 1], dtype=np.uint32)
        assert gf.scale_row(v, 0).tolist() == [0, 0, 0]
        assert gf.scale_row(v, 1).tolist() == v.tolist()


def test_matmul_rejects_shape_mismatch():
    gf = field(8)
    with pytest.raises(DimensionMismatch):
        gf.matmul(np.ones((2, 3), dtype=np.uint32), np.ones((2, 3), dtype=np.uint32))


def test_solve_rejects_shape_mismatch():
    gf = field(8)
    with pytest.raises(DimensionMismatch):
        gf.solve(np.ones((2, 3), dtype=np.uint32), np.ones((2, 1), dtype=np.uint32))
    with pytest.raises(DimensionMismatch):
        gf.solve(np.eye(2, dtype=np.uint32), np.ones((3, 1), dtype=np.uint32))


@pytest.mark.parametrize("width, m1, m2", [(8, 24, 32), (16, 216, 270)])
def test_cauchy_inverse_matches_identity_and_solve(width, m1, m2):
    gf = field(width)
    g = cauchy_matrix(m1, m2, gf)
    eye = np.eye(m1, dtype=np.uint32)
    rng = random.Random(m1)
    for trial in range(3 if width == 16 else 20):
        cols = sorted(rng.sample(range(m2), m1)) if trial else list(range(m2 - m1, m2))
        inv = gf.cauchy_inverse(m1, cols)
        assert inv.dtype == np.uint32
        assert np.array_equal(gf.matmul(inv, g[:, cols]), eye)
        assert np.array_equal(gf.matmul(g[:, cols], inv), eye)
        if trial < 3:
            assert np.array_equal(inv, gf.solve(g[:, cols], eye))


def test_cauchy_inverse_rejects_bad_columns():
    gf = field(8)
    with pytest.raises(DimensionMismatch):
        gf.cauchy_inverse(3, [0, 1])
    with pytest.raises(OutOfRange):
        gf.cauchy_inverse(2, [1, 1])
    with pytest.raises(OutOfRange):
        gf.cauchy_inverse(2, [-1, 1])
    with pytest.raises(FieldTooSmall, match=r"^column label 256 exceeds field order 256$"):
        gf.cauchy_inverse(2, [0, 254])


@pytest.mark.parametrize("width, m1, m2", [(8, 12, 15), (8, 24, 32), (16, 216, 270)])
def test_cauchy_inverse_of_row_and_column_selection_matches_solve(width, m1, m2):
    gf = field(width)
    g = cauchy_matrix(m1, m2, gf)
    rng = random.Random(m1 + width)
    for _ in range(10):
        n = rng.randint(1, min(m1, 6))
        rows, cols = rng.sample(range(m1), n), rng.sample(range(m2), n)
        minor = g[np.ix_(rows, cols)]
        inv = gf.cauchy_inverse(m1, cols, rows=rows)
        assert np.array_equal(inv, gf.solve(minor, np.eye(n, dtype=np.uint32)))
    # rows defaults to all m1 rows
    full = list(range(m2 - m1, m2))
    assert np.array_equal(gf.cauchy_inverse(m1, full, rows=range(m1)), gf.cauchy_inverse(m1, full))


def test_cauchy_inverse_rejects_bad_rows():
    gf = field(8)
    with pytest.raises(DimensionMismatch):
        gf.cauchy_inverse(6, [0, 1], rows=[2])
    with pytest.raises(DimensionMismatch):
        gf.cauchy_inverse(6, [0], rows=[2, 3])
    with pytest.raises(DimensionMismatch):
        gf.cauchy_inverse(6, [], rows=[])
    for rows in ([1, 1], [-1, 2], [2, 6], [0, 9]):
        with pytest.raises(OutOfRange, match="distinct row indices in"):
            gf.cauchy_inverse(6, [0, 1], rows=rows)


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
        assert is_invertible(gf, m[:, cols])


def test_cauchy_range_errors():
    gf = field(3)
    with pytest.raises(OutOfRange):
        cauchy_matrix(0, 4, gf)
    with pytest.raises(OutOfRange):
        cauchy_matrix(5, 4, gf)
    with pytest.raises(FieldTooSmall):
        cauchy_matrix(4, 5, gf)


def test_cauchy_single_row_and_column_edges():
    """m1 = 1 and m1 = m2 = 1 are the smallest shapes accepted; m1 = 0 is not,
    and a field one element short names both sizes."""
    gf = field(3)
    assert cauchy_matrix(1, 1, gf).tolist() == [[gf.inv(1)]]
    assert cauchy_matrix(1, 7, gf).tolist() == [[gf.inv(1 + j) for j in range(7)]]
    with pytest.raises(OutOfRange, match=r"need 1 <= m1 <= m2, got m1=0 m2=1"):
        cauchy_matrix(0, 1, gf)
    with pytest.raises(FieldTooSmall, match=r"^m1\+m2=9 exceeds field order 8$"):
        cauchy_matrix(1, 8, gf)


def test_solve_recovers_known_vector():
    gf = field(8)
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = rng.integers(0, 256, size=(10, 10), dtype=np.uint32)
        while not is_invertible(gf, a):
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


@pytest.mark.parametrize("width", [8, 16])
def test_batch_symbol_packing_matches_per_packet(width):
    rng = random.Random(width)
    for nbytes in (2, 6, 256):
        packets = [rng.getrandbits(8 * nbytes) for _ in range(17)] + [0, (1 << 8 * nbytes) - 1]
        syms = packets_to_symbols(packets, nbytes, width)
        assert syms.dtype == np.uint32
        assert syms.tolist() == [packet_to_symbols_by_bytes(p, nbytes, width) for p in packets]
        assert symbols_to_packets(syms, nbytes, width) == [
            symbols_to_packet_by_bytes(row, nbytes, width) for row in syms
        ] == packets
    assert packets_to_symbols([], 2, width).shape == (0, 2 // (width // 8))


@pytest.mark.parametrize("width", [8, 16])
def test_bytes_to_symbols_reads_words_of_the_fields_narrow_type(width):
    """Symbols read from bytes are GF.dtype, the one narrow type of a field,
    and hold the same big-endian words as the uint32 symbols of packet ints."""
    gf = field(width)
    assert gf.dtype == (np.uint8 if width == 8 else np.uint16) == gf._exp.dtype
    packets = np.random.default_rng(width).integers(0, 256, size=(3, 5, 6), dtype=np.uint8)
    syms = bytes_to_symbols(packets, width)
    assert syms.dtype == gf.dtype and syms.shape == (3, 5, 48 // width)
    ints = [int.from_bytes(row.tobytes(), "big") for row in packets.reshape(15, 6)]
    assert syms.reshape(15, -1).tolist() == packets_to_symbols(ints, 6, width).tolist()
    assert symbols_to_bytes(syms, width).tobytes() == packets.tobytes()
    assert field(4).dtype == np.uint8


def test_symbol_packing_rejects_ragged_packets():
    with pytest.raises(DimensionMismatch):
        packet_to_symbols(1, 3, 16)
    with pytest.raises(DimensionMismatch):
        packets_to_symbols([1], 3, 16)
    with pytest.raises(DimensionMismatch):
        symbols_to_packet([1, 2], 3, 8)
    with pytest.raises(DimensionMismatch):
        symbols_to_packets(np.zeros((1, 2), dtype=np.uint32), 3, 8)


def test_symbol_packing_rejects_out_of_range():
    with pytest.raises(OutOfRange):
        packet_to_symbols(0x0109, 2, 3)
    with pytest.raises(OutOfRange):
        packets_to_symbols([0x0109], 2, 3)
    with pytest.raises(OutOfRange):
        packet_to_symbols(1 << 16, 2, 8)
    with pytest.raises(OutOfRange):
        packet_to_symbols("x", 2, 8)
    with pytest.raises(OutOfRange):
        symbols_to_packet([1, 300], 2, 8)
    with pytest.raises(OutOfRange):
        symbols_to_packets(np.array([[1, 300]]), 2, 8)
    with pytest.raises(OutOfRange):
        packet_to_symbols(1, 2, 5)


OUTSIDE_GF8 = [-1, 256]


@pytest.mark.parametrize("bad", OUTSIDE_GF8)
def test_mul_rejects_elements_outside_the_field(bad):
    with pytest.raises(OutOfRange):
        field(8).mul(bad, 1)
    with pytest.raises(OutOfRange):
        field(8).mul(1, bad)


@pytest.mark.parametrize("bad", OUTSIDE_GF8)
def test_inv_rejects_elements_outside_the_field(bad):
    with pytest.raises(OutOfRange):
        field(8).inv(bad)


@pytest.mark.parametrize("bad", OUTSIDE_GF8)
def test_scale_row_rejects_elements_outside_the_field(bad):
    with pytest.raises(OutOfRange):
        field(8).scale_row(np.array([1, bad, 2]), 3)
    with pytest.raises(OutOfRange):
        field(8).scale_row(np.array([1, 2]), bad)


@pytest.mark.parametrize("bad", OUTSIDE_GF8)
def test_matmul_rejects_elements_outside_the_field(bad):
    gf = field(8)
    with pytest.raises(OutOfRange):
        gf.matmul(np.array([[bad]]), np.array([[1]]))
    with pytest.raises(OutOfRange):
        gf.matmul(np.array([[1, 1]]), np.array([[1], [bad]]))


@pytest.mark.parametrize("width", [8, 16])
def test_dot_logs_matches_one_matmul_per_row(width):
    gf = field(width)
    rng = np.random.default_rng(width)
    a = rng.integers(0, gf.order, size=(7, 3), dtype=np.uint32)
    x = rng.integers(0, gf.order, size=(3, 7, 5), dtype=np.uint32)
    a[1] = 0
    x[:, 2] = 0
    a[4, 1] = x[2, 5] = 0
    logs = gf.logs(a)
    assert logs[1].tolist() == [gf.zero_log] * 3
    got = gf.dot_logs(logs, x)
    assert got.dtype == np.uint32 and got.shape == (7, 5)
    for i in range(7):
        assert got[i].tolist() == gf.matmul(a[i:i + 1], x[:, i])[0].tolist()
    assert gf.dot_logs(logs[:0], x[:, :0]).shape == (0, 5)


def test_dot_logs_rejects_bad_logs_and_shapes():
    gf = field(8)
    x = np.ones((2, 1, 4), dtype=np.uint32)
    for bad in (-1, 255, gf.zero_log + 1):
        with pytest.raises(OutOfRange):
            gf.dot_logs(np.array([[0, bad]]), x)
    with pytest.raises(OutOfRange):
        gf.dot_logs(np.array([[0.5, 1]]), x)
    with pytest.raises(OutOfRange):
        gf.dot_logs(np.array([[0, 1]]), x + 255)
    with pytest.raises(OutOfRange):
        gf.logs([256])
    for logs, operand in (([[0, 1]], x[:1]), ([0, 1], x), ([[0, 1], [1, 0]], x)):
        with pytest.raises(DimensionMismatch):
            gf.dot_logs(np.array(logs), operand)
