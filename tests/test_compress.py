"""Message compression: lambda profiles, self-reconstruction and MDS coding."""

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from macc import (
    GF,
    STAR,
    C3ViolationInQ,
    DimensionMismatch,
    FieldTooSmall,
    NotApplicable,
    OutOfRange,
    Pda,
    SingularSystem,
    build_scheme,
    cauchy_matrix,
    compressed_decode,
    compressed_deliver,
    compressed_load,
    coverable_messages,
    field,
    full_view_rounds,
    lambda_profile,
    library_for_scheme,
    mn_pda,
    partition_pda,
    r_cor1,
    r_cor2,
    r_rk,
    reconstructable_messages,
)
from macc import compress, gf2, sim
from conftest import ragged_pda
from macc.sim import round_messages
from oracles import (
    compressed_decode_all_rounds,
    compressed_decode_by_elimination,
    compressed_deliver_by_ints,
    demand_suite,
    is_invertible,
    messages_read,
    plan_by_walk,
    round_payloads,
    shift_grid,
)
from test_acceptance import _roster


def binomial_instances(k_max: int):
    """All (k, l, t) with tl + 1 < k < tl + l, the regime where every
    lambda_h is positive for the binomial family."""
    out = []
    for k in range(2, k_max + 1):
        for l in range(2, k + 1):
            for t in range(1, k // l + 1):
                if t * l + 1 < k < t * l + l:
                    out.append((k, l, t))
    return out


def test_lambda_worked_examples():
    assert lambda_profile(mn_pda(4, 2), 3).lambdas == (1, 1)
    assert lambda_profile(mn_pda(3, 1), 3).lambdas == (1,)
    prof = lambda_profile(mn_pda(4, 2), 2)  # K = 6: slack closes
    assert prof.lambdas == (0, 0)
    assert not prof.applicable
    assert not lambda_profile(mn_pda(4, 0), 3).applicable


def test_lambda_partition_family():
    for q, l in [(2, 2), (2, 3), (3, 3), (3, 5)]:
        p, _ = partition_pda(2, q)
        prof = lambda_profile(p, l)
        if l >= q:
            assert prof.applicable
            assert set(prof.lambdas) == {l - q + 1}
        else:
            assert not prof.applicable


def test_full_view_rounds_against_grid(scheme832):
    k = scheme832.params.k
    for user in range(1, k + 1):
        expect = []
        for g in range(1, k + 1):
            grid = shift_grid(scheme832.delivery.grid, g)
            if all(row[user - 1] == STAR for row in grid):
                expect.append(g)
        assert full_view_rounds(scheme832, user) == tuple(expect)
        assert len(expect) == lambda_profile(scheme832.pda, 3).total


def test_reconstructable_counts(scheme832):
    s = scheme832.pda.s
    total = lambda_profile(scheme832.pda, 3).total
    for user in (1, 4, 8):
        rec = reconstructable_messages(scheme832, user)
        assert len(rec) == total * s
        cov = coverable_messages(scheme832, user)
        assert rec <= cov
    # the coverable set is strictly larger here: partially-seen rounds
    # still have messages whose constituents all fall inside the view
    assert len(coverable_messages(scheme832, 1)) == 14
    assert len(reconstructable_messages(scheme832, 1)) == 8


def test_compressed_batch_shape(scheme832):
    lib = library_for_scheme(scheme832, packet_bytes=2, seed=11)
    demand = (1, 2, 3, 4, 5, 6, 7, 8)
    batch = compressed_deliver(lib, scheme832, demand)
    assert (batch.m1, batch.m2) == (24, 32)
    assert batch.field_width == 8
    assert len(batch.payloads) == 24
    assert batch.coding_matrix.shape == (24, 32)
    assert compressed_load(scheme832) == Fraction(1, 2)


def test_compressed_end_to_end(scheme832):
    lib = library_for_scheme(scheme832, packet_bytes=2, seed=12)
    for demand in demand_suite(8, 8, seed=2, n_random=3):
        batch = compressed_deliver(lib, scheme832, demand)
        for u in range(1, 9):
            got = compressed_decode(lib, scheme832, demand, batch, u)
            assert got == lib.file_bytes(demand[u - 1]), (demand, u)


def test_compressed_partition_instance():
    p, _ = partition_pda(2, 2)
    s = build_scheme(p, 6, 2)
    assert compressed_load(s) == Fraction(2, 3)
    lib = library_for_scheme(s, packet_bytes=1, seed=6)
    demand = (3, 1, 4, 1, 5, 2)
    batch = compressed_deliver(lib, s, demand)
    assert (batch.m1, batch.m2) == (8, 12)
    for u in range(1, 7):
        assert compressed_decode(lib, s, demand, batch, u) == lib.file_bytes(demand[u - 1])


def test_compressed_wide_field():
    # force the 16-bit field on an instance that fits in 8 bits
    s = build_scheme(mn_pda(2, 1), 4, 3)
    lib = library_for_scheme(s, packet_bytes=2, seed=8)
    demand = (2, 1, 4, 3)
    batch = compressed_deliver(lib, s, demand, field_width=16)
    assert batch.field_width == 16
    for u in range(1, 5):
        assert compressed_decode(lib, s, demand, batch, u) == lib.file_bytes(demand[u - 1])


def test_not_applicable_raises():
    s = build_scheme(mn_pda(4, 2), 6, 2)
    lib = library_for_scheme(s, packet_bytes=1, seed=0)
    with pytest.raises(NotApplicable):
        compressed_deliver(lib, s, (1, 2, 3, 4, 5, 6))
    with pytest.raises(NotApplicable):
        compressed_load(s)


def test_tampered_batch_is_rejected(scheme832):
    lib = library_for_scheme(scheme832, packet_bytes=1, seed=1)
    demand = (1, 1, 1, 1, 1, 1, 1, 1)
    batch = compressed_deliver(lib, scheme832, demand)
    bad = dataclasses.replace(batch, m1=batch.m1 - 1, payloads=batch.payloads[:-1])
    with pytest.raises(SingularSystem):
        compressed_decode(lib, scheme832, demand, bad, 1)


def test_coded_batch_names_its_coding_matrix(scheme832):
    lib = library_for_scheme(scheme832, packet_bytes=1, seed=1)
    demand = tuple(range(1, 9))
    batch = compressed_deliver(lib, scheme832, demand)
    g_mat = batch.coding_matrix
    assert batch.blocks == 4
    block = np.hstack([np.eye(6), cauchy_matrix(6, 8, field(8))[:, :2]])
    assert np.array_equal(g_mat, np.kron(block, np.eye(4)))
    assert not g_mat.flags.writeable
    assert compressed_deliver(lib, scheme832, demand) == batch
    assert compressed_deliver(lib, scheme832, demand).coding_matrix is g_mat
    with pytest.raises(TypeError):
        dataclasses.replace(batch, coding_matrix=g_mat)


def test_coding_matrix_is_one_block_per_integer():
    p, _ = partition_pda(3, 3)
    scheme = build_scheme(p, 15, 3)
    lib = library_for_scheme(scheme, packet_bytes=2, seed=3)
    batch = compressed_deliver(lib, scheme, tuple(range(1, 16)))
    s = p.s
    g_mat = batch.coding_matrix
    assert g_mat.shape == (batch.m1, batch.m2) == (216, 270)
    n = batch.m1 // s
    same_integer = np.arange(batch.m1)[:, None] % s == np.arange(batch.m2) % s
    # [I | P]: row i of an integer meets its own round i and every parity round
    round_of_row = np.arange(batch.m1)[:, None] // s
    round_of_col = np.arange(batch.m2) // s
    systematic = same_integer & ((round_of_col == round_of_row) | (round_of_col >= n))
    assert np.all((g_mat != 0) == systematic)
    for user in range(1, 16):
        unknown = sorted(set(range(batch.m2)) - reconstructable_messages(scheme, user))
        squares = []
        for i in range(s):
            cols = [c for c in unknown if c % s == i]
            rows = np.flatnonzero(same_integer[:, i])
            assert len(cols) == len(rows) == n
            squares.append(g_mat[np.ix_(rows, cols)])
        # every integer meets the same square, and it is invertible
        assert all(np.array_equal(sq, squares[0]) for sq in squares)
        assert is_invertible(field(16), squares[0])


def test_part33_decodes_over_gf256():
    # the whole 216 x 270 code needs GF(2^16); one 12 x 15 block fits GF(2^8)
    p, _ = partition_pda(3, 3)
    scheme = build_scheme(p, 15, 3)
    lib = library_for_scheme(scheme, packet_bytes=3, seed=7)
    demand = (4, 9, 1, 15, 2, 2, 7, 11, 3, 8, 6, 13, 5, 14, 10)
    batch = compressed_deliver(lib, scheme, demand, field_width=8)
    assert (batch.field_width, batch.m1, batch.m2, batch.blocks) == (8, 216, 270, 18)
    for user in range(1, 16):
        got = compressed_decode(lib, scheme, demand, batch, user)
        assert got == lib.file_bytes(demand[user - 1]), user


def test_block_does_not_fit_field():
    s = build_scheme(mn_pda(2, 1), 4, 3)
    lib = library_for_scheme(s, packet_bytes=1, seed=0)
    with pytest.raises(FieldTooSmall, match="a 2 x 4 block"):
        compressed_deliver(lib, s, (1, 2, 3, 4), field_width=2)


def test_compressed_decode_inverts_blocks_only(monkeypatch):
    def no_solve(*args):
        raise AssertionError("GF.solve called")

    sizes = []
    inverse = GF.cauchy_inverse

    def recorded(self, m1, cols, rows=None):
        sizes.append(len(cols))
        return inverse(self, m1, cols, rows)

    monkeypatch.setattr(GF, "solve", no_solve)
    monkeypatch.setattr(GF, "cauchy_inverse", recorded)
    p, _ = partition_pda(3, 3)
    scheme = build_scheme(p, 15, 3)
    lib = library_for_scheme(scheme, packet_bytes=2, seed=2)
    demand = tuple(range(15, 0, -1))
    batch = compressed_deliver(lib, scheme, demand)
    assert batch.field_width == 16
    for user in range(1, 16):
        assert compressed_decode(lib, scheme, demand, batch, user) == lib.file_bytes(demand[user - 1])
    total = lambda_profile(p, 3).total
    n = 15 - total
    # one inverse per user, as wide as its seen systematic rounds
    seen_systematic = [sum(g <= n for g in full_view_rounds(scheme, u)) for u in range(1, 16)]
    assert sizes == seen_systematic
    assert set(sizes) == {2, 3} and max(sizes) <= total


def test_coding_matrix_rejects_malformed_shape(scheme832):
    lib = library_for_scheme(scheme832, packet_bytes=1, seed=1)
    batch = compressed_deliver(lib, scheme832, tuple(range(1, 9)))
    for change in (dict(m1=23), dict(m2=30), dict(blocks=3), dict(blocks=0), dict(blocks=-4)):
        with pytest.raises(DimensionMismatch, match="not multiples"):
            dataclasses.replace(batch, **change).coding_matrix


def test_coding_matrix_needs_one_to_k_rows_per_block(scheme832):
    """A block of 1..k rows is G's [I | P]; none, or more rows than rounds,
    names no block, so coding_matrix refuses it."""
    lib = library_for_scheme(scheme832, packet_bytes=1, seed=1)
    batch = compressed_deliver(lib, scheme832, tuple(range(1, 9)))
    gf = field(batch.field_width)
    one = dataclasses.replace(batch, m1=2, m2=8, blocks=2).coding_matrix
    assert one.shape == (2, 8) and one[:, :2].tolist() == [[1, 0], [0, 1]]
    assert one[0, 2::2].tolist() == cauchy_matrix(1, 4, gf)[0, :3].tolist()
    square = dataclasses.replace(batch, m1=8, m2=8, blocks=2).coding_matrix
    assert np.array_equal(square, np.eye(8, dtype=np.uint32))
    for m1, k in ((0, 4), (10, 4)):
        with pytest.raises(DimensionMismatch, match=rf"^a {m1 // 2} x {k} block needs 1 <= "):
            dataclasses.replace(batch, m1=m1, m2=8, blocks=2).coding_matrix


def _mds_cases():
    p33, _ = partition_pda(3, 3)
    return {
        "832": (build_scheme(mn_pda(4, 2), 8, 3), None, 28),
        "mn21_gf16": (build_scheme(mn_pda(2, 1), 4, 3), 16, 6),
        "part33": (build_scheme(p33, 15, 3), None, 455),
    }


@pytest.mark.parametrize("name", ["832", "mn21_gf16", "part33"])
def test_systematic_block_is_mds(name):
    scheme, width, n_subsets = _mds_cases()[name]
    k = scheme.params.k
    lib = library_for_scheme(scheme, packet_bytes=2, seed=0)
    batch = compressed_deliver(lib, scheme, tuple(range(1, k + 1)), field_width=width)
    s, gf = batch.blocks, field(batch.field_width)
    block = batch.coding_matrix[::s, ::s]  # integer 1's [I | P]
    total = lambda_profile(scheme.pda, scheme.params.l).total
    assert block.shape == (k - total, k)
    # any sum(lambda) rounds may be the known ones, not only the users' sets
    subsets = list(itertools.combinations(range(k), total))
    assert len(subsets) == n_subsets
    for known in subsets:
        rest = [g for g in range(k) if g not in known]
        assert is_invertible(gf, block[:, rest]), known


def test_encode_multiplies_by_parity_block_only(monkeypatch):
    def no_solve(*args):
        raise AssertionError("GF.solve called")

    shapes = []
    matmul = GF.matmul

    def recorded(self, a, x):
        shapes.append((a.shape, x.shape))
        return matmul(self, a, x)

    monkeypatch.setattr(GF, "solve", no_solve)
    monkeypatch.setattr(GF, "matmul", recorded)
    p, _ = partition_pda(3, 3)
    scheme = build_scheme(p, 15, 3)
    lib = library_for_scheme(scheme, packet_bytes=4, seed=1)
    batch = compressed_deliver(lib, scheme, tuple(range(1, 16)))
    total = lambda_profile(p, 3).total
    # one (K - sum(lambda)) x sum(lambda) product over all S integers' symbols
    assert shapes == [((15 - total, total), (total, p.s * 2))]
    assert batch.m1 == (15 - total) * p.s


def test_compressed_decode_rejects_malformed_payloads(scheme832):
    lib = library_for_scheme(scheme832, packet_bytes=1, seed=1)
    demand = tuple(range(1, 9))
    batch = compressed_deliver(lib, scheme832, demand)
    for first in ("x", 256, -1):
        bad = dataclasses.replace(batch, payloads=(first,) + batch.payloads[1:])
        with pytest.raises(OutOfRange):
            compressed_decode(lib, scheme832, demand, bad, 1)


def _coded_cases():
    p33, _ = partition_pda(3, 3)
    return {
        "832": (build_scheme(mn_pda(4, 2), 8, 3), 2, None, dict(n_random=3)),
        "part33": (build_scheme(p33, 15, 3), 2, None, dict(n_random=1)),
        "mn21_gf16": (build_scheme(mn_pda(2, 1), 4, 3), 2, 16, {}),
    }


@pytest.mark.parametrize("name", ["832", "part33", "mn21_gf16"])
def test_compressed_decode_matches_elimination_oracle(name):
    scheme, packet_bytes, width, suite = _coded_cases()[name]
    k = scheme.params.k
    lib = library_for_scheme(scheme, packet_bytes=packet_bytes, seed=5)
    # The file_bytes check proves every decode right; the elimination oracle
    # is compared on the first demand only, as later ones would re-test it.
    for i, demand in enumerate(demand_suite(k, k, seed=9, **suite)):
        batch = compressed_deliver(lib, scheme, demand, field_width=width)
        for user in range(1, k + 1):
            got = compressed_decode(lib, scheme, demand, batch, user)
            if i == 0:
                assert got == compressed_decode_by_elimination(lib, scheme, demand, batch, user)
            assert got == lib.file_bytes(demand[user - 1]), (demand, user)


def test_compressed_decode_runs_no_elimination(scheme832, monkeypatch):
    def no_solve(*args):
        raise AssertionError("GF.solve called")

    monkeypatch.setattr(GF, "solve", no_solve)
    lib = library_for_scheme(scheme832, packet_bytes=2, seed=4)
    demand = (2, 7, 1, 8, 2, 8, 1, 8)
    batch = compressed_deliver(lib, scheme832, demand)
    for user in range(1, 9):
        assert compressed_decode(lib, scheme832, demand, batch, user) == lib.file_bytes(demand[user - 1])


def test_messages_read_are_unknowns():
    p, _ = partition_pda(3, 3)
    scheme = build_scheme(p, 15, 3)
    positions = range(15 * p.s)
    total = lambda_profile(p, 3).total
    for user in (1, 8, 15):
        read = messages_read(scheme, user)
        rec = reconstructable_messages(scheme, user)
        for found in (read, rec):
            assert found and all(isinstance(i, int) and i in positions for i in found)
        assert len(read) == 54
        assert len(rec) == total * p.s
        assert not read & rec
        assert rec <= coverable_messages(scheme, user)


def test_compressed_decode_rejects_foreign_library(scheme832):
    lib = library_for_scheme(scheme832, packet_bytes=1, seed=1)
    demand = tuple(range(1, 9))
    batch = compressed_deliver(lib, scheme832, demand)
    big = library_for_scheme(build_scheme(mn_pda(5, 2), 9, 3), packet_bytes=1, seed=1)
    with pytest.raises(DimensionMismatch):
        compressed_decode(big, scheme832, demand, batch, 1)


def test_square_corner_compressed_load():
    for k, l, t in binomial_instances(12):
        k_prime = k - t * (l - 1)
        scheme = build_scheme(mn_pda(k_prime, t), k, l)
        prof = lambda_profile(scheme.pda, l)
        assert prof.applicable, (k, l, t)
        assert set(prof.lambdas) == {t + l - k_prime}
        want = Fraction((k - t * l) ** 2, k)
        assert compressed_load(scheme) == want
        assert r_cor1(k, l, t) == want
        assert r_rk(k, l, t) == want


def test_partition_corner_compressed_load():
    for q in (2, 3):
        for l in range(q, q + 3):
            for m in (2, 3):
                p, _ = partition_pda(m, q)
                k = m * (q + l - 1)
                scheme = build_scheme(p, k, l)
                want = Fraction(2 * (q - 1) ** 2, q + l - 1)
                assert compressed_load(scheme) == want
                assert r_cor2(q, l) == want


def _array_path_cases():
    """(scheme, packet_bytes, field width, demand_suite options); the packet
    sizes read the library as 1-, 2-, 4- and 8-byte words."""
    p33, _ = partition_pda(3, 3)
    part33 = build_scheme(p33, 15, 3)
    return {
        "832": (build_scheme(mn_pda(4, 2), 8, 3), 2, None, dict(n_random=3)),
        "part33_gf16": (part33, 6, None, dict(n_random=1)),
        "part33_gf8": (part33, 3, 8, dict(n_random=1)),
        "mn21_gf16": (build_scheme(mn_pda(2, 1), 4, 3), 4, 16, {}),
        "ragged": (build_scheme(ragged_pda(), 8, 3), 8, None, dict(n_random=3)),
    }


@pytest.mark.parametrize("name", ["832", "part33_gf16", "part33_gf8", "mn21_gf16", "ragged"])
def test_array_path_matches_int_oracle(name):
    """The array path against the int oracles, and the decode of only the
    needed messages against the all-rounds decode for every demand and
    against elimination for every user of the first demand."""
    scheme, packet_bytes, width, suite = _array_path_cases()[name]
    k, b = scheme.params.k, packet_bytes
    lib = library_for_scheme(scheme, packet_bytes=b, seed=13)
    for i, demand in enumerate(demand_suite(k, k, seed=4, **suite)):
        got = round_messages(lib, scheme, demand, range(1, k + 1))
        assert got.shape == (k, scheme.pda.s, b) and got.dtype == np.uint8
        for g in range(1, k + 1):
            want = b"".join(p.to_bytes(b, "big") for p in round_payloads(lib, scheme, demand, g))
            assert got[g - 1].tobytes() == want, (demand, g)
        batch = compressed_deliver(lib, scheme, demand, field_width=width)
        assert batch == compressed_deliver_by_ints(lib, scheme, demand, field_width=width)
        for user in range(1, k + 1):
            decoded = compressed_decode(lib, scheme, demand, batch, user)
            assert decoded == compressed_decode_all_rounds(lib, scheme, demand, batch, user)
            if i == 0:
                assert decoded == compressed_decode_by_elimination(lib, scheme, demand, batch, user)
            assert decoded == lib.file_bytes(demand[user - 1]), (demand, user)


def test_ragged_integer_groups_compress():
    scheme = build_scheme(ragged_pda(), 8, 3)
    assert sorted(len(cells) for cells in plan_by_walk(scheme).cells.values()) == [1, 2, 3, 3, 3]
    assert compressed_load(scheme) == Fraction(5, 8)


def test_compressed_decode_reads_the_library_array_only(monkeypatch):
    """No int payload path runs in a coded decode; a delivered batch carries
    its symbols, and a copy of it splits its payloads once for all K users."""
    p, _ = partition_pda(3, 3)
    scheme = build_scheme(p, 15, 3)
    lib = library_for_scheme(scheme, packet_bytes=4, seed=8)
    demand = (3, 3, 1, 15, 9, 2, 7, 7, 12, 4, 6, 13, 5, 14, 10)
    batch = compressed_deliver(lib, scheme, demand)

    def refuse(*args):
        raise AssertionError("an int payload path ran")

    for module in (sim, gf2, compress):
        for name in ("deliver", "decode_from_messages", "symbols_to_packets"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    conversions = []
    split = compress.packets_to_symbols

    def counted(*args):
        conversions.append(args)
        return split(*args)

    monkeypatch.setattr(compress, "packets_to_symbols", counted)
    copy = dataclasses.replace(batch)
    for user in range(1, 16):
        assert compressed_decode(lib, scheme, demand, batch, user) == lib.file_bytes(demand[user - 1])
    assert conversions == []
    for user in range(1, 16):
        assert compressed_decode(lib, scheme, demand, copy, user) == lib.file_bytes(demand[user - 1])
    assert len(conversions) == 1
    assert np.array_equal(copy.symbols, batch.symbols)
    assert not batch.symbols.flags.writeable and not copy.symbols.flags.writeable


def test_compressed_decode_multiplies_only_needed_messages(monkeypatch):
    """The decode's products: one dot_logs row of c coefficients per needed
    message, never P's rows of every unseen round against every integer, and
    no more than solving the unseen parity rounds of every integer first.
    The logs of the c seen rounds are looked up once, (c, S, symbols), not
    once per needed message."""
    p, _ = partition_pda(3, 3)
    scheme = build_scheme(p, 15, 3)
    lib = library_for_scheme(scheme, packet_bytes=256, seed=6)
    demand = tuple(range(1, 16))
    batch = compressed_deliver(lib, scheme, demand)
    total = lambda_profile(p, 3).total
    n = 15 - total
    matmul_rows, dot_shapes, log_shapes = [], [], []
    matmul, dot_logs, logs = GF.matmul, GF._dot_logs, GF.logs

    def recorded_matmul(self, a, x):
        matmul_rows.append(np.shape(a)[0])
        return matmul(self, a, x)

    def recorded_dot(self, a_logs, x_logs):
        dot_shapes.append((np.shape(a_logs), np.shape(x_logs)))
        return dot_logs(self, a_logs, x_logs)

    def recorded_logs(self, a):
        log_shapes.append(np.shape(a))
        return logs(self, a)

    monkeypatch.setattr(GF, "matmul", recorded_matmul)
    monkeypatch.setattr(GF, "_dot_logs", recorded_dot)
    monkeypatch.setattr(GF, "logs", recorded_logs)
    for user in range(1, 16):
        dot_shapes.clear()
        assert compressed_decode(lib, scheme, demand, batch, user) == lib.file_bytes(demand[user - 1])
        read = messages_read(scheme, user)
        assert len(read) == len(scheme.plan.miss_cols) == 54
        assert dot_shapes == [((54, total), (total, 54, 128))]
        assert log_shapes[-1] == (total, p.s, 128)
        seen_systematic = sum(g <= n for g in full_view_rounds(scheme, user))
        in_systematic = sum(i // p.s < n for i in read)
        assert 54 * total <= (seen_systematic * p.s + in_systematic) * total
    # only the table builds multiply matrices, [P; I_c] of K rows the largest
    assert matmul_rows and max(matmul_rows) == 15


def test_decode_tables_are_built_once_per_user_and_width(monkeypatch):
    p, _ = partition_pda(3, 3)
    scheme = build_scheme(p, 15, 3)
    lib = library_for_scheme(scheme, packet_bytes=2, seed=9)
    demand = (5, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9)
    batches = [compressed_deliver(lib, scheme, demand, field_width=w) for w in (16, 8)]
    built = []
    decode_table = compress._decode_table

    def recorded_table(scheme, user, gf):
        built.append((user, gf.width))
        return decode_table(scheme, user, gf)

    monkeypatch.setattr(compress, "_decode_table", recorded_table)
    for batch in batches + batches:
        for user in range(1, 16):
            assert compressed_decode(lib, scheme, demand, batch, user) == lib.file_bytes(demand[user - 1])
    assert built == [(u, w) for w in (16, 8) for u in range(1, 16)]
    assert len(scheme._tables) == 30
    kept = dict(scheme._tables)
    copy = dataclasses.replace(scheme)
    assert copy == scheme and copy._tables == {}
    assert compressed_decode(lib, copy, demand, batches[0], 4) == lib.file_bytes(demand[3])
    assert built[-1] == (4, 16) and len(built) == 31
    assert all(scheme._tables[key] is table for key, table in kept.items())
    assert len(scheme._tables) == len(kept) and copy._tables is not scheme._tables


@pytest.mark.parametrize("width", [8, 16])
def test_kept_table_decodes_without_matmul_or_inverse(monkeypatch, width):
    """Once a user's table exists at a width, its decode is one dot_logs:
    no matrix product and no Cauchy inverse, on every user of part33 and of
    the reordered repro array."""
    def refuse(*args, **kwargs):
        raise AssertionError("a decode with a kept table solved again")

    for scheme, k in ((build_scheme(partition_pda(3, 3)[0], 15, 3), 15), (build_scheme(REPRO, 8, 3), 8)):
        lib = library_for_scheme(scheme, packet_bytes=4, seed=3)
        demand = tuple(range(k, 0, -1))
        batch = compressed_deliver(lib, scheme, demand, field_width=width)
        for user in range(1, k + 1):
            compressed_decode(lib, scheme, demand, batch, user)
        with monkeypatch.context() as m:
            m.setattr(GF, "matmul", refuse)
            m.setattr(GF, "cauchy_inverse", refuse)
            for user in range(1, k + 1):
                assert compressed_decode(lib, scheme, demand, batch, user) == lib.file_bytes(demand[user - 1])


# Columns of partition_pda(2, 2) reordered: C1-C5 hold at L = 3, and every
# user sees 4 rounds whole at K = 8, where sum(lambda) is 2.
REPRO = Pda(rows=2, cols=4, entries=((STAR, STAR, 1, 2), (2, 1, STAR, STAR)), z=1, s=2)


def test_coded_path_reads_no_lambda_profile(monkeypatch):
    """Deliver, decode and load count the whole rounds from plan.views alone."""
    def refuse(*args):
        raise AssertionError("the coded path read the lambda rule")

    monkeypatch.setattr(compress, "lambda_profile", refuse)
    monkeypatch.setattr(compress, "star_profile", refuse)
    for scheme in (build_scheme(mn_pda(4, 2), 8, 3), build_scheme(REPRO, 8, 3)):
        lib = library_for_scheme(scheme, packet_bytes=1, seed=2)
        for demand in demand_suite(8, 8, n_random=1):
            batch = compressed_deliver(lib, scheme, demand)
            for user in range(1, 9):
                assert compressed_decode(lib, scheme, demand, batch, user) == lib.file_bytes(demand[user - 1])
        assert compressed_load(scheme) == Fraction(1, 2)
    with pytest.raises(NotApplicable):
        compressed_load(build_scheme(mn_pda(4, 2), 6, 2))


def test_not_applicable_says_no_round_is_seen_whole():
    flat = build_scheme(mn_pda(4, 2), 6, 2)
    assert not flat.plan.views.all(axis=0).any()
    message = r"^no user sees a whole round: each delivery grid column holds an integer$"
    with pytest.raises(NotApplicable, match=message):
        compressed_load(flat)
    with pytest.raises(NotApplicable, match=message):
        compressed_deliver(library_for_scheme(flat, packet_bytes=1), flat, (1,) * 6)


def test_repro_decodes_by_its_whole_rounds():
    """The reordered array the lambda rule undercounts: four whole rounds,
    not two, so the batch is (8 - 4) * 2 rows and elimination agrees."""
    scheme = build_scheme(REPRO, 8, 3)
    assert lambda_profile(REPRO, 3).total == 2
    assert all(len(full_view_rounds(scheme, u)) == 4 for u in range(1, 9))
    lib = library_for_scheme(scheme, packet_bytes=2, seed=5)
    for demand in demand_suite(8, 8, seed=3, n_random=2):
        batch = compressed_deliver(lib, scheme, demand)
        assert (batch.m1, batch.m2) == (8, 16)
        assert batch == compressed_deliver_by_ints(lib, scheme, demand)
        for user in range(1, 9):
            got = compressed_decode(lib, scheme, demand, batch, user)
            assert got == compressed_decode_by_elimination(lib, scheme, demand, batch, user)
            assert got == lib.file_bytes(demand[user - 1]), (demand, user)
    assert compressed_load(scheme) == Fraction(1, 2)
    # a batch sized by the lambda rule, (8 - 2) * 2 rows, is refused
    wide = dataclasses.replace(batch, m1=12, payloads=batch.payloads + batch.payloads[:4])
    with pytest.raises(SingularSystem, match=r"^8 unknowns against 12 coded rows$"):
        compressed_decode(lib, scheme, demand, wide, 1)


@pytest.mark.parametrize("kprime, k, l", [(2, 4, 2), (1, 1, 1)])
def test_all_star_scheme_sends_an_empty_batch(kprime, k, l):
    """S = 0: every user sees all K rounds whole, so no coded row is sent
    and each file comes from the view alone; K = 1 included."""
    scheme = build_scheme(mn_pda(kprime, kprime), k, l)
    assert scheme.pda.s == 0 and compressed_load(scheme) == 0
    lib = library_for_scheme(scheme, packet_bytes=2, seed=1)
    demand = tuple(range(k, 0, -1))
    for width in (None, 16):
        batch = compressed_deliver(lib, scheme, demand, field_width=width)
        assert (batch.m1, batch.m2, batch.blocks, batch.payloads) == (0, 0, 0, ())
        assert batch.coding_matrix.shape == (0, 0) and not batch.coding_matrix.flags.writeable
        for copy in (batch, dataclasses.replace(batch)):
            for user in range(1, k + 1):
                got = compressed_decode(lib, scheme, demand, copy, user)
                assert got == compressed_decode_by_elimination(lib, scheme, demand, copy, user)
                assert got == lib.file_bytes(demand[user - 1])


def _whole_rounds(scheme) -> int:
    """c from the round-1 delivery grid: the columns that hold no integer."""
    grid = scheme.delivery.grid
    return sum(all(row[c] == STAR for row in grid) for c in range(scheme.params.k))


# base array, how many seeded column orders (None: every order), and the
# pinned tally (lifts built, lifts with c = 0, lifts where c is not the lambda
# rule's count) over L = 2..4
REORDERED = {
    "part22": (lambda: partition_pda(2, 2)[0], None, (72, 0, 24)),
    "mn42": (lambda: mn_pda(4, 2), None, (72, 24, 0)),
    "mn52": (lambda: mn_pda(5, 2), 6, (18, 12, 0)),
    "mn53": (lambda: mn_pda(5, 3), 6, (18, 6, 0)),
    "part23": (lambda: partition_pda(2, 3)[0], 6, (15, 4, 3)),
    "part32": (lambda: partition_pda(3, 2)[0], 6, (14, 0, 7)),
}


@pytest.mark.parametrize("name", list(REORDERED))
def test_reordered_columns_code_by_their_whole_rounds(name):
    """Over reorderings of a base array's columns, lifted at K = K' + t(L-1)
    for L = 2..4 where C5 holds: NotApplicable exactly when no round is seen
    whole, and otherwise (K - c)*S coded rows from which every user decodes."""
    make, draws, tally = REORDERED[name]
    base = make()
    cols = list(range(base.cols))
    rng = random.Random(1)
    orders = (itertools.permutations(cols) if draws is None
              else (rng.sample(cols, len(cols)) for _ in range(draws)))
    built = flat = beyond_lambda = 0
    for order in orders:
        p = Pda(rows=base.rows, cols=base.cols, z=base.z, s=base.s,
                entries=tuple(tuple(row[c] for c in order) for row in base.entries))
        for l in (2, 3, 4):
            k = p.cols + p.z * p.cols // p.rows * (l - 1)
            try:
                scheme = build_scheme(p, k, l)
            except C3ViolationInQ:
                continue
            built += 1
            c = _whole_rounds(scheme)
            prof = lambda_profile(p, l)
            beyond_lambda += c != (prof.total if prof.applicable else 0)
            lib = library_for_scheme(scheme, packet_bytes=1, seed=built)
            demand = tuple(range(k, 0, -1))
            if c == 0:
                flat += 1
                with pytest.raises(NotApplicable):
                    compressed_load(scheme)
                with pytest.raises(NotApplicable):
                    compressed_deliver(lib, scheme, demand)
                continue
            batch = compressed_deliver(lib, scheme, demand)
            assert batch.m1 == (k - c) * p.s, (order, l)
            assert compressed_load(scheme) == Fraction(batch.m1, scheme.subpacketization)
            for user in range(1, k + 1):
                assert compressed_decode(lib, scheme, demand, batch, user) == lib.file_bytes(demand[user - 1])
    assert (built, flat, beyond_lambda) == tally


def test_whole_rounds_are_sum_lambda_on_stock_lifts():
    """On the paper's arrays the count from the views is the closed form:
    c = sum(lambda) where the lambda rule applies and 0 where it does not,
    over criterion 7's roster and the design-sweep corners with K <= 14."""
    schemes = [scheme for _, scheme, _ in _roster()]
    for k in range(6, 15):
        for l in range(2, 5):
            for t in range(1, k // l + 1):
                kp = k - t * (l - 1)
                if t < kp and math.comb(kp, t) <= 500:
                    schemes.append(build_scheme(mn_pda(kp, t), k, l))
    applicable = 0
    for scheme in schemes:
        k, prof = scheme.params.k, lambda_profile(scheme.pda, scheme.params.l)
        c = len(full_view_rounds(scheme, 1))
        assert c == (prof.total if prof.applicable else 0), scheme
        if prof.applicable:
            applicable += 1
            want = Fraction(scheme.pda.s, scheme.pda.rows) * Fraction(k - prof.total, k)
            assert compressed_load(scheme) == want
    assert (len(schemes), applicable) == (97, 32)


@pytest.mark.parametrize("width", [8, 16])
def test_delivered_batch_keeps_its_coded_rows(scheme832, monkeypatch, width):
    """compressed_deliver stores the rows it coded and builds no int: its
    payloads, derived on request, are symbols_to_packets of those rows, and
    a dataclasses.replace copy, built from them, decodes the same bytes."""
    lib = library_for_scheme(scheme832, packet_bytes=4, seed=width)
    demand = (2, 7, 7, 1, 8, 3, 5, 2)

    def refuse(*args):
        raise AssertionError("the coded path built int payloads")

    with monkeypatch.context() as m:
        for module in (gf2, compress):
            m.setattr(module, "symbols_to_packets", refuse, raising=False)
            m.setattr(module, "packet_ints", refuse)
        batch = compressed_deliver(lib, scheme832, demand, field_width=width)
        for user in range(1, 9):
            assert compressed_decode(lib, scheme832, demand, batch, user) == lib.file_bytes(demand[user - 1])
    assert "payloads" not in vars(batch)
    rows = batch.symbols
    assert not rows.flags.writeable and rows.shape == (batch.m1, 32 // width)
    assert rows.dtype == gf2.field(width).dtype  # the symbols' own type, not matmul's uint32
    assert batch.payloads == tuple(gf2.symbols_to_packets(rows, 4, width))
    assert batch.payloads is batch.payloads
    assert batch == compressed_deliver_by_ints(lib, scheme832, demand, field_width=width)
    for copy in (dataclasses.replace(batch), dataclasses.replace(batch, payloads=batch.payloads)):
        assert copy == batch and "symbols" not in vars(copy)
        for user in range(1, 9):
            got = compressed_decode(lib, scheme832, demand, copy, user)
            assert got == compressed_decode(lib, scheme832, demand, batch, user)
            assert got == compressed_decode_by_elimination(lib, scheme832, demand, copy, user)
        assert np.array_equal(copy.symbols, rows) and copy.symbols.dtype == rows.dtype


def test_empty_batch_derives_no_payloads():
    scheme = build_scheme(mn_pda(2, 2), 4, 2)
    lib = library_for_scheme(scheme, packet_bytes=2, seed=1)
    for width in (8, 16):
        batch = compressed_deliver(lib, scheme, (4, 3, 2, 1), field_width=width)
        assert batch.symbols.shape == (0, 16 // width) and "payloads" not in vars(batch)
        assert batch.payloads == tuple(gf2.symbols_to_packets(batch.symbols, 2, width)) == ()
