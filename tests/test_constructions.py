"""Binomial and partition array builders against worked examples and sweeps."""

from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macc import (
    STAR,
    MnParams,
    OutOfRange,
    PartitionParams,
    check_c4,
    check_c5,
    mn_pda,
    partition_pda,
    validate_pda,
)
from oracles import BadSubset, lex_rank, lex_unrank

# the worked 4-column array; stars on the diagonal-ish pattern, integers
# are ranks of the 3-subsets
MN_4_2 = (
    (STAR, STAR, 1, 2),
    (STAR, 1, STAR, 3),
    (STAR, 2, 3, STAR),
    (1, STAR, STAR, 4),
    (2, STAR, 4, STAR),
    (3, 4, STAR, STAR),
)


def test_lex_rank_pairs_of_four():
    order = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    for i, sub in enumerate(order, start=1):
        assert lex_rank(sub, 4) == i


def test_lex_rank_edges():
    assert lex_rank((), 5) == 1
    assert lex_rank((1, 2, 3), 3) == 1
    assert lex_rank((3, 4, 5), 5) == comb(5, 3)


def test_lex_rank_rejects_bad_subsets():
    with pytest.raises(BadSubset):
        lex_rank((2, 1), 4)
    with pytest.raises(BadSubset):
        lex_rank((1, 1), 4)
    with pytest.raises(BadSubset):
        lex_rank((0, 2), 4)
    with pytest.raises(BadSubset):
        lex_rank((1, 5), 4)


def test_lex_unrank_inverts_rank():
    for n in range(1, 9):
        for r in range(0, n + 1):
            for i, sub in enumerate(combinations(range(1, n + 1), r), start=1):
                assert lex_rank(sub, n) == i
                assert lex_unrank(i, r, n) == sub


def test_lex_unrank_range_errors():
    with pytest.raises(OutOfRange):
        lex_unrank(0, 2, 4)
    with pytest.raises(OutOfRange):
        lex_unrank(7, 2, 4)
    with pytest.raises(BadSubset):
        lex_unrank(1, 5, 4)


def test_mn_2_1():
    p = mn_pda(2, 1)
    assert p.entries == ((STAR, 1), (1, STAR))
    assert (p.cols, p.rows, p.z, p.s) == (2, 2, 1, 1)


def test_mn_3_2():
    p = mn_pda(3, 2)
    assert p.entries == ((STAR, STAR, 1), (STAR, 1, STAR), (1, STAR, STAR))
    assert (p.cols, p.rows, p.z, p.s) == (3, 3, 2, 1)


def test_mn_4_2_matches_worked_array():
    p = mn_pda(4, 2)
    assert p.entries == MN_4_2
    assert (p.cols, p.rows, p.z, p.s) == (4, 6, 3, 4)
    assert validate_pda(p).ok


def test_mn_degenerate_rows():
    p0 = mn_pda(4, 0)
    assert p0.entries == ((1, 2, 3, 4),)
    assert (p0.z, p0.s) == (0, 4)
    assert validate_pda(p0).ok
    pk = mn_pda(3, 3)
    assert pk.entries == ((STAR, STAR, STAR),)
    assert (pk.z, pk.s) == (1, 0)
    assert validate_pda(pk).ok


def test_mn_params_range():
    with pytest.raises(OutOfRange):
        MnParams(0, 0)
    with pytest.raises(OutOfRange):
        MnParams(4, -1)
    with pytest.raises(OutOfRange):
        MnParams(4, 5)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda k: st.tuples(st.just(k), st.integers(min_value=0, max_value=k))
    )
)
def test_mn_signature_and_validity(kt):
    k_prime, t = kt
    p = mn_pda(k_prime, t)
    assert p.cols == k_prime
    assert p.rows == comb(k_prime, t)
    assert p.z == (comb(k_prime - 1, t - 1) if t else 0)
    assert p.s == comb(k_prime, t + 1)
    assert validate_pda(p).ok
    assert check_c4(p)


def test_mn_window_condition_sweep():
    for k_prime in range(2, 11):
        for t in range(1, k_prime):
            p = mn_pda(k_prime, t)
            for l in range(1, 6):
                assert check_c5(p, l), (k_prime, t, l)


def test_partition_2_2_grid_and_labels():
    p, labels = partition_pda(2, 2)
    assert (p.cols, p.rows, p.z, p.s) == (4, 2, 1, 2)
    assert p.entries == ((STAR, 1, STAR, 2), (2, STAR, 1, STAR))
    assert labels == ((2, 1), (1, 2))
    assert validate_pda(p).ok


def test_partition_3_2_signature():
    p, labels = partition_pda(3, 2)
    assert (p.cols, p.rows, p.z, p.s) == (6, 4, 2, 4)
    assert len(labels) == 4
    assert validate_pda(p).ok
    assert check_c4(p)
    # every row carries m = 3 stars
    assert all(sum(1 for v in row if v == STAR) == 3 for row in p.entries)


def test_partition_labels_are_off_row_vectors():
    p, labels = partition_pda(2, 3)
    # each label must differ from every checksum row (it is off-row) and
    # appear exactly where the construction says
    rows = set()
    for f1 in range(1, 4):
        rows.add((f1, (f1 - 1) % 3 + 1))
    for e in labels:
        assert e not in rows
    assert len(set(labels)) == p.s


def test_partition_signature_formula():
    for m in range(2, 5):
        for q in range(2, 5):
            p, labels = partition_pda(m, q)
            assert p.cols == m * q
            assert p.rows == q ** (m - 1)
            assert p.z == q ** (m - 2)
            assert p.s == (q - 1) * q ** (m - 1)
            assert len(labels) == p.s
            assert validate_pda(p).ok


def test_partition_window_condition_sweep():
    for m in range(2, 5):
        for q in range(2, 5):
            p, _ = partition_pda(m, q)
            assert check_c4(p)
            for l in range(1, 6):
                assert check_c5(p, l), (m, q, l)


def test_partition_params_range():
    with pytest.raises(OutOfRange):
        PartitionParams(1, 2)
    with pytest.raises(OutOfRange):
        PartitionParams(2, 1)
