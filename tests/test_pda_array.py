"""A Pda's cells as one validated array, and the array-built producers
against the walks in tests/oracles.py."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macc import (STAR, ConditionViolation, MalformedPda, OutOfRange, ParseError, Pda, build_scheme,
                  mn_pda, parse_pda, parse_pda_with_map, partition_pda, serialize_pda, validate_pda)
from macc import pda
from macc.pda import MAX_LISTED, _absent, _integer_cells
from oracles import mn_pda_by_lex_rank, partition_pda_by_walk


def peak_bytes(fn) -> int:
    """Peak traced allocation while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_array_is_the_entries_validated_once():
    p = Pda(rows=2, cols=3, entries=((STAR, 1, 2), (3, STAR, 1)), z=1, s=3)
    assert p.array.dtype == np.int64
    assert p.array.tolist() == [list(row) for row in p.entries]
    assert not p.array.flags.writeable
    assert "array" not in repr(p)
    copy = dataclasses.replace(p)
    assert copy == p and hash(copy) == hash(p) and copy.array is not p.array


@pytest.mark.parametrize("args, text", [
    ((0, 1, (), 0, 0), "need at least one row and column, got 0x1"),
    ((1, 0, ((),), 0, 0), "need at least one row and column, got 1x0"),
    ((1, 1, ((1,),), -1, 1), "Z=-1 outside [0, 1]"),
    ((1, 1, ((STAR,),), 0, -1), "S=-1 negative"),
    ((1, 2, ((1, -1),), 0, 2), "cell value -1 outside star/[1, 2]"),
    ((2, 2, ((STAR, STAR), (STAR,)), 0, 0), "row 2 is not a tuple of 2 cells"),
])
def test_one_past_each_bound_is_malformed(args, text):
    with pytest.raises(MalformedPda, match=f"^{re.escape(text)}$"):
        Pda(*args)


def test_cells_beyond_int64_are_malformed_at_once():
    def build():
        with pytest.raises(MalformedPda, match=r"^cell value 1180591620717411303424 beyond int64$"):
            Pda(rows=1, cols=2, entries=((2**70, 0),), z=1, s=2**70)

    assert peak_bytes(build) < 2**20
    # The int64 range itself is kept, and a fault in the old sense names itself first.
    assert Pda(rows=1, cols=1, entries=((2**63 - 1,),), z=0, s=2**63).array[0, 0] == 2**63 - 1
    with pytest.raises(MalformedPda, match=r"cell value 1\.5 outside star"):
        Pda(rows=1, cols=2, entries=((2**70, 1.5),), z=0, s=2**70)
    with pytest.raises(MalformedPda, match=r"cell value -1180591620717411303424 outside star"):
        Pda(rows=1, cols=2, entries=((-2**70, 1),), z=0, s=2**70)


@pytest.mark.parametrize("s", [10**12, 2**70])
def test_c2_of_a_huge_s_needs_no_s_long_array(s):
    """The first absent integer comes at a cost bounded by the cell count; only
    the exhaustive report lists every absent integer."""
    p = Pda(rows=1, cols=1, entries=((1,),), z=0, s=s)

    def check():
        assert validate_pda(p).c2_counterexamples == ((2,),)
        with pytest.raises(ConditionViolation, match=rf"^C2: integer 2 of \[1, {s}\] never occurs$"):
            build_scheme(p, 1, 1)

    assert peak_bytes(check) < 2**20


@pytest.mark.parametrize("s", [10**12, 2**63 - 1, 2**63, 2**70])
def test_exhaustive_c2_of_a_huge_s_is_out_of_range(s):
    """An exhaustive report cannot list every absent integer of a huge S: it
    raises at once, while the default report still names the least."""
    p = Pda(rows=1, cols=1, entries=((1,),), z=0, s=s)

    def check():
        with pytest.raises(OutOfRange, match=rf"^S={s} leaves {s - 1} integers absent, more "
                                             rf"than the {MAX_LISTED} an exhaustive report lists$"):
            validate_pda(p, exhaustive=True)
        assert validate_pda(p).c2_counterexamples == ((2,),)

    assert peak_bytes(check) < 2**20


def test_exhaustive_c2_lists_up_to_its_limit(monkeypatch):
    """The limit counts absent integers, not S; patched down to 3 here."""
    monkeypatch.setattr(pda, "MAX_LISTED", 3)
    p = Pda(rows=1, cols=2, entries=((2, 2),), z=0, s=4)
    assert validate_pda(p, exhaustive=True).c2_counterexamples == ((1,), (3,), (4,))
    with pytest.raises(OutOfRange, match=r"^S=5 leaves 4 integers absent, more than the 3 "):
        validate_pda(dataclasses.replace(p, s=5), exhaustive=True)


@pytest.mark.parametrize("text, error", [
    ("1 2\n1", "header needs 4 integers (K' F' Z S), got '1 2'"),
    ("a b c d\n1", "bad header 'a b c d'"),
    ("3 1 0 1\n1 *", "row 1 has 2 tokens, expected 3"),
    ("1 2 0 1\n1\n1 1", "row 2 has 2 tokens, expected 1"),
    ("2 2 0 3\n1 2\n3 x\n", "row 2: bad token 'x'"),
    ("2 2 0 3\n1 2\n5 *\n", "row 2: value 5 outside [1, 3]"),
    ("2 2 0 3\n1 x\n5 *\n", "row 1: bad token 'x'"),  # the first faulty cell, row-major
    ("1 2 0 1\nx\n1 1", "row 1: bad token 'x'"),  # a row before the short row comes first
    ("1 1 2 1\n1", "inconsistent header '1 1 2 1': Z=2 outside [0, 1]"),
    ("0 0 0 0\n", "inconsistent header '0 0 0 0': need at least one row and column, got 0x0"),
    ("3 0 0 0\n", "inconsistent header '3 0 0 0': need at least one row and column, got 0x3"),
    ("-2 0 0 0\n", "inconsistent header '-2 0 0 0': need at least one row and column, got 0x-2"),
    ("0 1 0 0\n1", "row 1 has 1 tokens, expected 0"),
])
def test_parse_errors_name_their_line(text, error):
    with pytest.raises(ParseError, match=f"^{re.escape(error)}$"):
        parse_pda(text)


@st.composite
def arrays(draw):
    """Arrays of any shape, stars anywhere, S up to twice the cell count."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    top = draw(st.integers(0, 9))
    entries = tuple(tuple(draw(st.integers(0, top)) for _ in range(cols)) for _ in range(rows))
    s = draw(st.integers(top, max(top, 2 * rows * cols)))
    return Pda(rows=rows, cols=cols, entries=entries, z=0, s=s)


@settings(max_examples=300, deadline=None)
@given(p=arrays())
def test_first_absent_is_the_least_absent_integer(p):
    """_absent lists, as ints, every integer of [1, S] that no cell holds
    when exhaustive, else only the least of them."""
    absent = sorted(set(range(1, p.s + 1)) - set(p.array.ravel().tolist()))
    values = _integer_cells(p.array)[2]
    assert repr(_absent(values, p.s, exhaustive=True)) == repr(absent)
    assert repr(_absent(values, p.s)) == repr(absent[:1])


def test_mn_pda_is_the_lex_rank_walk():
    for kp in range(1, 15):
        for t in range(kp + 1):
            assert mn_pda(kp, t) == mn_pda_by_lex_rank(kp, t), (kp, t)


def test_mn_pda_near_all_stars_needs_no_wide_binomial():
    """Every rank term is at most C(K' - 1, t), under the cell cap, so t near
    K' overflows no int64 (C(69, 34) would), and t = K', one all-star row,
    builds no binomial table at all."""
    for kp, t in ((70, 68), (100, 99)):
        assert mn_pda(kp, t) == mn_pda_by_lex_rank(kp, t), (kp, t)
    p = mn_pda(10**6, 10**6)
    assert (p.rows, p.cols, p.z, p.s) == (1, 10**6, 1, 0) and not p.array.any()
    assert peak_bytes(lambda: mn_pda(10**6, 10**6)) < 2**26  # a few copies of the 8 MB row


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_partition_pda_is_the_walk(m, q):
    (p, labels), (want, want_labels) = partition_pda(m, q), partition_pda_by_walk(m, q)
    assert np.array_equal(p.array, want.array)
    assert repr(p) == repr(want)
    assert repr(labels) == repr(want_labels)


def built_the_public_way(p: Pda) -> None:
    """p, handed its array by a producer, is the Pda the constructor builds from p's entries."""
    want = Pda(p.rows, p.cols, p.entries, p.z, p.s)
    assert repr(p) == repr(want)  # an np.int64 cell or a list row would show here
    assert p == want and hash(p) == hash(want)
    assert p.array.dtype == np.int64 and p.array.shape == want.array.shape
    assert p.array.tobytes() == want.array.tobytes()
    assert not p.array.flags.writeable


STOCK_HANDED = [mn_pda(kp, t) for kp in range(1, 11) for t in range(kp + 1)] + [
    partition_pda(m, q)[0] for m in range(2, 5) for q in range(2, 5) if q ** (m - 1) <= 64
]


def gapped(p: Pda) -> str:
    """p's text with every integer tripled and S raised past them, so parsing renumbers."""
    rows = (" ".join("*" if v == STAR else str(3 * v) for v in row) for row in p.entries)
    return "\n".join([f"{p.cols} {p.rows} {p.z} {3 * p.s + 2}", *rows]) + "\n"


def test_producers_hand_over_what_the_constructor_builds():
    for p in STOCK_HANDED:
        built_the_public_way(p)
        for text in (serialize_pda(p), gapped(p)):
            parsed, relabel = parse_pda_with_map(text)
            built_the_public_way(parsed)
            assert parsed == p and (relabel is None) == (text == serialize_pda(p))


@pytest.mark.parametrize("a, z, s, text", [
    (np.array([[0, 1]], np.int32), 0, 1, "cells are not a 2-d int64 array"),
    (np.array([0, 1], np.int64), 0, 1, "cells are not a 2-d int64 array"),
    ([[0, 1]], 0, 1, "cells are not a 2-d int64 array"),
    (np.zeros((0, 2), np.int64), 0, 0, "need at least one row and column, got 0x2"),
    (np.array([[0, -1]], np.int64), 1, 1, "cell value -1 outside star/[1, 1]"),
    (np.array([[0, 2]], np.int64), 1, 1, "cell value 2 outside star/[1, 1]"),
    (np.array([[0, 1]], np.int64), -1, 1, "Z=-1 outside [0, 1]"),
    (np.array([[0, 1]], np.int64), 2, 1, "Z=2 outside [0, 1]"),
    (np.array([[0, 1]], np.int64), 1, -1, "S=-1 negative"),
    (np.array([[0, 1]], np.int64), True, 1, "z=True is not an integer"),
])
def test_handover_rejects_what_the_constructor_rejects(a, z, s, text):
    with pytest.raises(MalformedPda, match=f"^{re.escape(text)}$"):
        Pda._of(a, z, s)


def test_handover_keeps_the_bounds():
    """The cells at 0 and at S, and Z at 0 and at F', are kept."""
    p = Pda._of(np.array([[0, 3], [2, 0]], np.int64), 2, 3)
    assert p.at(1, 2) == 3 and p.z == 2 and not p.array.flags.writeable
    assert Pda._of(np.array([[1]], np.int64), 0, 1) == Pda(1, 1, ((1,),), 0, 1)
