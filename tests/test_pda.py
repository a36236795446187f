"""Core array type, the C1-C3/C4/C5 checks and the text format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macc import (
    STAR,
    C4Violation,
    OutOfRange,
    ParseError,
    Pda,
    check_c4,
    check_c5,
    mn_pda,
    parse_pda,
    parse_pda_with_map,
    serialize_pda,
    star_profile,
    validate_pda,
)
from oracles import check_c5_by_windows, retrieve_window

from conftest import PNEG_ROWS


def small_valid() -> Pda:
    # 2x2 with one star per column; the classic smallest nontrivial array
    return Pda(rows=2, cols=2, entries=((STAR, 1), (1, STAR)), z=1, s=1)


def test_validate_accepts_small_array():
    rep = validate_pda(small_valid())
    assert rep.ok
    assert rep.c1_counterexamples == ()
    assert rep.c2_counterexamples == ()
    assert rep.c3_counterexamples == ()


def test_at_is_one_based():
    p = small_valid()
    assert p.at(1, 1) == STAR
    assert p.at(1, 2) == 1
    assert p.at(2, 1) == 1


def test_constructor_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Pda(rows=0, cols=1, entries=(), z=0, s=0)
    with pytest.raises(ValueError):
        Pda(rows=1, cols=2, entries=((STAR,),), z=1, s=0)
    with pytest.raises(ValueError):
        Pda(rows=1, cols=1, entries=((5,),), z=0, s=1)  # value above S
    with pytest.raises(ValueError):
        Pda(rows=1, cols=1, entries=((STAR,),), z=2, s=0)  # Z above F'


def test_c1_counterexample_reports_column_and_count():
    # with Z=1, column 1 carries two stars and column 2 none
    p = Pda(rows=2, cols=2, entries=((STAR, 1), (STAR, 1)), z=1, s=1)
    rep = validate_pda(p)
    assert not rep.c1_ok
    assert rep.c1_counterexamples[0] == (1, 2)
    rep = validate_pda(p, exhaustive=True)
    assert rep.c1_counterexamples == ((1, 2), (2, 0))


def test_c2_counterexample_reports_missing_value():
    p = Pda(rows=2, cols=2, entries=((STAR, 1), (1, STAR)), z=1, s=2)
    rep = validate_pda(p)
    assert rep.c1_ok
    assert not rep.c2_ok
    assert rep.c2_counterexamples == ((2,),)


def test_c3_same_row_pair_is_first_counterexample():
    # value 1 repeats inside row 1 at columns 3 and 4
    p = Pda(
        rows=2,
        cols=4,
        entries=((STAR, STAR, 1, 1), (1, 2, STAR, STAR)),
        z=1,
        s=2,
    )
    rep = validate_pda(p)
    assert not rep.c3_ok
    assert rep.c3_counterexamples[0] == ((1, 3), (1, 4))


def test_c3_crossing_must_be_starred():
    # 1 at (1,2) and (2,1): the crossing cell (2,2) is an integer, not a star
    p = Pda(
        rows=2,
        cols=2,
        entries=((STAR, 1), (1, 2)),
        z=1,
        s=2,
    )
    rep = validate_pda(p)
    assert not rep.c3_ok
    assert rep.c3_counterexamples[0] == ((1, 2), (2, 1))


def test_exhaustive_collects_every_counterexample():
    p = Pda(
        rows=2,
        cols=4,
        entries=((STAR, STAR, 1, 1), (1, 2, STAR, STAR)),
        z=1,
        s=2,
    )
    rep = validate_pda(p, exhaustive=True)
    assert rep.exhaustive
    # pairs of the three 1-cells: (1,3)-(1,4) same row, and the crossing
    # checks of (1,3)-(2,1) and (1,4)-(2,1)
    assert ((1, 3), (1, 4)) in rep.c3_counterexamples
    assert len(rep.c3_counterexamples) >= 1


def test_star_profile_extremes():
    p = mn_pda(4, 2)
    prof = star_profile(p)
    assert prof.t == 2
    assert prof.star_sets[0] == (1, 2)
    assert prof.a == (1, 2)
    assert prof.b == (3, 4)


def test_star_profile_all_star_grid():
    p = Pda(rows=2, cols=2, entries=((STAR, STAR), (STAR, STAR)), z=2, s=0)
    prof = star_profile(p)
    assert prof.t == 2
    assert prof.a == (1, 2) and prof.b == (1, 2)


def test_star_profile_rejects_ragged_star_counts():
    p = Pda(rows=2, cols=2, entries=((STAR, STAR), (1, STAR)), z=1, s=1)
    with pytest.raises(C4Violation, match=r"C4: row star counts differ: \[1, 2\]"):
        star_profile(p)


def test_check_c4():
    assert check_c4(mn_pda(4, 2))
    ragged = Pda(rows=2, cols=2, entries=((STAR, STAR), (1, STAR)), z=1, s=1)
    assert not check_c4(ragged)
    # star total not divisible by the row count
    p = Pda(rows=2, cols=3, entries=((STAR, 1, 2), (1, STAR, STAR)), z=1, s=2)
    assert not check_c4(p)


def test_retrieve_window():
    # base stars (1, 2) at degree 3 spread to the first two user blocks
    assert retrieve_window((1, 2), 3) == frozenset(range(1, 7))
    assert retrieve_window((2, 5), 1) == frozenset({2, 5})
    assert retrieve_window((1,), 4) == frozenset({1, 2, 3, 4})


@st.composite
def c4_arrays(draw):
    """Arrays of 1..6 rows and columns with a uniform per-row star count."""
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=6))
    z = draw(st.sampled_from([z for z in range(rows + 1) if cols * z % rows == 0]))
    t = cols * z // rows
    s = draw(st.integers(min_value=1, max_value=8))
    entries = []
    for _ in range(rows):
        stars = draw(st.permutations(range(cols)))[:t]
        entries.append(tuple(
            STAR if c in stars else draw(st.integers(min_value=1, max_value=s))
            for c in range(cols)
        ))
    return Pda(rows=rows, cols=cols, entries=tuple(entries), z=z, s=s)


@settings(max_examples=400, deadline=None)
@given(c4_arrays(), st.integers(min_value=1, max_value=4))
def test_c5_matches_window_reference(p, l):
    assert check_c5(p, l) == check_c5_by_windows(p, l)


def test_c5_at_degree_one_is_plain_crossing():
    for k_prime, t in [(3, 1), (4, 2), (5, 2), (6, 3)]:
        assert check_c5(mn_pda(k_prime, t), 1)


def test_c5_needs_uniform_stars():
    ragged = Pda(rows=2, cols=2, entries=((STAR, STAR), (1, STAR)), z=1, s=1)
    with pytest.raises(C4Violation):
        check_c5(ragged, 2)
    with pytest.raises(OutOfRange):
        check_c5(mn_pda(3, 1), 0)


def test_c5_negative_instance(pneg):
    rep = validate_pda(pneg)
    assert rep.ok, "the instance must be a valid array"
    assert check_c4(pneg)
    assert check_c5(pneg, 1)
    assert not check_c5(pneg, 2)


def test_serialize_header_and_tokens():
    txt = serialize_pda(small_valid())
    assert txt == "2 2 1 1\n* 1\n1 *\n"


def test_parse_round_trip():
    for p in [small_valid(), mn_pda(4, 2), mn_pda(5, 2), Pda(5, 5, PNEG_ROWS, 2, 14)]:
        q, relabel = parse_pda_with_map(serialize_pda(p))
        assert q == p
        assert relabel is None


def test_parse_renumbers_gapped_alphabet():
    txt = "2 2 1 5\n* 2\n5 *\n"
    p, relabel = parse_pda_with_map(txt)
    assert relabel == {2: 1, 5: 2}
    assert p.s == 2
    assert p.entries == ((STAR, 1), (2, STAR))


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_pda("")
    with pytest.raises(ParseError):
        parse_pda("   \n  \n")
    with pytest.raises(ParseError):
        parse_pda("2 2 1\n* 1\n1 *\n")  # short header
    with pytest.raises(ParseError):
        parse_pda("2 2 1 1\n* 1\n")  # missing row
    with pytest.raises(ParseError):
        parse_pda("2 2 1 1\n* 1 1\n1 *\n")  # wide row
    with pytest.raises(ParseError):
        parse_pda("2 2 1 1\n* x\n1 *\n")  # bad token
    with pytest.raises(ParseError):
        parse_pda("2 2 1 1\n* 9\n1 *\n")  # value above declared S
    with pytest.raises(ParseError, match="need at least one row"):
        parse_pda("0 0 0 0\n")  # no rows and no columns


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=7).flatmap(
        lambda k: st.tuples(st.just(k), st.integers(min_value=0, max_value=k))
    )
)
def test_text_round_trip_property(kt):
    k_prime, t = kt
    p = mn_pda(k_prime, t)
    assert parse_pda(serialize_pda(p)) == p
