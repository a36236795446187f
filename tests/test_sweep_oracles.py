"""The design-sweep fast paths against the cell-by-cell references in tests/oracles.py.

Results are compared by repr, so that a value of another type (an int for a
Fraction, False for the star 0) fails even where == would hold; raised errors
are compared by type and text.
"""

from fractions import Fraction as F
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macc import (STAR, OutOfRange, Pda, comparison_table, envelope_eval, gap_checks, mn_pda,
                  scheme_curve)
from macc import rates
from macc.rates import SCHEME_KEYS, converse_step
from oracles import (
    comparison_table_by_scan,
    constituents,
    envelope_eval_by_scan,
    expand_by_generator,
    gap_checks_by_scan,
    lift_by_walk,
    mn_pda_by_lex_rank,
)

SCHEME_LISTS = (["hkd", "rk", "sr", "t1", "conv"], ["conv"], ["t1", "t1"], ["t1", "nope"])
# The scan builds its curves afresh and spends four Fraction operations on each
# cell, so K 1..24 at every step would take seconds. The coarse steps run on
# six K from 1 to 24; the finest on two: K = 12 puts a corner on every 50th grid
# point, K = 7 puts none on the grid.
KS_BY_STEP = {F(1, 600): (7, 12)} | {
    step: (1, 4, 7, 12, 13, 24) for step in (F(1, 20), F(1, 7), F(2, 9), F(1), F(5, 3))
}


def outcome(fn, *args):
    """repr of what fn returned, or the type and text of what it raised."""
    try:
        return repr(fn(*args))
    except Exception as e:  # noqa: BLE001 - the comparison is the point
        return type(e), str(e)


def test_comparison_table_matches_the_scan():
    for step, ks in KS_BY_STEP.items():
        for k in ks:
            for l in range(1, 6):
                for schemes in SCHEME_LISTS:
                    args = (k, l, schemes, step)
                    assert outcome(comparison_table, *args) == outcome(
                        comparison_table_by_scan, *args
                    ), args


def test_comparison_table_errors_match_the_scan():
    for args in [(8, 3, ["t1"], 0), (8, 3, ["t1"], F(-1, 4)), (8, 3, ["rk", "bogus"], F(1, 9)),
                 (0, 3, ["t1"], F(1, 9)), (8, 0, ["hkd"], F(1, 9)), (0, 1, ["conv"], F(1, 2))]:
        assert outcome(comparison_table, *args) == outcome(comparison_table_by_scan, *args), args
    with pytest.raises(OutOfRange, match="unknown scheme 'bogus'"):
        comparison_table(8, 3, ["rk", "bogus"], F(1, 9))
    with pytest.raises(OutOfRange, match=r"^k=8, l=0 must be >= 1$"):  # the scan divides by l
        comparison_table(8, 0, ["conv"], F(1, 9))


def test_comparison_table_computes_the_converse_once_per_corner(monkeypatch):
    """The grid rows of one corner t = max(1, ceil(xK)) share one converse_step call."""
    corners = []

    def counted(k, l, x):
        corners.append(max(1, ceil(x * k)))
        return converse_step(k, l, x)

    monkeypatch.setattr(rates, "converse_step", counted)
    for args in [(0, 1, F(1, 2)), (1, 3, F(1, 7)), (7, 2, F(1, 600)), (12, 3, F(1, 20)),
                 (13, 4, F(2, 9))]:
        corners.clear()
        comparison_table(args[0], args[1], ["conv"], args[2])
        assert len(corners) == len(set(corners)), args


def test_envelope_eval_matches_the_scan():
    """Every corner and segment midpoint, past the last corner and below the first."""
    for k in range(1, 13):
        for l in range(1, 5):
            for name in SCHEME_KEYS:
                curve = scheme_curve(k, l, name)
                pts = curve.points
                xs = [p.ratio for p in pts] + [(a.ratio + b.ratio) / 2 for a, b in zip(pts, pts[1:])]
                xs += [pts[-1].ratio + F(1, 3), 1, pts[0].ratio - F(1, 5)]
                for x in xs:
                    args = (curve, x)
                    assert outcome(envelope_eval, *args) == outcome(envelope_eval_by_scan, *args), (
                        k, l, name, x
                    )


def test_gap_checks_matches_the_scan():
    for k in range(1, 25):
        for l in range(1, 6):
            assert outcome(gap_checks, k, l) == outcome(gap_checks_by_scan, k, l), (k, l)


def test_mn_pda_matches_lex_rank_per_cell():
    for kp in range(1, 11):
        for t in range(kp + 1):
            assert repr(mn_pda(kp, t)) == repr(mn_pda_by_lex_rank(kp, t)), (kp, t)
    for args in [(0, 0), (3, 4), (3, -1)]:
        assert outcome(mn_pda, *args) == outcome(mn_pda_by_lex_rank, *args)


@st.composite
def arrays(draw):
    """Arrays of any shape with stars anywhere; lift_by_walk reads only the entries, so Z is 0."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    s = draw(st.integers(0, 9))
    cell = st.integers(0, s)
    entries = tuple(tuple(draw(cell) for _ in range(cols)) for _ in range(rows))
    return Pda(rows=rows, cols=cols, entries=entries, z=0, s=s)


@settings(max_examples=60, deadline=None)
@given(p=arrays(), l=st.integers(1, 5))
def test_expand_matches_the_generator(p, l):
    """lift_by_walk's placement and delivery grids are the two star
    expansions, and its cells are the delivery grid's constituents."""
    placement, delivery, cells = lift_by_walk(p, l)
    cached_last = (False,) * (l - 1) + (True,)
    assert repr(placement) == repr(expand_by_generator(p, cached_last, lambda v: False))
    assert repr(delivery) == repr(expand_by_generator(p, (STAR,) * l, lambda v: v))
    assert repr(cells) == repr(constituents(delivery))
