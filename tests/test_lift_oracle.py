"""build_scheme against the step-by-step lift of tests/oracles.py."""

from hypothesis import given, settings
from hypothesis import strategies as st

from macc import STAR, MultiaccessParams, Pda, build_scheme, mn_pda, partition_pda
from oracles import build_scheme_by_steps


def lift(p, k, l):
    """The params and the two round-1 grids build_scheme derives."""
    scheme = build_scheme(p, k, l)
    return scheme.params, scheme.placement, scheme.delivery


def outcome(build, p, k, l):
    """The params and grids built, or the type and text of what the build raised."""
    try:
        return build(p, k, l)
    except Exception as e:  # noqa: BLE001 - the comparison is the point
        return type(e), str(e)


def assert_same_lift(p, k, l):
    got = outcome(lift, p, k, l)
    assert got == outcome(build_scheme_by_steps, p, k, l), (p, k, l)
    return isinstance(got[0], MultiaccessParams)


def fitting_ks(p, l):
    """The K that fits the array at access degree l, and one past it."""
    k = p.cols + p.z * p.cols // p.rows * (l - 1)
    return (k, k + 1)


def test_stock_families_match_the_step_by_step_lift():
    arrays = [mn_pda(kp, t) for kp in range(1, 9) for t in range(kp + 1)]
    arrays += [partition_pda(m, q)[0] for m in (2, 3) for q in (2, 3)]
    built = 0
    for p in arrays:
        for l in range(1, 5):
            for k in fitting_ks(p, l):
                built += assert_same_lift(p, k, l)
    assert built > len(arrays)


@st.composite
def c4_arrays(draw):
    """Small arrays with t stars in every row, Z = tF'/K' an integer, and
    their integers renumbered to [1, S] so that C2 holds."""
    cols = draw(st.integers(1, 5))
    t = draw(st.integers(0, cols))
    rows = draw(st.integers(1, 6).filter(lambda r: r * t % cols == 0))
    values = st.integers(1, draw(st.integers(1, 12)))
    grid = []
    for _ in range(rows):
        stars = draw(st.sets(st.integers(0, cols - 1), min_size=t, max_size=t))
        grid.append([STAR if c in stars else draw(values) for c in range(cols)])
    rank = {v: i for i, v in enumerate(sorted({v for row in grid for v in row} - {STAR}), 1)}
    entries = tuple(tuple(rank.get(v, STAR) for v in row) for row in grid)
    return Pda(rows=rows, cols=cols, entries=entries, z=rows * t // cols, s=len(rank))


@settings(max_examples=100, deadline=None)
@given(p=c4_arrays(), l=st.integers(1, 4), extra=st.booleans())
def test_drawn_c4_arrays_match_the_step_by_step_lift(p, l, extra):
    assert_same_lift(p, fitting_ks(p, l)[extra], l)
