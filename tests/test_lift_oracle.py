"""build_scheme against the step-by-step lift of tests/oracles.py."""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import c4_arrays
from macc import MultiaccessParams, RoundArray, build_scheme, mn_pda, partition_pda
from oracles import build_scheme_by_steps, json_placement


def lift(p, k, l):
    """The params and the two round-1 grids of the built scheme: the
    placement read back from its JSON form, the delivery grid q(1)."""
    scheme = build_scheme(p, k, l)
    return scheme.params, RoundArray(round=1, grid=json_placement(scheme)), scheme.delivery


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


@settings(max_examples=100, deadline=None)
@given(p=c4_arrays(), l=st.integers(1, 4), extra=st.booleans())
def test_drawn_c4_arrays_match_the_step_by_step_lift(p, l, extra):
    assert_same_lift(p, fitting_ks(p, l)[extra], l)
