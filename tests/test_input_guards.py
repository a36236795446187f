"""Inputs at the edges of their range: each meets a MaccError or costs no more than it needs."""

import tracemalloc

import pytest

from macc import (
    DuplicateRatio,
    MaccError,
    OutOfRange,
    Pda,
    build_scheme,
    check_c5,
    envelope,
    node_placement,
    r_hkd,
)


def test_duplicate_ratio_is_a_macc_error():
    with pytest.raises(DuplicateRatio, match="duplicate memory ratio 1/2") as info:
        envelope([(0, 3), ("1/2", 1), ("1/2", 2)])
    assert isinstance(info.value, MaccError)
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("l", [0, -1])
def test_r_hkd_rejects_access_degree_below_one(l):
    with pytest.raises(OutOfRange, match=f"l={l} must be >= 1"):
        r_hkd(6, l, 1)


def test_starless_lift_builds_no_star_cells():
    """A starless array lifts at any L; its grids need no L-long run of cells."""
    p = Pda(rows=1, cols=2, entries=((1, 2),), z=0, s=2)
    l = 10**6
    tracemalloc.start()
    try:
        scheme = build_scheme(p, 2, l)
        assert check_c5(p, l)
        assert node_placement(p, 2, l) == scheme.placement
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert scheme.delivery.grid == ((1, 2),)
    assert scheme.retrieve.grid == ((False, False),)
