"""Cyclic multiaccess lift: the placement and delivery grids and their rounds."""

import dataclasses
import json

import pytest

from macc import (
    STAR,
    C3ViolationInQ,
    C4Violation,
    ConditionViolation,
    DimensionMismatch,
    MultiaccessParams,
    OutOfRange,
    ParseError,
    Pda,
    build_scheme,
    mn_pda,
    partition_pda,
    scheme_from_json,
    scheme_to_json,
)
from macc.transform import RoundArray
from macc.util import mod1
from oracles import (
    delivery_fill_maps,
    node_placement,
    shift_grid,
    star_sets,
    user_delivery,
    user_retrieve,
)

# Worked (8, 3, 2) goldens: star columns per row of the first two rounds'
# placement and retrieve grids, the first two delivery grids, and the
# null-to-source-column maps.
C1_STARS = [(3, 6), (3, 7), (3, 8), (4, 7), (4, 8), (5, 8)]
C2_STARS = [(4, 7), (4, 8), (1, 4), (5, 8), (1, 5), (1, 6)]
U1_STARS = [
    (1, 2, 3, 4, 5, 6),
    (1, 2, 3, 5, 6, 7),
    (1, 2, 3, 6, 7, 8),
    (2, 3, 4, 5, 6, 7),
    (2, 3, 4, 6, 7, 8),
    (3, 4, 5, 6, 7, 8),
]
U2_STARS = [
    (2, 3, 4, 5, 6, 7),
    (2, 3, 4, 6, 7, 8),
    (1, 2, 3, 4, 7, 8),
    (3, 4, 5, 6, 7, 8),
    (1, 3, 4, 5, 7, 8),
    (1, 4, 5, 6, 7, 8),
]
Q1_GRID = [
    [0, 0, 0, 0, 0, 0, 1, 2],
    [0, 0, 0, 1, 0, 0, 0, 3],
    [0, 0, 0, 2, 3, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, 0, 4],
    [2, 0, 0, 0, 4, 0, 0, 0],
    [3, 4, 0, 0, 0, 0, 0, 0],
]
Q2_GRID = [
    [2, 0, 0, 0, 0, 0, 0, 1],
    [3, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 2, 3, 0, 0],
    [4, 1, 0, 0, 0, 0, 0, 0],
    [0, 2, 0, 0, 0, 4, 0, 0],
    [0, 3, 4, 0, 0, 0, 0, 0],
]
FILL_MAPS = (
    ((7, 3), (8, 4)),
    ((4, 2), (8, 4)),
    ((4, 2), (5, 3)),
    ((1, 1), (8, 4)),
    ((1, 1), (5, 3)),
    ((1, 1), (2, 2)),
)


def test_worked_832_round_one_and_two(scheme832):
    c1, q1 = scheme832.placement.grid, scheme832.delivery.grid
    assert star_sets(c1) == C1_STARS
    assert star_sets(shift_grid(c1, 2)) == C2_STARS
    assert star_sets(q1, STAR) == U1_STARS
    assert star_sets(shift_grid(q1, 2), STAR) == U2_STARS
    assert [list(r) for r in q1] == Q1_GRID
    assert [list(r) for r in shift_grid(q1, 2)] == Q2_GRID


def test_worked_832_fill_maps():
    p = mn_pda(4, 2)
    c = node_placement(p, 8, 3)
    u = user_retrieve(c, 3)
    assert delivery_fill_maps(p, u) == FILL_MAPS


def test_worked_832_figures(scheme832):
    s = scheme832
    assert s.params.k_prime == 4
    assert s.subpacketization == 48
    assert str(s.load) == "2/3"
    assert str(s.memory_ratio) == "1/4"


def test_small_531_instance():
    # hand-derived lift of the 3-column array at K=5, L=3
    s = build_scheme(mn_pda(3, 1), 5, 3)
    assert star_sets(s.placement.grid) == [(3,), (4,), (5,)]
    assert star_sets(s.delivery.grid, STAR) == [(1, 2, 3), (2, 3, 4), (3, 4, 5)]
    assert [list(r) for r in s.delivery.grid] == [
        [0, 0, 0, 1, 2],
        [1, 0, 0, 0, 3],
        [2, 3, 0, 0, 0],
    ]
    assert str(s.load) == "1"
    assert str(s.memory_ratio) == "1/5"


def test_rounds_are_cyclic_shifts(scheme832):
    s = scheme832
    k = s.params.k
    c1, q1 = s.placement.grid, s.delivery.grid
    for g in range(1, k + 1):
        for base, got in ((c1, shift_grid(c1, g)), (q1, s.q(g).grid)):
            for j in range(len(base)):
                for c in range(1, k + 1):
                    assert got[j][c - 1] == base[j][mod1(c - (g - 1), k) - 1]


def test_q_is_the_shifted_delivery_grid():
    arrays = [mn_pda(kp, t) for kp in range(1, 7) for t in range(kp + 1)]
    arrays += [partition_pda(m, q)[0] for m in (2, 3) for q in (2, 3)]
    for p in arrays:
        for l in (1, 2, 3):
            s = build_scheme(p, p.cols + p.z * p.cols // p.rows * (l - 1), l)
            for g in range(1, s.params.k + 1):
                assert s.q(g) == RoundArray(round=g, grid=shift_grid(s.delivery.grid, g))


def test_q_rejects_bad_rounds(scheme832):
    for g in (0, -1, 9, 1.5, 2.0, "2", True, False, None):
        with pytest.raises(OutOfRange, match=r"outside \[1, 8\]"):
            scheme832.q(g)


def test_placement_gap_at_least_l():
    for k_prime, t, l in [(4, 2, 3), (5, 2, 2), (6, 3, 2), (6, 2, 4), (3, 1, 5)]:
        k = k_prime + t * (l - 1)
        s = build_scheme(mn_pda(k_prime, t), k, l)
        for g in range(1, k + 1):
            for stars in star_sets(shift_grid(s.placement.grid, g)):
                cols = sorted(stars)
                for a, b in zip(cols, cols[1:]):
                    assert b - a >= l, (g, cols)
                if len(cols) > 1:
                    assert cols[0] + k - cols[-1] >= l, (g, cols)


def test_stacked_star_budget(scheme832):
    s = scheme832
    p = s.pda
    per_round = sum(len(r) for r in star_sets(s.placement.grid))
    assert per_round == p.z * p.cols  # 12 for the worked instance
    k = s.params.k
    col_totals = [0] * k
    for g in range(1, k + 1):
        for stars in star_sets(shift_grid(s.placement.grid, g)):
            for c in stars:
                col_totals[c - 1] += 1
    assert set(col_totals) == {p.z * p.cols}


def test_retrieve_rows_have_tl_stars(scheme832):
    t, l = scheme832.params.t, scheme832.params.l
    for row in star_sets(scheme832.delivery.grid, STAR):
        assert len(row) == t * l


def test_subfile_sets_repeat_k_prime_times():
    # across all rounds, each admissible star set shows up the same number
    # of times: once per column of the source array
    for k_prime, t, l in [(4, 2, 3), (5, 2, 2), (4, 3, 2), (6, 2, 3)]:
        k = k_prime + t * (l - 1)
        s = build_scheme(mn_pda(k_prime, t), k, l)
        seen: dict[tuple, int] = {}
        for g in range(1, k + 1):
            for stars in star_sets(shift_grid(s.placement.grid, g)):
                key = tuple(sorted(stars))
                seen[key] = seen.get(key, 0) + 1
        assert set(seen.values()) == {k_prime}, (k_prime, t, l)


def test_delivery_rejects_window_breaker(pneg):
    c = node_placement(pneg, 7, 2)
    u = user_retrieve(c, 2)
    with pytest.raises(C3ViolationInQ):
        user_delivery(pneg, u)
    with pytest.raises(ConditionViolation):
        build_scheme(pneg, 7, 2)


def test_build_scheme_rejects_wrong_k():
    with pytest.raises(OutOfRange):
        build_scheme(mn_pda(4, 2), 9, 3)


def test_build_scheme_rejects_uncovered_alphabet():
    with pytest.raises(ConditionViolation) as err:
        build_scheme(dataclasses.replace(mn_pda(4, 2), s=5), 8, 3)
    assert err.value.condition == "C2"


def test_user_retrieve_rejects_early_cached_node():
    c = node_placement(mn_pda(4, 2), 8, 3)
    early = dataclasses.replace(c, grid=((True,) + (False,) * 7,) + c.grid[1:])
    with pytest.raises(OutOfRange):
        user_retrieve(early, 3)


def test_user_retrieve_rejects_overlapping_windows():
    c = node_placement(mn_pda(4, 2), 8, 3)
    close = dataclasses.replace(c, grid=((False,) * 2 + (True, True) + (False,) * 4,) + c.grid[1:])
    with pytest.raises(DimensionMismatch):
        user_retrieve(close, 3)


def test_user_retrieve_rejects_empty_grid():
    with pytest.raises(DimensionMismatch):
        user_retrieve(RoundArray(round=1, grid=()), 3)


def test_partition_lift():
    p, _ = partition_pda(2, 2)
    s = build_scheme(p, 6, 2)
    assert str(s.memory_ratio) == "1/3"
    assert s.subpacketization == 12
    assert str(s.load) == "1"


def test_degenerate_t_zero():
    p = mn_pda(5, 0)
    for l in (1, 3):
        s = build_scheme(p, 5, l)
        assert s.params.t == 0
        assert all(len(r) == 0 for r in star_sets(s.placement.grid))
        assert [list(r) for r in s.delivery.grid] == [[1, 2, 3, 4, 5]]
        assert str(s.load) == "5"


def test_node_placement_errors():
    p = mn_pda(4, 2)
    with pytest.raises(OutOfRange):
        node_placement(p, 8, 0)
    with pytest.raises(DimensionMismatch):
        node_placement(p, 7, 3)
    bad = Pda(rows=2, cols=2, entries=((STAR, STAR), (1, STAR)), z=1, s=1)
    with pytest.raises(C4Violation):
        node_placement(bad, 2, 1)


def test_params_validation():
    with pytest.raises(OutOfRange):
        MultiaccessParams(k=5, l=2, t=3, n=5, k_prime=2)  # tl > k
    with pytest.raises(OutOfRange):
        MultiaccessParams(k=8, l=3, t=2, n=8, k_prime=5)  # inconsistent k'
    with pytest.raises(OutOfRange):
        MultiaccessParams(k=8, l=3, t=2, n=7, k_prime=4)  # n < k


def test_memory_ratio_capped_by_access_degree():
    for k_prime in range(2, 9):
        for t in range(0, k_prime):
            for l in range(1, 5):
                k = k_prime + t * (l - 1)
                s = build_scheme(mn_pda(k_prime, t), k, l)
                assert s.memory_ratio * l <= 1, (k_prime, t, l)


def test_scheme_json_round_trip(scheme832):
    for arrays in (False, True):
        txt = scheme_to_json(scheme832, include_arrays=arrays)
        back = scheme_from_json(txt)
        assert back == scheme832


def test_scheme_json_arrays_render_the_worked_grids(scheme832):
    def marks(stars):
        return ["".join("*" if c in row else "." for c in range(1, 9)) for row in stars]

    arrays = json.loads(scheme_to_json(scheme832, include_arrays=True))["arrays"]
    assert arrays == {
        "node_placement": marks(C1_STARS),
        "user_retrieve": marks(U1_STARS),
        "user_delivery": [" ".join(str(v) if v else "*" for v in row) for row in Q1_GRID],
    }


def test_scheme_json_rejects_garbage(scheme832):
    with pytest.raises(ParseError):
        scheme_from_json("{}")
    doc = json.loads(scheme_to_json(scheme832))
    doc["format"] = "something-else"
    with pytest.raises(ParseError):
        scheme_from_json(json.dumps(doc))
    doc2 = json.loads(scheme_to_json(scheme832))
    del doc2["pda"]
    with pytest.raises(ParseError):
        scheme_from_json(json.dumps(doc2))
