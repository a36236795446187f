"""Load formulas, the converse bound, counting oracle and envelopes."""

import time
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from macc import (
    EmptyInput,
    LoadPoint,
    OutOfRange,
    comparison_table,
    converse_bound,
    converse_instance,
    count_sq,
    envelope,
    envelope_eval,
    f_t1,
    gap_checks,
    r_cor1,
    r_hkd,
    r_mn,
    r_rk,
    r_sr,
    r_t1,
    r_t3,
    scheme_curve,
)
from macc import rates
from macc.rates import SCHEME_KEYS, converse_step, scheme_points
from oracles import count_sq_oracle


F = Fraction


def test_shared_link_load():
    assert r_mn(4, 2) == F(2, 3)
    assert r_mn(8, 1) == F(7, 2)
    assert r_mn(8, 0) == 8
    assert r_mn(8, 8) == 0


def test_transform_load_and_subpacketization():
    assert r_t1(8, 3, 2) == F(2, 3)
    assert f_t1(8, 3, 2) == 48
    assert r_t1(5, 3, 1) == 1
    assert f_t1(5, 3, 1) == 15
    assert r_t1(8, 3, 0) == 8


def test_partition_load_is_q_minus_one():
    assert r_t3(2) == 1
    assert r_t3(5) == 4


def test_reduction_scheme_branches():
    # dividing case keeps t up to K/L
    assert r_hkd(9, 3, 2) == 1
    assert r_hkd(9, 3, 3) == 0
    # non-dividing case halves the corner range
    assert r_hkd(20, 3, 2) == 6
    assert r_hkd(20, 3, 3) == F(17, 4)
    with pytest.raises(OutOfRange):
        r_hkd(20, 3, 4)  # above floor(K/2L) when L does not divide K
    with pytest.raises(OutOfRange):
        r_hkd(9, 3, 4)


def test_square_scheme_load():
    assert r_rk(8, 3, 2) == F(1, 2)
    assert r_rk(20, 3, 2) == F(196, 20)
    with pytest.raises(OutOfRange):
        r_rk(8, 3, 3)


def test_sr_branch_dispatch():
    # K - 1 = tL
    assert r_sr(7, 3, 2) == F(1, 7)
    # K - tL even
    assert r_sr(8, 3, 2) == F(1, 2)
    # K - tL odd and > 1
    assert r_sr(9, 3, 2) == F(1, 4) + F(2, 3)
    assert r_sr(13, 2, 5) == F(1, 6) + F(2, 5)  # r = 3: head 1/(ceil(20/4) + 1), then h = 3
    # the last corner, K = tL, loads nothing
    assert r_sr(9, 3, 3) == r_sr(12, 2, 6) == 0
    with pytest.raises(OutOfRange):
        r_sr(9, 3, 4)


def test_r_cor1_window_boundaries():
    assert r_cor1(8, 3, 2) == F(1, 2)
    with pytest.raises(OutOfRange):
        r_cor1(9, 3, 2)  # K = tL + L boundary excluded
    with pytest.raises(OutOfRange):
        r_cor1(7, 3, 2)  # K = tL + 1 boundary excluded


def test_converse_anchor_values():
    assert converse_bound(8, 3, 2) == 0
    assert converse_bound(20, 3, 2) == F(52, 15)
    assert converse_bound(30, 3, 2) == F(506, 75)
    assert converse_bound(40, 3, 2) == F(352, 35)
    inst = converse_instance(20, 3, 2)
    assert inst.x == F(1, 10)
    assert inst.bound == F(52, 15)
    with pytest.raises(OutOfRange):
        converse_bound(20, 3, 7)
    with pytest.raises(OutOfRange):
        converse_bound(20, 3, 0)


def test_converse_never_exceeds_achievable():
    for k in range(2, 41):
        for l in range(1, k + 1):
            for t in range(1, k // l + 1):
                assert converse_bound(k, l, t) <= r_t1(k, l, t), (k, l, t)


def brute_interval_count(k: int, l: int, t: int, q: int) -> int:
    """Count t-subsets of [q] with all cyclic (mod q) gaps >= l."""
    n = 0
    for sub in combinations(range(1, q + 1), t):
        gaps = [b - a for a, b in zip(sub, sub[1:])]
        gaps.append(sub[0] + q - sub[-1])
        if all(g >= l for g in gaps):
            n += 1
    return n


def test_count_sq_matches_brute_force():
    for k in range(2, 13):
        for l in range(1, 5):
            for t in range(1, k // l + 1):
                for q in range(t * l, k + 1):
                    got = count_sq(k, l, t, q)
                    assert got == brute_interval_count(k, l, t, q), (k, l, t, q)
                    oracle = count_sq_oracle(k, l, t, q)
                    assert got == oracle["interval_cyclic"]


def test_count_sq_rejects_global_reading():
    # the closed form counts gaps cyclically inside [q], not inside [K];
    # this tuple separates the two readings
    oracle = count_sq_oracle(12, 3, 2, 8)
    assert count_sq(12, 3, 2, 8) == oracle["interval_cyclic"] == 12
    assert oracle["global_cyclic"] != 12
    with pytest.raises(OutOfRange):
        count_sq(12, 3, 2, 5)


def test_envelope_hull():
    curve = envelope([(0, 8), (F(1, 8), F(5, 2)), (F(1, 4), F(2, 3)), (F(1, 3), 0)])
    assert [(p.ratio, p.load) for p in curve.points] == [
        (0, 8),
        (F(1, 8), F(5, 2)),
        (F(1, 4), F(2, 3)),
        (F(1, 3), 0),
    ]
    # a dominated middle point drops out
    curve2 = envelope([(0, 4), (F(1, 2), 3), (1, 0)])
    assert [p.ratio for p in curve2.points] == [0, 1]


def test_envelope_eval():
    curve = envelope([(0, 4), (1, 0)])
    assert envelope_eval(curve, F(1, 2)) == 2
    assert envelope_eval(curve, 1) == 0
    assert envelope_eval(curve, 2) == 0  # flat past the last corner
    with pytest.raises(OutOfRange):
        envelope_eval(curve, F(-1, 2))


def test_envelope_errors():
    with pytest.raises(EmptyInput):
        envelope([])
    with pytest.raises(ValueError):
        envelope([(0, 1), (0, 2)])


def test_envelope_is_convex_and_below_points():
    pts = [(F(i, 7), F((i * 5 + 3) % 11, 2)) for i in range(8)]
    curve = envelope(pts)
    for x, y in pts:
        assert envelope_eval(curve, x) <= y
    slopes = [
        (b.load - a.load) / (b.ratio - a.ratio)
        for a, b in zip(curve.points, curve.points[1:])
    ]
    assert slopes == sorted(slopes)


def test_scheme_points_corners():
    t1 = scheme_points(8, 3, "t1")
    assert t1[0] == LoadPoint(F(0), F(8))
    assert t1[-1] == LoadPoint(F(1, 3), F(0))
    assert LoadPoint(F(2, 8), F(2, 3)) in t1
    rk = scheme_points(8, 3, "rk")
    assert all(p.ratio != F(1, 3) or p.load != 0 for p in rk)
    assert rk[-1] == LoadPoint(F(2, 8), F(1, 2))
    with pytest.raises(OutOfRange):
        scheme_points(8, 3, "nope")


def scheme_points_by_branches(k, l, scheme):
    """The corners as the per-scheme listing they came from: hkd without
    L | K stops at K // (2L), hkd, sr and t1 end at (1/L, 0), and a
    repeated ratio keeps its least load."""
    load = {"hkd": r_hkd, "rk": r_rk, "sr": r_sr, "t1": r_t1}[scheme]
    top = k // (2 * l) if scheme == "hkd" and k % l else k // l
    pts = [(F(t, k), load(k, l, t)) for t in range(top + 1)]
    pts += [] if scheme == "rk" else [(F(1, l), F(0))]
    least = {}
    for x, y in pts:
        least[x] = min(y, least.get(x, y))
    return tuple(LoadPoint(x, least[x]) for x in sorted(least))


def test_scheme_points_match_the_branch_listing():
    for k in range(1, 25):
        for l in range(1, 7):
            for name in SCHEME_KEYS:
                assert scheme_points(k, l, name) == scheme_points_by_branches(k, l, name), (k, l, name)


def test_comparison_table_grid():
    header, rows = comparison_table(8, 3, ["hkd", "rk", "sr", "t1", "conv"], F(1, 12))
    assert header == ["m_over_n", "hkd", "rk", "sr", "t1", "conv"]
    assert rows[0][0] == 0 and rows[-1][0] == F(1, 3)
    xs = [r[0] for r in rows]
    assert xs == sorted(xs)
    # envelope loads never increase with memory
    for col in range(1, 5):
        vals = [r[col] for r in rows]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert rows[0][1:5] == [8, 8, 8, 8]  # every scheme starts at load K


def test_converse_step():
    assert converse_step(8, 3, 0) == converse_bound(8, 3, 1)
    assert converse_step(8, 3, F(1, 10)) == converse_bound(8, 3, 1)
    assert converse_step(8, 3, F(1, 8)) == converse_bound(8, 3, 1)
    assert converse_step(8, 3, F(2, 10)) == converse_bound(8, 3, 2)
    assert converse_step(8, 3, F(1, 3)) == 0
    with pytest.raises(OutOfRange, match=r"^x=-1/2 negative$"):  # the bound is 0, not -1
        converse_step(8, 3, F(-1, 2))


def test_gap_report_20_3():
    rep = gap_checks(20, 3)
    hkd = rep["hkd"]
    assert hkd["applicable"]
    assert hkd["t0"] == 3
    assert hkd["rhs"] == F(17, 11)
    assert hkd["equality_at_boundary"]
    assert hkd["all_strict_inside"]
    assert rep["rk"]["all_strict_on_hypothesis"]
    assert rep["sr"]["all_strict_on_proven_region"]


def test_gap_report_sweep():
    for k in (12, 21, 30, 40):
        for l in (2, 3, 4, 5):
            rep = gap_checks(k, l)
            if rep["hkd"].get("applicable"):
                assert rep["hkd"]["all_strict_inside"], (k, l)
            assert rep["rk"]["all_strict_on_hypothesis"], (k, l)
            assert rep["sr"]["all_strict_on_proven_region"], (k, l)


def test_dividing_case_has_no_hkd_gap_section():
    rep = gap_checks(12, 3)
    assert not rep["hkd"]["applicable"]


def test_scheme_curve_is_cached_and_equals_the_envelope():
    for k in range(1, 13):
        for l in range(1, 5):
            for name in SCHEME_KEYS:
                curve = scheme_curve(k, l, name)
                assert curve == envelope(scheme_points(k, l, name)), (k, l, name)
                assert scheme_curve(k, l, name) is curve


def test_unknown_scheme_names_raise_before_the_cache():
    for name in ("bogus", ["t1"], {"t1": 1}, None):
        with pytest.raises(OutOfRange, match="unknown scheme"):
            scheme_curve(8, 3, name)
    with pytest.raises(OutOfRange, match="unknown scheme"):
        comparison_table(8, 3, [["t1"]], "1/6")


@pytest.mark.parametrize(
    "call",
    [
        lambda: scheme_curve(8.0, 3, "t1"),
        lambda: scheme_curve(8, 1.5, "hkd"),
        lambda: r_t1(8.0, 3, 1),
        lambda: r_t1(8, 3, True),
        lambda: comparison_table(8.0, 3, ["t1"], "1/6"),
        lambda: comparison_table(8, 3.0, ["conv"], "1/6"),
        lambda: converse_bound(8, 3, 1.0),
        lambda: gap_checks(8, 3.0),
        lambda: r_mn(8.0, 2),
        lambda: r_t3(3.0),
        lambda: count_sq(8.0, 3, 1, 4),
    ],
)
def test_non_integer_parameters_raise_out_of_range(call):
    with pytest.raises(OutOfRange, match="not an integer"):
        call()


ALL_CURVES = ["hkd", "rk", "sr", "t1", "conv"]


@pytest.mark.parametrize("call, text", [
    (lambda: gap_checks(10**9, 3), r"^333333334 corners exceed the 1048576 cap$"),
    (lambda: comparison_table(100000, 3, ALL_CURVES, "1/1000000"), r"^2000010 table cells exceed"),
    (lambda: comparison_table(100000, 3, ALL_CURVES, "1/60"), r"^833358333 r_sr terms exceed"),
    (lambda: comparison_table(10**7, 1, ["t1"], "1/2"), r"^10000001 corners exceed"),
    (lambda: scheme_curve(10**5, 3, "sr"), r"^833358333 r_sr terms exceed"),
    (lambda: scheme_points(2**70, 2**40, "rk"), r"^1073741825 corners exceed"),
    (lambda: r_sr(10**9, 1, 0), r"^500000000 r_sr terms exceed"),
    (lambda: comparison_table(-10**9, 3, ["sr"], "1/6"), r"^k=-1000000000, l=3 must be >= 1$"),
    (lambda: converse_bound(10**7, 3, 3 * 10**6), r"^72000024 binomial bits exceed the 1048576 cap$"),
    (lambda: comparison_table(10**5, 3, ["conv"], "1/1000"), r"^\d+ binomial bits exceed"),
    (lambda: f_t1(10**7, 3, 3 * 10**6), r"^22000000 binomial bits exceed the 1048576 cap$"),
    (lambda: count_sq(10**7, 3, 3 * 10**6, 10**7), r"^22000000 binomial bits exceed the 1048576 cap$"),
])
def test_huge_rates_work_is_refused_before_any_corner(call, text):
    """Corners, r_sr's sum terms over them, table cells and the binomial bits
    of the converse, f_t1 and count_sq are counted in exact ints and refused past MAX_TERMS before
    any load or bound is computed."""
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        with pytest.raises(OutOfRange, match=text):
            call()
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.05 and peak < 2**20


def test_binomial_caps_admit_the_tested_inputs(monkeypatch):
    """f_t1 and count_sq bound C(n, r)'s bits by min(r, n - r) times n's bit
    length, and the cap is inclusive: f_t1(8, 3, 2) takes C(4, 2), 2 * 3
    bits, and count_sq(14, 1, 7, 14), the largest binomial of the count
    tests, C(13, 6), 6 * 4 bits. At the real cap a huge n with a small side
    still passes."""
    for call, n in ((lambda: f_t1(8, 3, 2), 6), (lambda: count_sq(14, 1, 7, 14), 24)):
        monkeypatch.setattr(rates, "MAX_TERMS", n)
        call()
        monkeypatch.setattr(rates, "MAX_TERMS", n - 1)
        with pytest.raises(OutOfRange, match=rf"^{n} binomial bits exceed the {n - 1} cap$"):
            call()
    monkeypatch.undo()
    assert f_t1(10**6, 1, 10**6 - 1) == 10**12
    assert count_sq(10**6, 1, 10**6, 10**6) == 1


def test_rates_cap_admits_its_own_size(monkeypatch):
    """The cap is inclusive: gap_checks(12, 3) takes 5 corners and at most 15
    r_sr terms, a 4-row table of four curves at L = 3 has 5 x 5 cells, and
    r_sr(9, 1, 0) sums 4 terms. converse_bound's binomials at K = 8, of 4 bits
    a factor, hold (t + 1) * 4 bits: 12 at t = 2, and 36 over the conv column
    of that table, whose corners are t = 1, 2 and 3."""
    for call, n, what in ((lambda: gap_checks(12, 3), 15, "r_sr terms"),
                          (lambda: comparison_table(8, 3, ALL_CURVES[:4], F(1, 12)), 25, "table cells"),
                          (lambda: comparison_table(8, 3, ["conv"], F(1, 12)), 36, "binomial bits"),
                          (lambda: converse_bound(8, 3, 2), 12, "binomial bits"),
                          (lambda: scheme_points(8, 1, "t1"), 9, "corners"),
                          (lambda: r_sr(9, 1, 0), 4, "r_sr terms")):
        monkeypatch.setattr(rates, "MAX_TERMS", n)
        call()
        monkeypatch.setattr(rates, "MAX_TERMS", n - 1)
        with pytest.raises(OutOfRange, match=rf"^{n} {what} exceed the {n - 1} cap$"):
            call()
