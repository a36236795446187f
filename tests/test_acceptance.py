"""Acceptance gate: twelve scheme-level criteria, one test function each.

Every test ends with a single printed pass line (visible under -s or in the
captured section on failure). Timing-bounded criteria measure a warmed run
with perf_counter, so the interpreter and table caches are not billed.
"""

import math
import random
import time
from fractions import Fraction

from macc import (
    STAR,
    build_scheme,
    check_c4,
    check_c5,
    comparison_table,
    compressed_decode,
    compressed_deliver,
    compressed_load,
    converse_bound,
    count_sq,
    decode,
    deliver,
    gap_checks,
    lambda_profile,
    library_for_scheme,
    mn_pda,
    partition_pda,
    r_cor1,
    r_rk,
    r_t1,
    reconstructable_messages,
    validate_pda,
)
from macc.cli import main as cli_main
from oracles import (
    count_sq_oracle,
    delivery_fill_maps,
    node_placement,
    shift_grid,
    star_sets,
    user_retrieve,
)
from macc.util import mod1

# stock 6x4 array with three stars per column and four integers
MN_4_2 = (
    (0, 0, 1, 2),
    (0, 1, 0, 3),
    (0, 2, 3, 0),
    (1, 0, 0, 4),
    (2, 0, 4, 0),
    (3, 4, 0, 0),
)

# worked (8, 3, 2) instance: first two rounds of each grid plus the fill maps
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

# shared-link embedding at L=1, K=4, t=2, identity demand: the four multicast
# signals as (file, part) constituent sets
SHARED_LINK_SIGNALS = {
    1: {(1, 4), (2, 2), (3, 1)},
    2: {(1, 5), (2, 3), (4, 1)},
    3: {(1, 6), (3, 3), (4, 2)},
    4: {(2, 6), (3, 5), (4, 4)},
}

# decodability roster; compression applies on all of these
MN_COMPRESSIBLE = [  # (K, L, t)
    (4, 3, 1), (5, 3, 1), (5, 4, 1), (6, 4, 1), (7, 4, 1),
    (7, 5, 1), (8, 3, 2), (8, 5, 1), (8, 6, 1),
]
PARTITION_COMPRESSIBLE = [  # (m, q, L)
    (2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 3, 3), (2, 3, 4), (3, 3, 3),
]


def _best_ms(fn, repeat=5):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1000.0


def _demand_list(k, n, rng, n_random=20):
    out = [tuple(mod1(i, n) for i in range(1, k + 1)), (1,) * k]
    out += [tuple(rng.randint(1, n) for _ in range(k)) for _ in range(n_random)]
    return out


def _roster():
    """(label, scheme, packet_bytes) for every tested decodability instance."""
    out = []
    for k, l, t in MN_COMPRESSIBLE:
        kp = k - t * (l - 1)
        out.append((f"mn K={k} L={l} t={t}", build_scheme(mn_pda(kp, t), k, l), 1))
    for m, q, l in PARTITION_COMPRESSIBLE:
        p, _ = partition_pda(m, q)
        k = m * q + m * (l - 1)
        pb = 2 if (m, q) == (3, 3) else 1  # that one needs the 16-bit field
        out.append((f"partition m={m} q={q} L={l}", build_scheme(p, k, l), pb))
    # plain-only extras: zero spread, degenerate t=0, and L=1
    out.append(("mn K=6 L=2 t=2 (no spread)", build_scheme(mn_pda(4, 2), 6, 2), 1))
    out.append(("mn K=5 t=0", build_scheme(mn_pda(5, 0), 5, 3), 1))
    p, _ = partition_pda(2, 2)
    out.append(("partition m=2 q=2 L=1", build_scheme(p, 4, 1), 1))
    return out


def test_criterion_01_stock_array_golden():
    def check():
        p = mn_pda(4, 2)
        assert p.entries == MN_4_2
        rep = validate_pda(p)
        assert rep.ok
        assert (p.cols, p.rows, p.z, p.s) == (4, 6, 3, 4)

    check()
    ms = _best_ms(check)
    assert ms < 1.0, f"{ms:.3f} ms"
    print(f"criterion 1: PASS (stock 6x4 array matches, signature (4,6,3,4), {ms:.3f} ms)")


def test_criterion_02_transform_golden():
    def check():
        p = mn_pda(4, 2)
        s = build_scheme(p, 8, 3)
        c1, q1 = s.placement.grid, s.delivery.grid
        assert star_sets(c1) == C1_STARS
        assert star_sets(shift_grid(c1, 2)) == C2_STARS
        assert star_sets(q1, STAR) == U1_STARS
        assert star_sets(shift_grid(q1, 2), STAR) == U2_STARS
        assert [list(r) for r in q1] == Q1_GRID
        assert [list(r) for r in shift_grid(q1, 2)] == Q2_GRID
        assert delivery_fill_maps(p, user_retrieve(node_placement(p, 8, 3), 3)) == FILL_MAPS

    check()
    ms = _best_ms(check)
    assert ms < 10.0, f"{ms:.3f} ms"
    print(f"criterion 2: PASS (rounds 1-2 of C/U/Q and fill maps match, {ms:.3f} ms)")


def test_criterion_03_shared_link_embedding():
    s = build_scheme(mn_pda(4, 2), 4, 1)
    demand = (1, 2, 3, 4)
    grid = s.delivery.grid
    for s_val, want in SHARED_LINK_SIGNALS.items():
        got = {
            (demand[c - 1], j)
            for j, row in enumerate(grid, start=1)
            for c, v in enumerate(row, start=1)
            if v == s_val
        }
        assert got == want, (s_val, got)
    print("criterion 3: PASS (all four shared-link multicast signals reproduced)")


def test_criterion_04_load_reproduction(scheme832):
    lib = library_for_scheme(scheme832, 8, 1, seed=0)
    log = deliver(lib, scheme832, tuple(range(1, 9)))
    measured = Fraction(log.total_packets_sent, scheme832.subpacketization)
    assert measured == Fraction(2, 3)
    assert compressed_load(scheme832) == Fraction(1, 2)
    batch = compressed_deliver(lib, scheme832, tuple(range(1, 9)))
    assert Fraction(batch.m1, scheme832.subpacketization) == Fraction(1, 2)
    print("criterion 4: PASS (load 2/3 plain, 1/2 compressed, exact)")


def test_criterion_05_uniform_lift_formulas():
    t0 = time.perf_counter()
    n_cases = 0
    for k in range(1, 11):
        for l in range(1, 5):
            for t in range(1, k // l + 1):
                if k <= t * l + 1:
                    continue
                kp = k - t * (l - 1)
                scheme = build_scheme(mn_pda(kp, t), k, l)
                lib = library_for_scheme(scheme, k, 1, seed=0)
                log = deliver(lib, scheme, tuple(range(1, k + 1)))
                load = Fraction(log.total_packets_sent, scheme.subpacketization)
                assert load == Fraction(k - t * l, t + 1), (k, l, t)
                assert scheme.subpacketization == k * math.comb(kp, t), (k, l, t)
                n_cases += 1
    elapsed = time.perf_counter() - t0
    assert n_cases > 0
    assert elapsed < 30.0, f"{elapsed:.1f} s"
    print(f"criterion 5: PASS ({n_cases} lift instances match the closed forms, {elapsed:.2f} s)")


def test_criterion_06_partition_lift_formulas():
    t0 = time.perf_counter()
    n_cases = 0
    for m in (2, 3):
        for q in (2, 3):
            p, _ = partition_pda(m, q)
            for l in range(1, 5):
                assert check_c4(p)
                assert check_c5(p, l)
                k = m * q + m * (l - 1)
                scheme = build_scheme(p, k, l)
                lib = library_for_scheme(scheme, k, 1, seed=0)
                log = deliver(lib, scheme, tuple(mod1(i, k) for i in range(1, k + 1)))
                load = Fraction(log.total_packets_sent, scheme.subpacketization)
                assert load == Fraction(q - 1), (m, q, l)
                assert scheme.subpacketization == m * q ** (m - 1) * (q + l - 1), (m, q, l)
                n_cases += 1
    elapsed = time.perf_counter() - t0
    assert n_cases == 16
    assert elapsed < 60.0, f"{elapsed:.1f} s"
    print(f"criterion 6: PASS (16 partition lifts pass C4/C5 with load q-1, {elapsed:.2f} s)")


def test_criterion_07_decodability_suite():
    failures = []
    n_checks = 0
    for label, scheme, packet_bytes in _roster():
        k = scheme.params.k
        lib = library_for_scheme(scheme, k, packet_bytes, seed=0)
        prof = lambda_profile(scheme.pda, scheme.params.l)
        rng = random.Random(2024)
        for demand in _demand_list(k, k, rng):
            log = deliver(lib, scheme, demand)
            batch = compressed_deliver(lib, scheme, demand) if prof.applicable else None
            for u in range(1, k + 1):
                want = lib.file_bytes(demand[u - 1])
                if decode(lib, scheme, demand, log, u) != want:
                    failures.append((label, demand, u, "plain"))
                n_checks += 1
                if batch is not None:
                    if compressed_decode(lib, scheme, demand, batch, u) != want:
                        failures.append((label, demand, u, "compressed"))
                    n_checks += 1
    assert failures == []
    print(f"criterion 7: PASS ({n_checks} user decodes byte-identical, zero failures)")


def test_criterion_08_compression_counting():
    for label, scheme, _ in _roster():
        prof = lambda_profile(scheme.pda, scheme.params.l)
        if not prof.applicable:
            continue
        want = prof.total * scheme.pda.s
        for u in range(1, scheme.params.k + 1):
            assert len(reconstructable_messages(scheme, u)) == want, (label, u)
    n_corner = 0
    for k in range(3, 13):
        for l in range(2, k + 1):
            for t in range(1, k // l + 1):
                if not (t * l + 1 < k < t * l + l):
                    continue
                scheme = build_scheme(mn_pda(k - t * (l - 1), t), k, l)
                want = Fraction((k - t * l) ** 2, k)
                assert compressed_load(scheme) == want, (k, l, t)
                assert r_cor1(k, l, t) == want, (k, l, t)
                assert r_rk(k, l, t) == want, (k, l, t)
                n_corner += 1
    assert n_corner > 0
    print(f"criterion 8: PASS (per-user counts match, {n_corner} corner equalities exact)")


def test_criterion_09_converse_suite():
    n_points = 0
    for k in range(1, 41):
        for l in range(1, k + 1):
            for t in range(1, k // l + 1):
                assert converse_bound(k, l, t) <= r_t1(k, l, t), (k, l, t)
                n_points += 1
    ratios = []
    for k in range(30, 41):
        b = converse_bound(k, 3, 2)
        assert b > 0, k
        ratios.append(r_t1(k, 3, 2) / b)
    assert all(a >= b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < Fraction(6, 5)
    print(f"criterion 9: PASS (bound <= achievable at {n_points} points, end ratio {ratios[-1]})")


def test_criterion_10_gap_subset_counting():
    bad = []
    n_points = 0
    for l in range(1, 5):
        for t in range(1, 14 // l + 1):
            for q in range(t * l, 15):
                oracle = count_sq_oracle(14, l, t, q)
                closed = count_sq(14, l, t, q)
                if closed != oracle["interval_cyclic"]:
                    # a point off the recorded reading; the other readings are
                    # in the oracle dict so the failure shows both
                    bad.append((l, t, q, closed, oracle))
                n_points += 1
    assert bad == []
    print(f"criterion 10: PASS (closed form matches the brute count at {n_points} points)")


def test_criterion_11_gap_inequalities():
    n_reports = 0
    for k in range(2, 41):
        for l in range(2, min(6, k) + 1):
            rep = gap_checks(k, l)
            if rep["hkd"]["applicable"]:
                assert rep["hkd"]["equality_at_boundary"], (k, l)
                assert rep["hkd"]["all_strict_inside"], (k, l)
            assert rep["rk"]["all_strict_on_hypothesis"], (k, l)
            assert rep["sr"]["all_strict_on_proven_region"], (k, l)
            n_reports += 1
    big = gap_checks(200, 3)
    assert any(e["proven_region"] for e in big["sr"]["entries"])
    assert big["sr"]["all_strict_on_proven_region"]
    print(f"criterion 11: PASS ({n_reports} reports strict on hypothesis, plus K=200)")


def test_criterion_12_figure_crossover(tmp_path, capsys):
    t0 = time.perf_counter()
    header, rows = comparison_table(20, 3, ["hkd", "rk", "sr", "t1", "conv"], Fraction(1, 60))
    idx = {name: i for i, name in enumerate(header)}
    n_checked = 0
    for row in rows:
        if row[0] <= Fraction(28, 100):
            others = min(row[idx["hkd"]], row[idx["rk"]], row[idx["sr"]])
            assert row[idx["t1"]] <= others, row[0]
            n_checked += 1
    elapsed = time.perf_counter() - t0
    assert n_checked == 17  # x = 0/60 .. 16/60
    assert elapsed < 1.0, f"{elapsed:.2f} s"
    csv_path = tmp_path / "k20l3.csv"
    rc = cli_main(["compare", "--K", "20", "--L", "3", "--csv", str(csv_path)])
    capsys.readouterr()
    assert rc == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "m_over_n,hkd,rk,sr,t1,conv"
    assert len(lines) == len(rows) + 1
    print(f"criterion 12: PASS (best curve up to 0.28 on the 1/60 grid, {elapsed:.3f} s)")
