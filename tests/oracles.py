"""Brute-force reference implementations that tests compare the library against.

None of these is part of the `macc` API: each restates a result the library
computes another way.
"""

import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb
from types import SimpleNamespace

import numpy as np

from macc import (
    STAR,
    C3ViolationInQ,
    C4Violation,
    ConditionViolation,
    DimensionMismatch,
    LoadCurve,
    MaccError,
    MalformedPda,
    MnParams,
    MultiaccessParams,
    OutOfRange,
    ParseError,
    PartitionParams,
    Pda,
    RoundArray,
    SingularSystem,
    UndecodablePacket,
    ValidationReport,
    check_c4,
    envelope,
    scheme_points,
    star_profile,
)
from macc.compress import (
    CodedBatch,
    _check_batch,
    _coding_block,
    _pick_field,
    full_view_rounds,
)
from macc.gf2 import (
    GF,
    _symbol_bytes,
    bytes_to_symbols,
    field,
    packets_to_symbols,
    symbols_to_bytes,
    symbols_to_packets,
)
from macc.rates import converse_step, r_rk, r_sr, r_t1
from macc.sim import (
    PacketLibrary,
    TransmissionLog,
    _check_dims,
    check_demand,
    check_user,
    deliver,
    round_messages,
)
from macc.transform import Scheme, scheme_to_json
from macc.util import converted, is_int, mod1, require_ints


def constituents(grid) -> dict[int, list[tuple[int, int]]]:
    """Map integer value -> its 1-based (row, column) cells in row-major order."""
    out: dict[int, list[tuple[int, int]]] = {}
    for r, row in enumerate(grid, start=1):
        for c, v in enumerate(row, start=1):
            if v != STAR:
                out.setdefault(v, []).append((r, c))
    return out


def crossing_violations(grid, exhaustive: bool = False) -> list[tuple]:
    """Cell pairs ((r1, c1), (r2, c2)) of equal integers that break the crossing rule.

    Equal integers must sit in distinct rows and columns with stars at
    (r1, c2) and (r2, c1). The star test alone covers distinctness: a shared
    row or column puts the integer itself at a crossing. Pairs are listed by
    ascending integer; only the first is returned unless exhaustive.
    """
    cells = constituents(grid)
    out = []
    for v in sorted(cells):
        for (r1, c1), (r2, c2) in combinations(cells[v], 2):
            if grid[r1 - 1][c2 - 1] != STAR or grid[r2 - 1][c1 - 1] != STAR:
                out.append(((r1, c1), (r2, c2)))
                if not exhaustive:
                    return out
    return out


def _padded(groups) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and padding mask of cell groups, laid out as DeliveryPlan
    says, filled one cell at a time."""
    shape = (max(map(len, groups), default=0), len(groups))
    rows, cols, pad = np.zeros(shape, np.intp), np.zeros(shape, np.intp), np.ones(shape, bool)
    for i, group in enumerate(groups):
        for n, (j, c) in enumerate(group):
            rows[n, i], cols[n, i], pad[n, i] = j, c, False
    return rows, cols, pad


PLAN_ARRAYS = ("cell_rows", "cell_cols", "cell_pad", "miss_cols", "miss_rows", "miss_ints",
               "peer_rows", "peer_cols", "peer_pad")


def plan_by_walk(scheme: Scheme) -> SimpleNamespace:
    """The scheme's delivery plan by a walk of its round-1 delivery grid."""
    return plan_of_grid(scheme.delivery.grid)


@lru_cache(maxsize=64)
def plan_of_grid(q1) -> SimpleNamespace:
    """The delivery plan of a round-1 delivery grid by a walk of it, 0-based.

    cells[s]: the cells (row, column) holding integer s, row-major, keyed in
    the order the walk meets each integer. views[c]: the rows of column c's
    stars. recipes[c][j]: None when row j is in views[c], else (s, peers),
    the integer s of the message that carries it and its other cells. The
    nine index arrays of DeliveryPlan (PLAN_ARRAYS) are read off these,
    read-only.
    """
    cells = {s: tuple((j - 1, c - 1) for j, c in group) for s, group in constituents(q1).items()}
    views = tuple(frozenset(j for j, v in enumerate(col) if v == STAR) for col in zip(*q1))
    recipes = tuple(
        tuple(
            None if j in view
            else (row[c], tuple(cell for cell in cells[row[c]] if cell != (j, c)))
            for j, row in enumerate(q1)
        )
        for c, view in enumerate(views)
    )
    missing = [(c, j) + step for c, column in enumerate(recipes)
               for j, step in enumerate(column) if step is not None]
    miss_cols, miss_rows, miss_ints, peers = zip(*missing) if missing else ((),) * 4
    cell_rows, cell_cols, cell_pad = _padded([cells[s] for s in sorted(cells)])
    peer_rows, peer_cols, peer_pad = _padded(peers)
    arrays = dict(
        cell_rows=cell_rows, cell_cols=cell_cols, cell_pad=cell_pad,
        miss_cols=np.array(miss_cols, np.intp), miss_rows=np.array(miss_rows, np.intp),
        miss_ints=np.array(miss_ints, np.intp) - 1,
        peer_rows=peer_rows, peer_cols=peer_cols, peer_pad=peer_pad,
    )
    for a in arrays.values():
        a.flags.writeable = False
    return SimpleNamespace(cells=cells, views=views, recipes=recipes, **arrays)


def plan_record(plan) -> tuple:
    """A plan's nine index arrays as plain values to compare: each one's
    name, dtype, shape, read-only flag and entries."""
    return tuple((name, a.dtype, a.shape, a.flags.writeable, a.tolist())
                 for name in PLAN_ARRAYS for a in [getattr(plan, name)])


def view_sets(views: np.ndarray) -> tuple[frozenset[int], ...]:
    """A star mask's columns as the sets of their rows, as the walk keeps views."""
    return tuple(frozenset(np.flatnonzero(col).tolist()) for col in views.T)


def shift_grid(grid, g: int) -> tuple[tuple, ...]:
    """Round g of a round-1 grid: its column c is column mod1(c - (g - 1), K) of round 1."""
    k = len(grid[0])
    return tuple(tuple(row[mod1(c - (g - 1), k) - 1] for c in range(1, k + 1)) for row in grid)


def star_sets(grid, star=True) -> list[tuple[int, ...]]:
    """Per row, the columns whose cell equals star: the caching nodes of a
    placement grid, or, with star=STAR, the users that retrieve the row in a
    delivery grid."""
    return [tuple(c for c, v in enumerate(row, start=1) if v == star) for row in grid]


def retrieve_window(star_cols: tuple[int, ...], l: int) -> frozenset[int]:
    """Columns reachable around stars at the given access degree.

    The h-th star contributes the block [col + (h-1)(l-1), col + h(l-1)].
    """
    out = set()
    for h, c in enumerate(star_cols, start=1):
        out.update(range(c + (h - 1) * (l - 1), c + h * (l - 1) + 1))
    return frozenset(out)


def check_c5_by_windows(p: Pda, l: int) -> bool:
    """C5 stated on the base array, without building the lift.

    For every pair of equal integers p[j1,k1] = p[j2,k2], the column k1
    shifted by its rank inside sorted(stars(j1) u {k1}) must fall in row j2's
    retrieve window, and symmetrically. At l = 1 this reduces to the plain
    crossing condition.
    """
    if l < 1:
        raise OutOfRange(f"access degree l={l} must be >= 1")
    if not check_c4(p):
        raise C4Violation("uniform per-row star count required before this check")
    prof = star_profile(p)
    windows = [retrieve_window(s, l) for s in prof.star_sets]

    def shifted(j: int, k: int) -> int:
        ranked = sorted(set(prof.star_sets[j - 1]) | {k})
        i = ranked.index(k) + 1
        return k + (i - 1) * (l - 1)

    for positions in constituents(p.entries).values():
        for (j1, k1), (j2, k2) in combinations(positions, 2):
            if shifted(j1, k1) not in windows[j2 - 1]:
                return False
            if shifted(j2, k2) not in windows[j1 - 1]:
                return False
    return True


def lift_by_walk(p: Pda, l: int):
    """The placement and delivery grids at access degree l, and the delivery
    grid's cells by integer as constituents returns them, by one walk of the
    base rows; any array, ragged star counts included, lifts.

    Star cells are built only when some row has a star, so a starless array
    costs nothing at any l.
    """
    if any(STAR in row for row in p.entries):
        place, wide = (False,) * (l - 1) + (True,), (STAR,) * l
    else:
        place = wide = ()
    placement, delivery, cells = [], [], {}
    for r, row in enumerate(p.entries, start=1):
        c_row, q_row = [], []
        for v in row:
            if v == STAR:
                c_row += place
                q_row += wide
            else:
                c_row.append(False)
                q_row.append(v)
                cells.setdefault(v, []).append((r, len(q_row)))
        placement.append(tuple(c_row))
        delivery.append(tuple(q_row))
    return tuple(placement), tuple(delivery), cells


def check_c4_by_rows(p: Pda) -> bool:
    """C4 by counting the stars of each row of the entries."""
    if (p.cols * p.z) % p.rows != 0:
        return False
    t = (p.cols * p.z) // p.rows
    return all(row.count(STAR) == t for row in p.entries)


def validate_pda_by_walk(p: Pda, exhaustive: bool = False) -> ValidationReport:
    """C1-C3 by walking the entries: column star counts, the cells by
    integer for C2 and every pair of equal integers for C3."""
    stars = (col.count(STAR) for col in zip(*p.entries))
    c1 = [(c, n) for c, n in enumerate(stars, start=1) if n != p.z]
    cells = constituents(p.entries)
    c2 = [(v,) for v in range(1, p.s + 1) if v not in cells]
    if not exhaustive:
        c1, c2 = c1[:1], c2[:1]
    c3 = crossing_violations(p.entries, exhaustive)
    return ValidationReport(
        c1_ok=not c1,
        c2_ok=not c2,
        c3_ok=not c3,
        c1_counterexamples=tuple(c1),
        c2_counterexamples=tuple(c2),
        c3_counterexamples=tuple(c3),
        exhaustive=exhaustive,
    )


def check_c5_by_walk(p: Pda, l: int) -> bool:
    """C5 on the whole lift at l, built by walking the base rows."""
    if l < 1:
        raise OutOfRange(f"access degree l={l} must be >= 1")
    if not check_c4_by_rows(p):
        raise C4Violation("uniform per-row star count required before this check")
    return not crossing_violations(lift_by_walk(p, l)[1])


def arrays_text_by_grids(placement, delivery) -> dict[str, list[str]]:
    """The JSON form's text rows, rendered cell by cell from the round-1 grids."""
    return {
        "node_placement": ["".join("*" if v else "." for v in row) for row in placement],
        "user_retrieve": ["".join("*" if v == STAR else "." for v in row) for row in delivery],
        "user_delivery": [" ".join("*" if v == STAR else str(v) for v in row) for row in delivery],
    }


def serialize_pda_by_cells(p: Pda) -> str:
    """The text form with every cell written on its own."""
    lines = [f"{p.cols} {p.rows} {p.z} {p.s}"]
    for row in p.entries:
        lines.append(" ".join("*" if v == STAR else str(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_pda_by_cells(text: str) -> tuple[Pda, dict[int, int] | None]:
    """parse_pda_with_map reading every token on its own."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty input")
    head = lines[0].split()
    if len(head) != 4:
        raise ParseError(f"header needs 4 integers (K' F' Z S), got {lines[0]!r}")
    try:
        cols, rows, z, s = (int(x) for x in head)
    except ValueError as e:
        raise ParseError(f"bad header {lines[0]!r}") from e
    body = lines[1:]
    if len(body) != rows:
        raise ParseError(f"expected {rows} data rows, found {len(body)}")
    grid = []
    for i, ln in enumerate(body, start=1):
        toks = ln.split()
        if len(toks) != cols:
            raise ParseError(f"row {i} has {len(toks)} tokens, expected {cols}")
        row = []
        for tok in toks:
            if tok == "*":
                row.append(STAR)
                continue
            try:
                v = int(tok)
            except ValueError as e:
                raise ParseError(f"row {i}: bad token {tok!r}") from e
            if not (1 <= v <= s):
                raise ParseError(f"row {i}: value {v} outside [1, {s}]")
            row.append(v)
        grid.append(tuple(row))
    used = sorted({v for row in grid for v in row if v != STAR})
    relabel = None
    if used != list(range(1, len(used) + 1)) or s != len(used):
        relabel = {old: new for new, old in enumerate(used, start=1)}
        grid = [tuple(relabel[v] if v != STAR else STAR for v in row) for row in grid]
        s = len(used)
    try:
        p = Pda(rows=rows, cols=cols, entries=tuple(grid), z=z, s=s)
    except MalformedPda as e:
        raise ParseError(f"inconsistent header {lines[0]!r}: {e}") from e
    return p, relabel


class BadSubset(MaccError):
    """Subset is not strictly increasing or leaves the ground set."""


def lex_rank(subset: tuple[int, ...], n: int) -> int:
    """1-based rank of a strictly increasing subset of [1, n] in lex order.

    Rank is taken among all subsets of the same size; the empty subset has
    rank 1.
    """
    require_ints(n=n)
    sub = converted(tuple, subset, "subset", BadSubset)
    r = len(sub)
    if any(not (is_int(x) and 1 <= x <= n) for x in sub):
        raise BadSubset(f"{sub} leaves the ground set [1, {n}]")
    if any(sub[i] >= sub[i + 1] for i in range(r - 1)):
        raise BadSubset(f"{sub} is not strictly increasing")
    rank = 1
    prev = 0
    for i, x in enumerate(sub):
        for y in range(prev + 1, x):
            rank += comb(n - y, r - i - 1)
        prev = x
    return rank


def lex_unrank(rank: int, size: int, n: int) -> tuple[int, ...]:
    """Inverse of lex_rank: the rank-th size-subset of [1, n]."""
    require_ints(rank=rank, size=size, n=n)
    if size < 0 or size > n:
        raise BadSubset(f"size {size} outside [0, {n}]")
    if not (1 <= rank <= comb(n, size)):
        raise OutOfRange(f"rank {rank} outside [1, {comb(n, size)}]")
    out = []
    rank -= 1
    x = 1
    for i in range(size):
        while True:
            block = comb(n - x, size - i - 1)
            if rank < block:
                break
            rank -= block
            x += 1
        out.append(x)
        x += 1
    return tuple(out)


def partition_pda_by_walk(m: int, q: int) -> tuple[Pda, tuple[tuple[int, ...], ...]]:
    """partition_pda by a walk of its cells, numbering the off-row vectors
    through a dict as the walk meets them."""
    PartitionParams(m, q)  # range check
    rows = []
    for free in product(range(1, q + 1), repeat=m - 1):
        rows.append(free + (mod1(sum(free), q),))
    numbering: dict[tuple[int, ...], int] = {}
    labels: list[tuple[int, ...]] = []
    grid = []
    for f in rows:
        row = []
        for delta in range(1, m + 1):
            for b in range(1, q + 1):
                if f[delta - 1] == b:
                    row.append(STAR)
                    continue
                e = f[: delta - 1] + (b,) + f[delta:]
                if e not in numbering:
                    numbering[e] = len(numbering) + 1
                    labels.append(e)
                row.append(numbering[e])
        grid.append(tuple(row))
    pda = Pda(
        rows=q ** (m - 1),
        cols=m * q,
        entries=tuple(grid),
        z=q ** (m - 2),
        s=(q - 1) * q ** (m - 1),
    )
    return pda, tuple(labels)


def mn_pda_by_lex_rank(k_prime: int, t: int) -> Pda:
    """The binomial array with every integer cell ranked by lex_rank on its own."""
    MnParams(k_prime, t)  # range check
    rows = list(combinations(range(1, k_prime + 1), t))
    grid = []
    for tt in rows:
        members = set(tt)
        row = []
        for k in range(1, k_prime + 1):
            if k in members:
                row.append(STAR)
            else:
                row.append(lex_rank(tuple(sorted(members | {k})), k_prime))
        grid.append(tuple(row))
    z = comb(k_prime - 1, t - 1) if t >= 1 else 0
    return Pda(
        rows=len(rows),
        cols=k_prime,
        entries=tuple(grid),
        z=z,
        s=comb(k_prime, t + 1),
    )


def expand_by_generator(p: Pda, star_cells: tuple, integer_cell) -> tuple[tuple, ...]:
    """The base rows with each star widened to star_cells and each integer v
    replaced by the one cell integer_cell(v), built by one nested generator."""
    return tuple(
        tuple(x for v in row for x in (star_cells if v == STAR else (integer_cell(v),)))
        for row in p.entries
    )


def envelope_eval_by_scan(curve: LoadCurve, x) -> Fraction:
    """Interpolate on the hull, scanning the segments from the left."""
    x = Fraction(x)
    pts = curve.points
    if x < pts[0].ratio:
        raise OutOfRange(f"x={x} below the first corner {pts[0].ratio}")
    if x >= pts[-1].ratio:
        return pts[-1].load
    for a, b in zip(pts, pts[1:]):
        if a.ratio <= x <= b.ratio:
            w = (x - a.ratio) / (b.ratio - a.ratio)
            return a.load + w * (b.load - a.load)
    raise AssertionError("unreachable")


def gap_checks_by_scan(k: int, l: int) -> dict:
    """gap_checks with uncached hulls, each envelope value found by
    envelope_eval_by_scan and each corner load computed where it is reported."""
    tmax = k // l
    report: dict = {"k": k, "l": l}
    if k % l != 0 and tmax >= 1:
        t0 = k // (2 * l)
        rhs = Fraction(k - t0, k - l * t0)
        hkd, t1 = (envelope(scheme_points(k, l, name)) for name in ("hkd", "t1"))
        corners = [Fraction(t, k) for t in range(t0, tmax + 1)] + [Fraction(1, l)]
        mids = [(a + b) / 2 for a, b in zip(corners, corners[1:])]
        entries = []
        for x in sorted(set(corners[1:-1] + mids)):
            num, den = envelope_eval_by_scan(hkd, x), envelope_eval_by_scan(t1, x)
            ratio = num / den if den else None
            entries.append({"x": x, "ratio": ratio, "strict": ratio is not None and ratio > rhs})
        boundary = envelope_eval_by_scan(hkd, corners[0]) / envelope_eval_by_scan(t1, corners[0])
        report["hkd"] = {"applicable": True, "t0": t0, "rhs": rhs, "entries": entries,
                         "equality_at_boundary": boundary == rhs,
                         "all_strict_inside": all(e["strict"] for e in entries)}
    else:
        report["hkd"] = {"applicable": False}
    rk = [{"t": t, "t1": r_t1(k, l, t), "rk": r_rk(k, l, t), "hypothesis": k > (t + 1) * l,
           "strict": r_t1(k, l, t) < r_rk(k, l, t)} for t in range(1, tmax + 1)]
    report["rk"] = {"entries": rk,
                    "all_strict_on_hypothesis": all(e["strict"] for e in rk if e["hypothesis"])}
    sr = [{"t": t, "t1": r_t1(k, l, t), "sr": r_sr(k, l, t),
           "proven_region": Fraction(t, 2) * (1 - Fraction(t * l, k)) >= 1,
           "strict": r_t1(k, l, t) < r_sr(k, l, t)} for t in range(1, tmax + 1)]
    report["sr"] = {"entries": sr,
                    "all_strict_on_proven_region": all(e["strict"] for e in sr if e["proven_region"])}
    return report


def comparison_table_by_scan(k: int, l: int, schemes, step) -> tuple[list[str], list[list]]:
    """The comparison table cell by cell: an uncached hull per scheme, a scan
    of it and a fresh converse bound for every cell."""
    step = Fraction(step)
    if step <= 0:
        raise OutOfRange(f"step={step} must be positive")
    curves = {}
    for name in schemes:
        if name == "conv":
            continue
        curves[name] = envelope(scheme_points(k, l, name))
    header = ["m_over_n"] + list(schemes)
    rows = []
    x = Fraction(0)
    top = Fraction(1, l)
    while True:
        row = [x]
        for name in schemes:
            if name == "conv":
                row.append(converse_step(k, l, x))
            else:
                row.append(envelope_eval_by_scan(curves[name], x))
        rows.append(row)
        if x >= top:
            break
        x = min(x + step, top)
    return header, rows


def node_placement(p: Pda, k: int, l: int) -> RoundArray:
    """The round-1 placement by the window formula: the h-th star of a base
    row, at column c, caches at node c + h(l-1), the right end of its block
    in retrieve_window.

    Raises OutOfRange when k or l is below 1, C4Violation when rows differ in
    star count and DimensionMismatch when k is not K' + t(l-1).
    """
    if k < 1 or l < 1:
        raise OutOfRange(f"k={k}, l={l} must be >= 1")
    if not check_c4(p):
        raise C4Violation("base array must have a uniform per-row star count")
    t = p.z * p.cols // p.rows
    if p.cols + t * (l - 1) != k:
        raise DimensionMismatch(
            f"array has {p.cols} columns, need k - t(l-1) = {k - t * (l - 1)}"
        )
    grid = []
    for row in p.entries:
        stars = [c for c, v in enumerate(row, start=1) if v == STAR]
        nodes = {c + h * (l - 1) for h, c in enumerate(stars, start=1)}
        grid.append(tuple(node in nodes for node in range(1, k + 1)))
    return RoundArray(round=1, grid=tuple(grid))


def user_retrieve(c: RoundArray, l: int) -> RoundArray:
    """Mark, per user, the rows present in any of its l consecutive nodes.

    Raises OutOfRange for a cached node in the first l-1 columns and
    DimensionMismatch for an empty grid or when two windows of one row
    overlap.
    """
    if c.round != 1:
        raise OutOfRange("user_retrieve expects the round-1 placement")
    if l < 1:
        raise OutOfRange(f"l={l} must be >= 1")
    if not c.grid:
        raise DimensionMismatch("user_retrieve needs a placement with at least one row")
    k = len(c.grid[0])
    grid = []
    for j, row in enumerate(c.grid, start=1):
        stars = [i + 1 for i, v in enumerate(row) if v]
        cover = set()
        for s in stars:
            if s < l:
                raise OutOfRange(f"row {j}: cached node {s} sits before column l={l}")
            cover.update(range(s - l + 1, s + 1))
        if len(cover) != l * len(stars):
            raise DimensionMismatch(f"row {j}: retrieve windows of nodes {stars} overlap")
        grid.append(tuple(u in cover for u in range(1, k + 1)))
    return RoundArray(round=1, grid=tuple(grid))


def delivery_fill_maps(p: Pda, u: RoundArray) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per row, the (filled user column, source array column) pairs in order.

    The h-th null column of a user-retrieve row receives the h-th integer of
    the corresponding base-array row.
    """
    if p.rows != len(u.grid):
        raise DimensionMismatch(f"{p.rows} base rows vs {len(u.grid)} retrieve rows")
    maps = []
    for j in range(p.rows):
        nulls = [c for c, v in enumerate(u.grid[j], start=1) if not v]
        srcs = [c for c, v in enumerate(p.entries[j], start=1) if v != STAR]
        if len(nulls) != len(srcs):
            raise DimensionMismatch(
                f"row {j + 1}: {len(nulls)} nulls vs {len(srcs)} integers"
            )
        maps.append(tuple(zip(nulls, srcs)))
    return tuple(maps)


def user_delivery(p: Pda, u: RoundArray) -> RoundArray:
    """Fill the null cells of the retrieve grid with the base-array integers.

    Raises C3ViolationInQ (condition C5) when the result breaks the
    crossing rule.
    """
    if u.round != 1:
        raise OutOfRange("user_delivery expects the round-1 retrieve array")
    maps = delivery_fill_maps(p, u)
    grid = []
    for j, row in enumerate(u.grid):
        out = [STAR if v else 0 for v in row]
        for fill_col, src_col in maps[j]:
            out[fill_col - 1] = p.entries[j][src_col - 1]
        grid.append(tuple(out))
    bad = crossing_violations(grid)
    if bad:
        raise C3ViolationInQ(f"equal integers clash at {bad[0][0]} and {bad[0][1]}")
    return RoundArray(round=1, grid=tuple(grid))


def build_scheme_by_steps(
    p: Pda, k: int, l: int, n: int | None = None
) -> tuple[MultiaccessParams, RoundArray, RoundArray]:
    """The lift step by step: placement, retrieve windows, fill maps, delivery.

    Returns the params and the placement and delivery grids after the same
    checks in the same order as build_scheme, which reaches both grids by
    star expansion instead.
    """
    if k < 1 or l < 1:
        raise OutOfRange(f"k={k}, l={l} must be >= 1")
    used = {v for row in p.entries for v in row}
    missing = [v for v in range(1, p.s + 1) if v not in used]
    if missing:
        raise ConditionViolation("C2", f"integer {missing[0]} of [1, {p.s}] never occurs")
    if not check_c4(p):
        raise C4Violation("base array must have a uniform per-row star count")
    params = MultiaccessParams(
        k=k, l=l, t=p.z * p.cols // p.rows, n=k if n is None else n, k_prime=p.cols
    )
    c1 = node_placement(p, k, l)
    q1 = user_delivery(p, user_retrieve(c1, l))
    return params, c1, q1


def json_placement(scheme: Scheme) -> tuple[tuple[bool, ...], ...]:
    """The round-1 placement grid read back from the node_placement rows of
    the scheme's JSON form: True where the node caches the row."""
    rows = json.loads(scheme_to_json(scheme, include_arrays=True))["arrays"]["node_placement"]
    return tuple(tuple(mark == "*" for mark in row) for row in rows)


def populate_caches(library: PacketLibrary, scheme: Scheme) -> tuple[frozenset, ...]:
    """Per node, the (part g, packet j) pairs it stores for every file, from
    node_placement's round-1 grid: round g caches round 1's column c at node
    mod1(c + g - 1, K)."""
    _check_dims(library, scheme)
    k = scheme.params.k
    caches: list[set] = [set() for _ in range(k)]
    for j, row in enumerate(node_placement(scheme.pda, k, scheme.l).grid, start=1):
        for c, starred in enumerate(row):
            if starred:
                for g in range(1, k + 1):
                    caches[(c + g - 1) % k].add((g, j))
    return tuple(frozenset(s) for s in caches)


def user_view(scheme: Scheme, user: int, g: int) -> frozenset[int]:
    """Rows of part g (1-based) the user can read through its l consecutive nodes."""
    views = scheme.plan.views[:, (user - g) % scheme.params.k]
    return frozenset((np.flatnonzero(views) + 1).tolist())


def demand_suite(k: int, n: int, seed: int = 0, n_random: int = 20,
                 exhaustive_cap: int = 100_000) -> tuple[tuple[int, ...], ...]:
    """Demand vectors for sweeps: exhaustive when small, else a fixed recipe.

    The recipe is identity (cyclic when n < k), constant, reversed, then
    seeded uniform samples.
    """
    if n**k <= exhaustive_cap:
        return tuple(product(range(1, n + 1), repeat=k))
    rng = random.Random(seed)
    fixed = [
        tuple(mod1(i, n) for i in range(1, k + 1)),
        tuple(1 for _ in range(k)),
        tuple(mod1(k - i + 1, n) for i in range(1, k + 1)),
    ]
    rand = [tuple(rng.randint(1, n) for _ in range(k)) for _ in range(n_random)]
    return tuple(fixed + rand)


def node_cache_bytes(library: PacketLibrary, cache: frozenset) -> int:
    """Bytes a node holds: its (g, j) pairs across all files."""
    return len(cache) * library.n_files * library.packet_bytes


def user_view_via_nodes(
    scheme: Scheme, caches: tuple[frozenset, ...], user: int, g: int
) -> frozenset[int]:
    """A user's part-g view, derived from the node caches instead of the delivery grid."""
    k = scheme.params.k
    rows = set()
    for off in range(scheme.params.l):
        node = mod1(user + off, k)
        rows.update(j for (gg, j) in caches[node - 1] if gg == g)
    return frozenset(rows)


def library_by_ints(
    scheme: Scheme, n_files: int | None = None, packet_bytes: int = 1, seed: int = 0
) -> PacketLibrary:
    """library_for_scheme one packet int at a time: a getrandbits draw per
    packet, files then parts then rows, handed to the public constructor."""
    n = scheme.params.n if n_files is None else n_files
    rng = random.Random(seed)
    data = tuple(
        tuple(
            tuple(rng.getrandbits(8 * packet_bytes) for _ in range(scheme.pda.rows))
            for _ in range(scheme.params.k)
        )
        for _ in range(n)
    )
    return PacketLibrary(n, scheme.params.k, scheme.pda.rows, packet_bytes, data)


def _round_parts(library: PacketLibrary, d: tuple[int, ...], k: int, g: int) -> list:
    """Part g of each user's demanded file, listed by 0-based round-1 column."""
    data = library.data
    return [data[d[(c + g - 1) % k] - 1][g - 1] for c in range(k)]


def round_payloads(
    library: PacketLibrary, scheme: Scheme, d: tuple[int, ...], g: int
) -> list[int]:
    """Payloads of round g's messages s = 1..S under a checked demand d, one
    cell's packet int at a time."""
    parts = _round_parts(library, d, scheme.params.k, g)
    cells = plan_by_walk(scheme).cells
    out = []
    for s in range(1, scheme.pda.s + 1):
        payload = 0
        for j, c in cells[s]:
            payload ^= parts[c][j]
        out.append(payload)
    return out


def deliver_by_cells(library: PacketLibrary, scheme: Scheme, demand) -> TransmissionLog:
    """The plain delivery as round_payloads over all K rounds."""
    _check_dims(library, scheme)
    d = check_demand(demand, scheme.params.k, library.n_files)
    payloads = tuple(
        p for g in range(1, scheme.params.k + 1) for p in round_payloads(library, scheme, d, g)
    )
    return TransmissionLog(payloads=payloads, packet_bytes=library.packet_bytes)


def decode_by_recipes(
    library: PacketLibrary, scheme: Scheme, demand, payloads, user: int
) -> bytes:
    """The plain decode as a walk of plan_by_walk's recipes, round by round
    and row by row, XORing packet ints; each payload is checked as the walk
    reads it."""
    _check_dims(library, scheme)
    k, n_s = scheme.params.k, scheme.pda.s
    d = check_demand(demand, k, library.n_files)
    check_user(user, k)
    payloads = converted(tuple, payloads, "message payloads", DimensionMismatch)
    if len(payloads) != k * n_s:
        raise DimensionMismatch(f"{len(payloads)} message payloads, K*S={k * n_s} expected")
    limit = 1 << 8 * library.packet_bytes
    recipes = plan_by_walk(scheme).recipes
    want = library.data[d[user - 1] - 1]
    out = []
    for g in range(1, k + 1):
        parts = _round_parts(library, d, k, g)
        own = want[g - 1]
        for j, step in enumerate(recipes[(user - g) % k]):
            if step is None:
                out.append(own[j])
                continue
            s, peers = step
            val = payloads[(g - 1) * n_s + s - 1]
            if val is None:
                raise UndecodablePacket(f"message (g={g}, s={s}) missing from the log")
            if not (is_int(val) and 0 <= val < limit):
                raise OutOfRange(
                    f"message payload {val!r} lies outside the {library.packet_bytes}-byte integers"
                )
            for jj, cc in peers:
                val ^= parts[cc][jj]
            out.append(val)
    return b"".join(p.to_bytes(library.packet_bytes, "big") for p in out)


def count_sq_oracle(k: int, l: int, t: int, q: int) -> dict[str, int]:
    """Brute-force the candidate readings of the gap constraint.

    interval_cyclic: pairwise distance around a q-cycle on [1, q]
    global_cyclic:   pairwise distance around the K-cycle, both orderings
    global_forward:  Mod(x - y, K) >= l for x > y only
    """
    if not (1 <= t <= k // l):
        raise OutOfRange(f"t={t} outside [1, {k // l}]")
    if not (t * l <= q <= k):
        raise OutOfRange(f"q={q} outside [tL, K] = [{t * l}, {k}]")
    counts = {"interval_cyclic": 0, "global_cyclic": 0, "global_forward": 0}
    for sub in combinations(range(1, q + 1), t):
        ok_int = all(
            min((x - y) % q, (y - x) % q) >= l for x, y in combinations(sub, 2)
        )
        ok_glob = all(
            min((x - y) % k, (y - x) % k) >= l for x, y in combinations(sub, 2)
        )
        ok_fwd = all((x - y) % k >= l for y, x in combinations(sub, 2))
        counts["interval_cyclic"] += ok_int
        counts["global_cyclic"] += ok_glob
        counts["global_forward"] += ok_fwd
    return counts


def is_invertible(gf: GF, a: np.ndarray) -> bool:
    """Whether a square matrix over gf has an inverse, by elimination."""
    try:
        gf.solve(a, np.eye(a.shape[0], dtype=np.uint32))
        return True
    except SingularSystem:
        return False


def packet_to_symbols_by_bytes(x: int, packet_bytes: int, width: int) -> list[int]:
    """One packet integer split into big-endian symbols, a slice of bytes at a time."""
    sw = _symbol_bytes(width, packet_bytes)
    try:
        raw = x.to_bytes(packet_bytes, "big")
    except OverflowError as e:
        raise OutOfRange(f"packet does not fit {packet_bytes} bytes") from e
    return [int.from_bytes(raw[i:i + sw], "big") for i in range(0, packet_bytes, sw)]


def symbols_to_packet_by_bytes(symbols, packet_bytes: int, width: int) -> int:
    """Inverse of packet_to_symbols_by_bytes, one symbol's bytes at a time."""
    sw = _symbol_bytes(width, packet_bytes)
    if len(symbols) * sw != packet_bytes:
        raise DimensionMismatch(f"{len(symbols)} symbols do not fill {packet_bytes} bytes")
    try:
        raw = b"".join(int(s).to_bytes(sw, "big") for s in symbols)
    except OverflowError as e:
        raise OutOfRange(f"symbol outside GF(2^{width})") from e
    return int.from_bytes(raw, "big")


def messages_read(scheme: Scheme, user: int) -> frozenset[int]:
    """Log positions of the messages whose payloads the user's decode XORs."""
    k = scheme.params.k
    check_user(user, k)
    recipes = plan_by_walk(scheme).recipes
    return frozenset(
        (g - 1) * scheme.pda.s + step[0] - 1
        for g in range(1, k + 1)
        for step in recipes[(user - g) % k]
        if step is not None
    )


def compressed_decode_by_elimination(
    library: PacketLibrary, scheme: Scheme, demand, batch: CodedBatch, user: int
) -> bytes:
    """The coded decode by Gauss-Jordan elimination on the whole m1 x m1 system.

    Full-view rounds come from the delivery grid's stars, every unknown is solved
    with GF.solve against the batch's own matrix, packets are converted
    one at a time by slicing bytes, and the file comes from the K*S messages
    by decode_by_recipes, a walk of plan_by_walk's recipes.
    """
    k = scheme.params.k
    d = check_demand(demand, k, library.n_files)
    gf = field(batch.field_width)
    order = [(g, s) for g in range(1, k + 1) for s in range(1, scheme.pda.s + 1)]
    index = {gs: i for i, gs in enumerate(order)}
    full_cols = [
        c for c in range(1, k + 1) if all(row[c - 1] == STAR for row in scheme.delivery.grid)
    ]
    msgs = {
        (g, s): payload
        for g in sorted(mod1(user - c + 1, k) for c in full_cols)
        for s, payload in enumerate(round_payloads(library, scheme, d, g), start=1)
    }
    known = list(msgs)
    unknown = [i for i, gs in enumerate(order) if gs not in msgs]
    if len(unknown) != batch.m1:
        raise SingularSystem(f"{len(unknown)} unknowns against {batch.m1} coded rows")
    g_mat = batch.coding_matrix
    rhs = np.array(
        [packet_to_symbols_by_bytes(p, batch.packet_bytes, gf.width) for p in batch.payloads],
        dtype=np.uint32,
    )
    if known:
        xk = np.array(
            [packet_to_symbols_by_bytes(msgs[gs], batch.packet_bytes, gf.width) for gs in known],
            dtype=np.uint32,
        )
        rhs ^= gf.matmul(g_mat[:, [index[gs] for gs in known]], xk)
    solved = gf.solve(g_mat[:, unknown], rhs)
    for row, i in enumerate(unknown):
        msgs[order[i]] = symbols_to_packet_by_bytes(solved[row], batch.packet_bytes, gf.width)
    return decode_by_recipes(library, scheme, demand, [msgs[gs] for gs in order], user)


def compressed_deliver_by_ints(
    library: PacketLibrary, scheme: Scheme, demand, field_width: int | None = None
) -> CodedBatch:
    """The coded delivery over the plain log of packet ints: every payload
    converted to symbols, coded and converted back, with one coded row per
    integer for each delivery grid column that holds an integer."""
    log = deliver(library, scheme, demand)
    k, s, b = scheme.params.k, scheme.pda.s, library.packet_bytes
    rows = sum(any(row[c] != STAR for row in scheme.delivery.grid) for c in range(k))
    gf = _pick_field(rows, k, s, b, field_width)
    x = packets_to_symbols(log.payloads, b, gf.width).reshape(k, -1)
    coded = x[:rows] ^ gf.matmul(_coding_block(rows, k, gf.width), x[rows:])
    return CodedBatch(
        field_width=gf.width,
        m1=rows * s,
        m2=k * s,
        blocks=s,
        packet_bytes=b,
        payloads=tuple(symbols_to_packets(coded.reshape(rows * s, -1), b, gf.width)),
    )


def compressed_decode_all_rounds(
    library: PacketLibrary, scheme: Scheme, demand, batch: CodedBatch, user: int
) -> bytes:
    """The closed-form coded decode that solves every unseen round of every
    integer: the unseen parity rounds by the inverse of P's minor, then every
    unseen systematic round by one product of P's rows with all parity
    rounds, before decode_by_recipes builds the file from the K*S messages
    by a walk of plan_by_walk's recipes; the batch's symbols and the user's
    rounds are worked out again on every call."""
    _check_dims(library, scheme)
    k, s = scheme.params.k, scheme.pda.s
    d = check_demand(demand, k, library.n_files)
    check_user(user, k)
    gf = field(batch.field_width)
    known = [g - 1 for g in full_view_rounds(scheme, user)]
    unknown = sorted(set(range(k)) - set(known))
    n = len(unknown)
    if n * s != batch.m1:
        raise SingularSystem(f"{n * s} unknowns against {batch.m1} coded rows")
    _check_batch(batch, k * s, s, library.packet_bytes)
    w = gf.width
    coded = packets_to_symbols(batch.payloads, batch.packet_bytes, w)
    per_round = s * coded.shape[1]
    coded = coded.reshape(n, per_round)
    x = np.empty((k, per_round), dtype=np.uint32)
    seen = round_messages(library, scheme, d, [g + 1 for g in known])
    x[known] = bytes_to_symbols(seen, w).reshape(len(known), per_round)
    p_mat, parity = _coding_block(n, k, w), x[n:]
    ks, kp = [g for g in known if g < n], [g - n for g in known if g >= n]
    us, up = [g for g in unknown if g < n], [g - n for g in unknown if g >= n]
    if ks:
        rhs = coded[ks] ^ x[ks] ^ gf.matmul(p_mat[np.ix_(ks, kp)], parity[kp])
        parity[up] = gf.matmul(gf.cauchy_inverse(n, up, rows=ks), rhs)
    x[us] = coded[us] ^ gf.matmul(p_mat[us], parity)
    messages = symbols_to_bytes(x, w).reshape(k * s, batch.packet_bytes)
    payloads = [int.from_bytes(m.tobytes(), "big") for m in messages]
    return decode_by_recipes(library, scheme, demand, payloads, user)
