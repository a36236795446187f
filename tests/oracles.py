"""Brute-force reference implementations that tests compare the library against.

None of these is part of the `macc` API: each restates a result the library
computes another way.
"""

from itertools import combinations

import numpy as np

from macc import (
    STAR,
    C3ViolationInQ,
    C4Violation,
    ConditionViolation,
    DimensionMismatch,
    MultiaccessParams,
    OutOfRange,
    Pda,
    RoundArray,
    RowCountMismatch,
    SingularSystem,
    check_c4,
    node_placement,
    star_profile,
)
from macc.compress import CodedBatch, message_order
from macc.gf2 import field, packet_to_symbols, symbols_to_packet
from macc.pda import constituents, crossing_violations, missing_values
from macc.sim import PacketLibrary, check_demand, decode_from_messages, round_payloads
from macc.transform import Scheme
from macc.util import mod1


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
        raise RowCountMismatch(f"{p.rows} base rows vs {len(u.grid)} retrieve rows")
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


def build_scheme_by_steps(p: Pda, k: int, l: int, n: int | None = None) -> Scheme:
    """The lift step by step: placement, retrieve windows, fill maps, delivery.

    The same checks in the same order as build_scheme, which reaches the
    three grids by star expansion instead.
    """
    missing = missing_values(p)
    if missing:
        raise ConditionViolation("C2", f"integer {missing[0]} of [1, {p.s}] never occurs")
    params = MultiaccessParams(
        k=k, l=l, t=p.z * p.cols // p.rows, n=k if n is None else n, k_prime=p.cols
    )
    c1 = node_placement(p, k, l)
    u1 = user_retrieve(c1, l)
    q1 = user_delivery(p, u1)
    return Scheme(params=params, pda=p, placement=c1, retrieve=u1, delivery=q1)


def node_cache_bytes(library: PacketLibrary, cache: frozenset) -> int:
    """Bytes a node holds: its (g, j) pairs across all files."""
    return len(cache) * library.n_files * library.packet_bytes


def user_view_via_nodes(
    scheme: Scheme, caches: tuple[frozenset, ...], user: int, g: int
) -> frozenset[int]:
    """A user's part-g view, derived from the node caches instead of the retrieve array."""
    k = scheme.params.k
    rows = set()
    for off in range(scheme.params.l):
        node = mod1(user + off, k)
        rows.update(j for (gg, j) in caches[node - 1] if gg == g)
    return frozenset(rows)


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


def compressed_decode_by_elimination(
    library: PacketLibrary, scheme: Scheme, demand, batch: CodedBatch, user: int
) -> bytes:
    """The coded decode by Gauss-Jordan elimination on the whole m1 x m1 system.

    Full-view rounds come from the retrieve grid, every unknown is solved
    with GF.solve against the batch's own matrix, and packets are converted
    one at a time.
    """
    k = scheme.params.k
    d = check_demand(demand, k, library.n_files)
    gf = field(batch.field_width)
    order = message_order(scheme)
    index = {gs: i for i, gs in enumerate(order)}
    full_cols = [c for c in range(1, k + 1) if all(row[c - 1] for row in scheme.retrieve.grid)]
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
        [packet_to_symbols(p, batch.packet_bytes, gf.width) for p in batch.payloads],
        dtype=np.uint32,
    )
    if known:
        xk = np.array(
            [packet_to_symbols(msgs[gs], batch.packet_bytes, gf.width) for gs in known],
            dtype=np.uint32,
        )
        rhs ^= gf.matmul(g_mat[:, [index[gs] for gs in known]], xk)
    solved = gf.solve(g_mat[:, unknown], rhs)
    for row, i in enumerate(unknown):
        msgs[order[i]] = symbols_to_packet(solved[row], batch.packet_bytes, gf.width)
    return decode_from_messages(library, scheme, demand, msgs, user)
