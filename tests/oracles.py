"""Brute-force reference implementations that tests compare the library against.

None of these is part of the `macc` API: each restates a result the library
computes another way.
"""

from itertools import combinations

import numpy as np

from macc import C4Violation, OutOfRange, Pda, SingularSystem, check_c4, star_profile
from macc.compress import CodedBatch, message_order
from macc.gf2 import field, packet_to_symbols, symbols_to_packet
from macc.pda import constituents
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
