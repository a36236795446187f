"""Shaving redundant rounds off the delivery with an MDS code.

When every index-wise star spread lambda_h = a_h + l - b_h is positive, each
user sees complete rounds (full retrieve columns) sum(lambda) times, so it can
rebuild sum(lambda)*S messages on its own. The server then ships only
(K - sum(lambda))*S Cauchy-coded combinations of all K*S messages and every
user solves for its unknowns.
"""

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch, FieldTooSmall, NotApplicable, SingularSystem
from .gf2 import GF, cauchy_matrix, field, packet_to_symbols, symbols_to_packet
from .pda import Pda, star_profile
from .sim import (
    PacketLibrary,
    _check_dims,
    check_demand,
    check_user,
    decode_from_messages,
    deliver,
    round_payloads,
)
from .transform import Scheme
from .util import mod1


@dataclass(frozen=True)
class LambdaProfile:
    """Index-wise star spreads; compression applies when all are positive."""

    lambdas: tuple[int, ...]
    total: int
    applicable: bool

    def as_dict(self) -> dict:
        return {"lambdas": list(self.lambdas), "total": self.total, "applicable": self.applicable}


def lambda_profile(p: Pda, l: int) -> LambdaProfile:
    """lambda_h = a_h + l - b_h from the array's star extremes.

    Not applicable at t = 0 (no star indices to span rounds with).
    """
    prof = star_profile(p)
    lambdas = tuple(prof.a[h] + l - prof.b[h] for h in range(prof.t))
    applicable = prof.t >= 1 and all(x > 0 for x in lambdas)
    return LambdaProfile(lambdas=lambdas, total=sum(lambdas), applicable=applicable)


def full_view_rounds(scheme: Scheme, user: int) -> tuple[int, ...]:
    """Rounds whose retrieve column for this user is all stars."""
    k = scheme.params.k
    full_cols = [
        c for c in range(1, k + 1)
        if all(row[c - 1] for row in scheme.retrieve.grid)
    ]
    return tuple(sorted(mod1(user - c + 1, k) for c in full_cols))


def reconstructable_messages(scheme: Scheme, user: int) -> frozenset[tuple[int, int]]:
    """Messages the user can rebuild because it sees the whole round."""
    return frozenset(
        (g, s)
        for g in full_view_rounds(scheme, user)
        for s in range(1, scheme.pda.s + 1)
    )


def coverable_messages(scheme: Scheme, user: int) -> frozenset[tuple[int, int]]:
    """Messages all of whose constituent rows lie in the user's view.

    A superset of reconstructable_messages; the protocol only banks on the
    full-view rounds.
    """
    k = scheme.params.k
    check_user(user, k)
    plan = scheme.plan
    return frozenset(
        (g, s)
        for g in range(1, k + 1)
        for s, cells in plan.cells.items()
        if all(j in plan.views[(user - g) % k] for j, _ in cells)
    )


@dataclass(frozen=True, eq=False)
class CodedBatch:
    """Coded transmission: payload rows of G @ messages plus the G parameters."""

    field_width: int
    m1: int
    m2: int
    packet_bytes: int
    payloads: tuple[int, ...]
    coding_matrix: np.ndarray = dc_field(repr=False)

    def as_dict(self) -> dict:
        return {
            "field_width": self.field_width,
            "m1": self.m1,
            "m2": self.m2,
            "packet_bytes": self.packet_bytes,
            "payloads": list(self.payloads),
        }


def _pick_field(m1: int, m2: int, packet_bytes: int, field_width: int | None) -> GF:
    if field_width is None:
        field_width = 8 if m1 + m2 <= 256 else 16
    gf = field(field_width)
    if m1 + m2 > gf.order:
        raise FieldTooSmall(f"m1+m2={m1 + m2} needs order > {gf.order}; pass a wider field")
    sym = gf.width // 8 if gf.width >= 8 else 1
    if gf.width < 8 or packet_bytes % sym != 0:
        raise FieldTooSmall(
            f"packet_bytes={packet_bytes} is not a multiple of the "
            f"{gf.width}-bit symbol width"
        )
    return gf


def message_order(scheme: Scheme) -> tuple[tuple[int, int], ...]:
    """(g, s) lexicographic order shared by deliver and the coded path."""
    return tuple(
        (g, s)
        for g in range(1, scheme.params.k + 1)
        for s in range(1, scheme.pda.s + 1)
    )


def compressed_deliver(
    library: PacketLibrary, scheme: Scheme, demand, field_width: int | None = None
) -> CodedBatch:
    """Code all K*S messages down to (K - sum(lambda))*S rows."""
    prof = lambda_profile(scheme.pda, scheme.params.l)
    if not prof.applicable:
        raise NotApplicable(f"lambdas {prof.lambdas} are not all positive")
    log = deliver(library, scheme, demand)
    m2 = len(log.messages)
    m1 = (scheme.params.k - prof.total) * scheme.pda.s
    if m2 != scheme.params.k * scheme.pda.s:
        raise DimensionMismatch(f"log holds {m2} messages, K*S is {scheme.params.k * scheme.pda.s}")
    gf = _pick_field(m1, m2, library.packet_bytes, field_width)
    g_mat = cauchy_matrix(m1, m2, gf)
    x = np.array(
        [packet_to_symbols(p, library.packet_bytes, gf.width) for _, _, p in log.messages],
        dtype=np.uint32,
    )
    coded = gf.matmul(g_mat, x)
    payloads = tuple(
        symbols_to_packet(coded[i], library.packet_bytes, gf.width) for i in range(m1)
    )
    return CodedBatch(
        field_width=gf.width,
        m1=m1,
        m2=m2,
        packet_bytes=library.packet_bytes,
        payloads=payloads,
        coding_matrix=g_mat,
    )


def compressed_decode(
    library: PacketLibrary, scheme: Scheme, demand, batch: CodedBatch, user: int
) -> bytes:
    """Recover the user's file from its view plus the coded batch."""
    _check_dims(library, scheme)
    d = check_demand(demand, scheme.params.k, library.n_files)
    gf = field(batch.field_width)
    order = message_order(scheme)
    index = {gs: i for i, gs in enumerate(order)}

    # rebuild the messages of the fully seen rounds straight from the view
    msgs = {
        (g, s): payload
        for g in full_view_rounds(scheme, user)
        for s, payload in enumerate(round_payloads(library, scheme, d, g), start=1)
    }
    known = list(msgs)

    unknown = [i for i, gs in enumerate(order) if gs not in msgs]
    if len(unknown) != batch.m1:
        raise SingularSystem(
            f"{len(unknown)} unknowns against {batch.m1} coded rows"
        )
    g_mat = batch.coding_matrix
    rhs = np.array(
        [packet_to_symbols(p, batch.packet_bytes, gf.width) for p in batch.payloads],
        dtype=np.uint32,
    )
    if known:
        known_idx = [index[gs] for gs in known]
        xk = np.array(
            [packet_to_symbols(msgs[gs], batch.packet_bytes, gf.width) for gs in known],
            dtype=np.uint32,
        )
        rhs ^= gf.matmul(g_mat[:, known_idx], xk)
    solved = gf.solve(g_mat[:, unknown], rhs)
    for row, i in enumerate(unknown):
        msgs[order[i]] = symbols_to_packet(solved[row], batch.packet_bytes, gf.width)
    return decode_from_messages(library, scheme, demand, msgs, user)


def compressed_load(scheme: Scheme) -> Fraction:
    """(S/F') * (K - sum(lambda)) / K when applicable."""
    prof = lambda_profile(scheme.pda, scheme.params.l)
    if not prof.applicable:
        raise NotApplicable(f"lambdas {prof.lambdas} are not all positive")
    k = scheme.params.k
    return Fraction(scheme.pda.s, scheme.pda.rows) * Fraction(k - prof.total, k)
