"""Shaving redundant rounds off the delivery with an MDS code.

When every index-wise star spread lambda_h = a_h + l - b_h is positive, each
user sees complete rounds (full retrieve columns) sum(lambda) times, so it can
rebuild sum(lambda)*S messages on its own. The server then ships only
(K - sum(lambda))*S Cauchy-coded combinations of all K*S messages and every
user solves for its unknowns.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, FieldTooSmall, NotApplicable, SingularSystem
from .gf2 import GF, cauchy_matrix, field, packets_to_symbols, symbols_to_packets
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


def lambda_profile(p: Pda, l: int) -> LambdaProfile:
    """lambda_h = a_h + l - b_h from the array's star extremes.

    Not applicable at t = 0 (no star indices to span rounds with).
    """
    prof = star_profile(p)
    lambdas = tuple(prof.a[h] + l - prof.b[h] for h in range(prof.t))
    applicable = prof.t >= 1 and all(x > 0 for x in lambdas)
    return LambdaProfile(lambdas=lambdas, total=sum(lambdas), applicable=applicable)


def full_view_rounds(scheme: Scheme, user: int) -> tuple[int, ...]:
    """Rounds in which the user's view holds every row of the part."""
    k = scheme.params.k
    rows = scheme.pda.rows
    return tuple(sorted(
        mod1(user - c, k) for c, view in enumerate(scheme.plan.views) if len(view) == rows
    ))


def reconstructable_messages(scheme: Scheme, user: int) -> frozenset[int]:
    """Log positions of the messages the user rebuilds because it sees the whole round."""
    s = scheme.pda.s
    return frozenset(
        i for g in full_view_rounds(scheme, user) for i in range((g - 1) * s, g * s)
    )


def coverable_messages(scheme: Scheme, user: int) -> frozenset[int]:
    """Log positions of the messages all of whose constituent rows lie in the user's view.

    A superset of reconstructable_messages; the protocol only banks on the
    full-view rounds.
    """
    k = scheme.params.k
    check_user(user, k)
    plan = scheme.plan
    return frozenset(
        (g - 1) * scheme.pda.s + s - 1
        for g in range(1, k + 1)
        for s, cells in plan.cells.items()
        if all(j in plan.views[(user - g) % k] for j, _ in cells)
    )


@dataclass(frozen=True)
class CodedBatch:
    """Coded transmission: payload rows of G @ messages plus the G parameters.

    Column i of G weights the message at log position i. G is not stored: it
    is the m1 x m2 Cauchy matrix over GF(2^field_width), so the batch names it
    by its shape and field and compares by value.
    """

    field_width: int
    m1: int
    m2: int
    packet_bytes: int
    payloads: tuple[int, ...]

    @property
    def coding_matrix(self) -> np.ndarray:
        """G, read-only and shared by every batch of this shape and field."""
        return _coding_matrix(self.m1, self.m2, self.field_width)


def _pick_field(m1: int, m2: int, packet_bytes: int, field_width: int | None) -> GF:
    if field_width is None:
        field_width = 8 if m1 + m2 <= 256 else 16
    gf = field(field_width)
    if m1 + m2 > gf.order:
        raise FieldTooSmall(f"m1+m2={m1 + m2} needs order > {gf.order}; pass a wider field")
    if gf.width < 8 or packet_bytes % (gf.width // 8):
        raise FieldTooSmall(
            f"packet_bytes={packet_bytes} is not a multiple of the "
            f"{gf.width}-bit symbol width"
        )
    return gf


@lru_cache(maxsize=4)
def _coding_matrix(m1: int, m2: int, width: int) -> np.ndarray:
    """cauchy_matrix(m1, m2) over GF(2^width), built once and read-only."""
    g_mat = cauchy_matrix(m1, m2, field(width))
    g_mat.flags.writeable = False
    return g_mat


def compressed_deliver(
    library: PacketLibrary, scheme: Scheme, demand, field_width: int | None = None
) -> CodedBatch:
    """Code all K*S messages down to (K - sum(lambda))*S rows."""
    prof = lambda_profile(scheme.pda, scheme.params.l)
    if not prof.applicable:
        raise NotApplicable(f"lambdas {prof.lambdas} are not all positive")
    log = deliver(library, scheme, demand)
    m2 = len(log.payloads)
    m1 = (scheme.params.k - prof.total) * scheme.pda.s
    gf = _pick_field(m1, m2, library.packet_bytes, field_width)
    g_mat = _coding_matrix(m1, m2, gf.width)
    x = packets_to_symbols(log.payloads, library.packet_bytes, gf.width)
    payloads = tuple(symbols_to_packets(gf.matmul(g_mat, x), library.packet_bytes, gf.width))
    return CodedBatch(
        field_width=gf.width,
        m1=m1,
        m2=m2,
        packet_bytes=library.packet_bytes,
        payloads=payloads,
    )


def _check_batch(batch: CodedBatch, m2: int, packet_bytes: int) -> None:
    """The batch's rows and dimensions fit K*S messages of packet_bytes bytes."""
    if batch.m2 != m2 or batch.packet_bytes != packet_bytes or len(batch.payloads) != batch.m1:
        raise DimensionMismatch(
            f"batch of {len(batch.payloads)} rows, m1={batch.m1}, m2={batch.m2}, "
            f"{batch.packet_bytes}-byte packets does not fit K*S={m2}, {packet_bytes}-byte packets"
        )


def messages_read(scheme: Scheme, user: int) -> frozenset[int]:
    """Log positions of the messages whose payloads the user's decode XORs."""
    k = scheme.params.k
    check_user(user, k)
    recipes = scheme.plan.recipes
    return frozenset(
        (g - 1) * scheme.pda.s + step[0] - 1
        for g in range(1, k + 1)
        for step in recipes[(user - g) % k]
        if step is not None
    )


def compressed_decode(
    library: PacketLibrary, scheme: Scheme, demand, batch: CodedBatch, user: int
) -> bytes:
    """Recover the user's file from its view plus the coded batch.

    The fully seen rounds give their messages straight from the view. Of the
    m1 unknowns, only those the user's decode reads are solved, each as one
    row of the closed-form inverse of the batch's Cauchy columns, so no
    elimination runs.
    """
    _check_dims(library, scheme)
    d = check_demand(demand, scheme.params.k, library.n_files)
    check_user(user, scheme.params.k)
    gf = field(batch.field_width)
    s = scheme.pda.s
    payloads: list[int | None] = [None] * (scheme.params.k * s)
    for g in full_view_rounds(scheme, user):
        payloads[(g - 1) * s:g * s] = round_payloads(library, scheme, d, g)
    known = [i for i, p in enumerate(payloads) if p is not None]
    unknown = [i for i, p in enumerate(payloads) if p is None]
    if len(unknown) != batch.m1:
        raise SingularSystem(
            f"{len(unknown)} unknowns against {batch.m1} coded rows"
        )
    _check_batch(batch, len(payloads), library.packet_bytes)
    g_mat = batch.coding_matrix
    read = messages_read(scheme, user)
    rows = [r for r, i in enumerate(unknown) if i in read]
    b, w = batch.packet_bytes, gf.width
    rhs = packets_to_symbols(batch.payloads, b, w)
    rhs ^= gf.matmul(g_mat[:, known], packets_to_symbols((payloads[i] for i in known), b, w))
    solved = gf.matmul(gf.cauchy_inverse(batch.m1, unknown, rows), rhs)
    for r, payload in zip(rows, symbols_to_packets(solved, b, w)):
        payloads[unknown[r]] = payload
    return decode_from_messages(library, scheme, demand, payloads, user)


def compressed_load(scheme: Scheme) -> Fraction:
    """(S/F') * (K - sum(lambda)) / K when applicable."""
    prof = lambda_profile(scheme.pda, scheme.params.l)
    if not prof.applicable:
        raise NotApplicable(f"lambdas {prof.lambdas} are not all positive")
    k = scheme.params.k
    return Fraction(scheme.pda.s, scheme.pda.rows) * Fraction(k - prof.total, k)
