"""Shaving redundant rounds off the delivery with an MDS code.

When every index-wise star spread lambda_h = a_h + l - b_h is positive, each
user sees complete rounds (full retrieve columns) sum(lambda) times, so it can
rebuild sum(lambda)*S messages on its own. Its known set is whole rounds, so
for every integer s it knows the same sum(lambda) of the K messages (g, s).
The server therefore codes each integer on its own: one (K - sum(lambda)) x K
Cauchy block B, shared by all S integers, turns the K messages (g, s) into
K - sum(lambda) rows, and every user solves each integer's unknown rounds
with the closed-form inverse of B's columns for those rounds. The load is
that of one MDS code over all K*S messages, (K - sum(lambda))*S rows.
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

    G is kron(B, I_S) for the (m1/S) x (m2/S) Cauchy block B over
    GF(2^field_width), S the block count: coded row i*S + s - 1 is
    sum_g B[i, g-1] * message (g, s), and column (g-1)*S + s - 1 weights the
    message at that log position. G is not stored, so the batch names it by
    its shape, block count and field and compares by value.
    """

    field_width: int
    m1: int
    m2: int
    blocks: int
    packet_bytes: int
    payloads: tuple[int, ...]

    @property
    def coding_matrix(self) -> np.ndarray:
        """G, read-only and shared by every batch of this shape and field."""
        return _coding_matrix(self.m1, self.m2, self.blocks, self.field_width)


def _pick_field(rows: int, k: int, s: int, packet_bytes: int, field_width: int | None) -> GF:
    """The batch's field: 8 bits when the whole (rows*s) x (k*s) code would fit
    in GF(2^8), else 16; only one rows x k block needs distinct elements."""
    if field_width is None:
        field_width = 8 if (rows + k) * s <= 256 else 16
    gf = field(field_width)
    if rows + k > gf.order:
        raise FieldTooSmall(f"a {rows} x {k} block needs order >= {rows + k}; pass a wider field")
    if gf.width < 8 or packet_bytes % (gf.width // 8):
        raise FieldTooSmall(
            f"packet_bytes={packet_bytes} is not a multiple of the "
            f"{gf.width}-bit symbol width"
        )
    return gf


@lru_cache(maxsize=4)
def _coding_block(rows: int, k: int, width: int) -> np.ndarray:
    """cauchy_matrix(rows, k) over GF(2^width), built once and read-only."""
    block = cauchy_matrix(rows, k, field(width))
    block.flags.writeable = False
    return block


@lru_cache(maxsize=4)
def _coding_matrix(m1: int, m2: int, blocks: int, width: int) -> np.ndarray:
    """kron(B, I_blocks) for the (m1/blocks) x (m2/blocks) block B, read-only."""
    g_mat = np.kron(_coding_block(m1 // blocks, m2 // blocks, width), np.eye(blocks, dtype=np.uint32))
    g_mat.flags.writeable = False
    return g_mat


def compressed_deliver(
    library: PacketLibrary, scheme: Scheme, demand, field_width: int | None = None
) -> CodedBatch:
    """Code all K*S messages down to (K - sum(lambda))*S rows.

    The log holds message (g, s) at (g-1)*S + s - 1, so its symbols reshape
    to K rows of S packets each; one product with the block codes every
    integer at once, and coded row (i, s) lands at i*S + s - 1.
    """
    prof = lambda_profile(scheme.pda, scheme.params.l)
    if not prof.applicable:
        raise NotApplicable(f"lambdas {prof.lambdas} are not all positive")
    log = deliver(library, scheme, demand)
    k, s, b = scheme.params.k, scheme.pda.s, library.packet_bytes
    rows = k - prof.total
    gf = _pick_field(rows, k, s, b, field_width)
    x = packets_to_symbols(log.payloads, b, gf.width)
    coded = gf.matmul(_coding_block(rows, k, gf.width), x.reshape(k, -1))
    return CodedBatch(
        field_width=gf.width,
        m1=rows * s,
        m2=k * s,
        blocks=s,
        packet_bytes=b,
        payloads=tuple(symbols_to_packets(coded.reshape(rows * s, -1), b, gf.width)),
    )


def _check_batch(batch: CodedBatch, m2: int, blocks: int, packet_bytes: int) -> None:
    """The batch's rows and dimensions fit K*S messages of packet_bytes bytes."""
    shape = (batch.m2, batch.blocks, batch.packet_bytes, len(batch.payloads))
    if shape != (m2, blocks, packet_bytes, batch.m1):
        raise DimensionMismatch(
            f"batch of {len(batch.payloads)} rows, m1={batch.m1}, m2={batch.m2}, "
            f"{batch.blocks} blocks, {batch.packet_bytes}-byte packets does not fit "
            f"K*S={m2}, S={blocks}, {packet_bytes}-byte packets"
        )


def compressed_decode(
    library: PacketLibrary, scheme: Scheme, demand, batch: CodedBatch, user: int
) -> bytes:
    """Recover the user's file from its view plus the coded batch.

    The fully seen rounds give their messages straight from the view. They
    are the same rounds for every integer, so folding them out of the batch
    leaves, per integer, the block's columns of the unseen rounds: one
    square Cauchy matrix, whose closed-form inverse solves every unseen
    round at once, so no elimination runs.
    """
    k, s = scheme.params.k, scheme.pda.s
    _check_dims(library, scheme)
    d = check_demand(demand, k, library.n_files)
    check_user(user, k)
    gf = field(batch.field_width)
    known = [g - 1 for g in full_view_rounds(scheme, user)]
    unknown = sorted(set(range(k)) - set(known))
    if len(unknown) * s != batch.m1:
        raise SingularSystem(f"{len(unknown) * s} unknowns against {batch.m1} coded rows")
    _check_batch(batch, k * s, s, library.packet_bytes)
    b, w = batch.packet_bytes, gf.width
    seen = [p for g in known for p in round_payloads(library, scheme, d, g + 1)]
    coded = packets_to_symbols(batch.payloads, b, w)
    per_round = s * coded.shape[1]  # symbols of one round's S messages
    rhs = coded.reshape(len(unknown), per_round)
    rhs ^= gf.matmul(
        _coding_block(len(unknown), k, w)[:, known],
        packets_to_symbols(seen, b, w).reshape(len(known), per_round),
    )
    solved = gf.matmul(gf.cauchy_inverse(len(unknown), unknown), rhs)
    solved = symbols_to_packets(solved.reshape(coded.shape), b, w)
    payloads = [0] * (k * s)
    for rounds, found in ((known, seen), (unknown, solved)):
        for r, g in enumerate(rounds):
            payloads[g * s:(g + 1) * s] = found[r * s:(r + 1) * s]
    return decode_from_messages(library, scheme, demand, payloads, user)


def compressed_load(scheme: Scheme) -> Fraction:
    """(S/F') * (K - sum(lambda)) / K when applicable."""
    prof = lambda_profile(scheme.pda, scheme.params.l)
    if not prof.applicable:
        raise NotApplicable(f"lambdas {prof.lambdas} are not all positive")
    k = scheme.params.k
    return Fraction(scheme.pda.s, scheme.pda.rows) * Fraction(k - prof.total, k)
