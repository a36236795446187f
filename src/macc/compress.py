"""Shaving redundant rounds off the delivery with an MDS code.

When every index-wise star spread lambda_h = a_h + l - b_h is positive, each
user sees complete rounds (full retrieve columns) sum(lambda) times, so it can
rebuild sum(lambda)*S messages on its own. Its known set is whole rounds, so
for every integer s it knows the same sum(lambda) of the K messages (g, s).
The server therefore codes each integer on its own with one systematic
block G = [I | P], shared by all S integers: P is (K - sum(lambda)) x
sum(lambda), the first sum(lambda) columns of a (K - sum(lambda)) x K Cauchy
matrix. Coded row i of integer s is message (i+1, s) plus P's row i times
the last sum(lambda) rounds' messages (the parity rounds). Every square
submatrix of a Cauchy matrix is invertible, so any K - sum(lambda) columns
of G are (Roth and Seroussi 1985): G is MDS, and each user solves its
unseen parity rounds with the closed-form inverse of a P minor at most
sum(lambda) square, then reads its unseen systematic rounds off the batch.
The load is that of one MDS code over all K*S messages, (K - sum(lambda))*S
rows.

Packets reach the code as bytes, never as ints: round_messages gathers and
XORs a round's messages straight from the library's uint8 array, and their
symbols are those bytes read as big-endian words. The batch's payloads are
ints, as the CodedBatch format says; a batch splits them into symbols once
(CodedBatch.symbols), which every user's decode shares, and a decode
rebuilds the file with one gather from the library array
(sim.file_from_messages).
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionMismatch, FieldTooSmall, NotApplicable, SingularSystem
from .gf2 import (
    GF,
    bytes_to_symbols,
    cauchy_matrix,
    field,
    packets_to_symbols,
    symbols_to_bytes,
    symbols_to_packets,
)
from .pda import Pda, star_profile
from .sim import (
    PacketLibrary,
    _check_dims,
    check_demand,
    check_user,
    file_from_messages,
    round_messages,
)
from .transform import Scheme, check_degree
from .util import mod1, require_ints, require_type


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
    check_degree(l)
    prof = star_profile(p)
    lambdas = tuple(prof.a[h] + l - prof.b[h] for h in range(prof.t))
    applicable = prof.t >= 1 and all(x > 0 for x in lambdas)
    return LambdaProfile(lambdas=lambdas, total=sum(lambdas), applicable=applicable)


def full_view_rounds(scheme: Scheme, user: int) -> tuple[int, ...]:
    """Rounds in which the user's view holds every row of the part."""
    require_type(scheme, Scheme, "scheme")
    k = scheme.params.k
    check_user(user, k)
    rows = scheme.pda.rows
    return tuple(sorted(
        mod1(user - c, k) for c, view in enumerate(scheme.plan.views) if len(view) == rows
    ))


def reconstructable_messages(scheme: Scheme, user: int) -> frozenset[int]:
    """Log positions of the messages the user rebuilds because it sees the whole round."""
    rounds = full_view_rounds(scheme, user)
    s = scheme.pda.s
    return frozenset(i for g in rounds for i in range((g - 1) * s, g * s))


def coverable_messages(scheme: Scheme, user: int) -> frozenset[int]:
    """Log positions of the messages all of whose constituent rows lie in the user's view.

    A superset of reconstructable_messages; the protocol only banks on the
    full-view rounds.
    """
    require_type(scheme, Scheme, "scheme")
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

    G is kron([I | P], I_S) for the (m1/S) x (m2/S) systematic block [I | P]
    over GF(2^field_width), S the block count: coded row i*S + s - 1 is
    message (i+1, s) plus sum_j P[i, j] * message (m1/S + j + 1, s), and
    column (g-1)*S + s - 1 weights the message at that log position. G is not
    stored, so the batch names it by its shape, block count and field and
    compares by value.
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
        require_ints(m1=self.m1, m2=self.m2, blocks=self.blocks, field_width=self.field_width)
        return _coding_matrix(self.m1, self.m2, self.blocks, self.field_width)

    @cached_property
    def symbols(self) -> np.ndarray:
        """The payloads split into field symbols, one read-only uint32 row per
        payload; converted on first use, so every user decoding the batch
        shares one conversion."""
        symbols = packets_to_symbols(self.payloads, self.packet_bytes, self.field_width)
        symbols.flags.writeable = False
        return symbols


def _applicable_profile(scheme: Scheme) -> LambdaProfile:
    """The scheme's lambda profile; NotApplicable unless every lambda is positive."""
    require_type(scheme, Scheme, "scheme")
    prof = lambda_profile(scheme.pda, scheme.params.l)
    if not prof.applicable:
        raise NotApplicable(f"lambdas {prof.lambdas} are not all positive")
    return prof


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
    """P, the parity part of the systematic block [I_rows | P]: the first
    k - rows columns of cauchy_matrix(rows, k) over GF(2^width), built once
    and read-only. Entry (i, g - rows) is 1/(i + g) for 0-based parity round g."""
    block = np.ascontiguousarray(cauchy_matrix(rows, k, field(width))[:, :k - rows])
    block.flags.writeable = False
    return block


@lru_cache(maxsize=4)
def _coding_matrix(m1: int, m2: int, blocks: int, width: int) -> np.ndarray:
    """kron([I | P], I_blocks) for the (m1/blocks) x (m2/blocks) block, read-only."""
    if blocks < 1 or m1 % blocks or m2 % blocks:
        raise DimensionMismatch(f"m1={m1} and m2={m2} are not multiples of {blocks} >= 1 blocks")
    rows, k = m1 // blocks, m2 // blocks
    if not 1 <= rows <= k:
        raise DimensionMismatch(f"a {rows} x {k} block needs 1 <= {rows} <= {k} rows")
    block = np.hstack([np.eye(rows, dtype=np.uint32), _coding_block(rows, k, width)])
    g_mat = np.kron(block, np.eye(blocks, dtype=np.uint32))
    g_mat.flags.writeable = False
    return g_mat


def compressed_deliver(
    library: PacketLibrary, scheme: Scheme, demand, field_width: int | None = None
) -> CodedBatch:
    """Code all K*S messages down to (K - sum(lambda))*S rows.

    round_messages lays message (g, s) at [g-1, s-1], so its symbols reshape
    to K rows of S packets each; one product of P with the sum(lambda) parity
    rows, added to the systematic rows, codes every integer at once, and
    coded row (i, s) lands at i*S + s - 1.
    """
    prof = _applicable_profile(scheme)
    _check_dims(library, scheme)
    k, s, b = scheme.params.k, scheme.pda.s, library.packet_bytes
    d = check_demand(demand, k, library.n_files)
    rows = k - prof.total
    gf = _pick_field(rows, k, s, b, field_width)
    x = bytes_to_symbols(round_messages(library, scheme, d, range(1, k + 1)), gf.width).reshape(k, -1)
    coded = x[:rows] ^ gf.matmul(_coding_block(rows, k, gf.width), x[rows:])
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
    are the same rounds for every integer. Each coded row of a seen
    systematic round, less that round and the seen parity rounds, leaves P's
    minor on those rows and the unseen parity rounds: a square Cauchy
    matrix, whose closed-form inverse solves those rounds. With every parity
    round known, each unseen systematic round is its coded row less P's row
    times the parity rounds, so no elimination runs. The solved messages
    then fill the rows outside the user's view in one gather.
    """
    _check_dims(library, scheme)
    k, s = scheme.params.k, scheme.pda.s
    d = check_demand(demand, k, library.n_files)
    check_user(user, k)
    require_type(batch, CodedBatch, "batch")
    gf = field(batch.field_width)
    known = [g - 1 for g in full_view_rounds(scheme, user)]
    unknown = sorted(set(range(k)) - set(known))
    n = len(unknown)  # systematic rounds, one per coded row of an integer
    if n * s != batch.m1:
        raise SingularSystem(f"{n * s} unknowns against {batch.m1} coded rows")
    _check_batch(batch, k * s, s, library.packet_bytes)
    w = gf.width
    per_round = s * batch.symbols.shape[1]  # symbols of one round's S messages
    coded = batch.symbols.reshape(n, per_round)
    x = np.empty((k, per_round), dtype=np.uint32)
    seen = round_messages(library, scheme, d, [g + 1 for g in known])
    x[known] = bytes_to_symbols(seen, w).reshape(len(known), per_round)
    p_mat, parity = _coding_block(n, k, w), x[n:]
    ks, kp = [g for g in known if g < n], [g - n for g in known if g >= n]
    us, up = [g for g in unknown if g < n], [g - n for g in unknown if g >= n]
    if ks:  # as many unseen parity rounds as seen systematic ones
        rhs = coded[ks] ^ x[ks] ^ gf.matmul(p_mat[np.ix_(ks, kp)], parity[kp])
        parity[up] = gf.matmul(gf.cauchy_inverse(n, up, rows=ks), rhs)
    x[us] = coded[us] ^ gf.matmul(p_mat[us], parity)
    messages = symbols_to_bytes(x, w).reshape(k, s, batch.packet_bytes)
    return file_from_messages(library, scheme, d, user, messages)


def compressed_load(scheme: Scheme) -> Fraction:
    """(S/F') * (K - sum(lambda)) / K when applicable."""
    prof = _applicable_profile(scheme)
    k = scheme.params.k
    return Fraction(scheme.pda.s, scheme.pda.rows) * Fraction(k - prof.total, k)
