"""Shaving redundant rounds off the delivery with an MDS code.

Each user sees c rounds whole, c the full-view columns of the delivery
plan's views, the same count for every user by cyclic symmetry: sum(lambda),
lambda_h = a_h + l - b_h the index-wise star spreads, on the paper's arrays,
and possibly more once their columns are reordered. The user rebuilds those
c*S messages on its own; as its known set is whole rounds, for every integer
s it knows the same c of the K messages (g, s). The server therefore codes
each integer on its own with one systematic block G = [I | P], shared by all
S integers: P is (K - c) x c, the first c columns of a (K - c) x K Cauchy
matrix. Coded row i of integer s is message (i+1, s) plus P's row i times
the last c rounds' messages (the parity rounds). Every square submatrix of a
Cauchy matrix is invertible, so any K - c columns of G are (Roth and
Seroussi 1985): G is MDS, and each user gets its unseen parity rounds from
the closed-form inverse of a P minor at most c square. So every message it
reads is a fixed combination of its c seen rounds, the systematic ones less
their coded rows, plus its own coded row when its round is systematic; the
coefficients depend on the user and the field alone. The load is that of
one MDS code over all K*S messages, (K - c)*S rows, and none when S = 0.

Packets reach the code as bytes, never as ints: round_messages gathers and
XORs a round's messages straight from the library's uint8 array, and their
symbols are those bytes read as big-endian words. A delivered batch keeps
its coded symbols and derives its int payloads only on request. A user
reads only the messages that carry its missing rows, one per row outside
its views: it takes the logs of its c seen rounds once, gathers those of
each message's integer and sums the products with its coefficients in one
step, then rebuilds the file with one gather from the library array
(sim.file_from_messages). The coefficients' logs, with the user's rounds,
are one table per user and field width, built on the first decode and kept
on the scheme.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, FieldTooSmall, NotApplicable, SingularSystem
from .gf2 import (
    GF,
    bytes_to_symbols,
    cauchy_matrix,
    field,
    packets_to_symbols,
    symbols_to_bytes,
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
from .util import packet_ints, require_ints, require_type


@dataclass(frozen=True)
class LambdaProfile:
    """Index-wise star spreads: if all are positive, each user sees sum(lambda)
    rounds whole on the paper's arrays, and possibly more on reordered ones."""

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
    check_user(user, scheme.params.k)
    return tuple(sorted((scheme.plan.rounds(user, scheme.plan.full_cols) + 1).tolist()))


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
    check_user(user, scheme.params.k)
    plan = scheme.plan
    # covered[s - 1, c]: every cell of integer s lies in round-1 column c's view
    covered = (plan.views[plan.cell_rows] | plan.cell_pad[..., None]).all(axis=0)
    g, s = np.nonzero(covered[:, plan.rounds(user, np.arange(scheme.params.k))].T)
    return frozenset((g * scheme.pda.s + s).tolist())


@dataclass(frozen=True)
class CodedBatch:
    """Coded transmission: payload rows of G @ messages plus the G parameters.

    G is kron([I | P], I_S) for the (m1/S) x (m2/S) systematic block [I | P]
    over GF(2^field_width), S the block count: coded row i*S + s - 1 is
    message (i+1, s) plus sum_j P[i, j] * message (m1/S + j + 1, s), and
    column (g-1)*S + s - 1 weights the message at that log position. G is not
    stored, so the batch names it by its shape, block count and field and
    compares by value. A delivered batch keeps only its coded `symbols`.
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

    def __getattr__(self, name):
        """payloads of a batch kept as its coded rows, read off them once."""
        if name != "payloads":
            raise AttributeError(name)
        payloads = packet_ints(symbols_to_bytes(self.symbols, self.field_width))
        object.__setattr__(self, "payloads", tuple(payloads))
        return self.payloads

    @cached_property
    def symbols(self) -> np.ndarray:
        """The coded rows as read-only symbols of the field's GF.dtype, one row
        per payload: kept by a delivered batch, split off the payloads on first
        use by any other (a dataclasses.replace copy included), once for all its users."""
        symbols = packets_to_symbols(self.payloads, self.packet_bytes, self.field_width)
        symbols.flags.writeable = False
        return symbols


def _coded_rounds(scheme: Scheme) -> int:
    """K - c, the coded rows per integer, c the rounds each user sees whole
    (the same for every user, by cyclic symmetry); NotApplicable when c = 0."""
    require_type(scheme, Scheme, "scheme")
    c = len(scheme.plan.full_cols)
    if not c:
        raise NotApplicable("no user sees a whole round: each delivery grid column holds an integer")
    return scheme.params.k - c


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
    k - rows columns of cauchy_matrix(rows, k) over GF(2^width), 0 x k at rows = 0,
    built once and read-only. Entry (i, g - rows) is 1/(i + g) for 0-based parity round g."""
    gf = field(width)
    block = cauchy_matrix(rows, k, gf)[:, :k - rows] if rows else np.zeros((rows, k), gf.dtype)
    block.flags.writeable = False
    return block


@lru_cache(maxsize=4)
def _coding_matrix(m1: int, m2: int, blocks: int, width: int) -> np.ndarray:
    """kron([I | P], I_blocks) for the (m1/blocks) x (m2/blocks) block, read-only;
    0 x 0 for the empty batch of an array with no integer (S = 0)."""
    if m1 == m2 == blocks == 0:
        g_mat = np.zeros((0, 0), field(width).dtype)
    else:
        if blocks < 1 or m1 % blocks or m2 % blocks:
            raise DimensionMismatch(f"m1={m1} and m2={m2} are not multiples of {blocks} >= 1 blocks")
        rows, k = m1 // blocks, m2 // blocks
        if not 1 <= rows <= k:
            raise DimensionMismatch(f"a {rows} x {k} block needs 1 <= {rows} <= {k} rows")
        block = _coding_block(rows, k, width)
        g_mat = np.kron(np.hstack([np.eye(rows, dtype=block.dtype), block]), np.eye(blocks, dtype=block.dtype))
    g_mat.flags.writeable = False
    return g_mat


def compressed_deliver(
    library: PacketLibrary, scheme: Scheme, demand, field_width: int | None = None
) -> CodedBatch:
    """Code all K*S messages down to (K - c)*S rows, c the rounds each user sees whole.

    round_messages lays message (g, s) at [g-1, s-1], so its symbols reshape
    to K rows of S packets each; one product of P with the c parity rows,
    added to the systematic rows, codes every integer at once, and coded row
    (i, s) lands at i*S + s - 1.
    """
    rows = _coded_rounds(scheme)
    _check_dims(library, scheme)
    k, s, b = scheme.params.k, scheme.pda.s, library.packet_bytes
    d = check_demand(demand, k, library.n_files)
    gf = _pick_field(rows, k, s, b, field_width)
    x = bytes_to_symbols(round_messages(library, scheme, d, range(1, k + 1)), gf.width).reshape(k, -1)
    coded = x[:rows] ^ gf.matmul(_coding_block(rows, k, gf.width), x[rows:])
    coded = coded.reshape(rows * s, b * 8 // gf.width)
    coded.flags.writeable = False
    batch = object.__new__(CodedBatch)  # kept as its rows: no payloads until a caller reads them
    vars(batch).update(field_width=gf.width, m1=rows * s, m2=k * s, blocks=s, packet_bytes=b, symbols=coded)
    return batch


def _check_batch(batch: CodedBatch, m2: int, blocks: int, packet_bytes: int) -> None:
    """The batch's rows, counted as kept, and dimensions fit K*S messages of packet_bytes bytes."""
    rows = len(vars(batch)["payloads"] if "payloads" in vars(batch) else batch.symbols)
    if (batch.m2, batch.blocks, batch.packet_bytes, rows) != (m2, blocks, packet_bytes, batch.m1):
        raise DimensionMismatch(
            f"batch of {rows} rows, m1={batch.m1}, m2={batch.m2}, "
            f"{batch.blocks} blocks, {batch.packet_bytes}-byte packets does not fit "
            f"K*S={m2}, S={blocks}, {packet_bytes}-byte packets"
        )


class _DecodeTable(NamedTuple):
    """A user's decode over one field, 0-based. z is its c seen rounds, the
    systematic ones first and each XORed with its coded row, which leaves P
    times the parity rounds. known: those rounds, ascending. logs: for each
    message the user reads, one per missing row in plan.miss_* order, the
    logs of its c coefficients over z, its round's row of [P; I_c] @ B, B the
    map from z to the parity rounds. rounds: each message's round,
    plan.rounds(user, plan.miss_cols). sys_at: the position of each message
    of a systematic round, which also takes its own coded row."""

    known: np.ndarray
    logs: np.ndarray
    rounds: np.ndarray
    sys_at: np.ndarray


def _decode_table(scheme: Scheme, user: int, gf: GF) -> _DecodeTable:
    k, plan = scheme.params.k, scheme.plan
    known = np.sort(plan.rounds(user, plan.full_cols))
    c = len(known)
    n = k - c  # systematic rounds, one per coded row of an integer
    ks, kp = known[known < n], known[known >= n] - n
    p_mat = _coding_block(n, k, gf.width)
    b = np.zeros((c, c), gf.dtype)
    b[kp, len(ks) + np.arange(len(kp))] = 1  # a seen parity round is its own row of z
    if len(ks):  # as many unseen parity rounds as seen systematic ones
        up = np.delete(np.arange(c), kp)
        inverse = gf.cauchy_inverse(n, up, rows=ks)
        b[up] = np.hstack([inverse, gf.matmul(inverse, p_mat[np.ix_(ks, kp)])])
    coefficients = gf.matmul(np.vstack([p_mat, np.eye(c, dtype=gf.dtype)]), b)
    rounds = plan.rounds(user, plan.miss_cols)
    return _DecodeTable(known, gf.logs(coefficients[rounds]), rounds, np.flatnonzero(rounds < n))


def compressed_decode(
    library: PacketLibrary, scheme: Scheme, demand, batch: CodedBatch, user: int
) -> bytes:
    """Recover the user's file from its view plus the coded batch.

    The user reads one message per row outside its views. Its c fully seen
    rounds come straight from the view, the same rounds for every integer;
    each coded row of a seen systematic round, less that round, is P's row
    times the parity rounds. With the seen parity rounds these c rows, z,
    give every parity round in closed form: the unseen ones by the inverse
    of P's minor on the seen systematic and unseen parity rounds, a square
    Cauchy matrix, so no elimination runs. Every needed message is thus a
    fixed combination of its integer's z, plus its coded row when its round
    is systematic: z's logs are taken once and the c products summed in one
    step, and the messages fill the rows outside the user's view in one
    gather. The coefficients depend on the scheme, the user and the field
    only: the first decode at a field width builds them and the scheme keeps them.
    """
    _check_dims(library, scheme)
    k, s = scheme.params.k, scheme.pda.s
    d = check_demand(demand, k, library.n_files)
    check_user(user, k)
    require_type(batch, CodedBatch, "batch")
    gf = field(batch.field_width)
    n = k - len(scheme.plan.full_cols)
    if n * s != batch.m1:
        raise SingularSystem(f"{n * s} unknowns against {batch.m1} coded rows")
    _check_batch(batch, k * s, s, library.packet_bytes)
    coded = batch.symbols.reshape(n, s, batch.symbols.shape[1])
    key = ("decode", user, gf.width)
    table = scheme._tables.get(key)
    if table is None:
        table = scheme._tables[key] = _decode_table(scheme, user, gf)
    ints = scheme.plan.miss_ints
    z = bytes_to_symbols(round_messages(library, scheme, d, table.known + 1), gf.width)
    ks = table.known[table.known < n]
    z[:len(ks)] ^= coded[ks]
    messages = gf._dot_logs(table.logs, gf.logs(z)[:, ints])  # z's logs taken once, then gathered
    messages[table.sys_at] ^= coded[table.rounds[table.sys_at], ints[table.sys_at]]
    return file_from_messages(library, scheme, d, user, table.rounds, symbols_to_bytes(messages, gf.width))


def compressed_load(scheme: Scheme) -> Fraction:
    """(S/F') * (K - c) / K, c >= 1 the rounds each user sees whole: sum(lambda)
    on the paper's arrays, possibly more on a reordering of their columns."""
    return Fraction(_coded_rounds(scheme), scheme.params.k) * Fraction(scheme.pda.s, scheme.pda.rows)
