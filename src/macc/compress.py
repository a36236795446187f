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
Seroussi 1985): G is MDS, and each user solves its unseen parity rounds with
the closed-form inverse of a P minor at most c square, then reads its unseen
systematic rounds off the batch. The load is that of one MDS code over all
K*S messages, (K - c)*S rows, and none when S = 0.

Packets reach the code as bytes, never as ints: round_messages gathers and
XORs a round's messages straight from the library's uint8 array, and their
symbols are those bytes read as big-endian words. The batch's payloads are
ints, as the CodedBatch format says, but delivery hands the batch the coded
symbols they came from (CodedBatch.symbols), so no decode converts them. A
user reads only the messages that carry its missing rows, one per row
outside its views, so its decode solves the unseen parity rounds and then
only those messages, and rebuilds the file with one gather from the library
array (sim.file_from_messages). What a decode needs of the scheme alone,
the user's rounds, its needed messages and their coefficients, is built once
per user and field width and kept on the scheme.
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
    k = scheme.params.k
    check_user(user, k)
    full = np.flatnonzero(scheme.plan.views.all(axis=0))
    return tuple(sorted(mod1(user - c, k) for c in full.tolist()))


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
    # covered[s - 1, c]: every cell of integer s lies in round-1 column c's view
    covered = (plan.views[plan.cell_rows] | plan.cell_pad[..., None]).all(axis=0)
    g, s = np.nonzero(covered[:, (user - 1 - np.arange(k)) % k].T)
    return frozenset((g * scheme.pda.s + s).tolist())


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
        payload. compressed_deliver hands over the symbols it coded; any other
        batch, a dataclasses.replace copy included, converts its payloads on
        first use, once for every user decoding it."""
        symbols = packets_to_symbols(self.payloads, self.packet_bytes, self.field_width)
        symbols.flags.writeable = False
        return symbols


def _kept(scheme: Scheme, key, build):
    """The scheme's table under key: build() on first use, then kept on the
    scheme (Scheme._tables)."""
    tables = scheme._tables
    if key not in tables:
        tables[key] = build()
    return tables[key]


def _coded_rounds(scheme: Scheme) -> int:
    """K - c, the coded rows per integer, c the rounds each user sees whole
    (the same for every user, by cyclic symmetry); NotApplicable when c = 0."""
    c = len(full_view_rounds(scheme, 1))
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
    block = cauchy_matrix(rows, k, field(width))[:, :k - rows] if rows else np.zeros((rows, k), np.uint32)
    block = np.ascontiguousarray(block)
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
    batch = CodedBatch(
        field_width=gf.width,
        m1=rows * s,
        m2=k * s,
        blocks=s,
        packet_bytes=b,
        payloads=tuple(symbols_to_packets(coded, b, gf.width)),
    )
    coded.flags.writeable = False
    object.__setattr__(batch, "symbols", coded)  # CodedBatch.symbols, already converted
    return batch


def _check_batch(batch: CodedBatch, m2: int, blocks: int, packet_bytes: int) -> None:
    """The batch's rows and dimensions fit K*S messages of packet_bytes bytes."""
    shape = (batch.m2, batch.blocks, batch.packet_bytes, len(batch.payloads))
    if shape != (m2, blocks, packet_bytes, batch.m1):
        raise DimensionMismatch(
            f"batch of {len(batch.payloads)} rows, m1={batch.m1}, m2={batch.m2}, "
            f"{batch.blocks} blocks, {batch.packet_bytes}-byte packets does not fit "
            f"K*S={m2}, S={blocks}, {packet_bytes}-byte packets"
        )


class _UserRounds(NamedTuple):
    """What a user's decode needs of the scheme alone, 0-based; kept apart
    from _DecodeTable because the batch checks read n before any field work.

    known: the user's full-view rounds, ascending, so the systematic ones
    come first; n: its unseen rounds, as many as coded rows per integer.
    ks: the seen systematic rounds; kp, up: the seen and the unseen parity
    rounds, parity round n + j counted as j. The messages the user reads,
    one per missing row in plan.miss_* order, split by their round: sys_at
    lists the positions of those in systematic rounds, sys_rounds and
    sys_ints their rounds and integers; par_at, par_rounds and par_ints the
    same for those in parity rounds, as parity indices.
    """

    known: np.ndarray
    n: int
    ks: np.ndarray
    kp: np.ndarray
    up: np.ndarray
    sys_at: np.ndarray
    sys_rounds: np.ndarray
    sys_ints: np.ndarray
    par_at: np.ndarray
    par_rounds: np.ndarray
    par_ints: np.ndarray


def _user_rounds(scheme: Scheme, user: int) -> _UserRounds:
    k, plan = scheme.params.k, scheme.plan
    known = np.array(full_view_rounds(scheme, user), dtype=np.intp) - 1
    n = k - len(known)
    seen = np.zeros(k, dtype=bool)
    seen[known] = True
    rounds = (user - 1 - plan.miss_cols) % k  # of each missing row, as in file_from_messages
    systematic = rounds < n
    return _UserRounds(
        known=known, n=n, ks=known[known < n], kp=known[known >= n] - n,
        up=np.flatnonzero(~seen[n:]),
        sys_at=np.flatnonzero(systematic), sys_rounds=rounds[systematic],
        sys_ints=plan.miss_ints[systematic],
        par_at=np.flatnonzero(~systematic), par_rounds=rounds[~systematic] - n,
        par_ints=plan.miss_ints[~systematic],
    )


class _DecodeTable(NamedTuple):
    """A user's decode over one field. solve: the closed-form inverse of P's
    minor on its seen systematic and unseen parity rounds, times [I | P's
    minor on the same rows and its seen parity rounds], so that it maps the
    seen rounds, the systematic ones less their coded rows, to the unseen
    parity rounds; None when the user sees no systematic round. sys_logs:
    the logs of P's row of each needed systematic message."""

    solve: np.ndarray | None
    sys_logs: np.ndarray


def _decode_table(scheme: Scheme, rounds: _UserRounds, gf: GF) -> _DecodeTable:
    n, ks = rounds.n, rounds.ks
    p_mat = _coding_block(n, scheme.params.k, gf.width)
    solve = None
    if len(ks):
        inverse = gf.cauchy_inverse(n, rounds.up, rows=ks)
        solve = np.hstack([inverse, gf.matmul(inverse, p_mat[np.ix_(ks, rounds.kp)])])
    return _DecodeTable(solve=solve, sys_logs=gf.logs(p_mat[rounds.sys_rounds]))


def compressed_decode(
    library: PacketLibrary, scheme: Scheme, demand, batch: CodedBatch, user: int
) -> bytes:
    """Recover the user's file from its view plus the coded batch.

    The user reads one message per row outside its views, and solves only
    those. The fully seen rounds give their messages straight from the
    view; they are the same rounds for every integer. Each coded row of a
    seen systematic round, less that round and the seen parity rounds,
    leaves P's minor on those rows and the unseen parity rounds: a square
    Cauchy matrix, whose closed-form inverse solves those rounds, so every
    parity round is known and no elimination runs. A needed message of a
    parity round is then read off them, and one of a systematic round is
    its coded row less its P row times its integer's parity messages. The
    messages fill the rows outside the user's view in one gather. The
    user's rounds and the P entries its decode reads are kept on the scheme
    after its first decode at this field width.
    """
    _check_dims(library, scheme)
    k, s = scheme.params.k, scheme.pda.s
    d = check_demand(demand, k, library.n_files)
    check_user(user, k)
    require_type(batch, CodedBatch, "batch")
    gf = field(batch.field_width)
    r = _kept(scheme, ("rounds", user), lambda: _user_rounds(scheme, user))
    n = r.n  # systematic rounds, one per coded row of an integer
    if n * s != batch.m1:
        raise SingularSystem(f"{n * s} unknowns against {batch.m1} coded rows")
    _check_batch(batch, k * s, s, library.packet_bytes)
    w, per_packet = gf.width, batch.symbols.shape[1]
    coded = batch.symbols.reshape(n, s * per_packet)
    table = _kept(scheme, ("decode", user, w), lambda: _decode_table(scheme, r, gf))
    seen = bytes_to_symbols(round_messages(library, scheme, d, r.known + 1), w).reshape(len(r.known), -1)
    parity = np.empty((k - n, s * per_packet), dtype=np.uint32)
    parity[r.kp] = seen[len(r.ks):]
    if table.solve is not None:  # as many unseen parity rounds as seen systematic ones
        seen[:len(r.ks)] ^= coded[r.ks]
        parity[r.up] = gf.matmul(table.solve, seen)
    coded, parity = coded.reshape(n, s, per_packet), parity.reshape(k - n, s, per_packet)
    messages = np.empty((len(r.sys_at) + len(r.par_at), per_packet), dtype=np.uint32)
    messages[r.sys_at] = coded[r.sys_rounds, r.sys_ints] ^ gf.dot_logs(
        table.sys_logs, parity[:, r.sys_ints]
    )
    messages[r.par_at] = parity[r.par_rounds, r.par_ints]
    return file_from_messages(library, scheme, d, user, symbols_to_bytes(messages, w))


def compressed_load(scheme: Scheme) -> Fraction:
    """(S/F') * (K - c) / K, c >= 1 the rounds each user sees whole: sum(lambda)
    on the paper's arrays, possibly more on a reordering of their columns."""
    return Fraction(_coded_rounds(scheme), scheme.params.k) * Fraction(scheme.pda.s, scheme.pda.rows)
