"""End-to-end delivery over a built scheme with real packet payloads.

A file consists of K parts of F' packets each; part g is covered by the
round-g arrays. A library holds its packets as one read-only uint8 array of
shape (N, K, F', B), which library_for_scheme draws into; their ints, the
form of every public payload format, are derived on request. The plain
deliver XORs those ints, whole columns of cells at a time; file_bytes and
the coded deliver (round_messages) read whole packets off the array. Plain
and coded decode share one gather from that array (file_from_messages); a
plain decode turns only the log entries its user reads to bytes. No
round-g array is built: delivery and decoding read the scheme's round-1
plan (Scheme.plan), read-only index arrays whose views are the delivery
grid's star mask and which store no per-row recipe, and locate round g by
offset arithmetic, round-1 column c standing for column mod1(c + g - 1,
K). Message (g, s), the XOR for integer s of round g, is named by its log
position (g - 1)*S + s - 1; the coded batch's Cauchy columns use that order.
"""

import random
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from itertools import repeat
from operator import itemgetter, xor

import numpy as np

from .errors import DemandOutOfRange, DimensionMismatch, OutOfRange, UndecodablePacket
from .transform import Scheme
from .util import converted, is_int, is_tuple_of, packet_ints, require_ints, require_type

MAX_LIBRARY_BYTES = 1 << 26  # the most payload bytes, N*K*F'*B, library_for_scheme draws


@dataclass(frozen=True)
class PacketLibrary:
    """All packets of all files: data[n-1][g-1][j-1] is an int of packet_bytes
    bytes. A drawn library keeps only `array` and derives data on request."""

    n_files: int
    parts_per_file: int
    packets_per_part: int
    packet_bytes: int
    data: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        require_ints(n_files=self.n_files, parts_per_file=self.parts_per_file,
                     packets_per_part=self.packets_per_part, packet_bytes=self.packet_bytes)
        if self.packet_bytes < 1:
            raise DimensionMismatch(f"packet_bytes={self.packet_bytes} must be >= 1")
        if not is_tuple_of(self.data, self.n_files) or any(
            not is_tuple_of(parts, self.parts_per_file)
            or any(not is_tuple_of(part, self.packets_per_part) for part in parts)
            for parts in self.data
        ):
            raise DimensionMismatch(
                f"library data is not {self.n_files} files of {self.parts_per_file}x"
                f"{self.packets_per_part} packets"
            )
        limit = 1 << 8 * self.packet_bytes
        for parts in self.data:
            for part in parts:
                for p in part:
                    if not (is_int(p) and 0 <= p < limit):
                        raise OutOfRange(
                            f"packet {p!r} lies outside the {self.packet_bytes}-byte integers"
                        )

    def __getattr__(self, name):
        """data of a library kept as its array, read off it once."""
        if name != "data":
            raise AttributeError(name)
        packets = iter(packet_ints(self.array.tobytes(), self.packet_bytes))
        parts = zip(*[packets] * self.packets_per_part)  # consecutive runs of F' packets
        object.__setattr__(self, "data", tuple(zip(*[parts] * self.parts_per_file)))
        return self.data

    def _check_indices(self, **indices) -> None:
        """Raise OutOfRange unless each index, file then part then packet, is an int in [1, top]."""
        tops = (self.n_files, self.parts_per_file, self.packets_per_part)
        for (name, v), top in zip(indices.items(), tops):
            if not (is_int(v) and 1 <= v <= top):
                raise OutOfRange(f"{name}={v!r} outside [1, {top}]")

    def packet(self, n: int, g: int, j: int) -> int:
        self._check_indices(n=n, g=g, j=j)
        return self.data[n - 1][g - 1][j - 1]

    @cached_property
    def array(self) -> np.ndarray:
        """The packets as one read-only uint8 array of shape (N, K, F', B):
        array[n-1, g-1, j-1] is packet (n, g, j) in big-endian bytes. Unless
        drawn here, built on first use over one joined bytes object, the only copy."""
        b = self.packet_bytes
        raw = b"".join(p.to_bytes(b, "big") for parts in self.data for part in parts for p in part)
        shape = (self.n_files, self.parts_per_file, self.packets_per_part, b)
        return np.frombuffer(raw, dtype=np.uint8).reshape(shape)

    def file_bytes(self, n: int) -> bytes:
        """Whole file n, parts then packets in ascending order."""
        self._check_indices(n=n)
        return self.array[n - 1].tobytes()


def library_for_scheme(
    scheme: Scheme, n_files: int | None = None, packet_bytes: int = 1, seed: int = 0
) -> PacketLibrary:
    """Deterministic random library sized to the scheme's dimensions; one of
    more than MAX_LIBRARY_BYTES payload bytes raises OutOfRange instead."""
    require_type(scheme, Scheme, "scheme")
    n = scheme.params.n if n_files is None else n_files
    require_ints(n_files=n, packet_bytes=packet_bytes, seed=seed)
    if packet_bytes < 1:
        raise DimensionMismatch(f"packet_bytes={packet_bytes} must be >= 1")
    size = n * scheme.subpacketization * packet_bytes
    if size > MAX_LIBRARY_BYTES:
        raise OutOfRange(f"a library of {size} bytes exceeds the {MAX_LIBRARY_BYTES}-byte cap")
    k, f = scheme.params.k, scheme.pda.rows
    if n < 0:  # as PacketLibrary(n, ...) would
        raise DimensionMismatch(f"library data is not {n} files of {k}x{f} packets")
    rng, bits, step, raw = random.Random(seed), 8 * packet_bytes, f * packet_bytes, bytearray(size)
    for i in range(0, size, step):  # a draw per packet, files then parts then rows, joined by part
        draws = map(rng.getrandbits, repeat(bits, f))
        raw[i:i + step] = b"".join(map(int.to_bytes, draws, repeat(packet_bytes), repeat("big")))
    array = np.frombuffer(memoryview(raw).toreadonly(), np.uint8).reshape(n, k, f, packet_bytes)
    lib = object.__new__(PacketLibrary)  # kept as its array, never writable: ints on request
    vars(lib).update(n_files=n, parts_per_file=k, packets_per_part=f, packet_bytes=packet_bytes, array=array)
    return lib


def _check_dims(library: PacketLibrary, scheme: Scheme) -> None:
    require_type(library, PacketLibrary, "library")
    require_type(scheme, Scheme, "scheme")
    if (
        library.parts_per_file != scheme.params.k
        or library.packets_per_part != scheme.pda.rows
    ):
        raise DimensionMismatch(
            f"library is {library.parts_per_file}x{library.packets_per_part} "
            f"per file, scheme needs {scheme.params.k}x{scheme.pda.rows}"
        )


@dataclass(frozen=True)
class TransmissionLog:
    """Server output: the K*S message payloads, message (g, s) at (g - 1)*S + s - 1."""

    payloads: tuple[int, ...]
    packet_bytes: int

    def __post_init__(self):
        """Check the log's shape; payload values are checked by the decode that reads them."""
        require_type(self.payloads, tuple, "payloads")
        require_ints(packet_bytes=self.packet_bytes)
        if self.packet_bytes < 1:
            raise OutOfRange(f"packet_bytes={self.packet_bytes} must be >= 1")

    @property
    def total_packets_sent(self) -> int:
        return len(self.payloads)

    @property
    def bytes_sent(self) -> int:
        return len(self.payloads) * self.packet_bytes


def check_demand(demand, k: int, n_files: int) -> tuple[int, ...]:
    d = converted(tuple, demand, "demand", DemandOutOfRange)
    if len(d) != k:
        raise DemandOutOfRange(f"demand length {len(d)} != K={k}")
    for x in d:
        if not (is_int(x) and 1 <= x <= n_files):
            raise DemandOutOfRange(f"demand entry {x!r} outside [1, {n_files}]")
    return d


def check_user(user: int, k: int) -> None:
    if not (is_int(user) and 1 <= user <= k):
        raise DemandOutOfRange(f"user {user!r} outside [1, {k}]")


def deliver(library: PacketLibrary, scheme: Scheme, demand) -> TransmissionLog:
    """XOR the demanded packets cell-group by cell-group, all K rounds.

    Round g lists the demanded packets of part g column by column, plus a
    trailing 0 that padding cells read. Row n of plan.cell_* holds the n-th
    cell of each of the S integers: one gather per row takes those S packets
    from the list, and the gathered columns fold together with XOR.
    """
    _check_dims(library, scheme)
    k, f, n_s = scheme.params.k, scheme.pda.rows, scheme.pda.s
    d = check_demand(demand, k, library.n_files)
    payloads: list[int] = []
    if n_s:
        plan = scheme.plan
        index = np.where(plan.cell_pad, k * f, plan.cell_cols * f + plan.cell_rows).tolist()
        # itemgetter of one index returns the item itself, not a 1-tuple
        gathers = [itemgetter(*row) if n_s > 1 else (lambda seq, i=row[0]: (seq[i],))
                   for row in index]
        data = library.data
        for g in range(k):
            packets = []
            for c in range(k):
                packets += data[d[(c + g) % k] - 1][g]
            packets.append(0)
            payloads.extend(reduce(partial(map, xor), [gather(packets) for gather in gathers]))
    return TransmissionLog(payloads=tuple(payloads), packet_bytes=library.packet_bytes)


def _words(packets: np.ndarray) -> np.ndarray:
    """A uint8 array's last axis of packet bytes viewed as the widest unsigned
    words that divide it, for XOR; the words keep the bytes' memory order."""
    size = next(w for w in (8, 4, 2, 1) if packets.shape[-1] % w == 0)
    return packets.view(f"u{size}")


def round_messages(library: PacketLibrary, scheme: Scheme, d: tuple[int, ...], rounds) -> np.ndarray:
    """Messages s = 1..S of each listed round under a checked demand d, as a
    (len(rounds), S, B) uint8 array: one gather of every integer's cells from
    the library array, padding zeroed, then one XOR-reduce over the cells."""
    plan = scheme.plan
    g = np.array(rounds, dtype=np.intp).reshape(-1, 1, 1) - 1
    files = np.array(d, dtype=np.intp)[(plan.cell_cols + g) % scheme.params.k] - 1
    cells = _words(library.array)[files, g, plan.cell_rows]
    cells[:, plan.cell_pad] = 0
    return np.bitwise_xor.reduce(cells, axis=1).view(np.uint8)


def decode_from_messages(
    library: PacketLibrary, scheme: Scheme, demand, payloads, user: int
) -> bytes:
    """Rebuild the user's demanded file from its view plus message payloads.

    payloads holds K*S entries in log order, None for a message the user
    lacks. The decode reads only the entries of the messages that carry the
    user's missing rows, one per row of plan.miss_*: row i is missing in the
    0-based round r = (user - 1 - miss_cols[i]) mod K and read from log
    position r*S + miss_ints[i]. Only those entries are checked. When one is
    bad, the first bad one in (round, row) order raises: UndecodablePacket
    when it is None, else OutOfRange unless it is an int of packet_bytes
    bytes. The good entries reach file_from_messages as one bytes array.
    """
    _check_dims(library, scheme)
    k, n_s = scheme.params.k, scheme.pda.s
    d = check_demand(demand, k, library.n_files)
    check_user(user, k)
    payloads = converted(tuple, payloads, "message payloads", DimensionMismatch)
    if len(payloads) != k * n_s:
        raise DimensionMismatch(f"{len(payloads)} message payloads, K*S={k * n_s} expected")
    plan, b = scheme.plan, library.packet_bytes
    rounds = (user - 1 - plan.miss_cols) % k
    values = [payloads[i] for i in (rounds * n_s + plan.miss_ints).tolist()]
    limit = 1 << 8 * b
    ints = set(map(type, values)) <= {int}
    if not (ints and 0 <= min(values, default=0) <= max(values, default=0) < limit):
        for i in np.lexsort((plan.miss_rows, rounds)).tolist():
            val = values[i]
            if val is None:
                raise UndecodablePacket(
                    f"message (g={rounds[i] + 1}, s={plan.miss_ints[i] + 1}) missing from the log"
                )
            if not (is_int(val) and 0 <= val < limit):
                raise OutOfRange(f"message payload {val!r} lies outside the {b}-byte integers")
    raw = b"".join(map(int.to_bytes, values, repeat(b), repeat("big")))
    return file_from_messages(library, scheme, d, user, np.frombuffer(raw, np.uint8).reshape(-1, b))


def file_from_messages(
    library: PacketLibrary, scheme: Scheme, d: tuple[int, ...], user: int, messages: np.ndarray
) -> bytes:
    """The user's file under a checked demand d, from the library array and
    an (M, B) uint8 array of the M messages it reads: message i carries
    missing row i of plan.miss_*, read in the round where the user's view
    lacks it.

    One gather: a copy of the demanded file whose rows outside the user's
    views are each overwritten by its message XOR its peer cells.
    """
    plan, k = scheme.plan, scheme.params.k
    packets = _words(library.array)
    files = np.array(d, dtype=np.intp) - 1
    g = (user - 1 - plan.miss_cols) % k  # 0-based round of each missing row
    peers = packets[files[(plan.peer_cols + g) % k], g, plan.peer_rows]
    peers[plan.peer_pad] = 0
    out = packets[files[user - 1]].copy()
    out[g, plan.miss_rows] = _words(messages) ^ np.bitwise_xor.reduce(peers, axis=0)
    return out.tobytes()


def decode(
    library: PacketLibrary, scheme: Scheme, demand, log: TransmissionLog, user: int
) -> bytes:
    """Decode straight from a transmission log of the library's packet size."""
    require_type(log, TransmissionLog, "log")
    _check_dims(library, scheme)
    if log.packet_bytes != library.packet_bytes:
        raise DimensionMismatch(
            f"log packets are {log.packet_bytes} bytes, library packets {library.packet_bytes}"
        )
    return decode_from_messages(library, scheme, demand, log.payloads, user)
