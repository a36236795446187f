"""End-to-end delivery over a built scheme with real packet payloads.

A file consists of K parts of F' packets each; part g is covered by the
round-g arrays. A library holds its packets as one read-only uint8 array of
shape (N, K, F', B), which library_for_scheme draws into and the constructor
joins its ints into; the ints, the form of every public payload format, are
derived on request. Ints meet bytes only in util: join_packets joins them,
and packet_ints reads them off a packet array in one tolist of its void view.
Both delivers take their messages from one gather of that array
(round_messages), and both decodes their files from another
(file_from_messages); a plain log keeps its messages' bytes for decode. No
round-g array is built: delivery and decoding read the scheme's round-1 plan
(Scheme.plan), read-only index arrays whose views are the delivery grid's
star mask and which store no per-row recipe, and locate round g by offset
arithmetic, round-1 column c standing for column mod1(c + g - 1, K). A
gather reads the array as one flat (N*K*F', W) view of packet words, W the
widest word that divides a packet. Only a file's base offset depends on
the demand: the plan keeps the rest for every round's cells, and a decode
works out its user's rounds and the rest once per call, so a gather is one
lookup of the demanded files' base offsets, one add and one take.
Message (g, s), the XOR for integer s of round g, is named by its log
position (g - 1)*S + s - 1; the coded batch's Cauchy columns use that order.
"""

import random
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import DemandOutOfRange, DimensionMismatch, OutOfRange, UndecodablePacket
from .transform import Scheme
from .util import converted, is_int, is_tuple_of, join_packets, packet_ints, require_ints, require_type

MAX_LIBRARY_BYTES = 1 << 26  # the most payload bytes, N*K*F'*B, library_for_scheme draws


@dataclass(frozen=True)
class PacketLibrary:
    """All packets of all files as one read-only uint8 array, however the library
    was built: array[n-1, g-1, j-1] is packet (n, g, j) in big-endian bytes, and
    data[n-1][g-1][j-1] its int, read off the array on request. ==, hash and
    repr read the array's shape and bytes, never data."""

    n_files: int
    parts_per_file: int
    packets_per_part: int
    packet_bytes: int
    data: tuple[tuple[tuple[int, ...], ...], ...] = field(repr=False)

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
        b, limit = self.packet_bytes, 1 << 8 * self.packet_bytes
        packets = [p for parts in self.data for part in parts for p in part]
        for p in packets:
            if not (is_int(p) and 0 <= p < limit):
                raise OutOfRange(f"packet {p!r} lies outside the {b}-byte integers")
        raw = join_packets(packets, b)
        shape = (self.n_files, self.parts_per_file, self.packets_per_part, b)
        object.__setattr__(self, "array", np.frombuffer(raw, np.uint8).reshape(shape))
        object.__delattr__(self, "data")

    def __getattr__(self, name):
        """data, read off the array once."""
        if name != "data":
            raise AttributeError(name)
        parts = zip(*[packet_ints(self.array)] * self.packets_per_part)  # consecutive runs of F' packets
        object.__setattr__(self, "data", tuple(zip(*[parts] * self.parts_per_file)))
        return self.data

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def _key(self) -> tuple:
        """The four dims, as the array's shape, and the packets' bytes."""
        return self.array.shape, self.array.tobytes()

    def _check_indices(self, **indices) -> None:
        """Raise OutOfRange unless each index, file then part then packet, is an int in [1, top]."""
        tops = (self.n_files, self.parts_per_file, self.packets_per_part)
        for (name, v), top in zip(indices.items(), tops):
            if not (is_int(v) and 1 <= v <= top):
                raise OutOfRange(f"{name}={v!r} outside [1, {top}]")

    def packet(self, n: int, g: int, j: int) -> int:
        self._check_indices(n=n, g=g, j=j)
        return int.from_bytes(self.array[n - 1, g - 1, j - 1].tobytes(), "big")

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
        raw[i:i + step] = join_packets(map(rng.getrandbits, repeat(bits, f)), packet_bytes)
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
    """Server output: the K*S message payloads, message (g, s) at (g - 1)*S + s - 1.
    A delivered log also keeps their bytes, read-only (K*S, B) uint8, in no field."""

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
    """All K rounds' messages as round_messages gathers them, each the XOR
    of the demanded packets in the cells of one integer; the log reads its
    payload ints off those bytes and keeps the bytes for decode."""
    _check_dims(library, scheme)
    k, b = scheme.params.k, library.packet_bytes
    d = check_demand(demand, k, library.n_files)
    messages = round_messages(library, scheme, d, range(1, k + 1)).reshape(-1, b)
    messages.flags.writeable = False
    log = TransmissionLog(payloads=tuple(packet_ints(messages)), packet_bytes=b)
    object.__setattr__(log, "_messages", messages)  # no field: replace copies and built logs lack it
    return log


def _words(packets: np.ndarray) -> np.ndarray:
    """A uint8 array's packets, its last axis, as the rows of a 2-D array of
    the widest unsigned words that divide a packet, for XOR; the words keep
    the bytes' memory order. A library's rows are its flat (N*K*F', W) view."""
    size = next(w for w in (8, 4, 2, 1) if packets.shape[-1] % w == 0)
    words = packets.view(f"u{size}")
    return words.reshape(-1, words.shape[-1])


def _bases(scheme: Scheme, d: tuple[int, ...]) -> np.ndarray:
    """The flat offset of each demanded file's first packet, user by user."""
    return (np.array(d, dtype=np.intp) - 1) * scheme.subpacketization


def round_messages(library: PacketLibrary, scheme: Scheme, d: tuple[int, ...], rounds) -> np.ndarray:
    """Messages s = 1..S of each listed round under a checked demand d, as a
    (len(rounds), S, B) uint8 array: one take of every integer's cells from
    the library's flat view, at the plan's kept offsets of those rounds plus
    their files' bases, padding zeroed, then one XOR-reduce over the cells."""
    plan = scheme.plan
    cols, offsets = plan._round_cells
    g = np.array(rounds, dtype=np.intp) - 1
    cells = _words(library.array).take(_bases(scheme, d)[cols[g]] + offsets[g], axis=0)
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
    d, payloads, rounds = _reads(library, scheme, demand, user, payloads)
    plan, b = scheme.plan, library.packet_bytes
    values = [payloads[i] for i in (rounds * scheme.pda.s + plan.miss_ints).tolist()]
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
    raw = join_packets(values, b)
    return file_from_messages(library, scheme, d, user, rounds, np.frombuffer(raw, np.uint8).reshape(-1, b))


def _reads(library: PacketLibrary, scheme: Scheme, demand, user: int, payloads, kept=False):
    """A plain decode's checks, in order: dims, demand, user, then K*S payloads,
    a log's kept rows or else read as a tuple. Returns the checked demand, the
    payloads and the 0-based round of each missing row of plan.miss_*."""
    _check_dims(library, scheme)
    k, n_s = scheme.params.k, scheme.pda.s
    d = check_demand(demand, k, library.n_files)
    check_user(user, k)
    if not kept:
        payloads = converted(tuple, payloads, "message payloads", DimensionMismatch)
    if len(payloads) != k * n_s:
        raise DimensionMismatch(f"{len(payloads)} message payloads, K*S={k * n_s} expected")
    return d, payloads, scheme.plan.rounds(user, scheme.plan.miss_cols)


def file_from_messages(
    library: PacketLibrary, scheme: Scheme, d: tuple[int, ...], user: int, g: np.ndarray, messages: np.ndarray
) -> bytes:
    """The user's file under a checked demand d, from the library array and
    an (M, B) uint8 array of the M messages it reads: message i carries
    missing row i of plan.miss_*, read in 0-based round g[i], where the
    user's view lacks it (g is plan.rounds(user, plan.miss_cols)).

    One take of the peer cells from the library's flat view and one copy of
    the demanded file, whose rows outside the user's views are each
    overwritten by its message XOR its peer cells. The offsets are worked
    out on each call: a row missing in 0-based round g sits at g*F' +
    miss_rows within the file, and its peers at their file's base (column
    (peer_cols + g) mod K, the wrap of a take) plus g*F' + peer_rows.
    """
    plan, f = scheme.plan, scheme.plan.views.shape[0]
    packets, bases, rows = _words(library.array), _bases(scheme, d), g * f
    peers = packets.take(bases.take(plan.peer_cols + g, mode="wrap") + (rows + plan.peer_rows), axis=0)
    peers[plan.peer_pad] = 0
    start = bases[user - 1]
    out = packets[start:start + scheme.subpacketization].copy()
    out[rows + plan.miss_rows] = _words(messages) ^ np.bitwise_xor.reduce(peers, axis=0)
    return out.tobytes()


def decode(
    library: PacketLibrary, scheme: Scheme, demand, log: TransmissionLog, user: int
) -> bytes:
    """Decode straight from a transmission log of the library's packet size;
    a delivered log gives the rows its user reads from its kept bytes, after
    decode_from_messages's checks, any other log its payloads to that decode."""
    require_type(log, TransmissionLog, "log")
    _check_dims(library, scheme)
    if log.packet_bytes != library.packet_bytes:
        raise DimensionMismatch(
            f"log packets are {log.packet_bytes} bytes, library packets {library.packet_bytes}"
        )
    if "_messages" not in vars(log):
        return decode_from_messages(library, scheme, demand, log.payloads, user)
    d, messages, g = _reads(library, scheme, demand, user, log._messages, kept=True)
    return file_from_messages(library, scheme, d, user, g, messages[g * scheme.pda.s + scheme.plan.miss_ints])
