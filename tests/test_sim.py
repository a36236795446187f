"""Packet library, delivery and per-user decoding."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from macc import (
    DemandOutOfRange,
    DimensionMismatch,
    PacketLibrary,
    UndecodablePacket,
    build_scheme,
    decode,
    decode_from_messages,
    deliver,
    library_for_scheme,
    mn_pda,
    partition_pda,
)
from macc.sim import check_demand
from macc.util import join_packets, packet_ints
from oracles import (
    constituents,
    demand_suite,
    library_by_ints,
    packet_bytes_by_join,
    packet_ints_by_slices,
    node_cache_bytes,
    populate_caches,
    shift_grid,
    user_view,
    user_view_via_nodes,
)

# per-user part-1 views of the worked (8, 3, 2) instance
VIEWS_832_G1 = {
    1: {1, 2, 3},
    2: {1, 2, 3, 4, 5},
    3: {1, 2, 3, 4, 5, 6},
    4: {1, 4, 5, 6},
    5: {1, 2, 4, 6},
    6: {1, 2, 3, 4, 5, 6},
    7: {2, 3, 4, 5, 6},
    8: {3, 5, 6},
}


def test_library_layout(scheme832):
    lib = library_for_scheme(scheme832, packet_bytes=2, seed=1)
    assert lib.n_files == 8
    assert lib.parts_per_file == 8
    assert lib.packets_per_part == 6
    assert len(lib.file_bytes(1)) == scheme832.subpacketization * 2
    # parts then packets, ascending
    joined = b"".join(
        lib.packet(1, g, j).to_bytes(2, "big") for g in range(1, 9) for j in range(1, 7)
    )
    assert lib.file_bytes(1) == joined


def test_library_array_is_one_read_only_copy(scheme832):
    lib = library_for_scheme(scheme832, packet_bytes=3, seed=2)
    twin = library_for_scheme(scheme832, packet_bytes=3, seed=2)
    arr = lib.array
    assert arr is lib.array
    assert arr.shape == (8, 8, 6, 3) and arr.dtype == np.uint8
    assert not arr.flags.writeable
    with pytest.raises(ValueError):  # its buffer is read-only, so no caller can write a frozen library
        arr.flags.writeable = True
    assert memoryview(arr.base.base).nbytes == arr.size  # a view of one buffer, no copy
    assert "data" not in vars(twin)  # drawn as its array, a library reads its ints on request
    assert arr[2, 4, 5].tobytes() == lib.packet(3, 5, 6).to_bytes(3, "big")
    assert lib == twin and twin.data is twin.data
    built = PacketLibrary(8, 8, 6, 3, lib.data)  # from ints, joined into the array at once
    assert "data" not in vars(built) and "array" in vars(built)
    assert built == lib and built.data == lib.data
    assert np.array_equal(built.array, arr) and memoryview(built.array.base.base).nbytes == arr.size
    with pytest.raises(ValueError):
        built.array.flags.writeable = True
    for n in range(1, 9):
        assert lib.file_bytes(n) == b"".join(p.to_bytes(3, "big") for part in lib.data[n - 1] for p in part)


def test_libraries_compare_and_hash_without_their_ints():
    """==, hash, repr and packet read a library's array and never derive its
    ints, however the library was built: one built from ints keeps only the
    array its ints were joined into, and compares and hashes by the same bytes."""
    scheme = build_scheme(mn_pda(12, 2), 16, 3)  # the plain benchmark instance
    a, b = (library_for_scheme(scheme, packet_bytes=64, seed=5) for _ in range(2))
    other = library_for_scheme(scheme, packet_bytes=64, seed=6)
    assert a == b and hash(a) == hash(b) and a != other
    assert repr(a) == "PacketLibrary(n_files=16, parts_per_file=16, packets_per_part=66, packet_bytes=64)"
    assert a.packet(16, 16, 66) == int.from_bytes(a.array[-1, -1, -1].tobytes(), "big")
    assert all("data" not in vars(lib) for lib in (a, b, other))
    built = PacketLibrary(16, 16, 66, 64, a.data)
    assert "data" not in vars(built) and "array" in vars(built)
    assert built == b and b == built and hash(built) == hash(b) and built != other
    assert "data" not in vars(built) and "data" not in vars(b)
    assert a != PacketLibrary(16, 16, 66, 64, other.data) and a != scheme
    assert PacketLibrary(0, 16, 66, 64, ()) == library_for_scheme(scheme, n_files=0, packet_bytes=64)
    assert PacketLibrary(0, 16, 66, 64, ()) != PacketLibrary(0, 16, 66, 32, ())


@pytest.mark.parametrize("packet_bytes", [1, 2, 3, 4, 5, 64, 256])
def test_drawn_library_matches_the_int_oracle(scheme832, packet_bytes):
    """The array drawn part by part holds the bytes of one getrandbits int
    per packet; its ints and files match the int-built library's."""
    for n_files, seed in ((None, 0), (None, 1), (3, 17), (11, 2**40)):
        lib = library_for_scheme(scheme832, n_files=n_files, packet_bytes=packet_bytes, seed=seed)
        want = library_by_ints(scheme832, n_files=n_files, packet_bytes=packet_bytes, seed=seed)
        assert lib.array.shape == want.array.shape and not lib.array.flags.writeable
        assert lib.array.tobytes() == want.array.tobytes()
        assert lib.data == want.data and lib == want
        for n in range(1, lib.n_files + 1):
            assert lib.file_bytes(n) == want.file_bytes(n)
        assert lib.packet(lib.n_files, 8, 6) == want.data[-1][-1][-1]


def test_library_defaults_and_edges(scheme832):
    """One-byte packets drawn from seed 0 by default; no files make an empty
    library; a negative count and empty packets are refused, with the texts
    the public constructor gives them."""
    assert library_for_scheme(scheme832) == library_by_ints(scheme832, packet_bytes=1, seed=0)
    empty = library_for_scheme(scheme832, n_files=0, packet_bytes=2)
    assert empty.array.shape == (0, 8, 6, 2) and empty == PacketLibrary(0, 8, 6, 2, ())
    with pytest.raises(DimensionMismatch, match=r"^library data is not -1 files of 8x6 packets$"):
        library_for_scheme(scheme832, n_files=-1)
    with pytest.raises(DimensionMismatch, match=r"^packet_bytes=0 must be >= 1$"):
        library_for_scheme(scheme832, packet_bytes=0)


def test_drawn_library_peaks_near_its_payload():
    """One-byte packets cost their bytes, not a Python int each: drawing
    mn_pda(12, 2) at K = 16 for 64 files (67,584 packets) peaks under 2 B
    per payload byte plus a small constant."""
    scheme = build_scheme(mn_pda(12, 2), 16, 3)
    tracemalloc.start()
    try:
        lib = library_for_scheme(scheme, n_files=64, packet_bytes=1, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lib.array.size == 64 * 16 * 66
    assert peak < 2 * lib.array.size + (16 << 10)


def test_library_is_seed_deterministic(scheme832):
    a = library_for_scheme(scheme832, packet_bytes=4, seed=9)
    b = library_for_scheme(scheme832, packet_bytes=4, seed=9)
    c = library_for_scheme(scheme832, packet_bytes=4, seed=10)
    assert a.data == b.data
    assert a.data != c.data


def test_cache_budget(scheme832):
    lib = library_for_scheme(scheme832, packet_bytes=1, seed=0)
    caches = populate_caches(lib, scheme832)
    file_bytes = scheme832.subpacketization
    for cache in caches:
        held = node_cache_bytes(lib, cache)
        assert Fraction(held, lib.n_files * file_bytes) == scheme832.memory_ratio


def test_views_match_worked_instance(scheme832):
    for u, expect in VIEWS_832_G1.items():
        assert set(user_view(scheme832, u, 1)) == expect


def test_views_agree_with_node_route(scheme832):
    lib = library_for_scheme(scheme832, packet_bytes=1, seed=0)
    caches = populate_caches(lib, scheme832)
    k = scheme832.params.k
    for u in range(1, k + 1):
        for g in range(1, k + 1):
            assert user_view(scheme832, u, g) == user_view_via_nodes(
                scheme832, caches, u, g
            )


def test_deliver_message_budget(scheme832):
    lib = library_for_scheme(scheme832, packet_bytes=3, seed=2)
    demand = (1, 2, 3, 4, 5, 6, 7, 8)
    log = deliver(lib, scheme832, demand)
    k, s = scheme832.params.k, scheme832.pda.s
    assert log.total_packets_sent == k * s
    assert log.bytes_sent == k * s * 3
    assert len(log.payloads) == k * s
    # message (g, sv) sits at (g - 1)*S + sv - 1: S messages per round, rounds in turn
    for g in range(1, k + 1):
        for sv, cells in constituents(shift_grid(scheme832.delivery.grid, g)).items():
            want = 0
            for j, c in cells:
                want ^= lib.packet(demand[c - 1], g, j)
            assert log.payloads[(g - 1) * s + sv - 1] == want


def test_decode_all_users(scheme832):
    lib = library_for_scheme(scheme832, packet_bytes=2, seed=5)
    for demand in [(1,) * 8, (1, 2, 3, 4, 5, 6, 7, 8), (8, 7, 6, 5, 4, 3, 2, 1)]:
        log = deliver(lib, scheme832, demand)
        for u in range(1, 9):
            assert decode(lib, scheme832, demand, log, u) == lib.file_bytes(demand[u - 1])


def test_decode_needs_every_message(scheme832):
    lib = library_for_scheme(scheme832, packet_bytes=1, seed=4)
    demand = (2, 4, 6, 8, 1, 3, 5, 7)
    log = deliver(lib, scheme832, demand)
    # user 1 misses rows 4..6 of part 1; drop a message it needs for row 4
    cons = constituents(scheme832.delivery.grid)
    needed = next(sv for sv, cells in cons.items() if any(j == 4 and c == 1 for j, c in cells))
    payloads = list(log.payloads)
    payloads[needed - 1] = None  # round 1 holds positions 0..S-1
    with pytest.raises(UndecodablePacket, match=rf"message \(g=1, s={needed}\) missing"):
        decode_from_messages(lib, scheme832, demand, payloads, 1)


def test_decode_rejects_foreign_library(scheme832):
    lib = library_for_scheme(scheme832, packet_bytes=1, seed=0)
    small = build_scheme(mn_pda(3, 1), 5, 3)
    with pytest.raises(DimensionMismatch):
        deliver(lib, small, (1, 2, 3, 4, 5))
    # a 9x10-per-file library fits the demand and every index of the
    # 8x6 scheme, so only the dimension check can catch it
    demand = tuple(range(1, 9))
    log = deliver(lib, scheme832, demand)
    big = library_for_scheme(build_scheme(mn_pda(5, 2), 9, 3), packet_bytes=1, seed=0)
    with pytest.raises(DimensionMismatch):
        decode(big, scheme832, demand, log, 1)


def test_check_demand():
    assert check_demand((1, 2, 1), 3, 2) == (1, 2, 1)
    with pytest.raises(DemandOutOfRange):
        check_demand((1, 2), 3, 2)
    with pytest.raises(DemandOutOfRange):
        check_demand((1, 2, 3), 3, 2)
    with pytest.raises(DemandOutOfRange):
        check_demand((0, 1, 1), 3, 2)


def test_deliver_rejects_non_integer_demand(scheme832):
    lib = library_for_scheme(scheme832, packet_bytes=1, seed=0)
    with pytest.raises(DemandOutOfRange, match=r"demand entry 1\.5 outside \[1, 8\]"):
        deliver(lib, scheme832, (1.5,) * 8)


def test_decode_rejects_non_integer_user(scheme832):
    lib = library_for_scheme(scheme832, packet_bytes=1, seed=0)
    demand = tuple(range(1, 9))
    log = deliver(lib, scheme832, demand)
    with pytest.raises(DemandOutOfRange, match=r"user 1\.0 outside \[1, 8\]"):
        decode(lib, scheme832, demand, log, user=1.0)


def test_worst_case_load(scheme832):
    lib = library_for_scheme(scheme832, packet_bytes=1, seed=0)
    suite = demand_suite(8, 8, seed=0, n_random=5)
    for d in suite:
        sent = deliver(lib, scheme832, d).total_packets_sent
        assert Fraction(sent, scheme832.subpacketization) == Fraction(2, 3)


def test_decode_rejects_a_log_of_another_packet_size(scheme832):
    lib1 = library_for_scheme(scheme832, packet_bytes=1, seed=0)
    lib2 = library_for_scheme(scheme832, packet_bytes=2, seed=0)
    demand = tuple(range(1, 9))
    for log_lib, lib in ((lib1, lib2), (lib2, lib1)):
        log = deliver(log_lib, scheme832, demand)
        with pytest.raises(DimensionMismatch, match="log packets are"):
            decode(lib, scheme832, demand, log, 1)


def test_partition_scheme_load_one():
    p, _ = partition_pda(2, 2)
    s = build_scheme(p, 6, 2)
    lib = library_for_scheme(s, packet_bytes=1, seed=0)
    suite = demand_suite(6, 6, seed=0, n_random=5)
    for d in suite:
        assert Fraction(deliver(lib, s, d).total_packets_sent, s.subpacketization) == 1
    demand = suite[-1]
    log = deliver(lib, s, demand)
    for u in range(1, 7):
        assert decode(lib, s, demand, log, u) == lib.file_bytes(demand[u - 1])


def test_degenerate_cases():
    # no cache help at all: every packet goes out in the clear
    s0 = build_scheme(mn_pda(5, 0), 5, 2)
    lib0 = library_for_scheme(s0, packet_bytes=1, seed=0)
    log0 = deliver(lib0, s0, (5, 4, 3, 2, 1))
    assert Fraction(log0.total_packets_sent, s0.subpacketization) == 5
    assert decode(lib0, s0, (5, 4, 3, 2, 1), log0, 3) == lib0.file_bytes(3)

    # single user, single node
    s1 = build_scheme(mn_pda(1, 0), 1, 1)
    lib1 = library_for_scheme(s1, n_files=2, packet_bytes=3, seed=1)
    log1 = deliver(lib1, s1, (2,))
    assert decode(lib1, s1, (2,), log1, 1) == lib1.file_bytes(2)


def test_demand_suite_shapes():
    small = demand_suite(2, 2)
    assert small == ((1, 1), (1, 2), (2, 1), (2, 2))
    big = demand_suite(8, 8, seed=3, n_random=4)
    assert len(big) == 7
    assert big[0] == (1, 2, 3, 4, 5, 6, 7, 8)
    assert big[1] == (1,) * 8
    assert big[2] == tuple(range(8, 0, -1))
    assert demand_suite(8, 8, seed=3, n_random=4) == big
    for d in big:
        assert all(1 <= x <= 8 for x in d)
    # fewer files than users wraps cyclically
    wrapped = demand_suite(5, 2, seed=0, n_random=0, exhaustive_cap=4)
    assert wrapped[0] == (1, 2, 1, 2, 1)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 64, 256, 4096])
def test_packet_edges_match_the_slicing_and_join_loops(size):
    """packet_ints reads the slicing loop's ints off any uint8 array of packets,
    trailing and leading zero bytes kept, and join_packets joins them back."""
    rng = np.random.default_rng(size)
    packets = rng.integers(0, 256, size=(2, 3, 5, size), dtype=np.uint8)
    packets[0, 0, 0], packets[0, 0, 1] = 0, 255
    packets[0, 1, 0, -1] = packets[0, 1, 1, 0] = 0  # one trailing, one leading zero byte
    packets[0, 1, 2, 1:] = packets[0, 1, 3, :-1] = 0  # runs of them
    for array in (packets, packets[:, 1::2], packets[1, :, ::-2], np.zeros((0, size), np.uint8)):
        want = packet_ints_by_slices(array.tobytes(), size)
        assert list(packet_ints(array)) == want
        assert join_packets(want, size) == packet_bytes_by_join(want, size) == array.tobytes()
    assert join_packets(iter(want), size) == b""
    lib = library_for_scheme(build_scheme(mn_pda(3, 1), 3, 1), n_files=4, packet_bytes=size, seed=size)
    for array in (lib.array[::2, 1:], lib.array[1, :, ::-1]):  # not contiguous
        assert list(packet_ints(array)) == packet_ints_by_slices(array.tobytes(), size)

