"""Inputs at the edges of their range: each meets a MaccError or costs no more than it needs."""

import dataclasses
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import macc
from macc import sim
from macc.util import is_int
from conftest import PNEG_ROWS
from oracles import json_placement, plan_by_walk
from macc import (
    GF,
    ConditionViolation,
    DemandOutOfRange,
    DimensionMismatch,
    DuplicateRatio,
    MaccError,
    MalformedPda,
    OutOfRange,
    PacketLibrary,
    ParseError,
    Pda,
    TransmissionLog,
    build_scheme,
    check_c5,
    comparison_table,
    compressed_decode,
    compressed_deliver,
    decode,
    decode_from_messages,
    deliver,
    envelope,
    envelope_eval,
    field,
    full_view_rounds,
    lambda_profile,
    library_for_scheme,
    mn_pda,
    parse_pda,
    partition_pda,
    r_hkd,
    reconstructable_messages,
    scheme_from_json,
    scheme_to_json,
    star_profile,
    validate_pda,
)


def test_duplicate_ratio_is_a_macc_error():
    with pytest.raises(DuplicateRatio, match="duplicate memory ratio 1/2") as info:
        envelope([(0, 3), ("1/2", 1), ("1/2", 2)])
    assert isinstance(info.value, MaccError)
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("l", [0, -1])
def test_r_hkd_rejects_access_degree_below_one(l):
    with pytest.raises(OutOfRange, match=f"l={l} must be >= 1"):
        r_hkd(6, l, 1)


@pytest.mark.parametrize("l", ["x", 2.5, 3.0, True, 0, -1])
def test_lambda_profile_needs_an_integer_access_degree(l):
    message = f"access degree l={l} must be >= 1" if is_int(l) else f"l={l!r} is not an integer"
    with pytest.raises(OutOfRange, match=message):
        lambda_profile(mn_pda(4, 2), l)


@pytest.mark.parametrize("find", [full_view_rounds, reconstructable_messages])
@pytest.mark.parametrize("user", [0, 9, 99, -1, 1.0, "1", True])
def test_full_view_lookups_need_a_user_in_range(scheme832, find, user):
    with pytest.raises(DemandOutOfRange, match=r"user .* outside \[1, 8\]"):
        find(scheme832, user)


def test_starless_lift_builds_no_star_cells():
    """A starless array lifts at any L; its grids need no L-long run of cells."""
    p = Pda(rows=1, cols=2, entries=((1, 2),), z=0, s=2)
    l = 10**6
    tracemalloc.start()
    try:
        scheme = build_scheme(p, 2, l)
        assert check_c5(p, l)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert scheme.delivery.grid == ((1, 2),)
    assert json_placement(scheme) == ((False, False),)


def test_huge_library_is_refused_before_any_packet(scheme832):
    """N*K*F'*B is counted in exact ints before a packet is drawn: 400 MB
    packets for the 8 x 8 x 6 packets of the worked scheme raise at once."""
    size = 8 * 8 * 6 * 400_000_000
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        with pytest.raises(OutOfRange, match=rf"^a library of {size} bytes exceeds the "
                                             rf"{sim.MAX_LIBRARY_BYTES}-byte cap$"):
            library_for_scheme(scheme832, packet_bytes=400_000_000)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.05 and peak < 2**20


def test_library_cap_admits_its_own_size(scheme832, monkeypatch):
    monkeypatch.setattr(sim, "MAX_LIBRARY_BYTES", 8 * 8 * 6 * 2)
    assert library_for_scheme(scheme832, packet_bytes=2).packet_bytes == 2
    with pytest.raises(OutOfRange, match=r"^a library of 1152 bytes exceeds the 768-byte cap$"):
        library_for_scheme(scheme832, packet_bytes=3)
    with pytest.raises(OutOfRange, match=r"^a library of 864 bytes"):
        library_for_scheme(scheme832, n_files=9, packet_bytes=2)


def test_malformed_pda_is_a_macc_error():
    with pytest.raises(MalformedPda, match=r"cell value 5 outside star/\[1, 2\]") as info:
        Pda(rows=1, cols=1, entries=((5,),), z=0, s=2)
    assert isinstance(info.value, MaccError)
    assert isinstance(info.value, ValueError)


def test_library_data_must_match_its_dimensions(scheme832):
    with pytest.raises(DimensionMismatch, match="library data is not 8 files of 8x6 packets"):
        PacketLibrary(n_files=8, parts_per_file=8, packets_per_part=6, packet_bytes=1, data=())
    lib = library_for_scheme(scheme832, packet_bytes=1)
    short = lib.data[:-1] + ((lib.data[-1][0][:-1],) + lib.data[-1][1:],)
    with pytest.raises(DimensionMismatch, match="library data is not"):
        PacketLibrary(n_files=8, parts_per_file=8, packets_per_part=6, packet_bytes=1, data=short)


def with_first_packet(data, value):
    """The library data with packet (1, 1, 1) replaced by value."""
    first = data[0][0]
    return (((value,) + first[1:],) + data[0][1:],) + data[1:]


@pytest.mark.parametrize("value", [256, -1, 1.0, "x"])
def test_library_packets_must_fit_their_bytes(scheme832, value):
    lib = library_for_scheme(scheme832, packet_bytes=1)
    with pytest.raises(OutOfRange, match=f"packet {value!r} lies outside the 1-byte integers"):
        PacketLibrary(8, 8, 6, 1, with_first_packet(lib.data, value))


def test_library_needs_a_positive_packet_size(scheme832):
    lib = library_for_scheme(scheme832, packet_bytes=1)
    with pytest.raises(DimensionMismatch, match="packet_bytes=0 must be >= 1"):
        PacketLibrary(n_files=8, parts_per_file=8, packets_per_part=6, packet_bytes=0, data=lib.data)


@pytest.mark.parametrize("name, value", [("packet_bytes", 1.5), ("n_files", 8.0)])
def test_library_for_scheme_needs_integer_sizes(scheme832, name, value):
    with pytest.raises(OutOfRange, match=f"{name}={value!r} is not an integer"):
        library_for_scheme(scheme832, **{name: value})


@pytest.mark.parametrize("dims", [(8.0, 8, 6), (8, 8.0, 6), (8, 8, 6.0)])
def test_library_needs_integer_dimensions(scheme832, dims):
    lib = library_for_scheme(scheme832, packet_bytes=1)
    with pytest.raises(OutOfRange, match=r"(n_files|parts_per_file|packets_per_part)=\d\.0 is not"):
        PacketLibrary(*dims, 1, lib.data)


def message_payloads_832(scheme832):
    """The worked instance's log at 1-byte packets, and a position user 1 reads."""
    lib = library_for_scheme(scheme832, packet_bytes=1, seed=3)
    demand = tuple(range(1, 9))
    step = next(step for step in plan_by_walk(scheme832).recipes[0] if step is not None)
    return lib, demand, deliver(lib, scheme832, demand).payloads, step[0] - 1


@pytest.mark.parametrize("value", [1.5, "x", 256, -1])
def test_decode_rejects_malformed_payloads(scheme832, value):
    lib, demand, payloads, read = message_payloads_832(scheme832)
    bad = payloads[:read] + (value,) + payloads[read + 1:]
    with pytest.raises(OutOfRange, match=f"message payload {value!r} lies outside the 1-byte integers"):
        decode_from_messages(lib, scheme832, demand, bad, 1)


def test_decode_names_the_bad_payload_past_a_zero_one(scheme832):
    """Zero is a 1-byte payload: the per-entry check passes it and names the
    out-of-range payload read after it."""
    lib, demand, payloads, _ = message_payloads_832(scheme832)
    bad = [0] * len(payloads)
    bad[-1] = 256
    with pytest.raises(OutOfRange, match="^message payload 256 lies outside the 1-byte integers$"):
        decode_from_messages(lib, scheme832, demand, bad, 1)


def test_decode_rejects_a_log_of_the_wrong_length(scheme832):
    lib, demand, payloads, _ = message_payloads_832(scheme832)
    n = 8 * scheme832.pda.s
    for bad in (payloads[:-1], payloads + (0,)):
        with pytest.raises(DimensionMismatch, match=rf"^{len(bad)} message payloads, K\*S={n} expected$"):
            decode_from_messages(lib, scheme832, demand, bad, 1)
    with pytest.raises(DimensionMismatch):
        decode_from_messages(lib, scheme832, demand, 5, 1)
    # a full (g, s) -> payload dict, the former protocol, yields its (g, s) keys
    s = scheme832.pda.s
    old = {(i // s + 1, i % s + 1): p for i, p in enumerate(payloads)}
    with pytest.raises(OutOfRange, match=r"message payload \(1, \d+\) lies outside the 1-byte integers"):
        decode_from_messages(lib, scheme832, demand, old, 1)


def guarded_calls():
    """(error, match, call) for calls that once escaped with a TypeError,
    AttributeError, ValueError, IndexError or ZeroDivisionError or, for the
    library's file and packet indices, wrapped silently; call takes the
    worked scheme and a 1-byte library."""
    pda = mn_pda(4, 2)
    demand = tuple(range(1, 9))
    curve = envelope([(0, 1), (1, 0)])
    return [
        (OutOfRange, r"k_prime=4\.0 is not an integer", lambda s, lib: mn_pda(4.0, 2)),
        (OutOfRange, r"q=3\.0 is not an integer", lambda s, lib: partition_pda(3, 3.0)),
        (OutOfRange, r"width=8\.0 is not an integer", lambda s, lib: field(8.0)),
        (OutOfRange, r"width=8\.0 is not an integer", lambda s, lib: GF(8.0)),
        (OutOfRange, r"l=3\.0 is not an integer", lambda s, lib: check_c5(pda, 3.0)),
        (OutOfRange, r"step='1/0' cannot be read as a Fraction",
         lambda s, lib: comparison_table(8, 3, ["t1"], "1/0")),
        (OutOfRange, r"step='abc' cannot be read as a Fraction",
         lambda s, lib: comparison_table(8, 3, ["t1"], "abc")),
        (OutOfRange, r"schemes=None cannot be read as a tuple",
         lambda s, lib: comparison_table(8, 3, None, "1/6")),
        (OutOfRange, r"corner value='abc' cannot be read as a Fraction",
         lambda s, lib: envelope([(0, 1), ("abc", 0)])),
        (OutOfRange, r"corner point=1 cannot be read as a tuple", lambda s, lib: envelope([(0, 1), 1])),
        (OutOfRange, r"corner point \(1, 2, 3\) is not a \(ratio, load\) pair",
         lambda s, lib: envelope([(0, 1), (1, 2, 3)])),
        (OutOfRange, r"corner points=None cannot be read as a tuple", lambda s, lib: envelope(None)),
        (OutOfRange, r"x='1/0' cannot be read as a Fraction", lambda s, lib: envelope_eval(curve, "1/0")),
        (OutOfRange, r"x='abc' cannot be read as a Fraction", lambda s, lib: envelope_eval(curve, "abc")),
        (DemandOutOfRange, "demand=None cannot be read", lambda s, lib: deliver(lib, s, None)),
        (DemandOutOfRange, "demand=5 cannot be read", lambda s, lib: deliver(lib, s, 5)),
        (DemandOutOfRange, "demand=None cannot be read", lambda s, lib: compressed_deliver(lib, s, None)),
        (DemandOutOfRange, "demand=5 cannot be read", lambda s, lib: compressed_deliver(lib, s, 5)),
        (DimensionMismatch, "log is a str, not a TransmissionLog",
         lambda s, lib: decode(lib, s, demand, "log", 1)),
        (DimensionMismatch, "payloads is a NoneType, not a tuple",
         lambda s, lib: TransmissionLog(payloads=None, packet_bytes=1).total_packets_sent),
        (DimensionMismatch, "payloads is a list, not a tuple", lambda s, lib: TransmissionLog([1], 1)),
        (OutOfRange, "packet_bytes='x' is not an integer", lambda s, lib: TransmissionLog((1,), "x")),
        (OutOfRange, "packet_bytes=True is not an integer", lambda s, lib: TransmissionLog((1,), True)),
        (OutOfRange, "packet_bytes=-3 must be >= 1", lambda s, lib: TransmissionLog((1,), -3).bytes_sent),
        (OutOfRange, "packet_bytes=0 must be >= 1", lambda s, lib: TransmissionLog((), 0)),
        (DimensionMismatch, "batch is a str, not a CodedBatch",
         lambda s, lib: compressed_decode(lib, s, demand, "batch", 1)),
        (DimensionMismatch, "library is a NoneType, not a PacketLibrary",
         lambda s, lib: deliver(None, s, demand)),
        (DimensionMismatch, "validate_pda's array is a NoneType, not a Pda", lambda s, lib: validate_pda(None)),
        (DimensionMismatch, "star_profile's array is a list, not a Pda", lambda s, lib: star_profile([[1]])),
        (DimensionMismatch, "scheme base array is a str, not a Pda", lambda s, lib: build_scheme("x", 8, 3)),
        (ParseError, "array text is a NoneType, not a str", lambda s, lib: parse_pda(None)),
        (ParseError, "array text is a bytes, not a str", lambda s, lib: parse_pda(b"1 1 0 1\n1\n")),
        (ParseError, "scheme text is a NoneType, not a str", lambda s, lib: scheme_from_json(None)),
        (ParseError, "scheme text is a bytes, not a str",
         lambda s, lib: scheme_from_json(scheme_to_json(s).encode())),
        (MalformedPda, r"cell value 1\.5 outside star", lambda s, lib: Pda(1, 1, ((1.5,),), 0, 2)),
        (MalformedPda, r"cell value 'a' outside star", lambda s, lib: Pda(1, 1, (("a",),), 0, 2)),
        (MalformedPda, r"cell value True outside star", lambda s, lib: Pda(1, 1, ((True,),), 0, 2)),
        (MalformedPda, r"entries are not a tuple of 1 rows", lambda s, lib: Pda(1, 1, [[1]], 0, 1)),
        (MalformedPda, r"row 1 is not a tuple of 1 cells", lambda s, lib: Pda(1, 1, ([1],), 0, 1)),
        (MalformedPda, r"z=None is not an integer", lambda s, lib: Pda(1, 1, ((1,),), None, 1)),
        (MalformedPda, r"rows=True is not an integer", lambda s, lib: Pda(True, 1, ((1,),), 0, 1)),
        (MalformedPda, r"cols=1\.0 is not an integer", lambda s, lib: Pda(1, 1.0, ((1,),), 0, 1)),
        (MalformedPda, r"s='1' is not an integer", lambda s, lib: Pda(1, 1, ((1,),), 0, "1")),
        (OutOfRange, r"n=0 outside \[1, 8\]", lambda s, lib: lib.file_bytes(0)),
        (OutOfRange, r"n=9 outside \[1, 8\]", lambda s, lib: lib.file_bytes(9)),
        (OutOfRange, r"n='x' outside \[1, 8\]", lambda s, lib: lib.file_bytes("x")),
        (OutOfRange, r"n=1\.0 outside \[1, 8\]", lambda s, lib: lib.file_bytes(1.0)),
        (OutOfRange, r"n=0 outside \[1, 8\]", lambda s, lib: lib.packet(0, 0, 0)),
        (OutOfRange, r"g=9 outside \[1, 8\]", lambda s, lib: lib.packet(1, 9, 1)),
        (OutOfRange, r"j=7 outside \[1, 6\]", lambda s, lib: lib.packet(1, 1, 7)),
        (OutOfRange, r"'x' is not an element of GF\(2\^8\)", lambda s, lib: field(8).inv("x")),
        (OutOfRange, r"1\.5 is not an element of GF\(2\^8\)", lambda s, lib: field(8).inv(1.5)),
        (OutOfRange, r"'x' is not an element of GF\(2\^8\)", lambda s, lib: field(8).mul("x", 1)),
        (OutOfRange, r"1\.5 is not an element of GF\(2\^8\)",
         lambda s, lib: field(8).scale_row([1, 2], 1.5)),
        (OutOfRange, r"an operand of <U1 holds no GF\(2\^8\) elements",
         lambda s, lib: field(8).scale_row("x", 1)),
        (OutOfRange, r"a ragged operand holds no GF\(2\^8\) elements",
         lambda s, lib: field(8).matmul([[1], [1, 2]], [[1]])),
        (OutOfRange, r"cols=None cannot be read as a list",
         lambda s, lib: field(8).cauchy_inverse(2, None)),
        (OutOfRange, r"blocks=\[\[1\]\] is not an integer",
         lambda s, lib: dataclasses.replace(compressed_deliver(lib, s, demand), blocks=[[1]]).coding_matrix),
    ]


@pytest.mark.parametrize("error, match, call", guarded_calls())
def test_malformed_arguments_raise_macc_errors(scheme832, error, match, call):
    lib = library_for_scheme(scheme832, packet_bytes=1)
    with pytest.raises(error, match=match):
        call(scheme832, lib)


@pytest.mark.parametrize("pda, error", [
    (mn_pda(4, 2), OutOfRange),  # t*L > K once C2 and C4 hold
    (dataclasses.replace(mn_pda(4, 2), s=5), ConditionViolation),  # C2 first
])
def test_lift_past_k_costs_no_more_than_k(pda, error):
    """At L > K the lift is cut to K columns per star: the error comes at
    once, in its usual order, with no L-long run of cells built."""
    tracemalloc.start()
    try:
        with pytest.raises(error):
            build_scheme(pda, 8, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# Run under python -O, where assert statements are stripped, so it checks
# with if/raise: each construction check must still raise its MaccError.
OPTIMIZED_CHECKS = """
import dataclasses

from macc import (
    STAR, C3ViolationInQ, C4Violation, ConditionViolation, DimensionMismatch, MalformedPda,
    OutOfRange, PacketLibrary, Pda, Scheme, SingularSystem, compressed_decode,
    compressed_deliver, decode_from_messages, deliver, library_for_scheme, mn_pda,
)

if __debug__:
    raise SystemExit("not running under python -O")


def expect(error, build):
    try:
        build()
    except error:
        return
    raise SystemExit(f"no {error.__name__}")


pneg = Pda(rows=5, cols=5, entries=PNEG_ROWS, z=2, s=14)
expect(ConditionViolation, lambda: Scheme(dataclasses.replace(mn_pda(4, 2), s=5), 8, 3))
expect(C4Violation, lambda: Scheme(Pda(rows=2, cols=2, entries=((STAR, 1), (2, 3)), z=1, s=3), 3, 2))
expect(C3ViolationInQ, lambda: Scheme(pneg, 7, 2))
expect(OutOfRange, lambda: Scheme(mn_pda(4, 2), 9, 3))
expect(MalformedPda, lambda: Pda(rows=1, cols=1, entries=((5,),), z=0, s=2))
expect(DimensionMismatch, lambda: PacketLibrary(8, 8, 6, 1, ()))
scheme = Scheme(mn_pda(4, 2), 8, 3)
lib = library_for_scheme(scheme, packet_bytes=1)
expect(DimensionMismatch, lambda: PacketLibrary(8, 8, 6, 0, lib.data))
big = (((256,) + lib.data[0][0][1:],) + lib.data[0][1:],) + lib.data[1:]
expect(OutOfRange, lambda: PacketLibrary(8, 8, 6, 1, big))
expect(OutOfRange, lambda: Scheme(mn_pda(4, 2), 8.0, 3))
expect(OutOfRange, lambda: library_for_scheme(scheme, packet_bytes=1.5))
expect(OutOfRange, lambda: library_for_scheme(scheme, n_files=8.0))
expect(OutOfRange, lambda: PacketLibrary(8.0, 8, 6, 1, lib.data))
demand = (1,) * 8
batch = compressed_deliver(lib, scheme, demand)
bad = dataclasses.replace(batch, m1=batch.m1 - 1, payloads=batch.payloads[:-1])
expect(SingularSystem, lambda: compressed_decode(lib, scheme, demand, bad, 1))
payloads = deliver(lib, scheme, demand).payloads
expect(DimensionMismatch, lambda: decode_from_messages(lib, scheme, demand, payloads[:-1], 1))
expect(OutOfRange, lambda: decode_from_messages(lib, scheme, demand, (256,) * len(payloads), 1))
print("ok")
"""


def test_construction_checks_survive_python_O():
    script = f"PNEG_ROWS = {PNEG_ROWS!r}\n" + OPTIMIZED_CHECKS
    src = Path(macc.__file__).resolve().parents[1]
    run = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, "ok\n", "")


@pytest.mark.parametrize("build, text", [
    (lambda: mn_pda(40, 20), r"^mn_pda\(40, 20\) has at least 5513861152800 cells, past the 16777216-cell cap$"),
    (lambda: mn_pda(60, 30), r"^mn_pda\(60, 30\) has at least \d+ cells"),
    (lambda: mn_pda(2**70, 2**69), r"^mn_pda\(\d+, \d+\) has at least \d+ cells"),
    (lambda: partition_pda(12, 12), r"^partition_pda\(12, 12\) has at least 106993205379072 cells"),
    (lambda: partition_pda(2**70, 2), r"^partition_pda\(\d+, 2\) has at least \d+ cells"),
])
def test_huge_constructions_are_refused_before_any_cell(build, text):
    """C(K', t) * K' and q^(m-1) * m*q cells are bounded in exact ints before
    anything is allocated, however large the parameters."""
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        with pytest.raises(OutOfRange, match=text):
            build()
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.05 and peak < 2**20


def test_construction_cap_admits_its_own_size(monkeypatch):
    """The cap is inclusive, and the count is exact below it: mn_pda(4, 2) has
    6 x 4 cells, partition_pda(3, 2) 4 x 6 and mn_pda(26, 25) 26 x 26."""
    from macc import constructions

    for build, cells in ((lambda: mn_pda(4, 2), 24), (lambda: partition_pda(3, 2)[0], 24),
                         (lambda: mn_pda(26, 25), 676)):
        monkeypatch.setattr(constructions, "MAX_CELLS", cells)
        assert build().array.size == cells
        monkeypatch.setattr(constructions, "MAX_CELLS", cells - 1)
        with pytest.raises(OutOfRange, match=rf"has at least {cells} cells, past the {cells - 1}-cell cap$"):
            build()


def test_cli_import_loads_no_openssl():
    """hashlib maps OpenSSL on import; only a report that hashes a file loads it."""
    src = Path(macc.__file__).resolve().parents[1]
    run = subprocess.run(
        [sys.executable, "-c", "import sys, macc.cli; print('_hashlib' in sys.modules)"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, "False\n", "")
