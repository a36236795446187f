"""The plan-based simulator against the loop references it replaced.

The oracle_* helpers below rebuild every round-g grid with oracles.shift_grid
and walk it cell by cell. oracles.deliver_by_cells and
oracles.decode_by_recipes walk the round-1 plan that oracles.plan_by_walk
builds from the delivery grid, one packet int at a time. The library gathers
over Scheme.plan's index arrays instead; its results, including which
UndecodablePacket or OutOfRange it raises, must match the loops exactly, and
its arrays must equal the walk's.
"""

import copy
import dataclasses
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PNEG_ROWS, c4_arrays, ragged_pda
from macc import (
    STAR,
    C3ViolationInQ,
    C4Violation,
    ConditionViolation,
    MaccError,
    OutOfRange,
    Pda,
    Scheme,
    UndecodablePacket,
    build_scheme,
    check_c5,
    compressed_decode,
    compressed_deliver,
    coverable_messages,
    decode,
    decode_from_messages,
    deliver,
    library_for_scheme,
    mn_pda,
    partition_pda,
    scheme_to_json,
    validate_pda,
)
from macc import pda, sim, transform
from macc.sim import TransmissionLog, check_demand
from oracles import (
    build_scheme_by_steps,
    compressed_decode_by_elimination,
    compressed_deliver_by_ints,
    constituents,
    decode_by_recipes,
    deliver_by_cells,
    demand_suite,
    json_placement,
    messages_read,
    plan_by_walk,
    plan_record,
    populate_caches,
    round_payloads,
    shift_grid,
    user_view,
    view_sets,
)


def position(scheme, g, s) -> int:
    """Log position of message (g, s)."""
    return (g - 1) * scheme.pda.s + s - 1


def oracle_deliver(library, scheme, demand) -> TransmissionLog:
    d = check_demand(demand, scheme.params.k, library.n_files)
    payloads = [None] * (scheme.params.k * scheme.pda.s)
    for g in range(1, scheme.params.k + 1):
        groups = constituents(shift_grid(scheme.delivery.grid, g))
        for s in range(1, scheme.pda.s + 1):
            payload = 0
            for j, c in groups[s]:
                payload ^= library.packet(d[c - 1], g, j)
            payloads[position(scheme, g, s)] = payload
    return TransmissionLog(payloads=tuple(payloads), packet_bytes=library.packet_bytes)


def oracle_decode_from_messages(library, scheme, demand, payloads, user) -> bytes:
    d = check_demand(demand, scheme.params.k, library.n_files)
    want = d[user - 1]
    out = []
    for g in range(1, scheme.params.k + 1):
        view = user_view(scheme, user, g)
        qgrid = shift_grid(scheme.delivery.grid, g)
        groups = constituents(qgrid)
        for j in range(1, scheme.pda.rows + 1):
            if j in view:
                out.append(library.packet(want, g, j))
                continue
            s = qgrid[j - 1][user - 1]
            assert s != STAR, "non-view rows must carry an integer"
            val = payloads[position(scheme, g, s)]
            if val is None:
                raise UndecodablePacket(f"message (g={g}, s={s}) missing from the log")
            for jj, cc in groups[s]:
                if (jj, cc) == (j, user):
                    continue
                if jj not in view:
                    raise UndecodablePacket(
                        f"peer packet row {jj} outside user {user}'s view in round {g}"
                    )
                val ^= library.packet(d[cc - 1], g, jj)
            out.append(val)
    return b"".join(p.to_bytes(library.packet_bytes, "big") for p in out)


def oracle_populate_caches(scheme) -> tuple[frozenset, ...]:
    k = scheme.params.k
    caches: list[set] = [set() for _ in range(k)]
    for g in range(1, k + 1):
        for j, row in enumerate(shift_grid(json_placement(scheme), g), start=1):
            for c, starred in enumerate(row, start=1):
                if starred:
                    caches[c - 1].add((g, j))
    return tuple(frozenset(s) for s in caches)


def oracle_coverable_messages(scheme, user) -> frozenset:
    out = set()
    for g in range(1, scheme.params.k + 1):
        view = user_view(scheme, user, g)
        for s, cells in constituents(shift_grid(scheme.delivery.grid, g)).items():
            if all(j in view for j, _ in cells):
                out.add(position(scheme, g, s))
    return frozenset(out)


def outcome(fn, *args):
    """The decoded bytes, or the name and text of the MaccError raised."""
    try:
        return fn(*args)
    except MaccError as e:
        return f"{type(e).__name__}: {e}"


# label -> (scheme, files): the worked instance, the plain benchmark instance,
# the partition instance, no caching (t = 0), a single user, and integers
# that fill 2, 3, 3, 3 and 1 cells.
SCHEMES = {
    "worked": (build_scheme(mn_pda(4, 2), 8, 3), 8),
    "mn12_2": (build_scheme(mn_pda(12, 2), 16, 3), 16),
    "part33": (build_scheme(partition_pda(3, 3)[0], 15, 3), 15),
    "t0": (build_scheme(mn_pda(5, 0), 5, 2), 5),
    "k1": (build_scheme(mn_pda(1, 0), 1, 1), 2),
    "ragged": (build_scheme(ragged_pda(), 8, 3), 8),
}


@pytest.fixture(scope="module", params=list(SCHEMES))
def case(request):
    scheme, n = SCHEMES[request.param]
    return scheme, library_for_scheme(scheme, n_files=n, packet_bytes=3, seed=scheme.params.k)


def assert_matches_oracle(scheme, library, demand):
    log = deliver(library, scheme, demand)
    assert log == oracle_deliver(library, scheme, demand)
    assert log == deliver_by_cells(library, scheme, demand)
    for u in range(1, scheme.params.k + 1):
        got = decode_from_messages(library, scheme, demand, log.payloads, u)
        assert got == oracle_decode_from_messages(library, scheme, demand, log.payloads, u)
        assert got == decode_by_recipes(library, scheme, demand, log.payloads, u)
        assert got == library.file_bytes(demand[u - 1])


def test_plan_matches_oracle(case):
    scheme, library = case
    k, n = scheme.params.k, library.n_files
    for demand in demand_suite(k, n, seed=k, n_random=2, exhaustive_cap=0):
        assert_matches_oracle(scheme, library, demand)


def test_caches_and_coverage_match_oracle(case):
    scheme, library = case
    assert populate_caches(library, scheme) == oracle_populate_caches(scheme)
    for u in range(1, scheme.params.k + 1):
        assert coverable_messages(scheme, u) == oracle_coverable_messages(scheme, u)


@pytest.mark.parametrize("label", ["worked", "part33"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_plan_matches_oracle_on_drawn_demands(label, data):
    scheme, n = SCHEMES[label]
    library = library_for_scheme(scheme, n_files=n, packet_bytes=2, seed=1)
    k = scheme.params.k
    demand = data.draw(st.lists(st.integers(1, n), min_size=k, max_size=k))
    assert_matches_oracle(scheme, library, demand)


def test_missing_message_matches_oracle(scheme832):
    library = library_for_scheme(scheme832, packet_bytes=1, seed=4)
    demand = (2, 4, 6, 8, 1, 3, 5, 7)
    full = deliver(library, scheme832, demand).payloads
    k = scheme832.params.k
    missing = 0
    for g, s in product(range(1, k + 1), range(1, scheme832.pda.s + 1)):
        i = position(scheme832, g, s)
        msgs = full[:i] + (None,) + full[i + 1:]
        for u in range(1, k + 1):
            got = outcome(decode_from_messages, library, scheme832, demand, msgs, u)
            assert got == outcome(oracle_decode_from_messages, library, scheme832, demand, msgs, u)
            assert got == outcome(decode_by_recipes, library, scheme832, demand, msgs, u)
            missing += got == f"UndecodablePacket: message (g={g}, s={s}) missing from the log"
    assert missing > 0


@pytest.mark.parametrize("label", ["worked", "ragged", "part33"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_corrupted_log_matches_the_loop_oracle(label, data):
    """Two to four bad entries among those one user reads, and up to two
    anywhere: every user's decode gives the recipe walk's bytes or its error.
    So the first bad entry in (round, row) order is the one reported, and an
    entry a user does not read is never checked."""
    scheme, n = SCHEMES[label]
    k = scheme.params.k
    b = data.draw(st.sampled_from([1, 2]), label="packet_bytes")
    library = library_for_scheme(scheme, n_files=n, packet_bytes=b, seed=k)
    demand = tuple(data.draw(st.lists(st.integers(1, n), min_size=k, max_size=k), label="demand"))
    payloads = list(deliver(library, scheme, demand).payloads)
    read = sorted(messages_read(scheme, data.draw(st.integers(1, k), label="user")))
    spots = data.draw(st.lists(st.sampled_from(read), min_size=2, max_size=4, unique=True),
                      label="read")
    spots += data.draw(st.lists(st.integers(0, len(payloads) - 1), max_size=2), label="anywhere")
    bad = st.sampled_from([None, -1, 1 << 8 * b, "x", 1.5, np.int64(1)])
    for i in spots:
        payloads[i] = data.draw(bad, label=f"entry {i}")
    for u in range(1, k + 1):
        got = outcome(decode_from_messages, library, scheme, demand, payloads, u)
        assert got == outcome(decode_by_recipes, library, scheme, demand, payloads, u)


def test_plain_decode_is_one_gather(monkeypatch):
    """Each plain decode, of a delivered log or of its payloads, works out its
    user's rounds once and hands them to file_from_messages with one array of
    the len(plan.miss_cols) messages its user reads; deliver matches the loop
    on a ragged plan, on one integer (S = 1) and on none (S = 0)."""
    calls, gather, rounds = [], sim.file_from_messages, transform.DeliveryPlan.rounds

    def spied(library, scheme, d, user, g, messages):
        calls.append((g.tolist(), messages.shape))
        return gather(library, scheme, d, user, g, messages)

    def counted(plan, user, cols):
        calls.append("rounds")
        return rounds(plan, user, cols)

    monkeypatch.setattr(sim, "file_from_messages", spied)
    monkeypatch.setattr(transform.DeliveryPlan, "rounds", counted)
    for p, k, l in ((ragged_pda(), 8, 3), (mn_pda(2, 1), 2, 1), (mn_pda(3, 3), 3, 1)):
        scheme = build_scheme(p, k, l)
        library = library_for_scheme(scheme, packet_bytes=3, seed=k)
        demand = tuple(range(k, 0, -1))
        log = deliver(library, scheme, demand)
        assert log == deliver_by_cells(library, scheme, demand)
        assert len(log.payloads) == k * p.s
        miss_cols = scheme.plan.miss_cols
        for u in range(1, k + 1):
            want = ["rounds", (rounds(scheme.plan, u, miss_cols).tolist(), (len(miss_cols), 3))]
            calls.clear()
            assert decode(library, scheme, demand, log, u) == library.file_bytes(demand[u - 1])
            assert decode_from_messages(library, scheme, demand, log.payloads, u) == library.file_bytes(demand[u - 1])
            assert calls == want * 2


# (array, K, L) of a ragged plan, one integer (S = 1) and none (S = 0)
KEPT_CASES = ((ragged_pda(), 8, 3), (mn_pda(2, 1), 2, 1), (mn_pda(3, 3), 3, 1))


def refuse(*args, **kwargs):
    raise AssertionError("a delivered log decodes from its kept bytes alone")


@pytest.mark.parametrize("p, k, l", KEPT_CASES)
def test_delivered_log_decodes_from_its_kept_bytes(monkeypatch, p, k, l):
    """deliver keeps its messages' bytes, read-only and in no field, and
    every user's decode of that log reads them: no int payload is read,
    converted or derived, and the library never derives its ints. A
    dataclasses.replace copy or a hand-built log, which keep no bytes,
    decode through decode_from_messages to the same files."""
    scheme = build_scheme(p, k, l)
    library = library_for_scheme(scheme, packet_bytes=3, seed=k)
    demand = tuple(range(k, 0, -1))
    log = deliver(library, scheme, demand)
    kept = vars(log)["_messages"]
    assert kept.shape == (k * p.s, 3) and not kept.flags.writeable
    assert kept.tobytes() == b"".join(v.to_bytes(3, "big") for v in log.payloads)
    blind = copy.copy(log)  # the kept bytes without a readable payload
    object.__setattr__(blind, "payloads", (None,) * len(log.payloads))
    copies = (dataclasses.replace(log), TransmissionLog(log.payloads, 3))
    assert all(c == log and "_messages" not in vars(c) for c in copies)
    files = [library.file_bytes(n) for n in demand]
    with monkeypatch.context() as m:
        m.setattr(sim, "decode_from_messages", refuse)
        m.setattr(sim, "packet_ints", refuse)
        for u in range(1, k + 1):
            assert decode(library, scheme, demand, log, u) == files[u - 1]
            assert decode(library, scheme, demand, blind, u) == files[u - 1]
    assert "data" not in vars(library)
    for u in range(1, k + 1):
        assert all(decode(library, scheme, demand, c, u) == files[u - 1] for c in copies)
    assert log == deliver_by_cells(library, scheme, demand)


def test_kept_and_int_decodes_raise_alike(scheme832):
    """A delivered log and its replace copy fail with the same error type and
    text, checked in decode_from_messages's order: dims, demand, user, then
    the K*S count (the ragged scheme has the same K and F' but S = 5)."""
    library = library_for_scheme(scheme832, packet_bytes=2, seed=3)
    demand = tuple(range(1, 9))
    log = deliver(library, scheme832, demand)
    ragged = build_scheme(ragged_pda(), 8, 3)
    foreign = library_for_scheme(build_scheme(mn_pda(5, 2), 9, 3), packet_bytes=2, seed=0)
    cases = [(library, ragged, demand, u) for u in (1, 8, 0, 9, 1.0, None)]
    cases += [(library, scheme832, demand, u) for u in (0, 9, 1.0, "1")]
    cases += [(library, ragged, demand[:7], 1), (library, scheme832, (9,) * 8, 0), (foreign, ragged, demand, 0)]
    for lib, scheme, d, u in cases:
        want = outcome(decode, lib, scheme, d, dataclasses.replace(log), u)
        assert want.split(":")[0] in ("DimensionMismatch", "DemandOutOfRange"), want
        assert outcome(decode, lib, scheme, d, log, u) == want, (scheme is ragged, d, u)
    assert outcome(decode, library, ragged, demand, log, 1) == (
        "DimensionMismatch: 32 message payloads, K*S=40 expected"
    )


@pytest.mark.parametrize("p, k, l", KEPT_CASES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_kept_offsets_match_the_loops(p, k, l, data):
    """Every gather through the plan's kept offsets gives the loops' bytes on
    drawn demands, files and packet sizes: round_messages over drawn rounds,
    deliver, every user's decode of the delivered log and of its payloads,
    and, where some user sees a whole round, the coded delivery and every
    coded decode."""
    scheme = build_scheme(p, k, l)
    b = data.draw(st.sampled_from([1, 2, 3, 4, 8]), label="packet_bytes")
    n = data.draw(st.integers(1, k + 2), label="files")
    library = library_for_scheme(scheme, n_files=n, packet_bytes=b, seed=k)
    demand = tuple(data.draw(st.lists(st.integers(1, n), min_size=k, max_size=k), label="demand"))
    rounds = data.draw(st.lists(st.integers(1, k), max_size=2 * k), label="rounds")
    got = sim.round_messages(library, scheme, demand, rounds)
    assert got.shape == (len(rounds), p.s, b)
    want = [v for g in rounds for v in round_payloads(library, scheme, demand, g)]
    assert got.tobytes() == b"".join(v.to_bytes(b, "big") for v in want)
    log = deliver(library, scheme, demand)
    assert log == deliver_by_cells(library, scheme, demand)
    batch = compressed_deliver(library, scheme, demand) if scheme.plan.full_cols.size else None
    if batch is not None:
        assert batch == compressed_deliver_by_ints(library, scheme, demand)
    for u in range(1, k + 1):
        want = decode_by_recipes(library, scheme, demand, log.payloads, u)
        assert want == library.file_bytes(demand[u - 1])
        assert decode(library, scheme, demand, log, u) == want
        assert decode_from_messages(library, scheme, demand, log.payloads, u) == want
        if batch is not None:
            assert compressed_decode(library, scheme, demand, batch, u) == want
            assert compressed_decode_by_elimination(library, scheme, demand, batch, u) == want


@pytest.mark.parametrize("b", range(1, 10))
def test_gathers_alike_at_every_word_width(b):
    """Packets of 1 to 9 bytes, gathered as words of 8, 4, 2 or 1 bytes:
    deliver matches the loop and every user decodes its file."""
    scheme = build_scheme(ragged_pda(), 8, 3)
    library = library_for_scheme(scheme, packet_bytes=b, seed=b)
    demand = (3, 1, 4, 1, 5, 2, 6, 8)
    log = deliver(library, scheme, demand)
    assert log == deliver_by_cells(library, scheme, demand)
    for u in range(1, 9):
        assert decode(library, scheme, demand, log, u) == library.file_bytes(demand[u - 1])


def counted(monkeypatch, module, name):
    """Patch module.name with a wrapper that records each call's arguments."""
    calls, real = [], getattr(module, name)

    def spied(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, spied)
    return calls


@pytest.mark.parametrize("p, k, l", KEPT_CASES)
def test_kept_offsets_are_read_only_and_built_once(monkeypatch, p, k, l):
    """The plan builds its round cells on the first gather and never again,
    and a decode, plain or coded, keeps nothing on it; both kept arrays are
    read-only and the plan's own fields are untouched. A dataclasses.replace
    copy of the plan, or of the scheme, builds its own."""
    cells = counted(monkeypatch, transform, "_round_cells")
    scheme = build_scheme(p, k, l)
    plan = scheme.plan
    fields = {f.name: getattr(plan, f.name) for f in dataclasses.fields(plan)}
    assert set(vars(plan)) == set(fields) and cells == []
    library = library_for_scheme(scheme, packet_bytes=2, seed=k)
    demand = tuple(range(k, 0, -1))
    coded = scheme.plan.full_cols.size > 0
    for _ in range(2):
        log = deliver(library, scheme, demand)
        batch = compressed_deliver(library, scheme, demand) if coded else None
        for u in range(1, k + 1):
            decode(library, scheme, demand, log, u)
            decode_from_messages(library, scheme, demand, log.payloads, u)
            if coded:
                compressed_decode(library, scheme, demand, batch, u)
    assert cells == [(plan,)]
    assert set(vars(plan)) == set(fields) | {"full_cols", "_round_cells"}
    round_cols, offsets = kept = plan._round_cells
    assert round_cols.shape == offsets.shape == (k, *plan.cell_rows.shape)
    assert all(a.dtype == np.intp and not a.flags.writeable for a in kept)
    assert all(getattr(plan, name) is a for name, a in fields.items())
    twin = dataclasses.replace(plan)
    assert "_round_cells" not in vars(twin)
    assert twin._round_cells is not kept and len(cells) == 2
    assert all(np.array_equal(a, b) for a, b in zip(twin._round_cells, kept))
    copy_scheme = dataclasses.replace(scheme)
    assert copy_scheme.plan is not plan and deliver(library, copy_scheme, demand) == log
    assert decode(library, copy_scheme, demand, log, 1) == library.file_bytes(demand[0])
    assert [args[0] for args in cells] == [plan, twin, copy_scheme.plan]


def outcome_of_build(build):
    """The type and text of what build() raised, or None."""
    try:
        build()
    except Exception as e:  # noqa: BLE001 - the comparison is the point
        return type(e), str(e)
    return None


# label -> (array, K, L, error): one input per check the lift runs at
# construction. Every Scheme passes them all, so the plan needs no check of
# its grids.
BAD_LIFTS = {
    "C2": (dataclasses.replace(mn_pda(4, 2), s=5), 8, 3, ConditionViolation),
    "C4": (Pda(rows=2, cols=2, entries=((STAR, 1), (2, 3)), z=1, s=3), 3, 2, C4Violation),
    "C4 K=4": (Pda(rows=2, cols=2, entries=((STAR, 1), (2, 3)), z=1, s=3), 4, 2, C4Violation),
    "C5": (Pda(rows=5, cols=5, entries=PNEG_ROWS, z=2, s=14), 7, 2, C3ViolationInQ),
    "wrong K": (mn_pda(4, 2), 9, 3, OutOfRange),
    "float K": (mn_pda(4, 2), 8.0, 3, OutOfRange),
    "K=0 before C2": (dataclasses.replace(mn_pda(4, 2), s=5), 0, 3, OutOfRange),
    "L=0 before C2": (dataclasses.replace(mn_pda(4, 2), s=5), 8, 0, OutOfRange),
}


@pytest.mark.parametrize("label", list(BAD_LIFTS))
def test_every_way_to_make_a_scheme_runs_the_lift_checks(label, scheme832):
    p, k, l, error = BAD_LIFTS[label]
    want = outcome_of_build(lambda: build_scheme(p, k, l))
    assert want is not None and want[0] is error
    assert outcome_of_build(lambda: Scheme(p, k, l)) == want
    assert outcome_of_build(lambda: dataclasses.replace(scheme832, pda=p, k=k, l=l, n=k)) == want


@pytest.mark.parametrize("label", [label for label in BAD_LIFTS if label != "float K"])
def test_step_by_step_lift_runs_the_checks_in_the_same_order(label):
    """The oracle takes integer parameters only, so "float K" is left out."""
    p, k, l, _ = BAD_LIFTS[label]
    want = outcome_of_build(lambda: build_scheme(p, k, l))
    assert outcome_of_build(lambda: build_scheme_by_steps(p, k, l)) == want


def test_uneven_stars_raise_c4_at_every_k_and_l():
    p = BAD_LIFTS["C4"][0]
    for k in range(1, 7):
        for l in range(1, 5):
            with pytest.raises(C4Violation):
                build_scheme(p, k, l)


def refuse(*args):
    raise AssertionError("the lift's cells index was rebuilt")


def test_one_lift_serves_the_build_the_plan_and_delivery(monkeypatch):
    lifts, real_lift = [], transform._lift

    def counted(*args):
        lifts.append(args)
        return real_lift(*args)

    monkeypatch.setattr(transform, "_lift", counted)
    scheme = build_scheme(mn_pda(4, 2), 8, 3)
    library = library_for_scheme(scheme, packet_bytes=1, seed=0)
    cells_index = pda._integer_cells
    monkeypatch.setattr(pda, "_integer_cells", refuse)
    assert scheme.plan.miss_cols.size
    assert scheme._cells is None, "the plan holds the only copy of the lift's cells index"
    deliver(library, scheme, tuple(range(1, 9)))
    assert len(lifts) == 1
    monkeypatch.setattr(pda, "_integer_cells", cells_index)
    assert check_c5(mn_pda(4, 2), 3)
    assert len(lifts) == 2


def test_one_index_serves_c2_c3_and_the_lift(monkeypatch):
    """validate_pda, default and exhaustive, check_c5, a Scheme build and a
    round grid all read one index of the base array, which the array keeps;
    the built scheme keeps no grid, only the lift's cells index until its
    plan is built. An equal array of its own builds its own index."""
    p, calls, real_index = mn_pda(4, 2), [], pda._integer_cells

    def counted(a):
        calls.append(a)
        return real_index(a)

    monkeypatch.setattr(pda, "_integer_cells", counted)
    validate_pda(p)
    validate_pda(p, exhaustive=True)
    assert check_c5(p, 3)
    scheme = build_scheme(p, 8, 3)
    scheme.q(2)
    assert len(calls) == 1 and calls[0] is p.array
    twin = mn_pda(4, 2)
    assert twin == p and build_scheme(twin, 8, 3) == scheme
    assert len(calls) == 2 and calls[1] is twin.array
    assert set(vars(scheme)) == {"pda", "k", "l", "n", "params", "_cells"}
    assert [a.shape for a in scheme._cells] == [(p.s * 3,)] * 3


def assert_plan_is_the_walks(scheme):
    """Every field of scheme.plan equals plan_by_walk's: the views as a
    read-only (F', K) bool mask of the walk's views, and the nine index
    arrays in value, shape, dtype (intp or bool, as the walk builds them)
    and read-only flag."""
    plan, walk = scheme.plan, plan_by_walk(scheme)
    views = plan.views
    assert (views.shape, views.dtype, views.flags.writeable) == (
        (scheme.pda.rows, scheme.params.k), np.dtype(bool), False)
    assert view_sets(views) == walk.views
    assert plan_record(plan) == plan_record(walk)


def test_plan_indexes_the_delivery_grid():
    """The plan is the walk's on every stock array that lifts, among them
    mn_pda(3, 3) with no integer (S = 0) and mn_pda(k', 0) with no star
    (t = 0), and on integers of ragged group sizes."""
    arrays = [mn_pda(kp, t) for kp in range(1, 9) for t in range(kp + 1)]
    arrays += [partition_pda(m, q)[0] for m in (2, 3) for q in (2, 3)]
    built = 0
    for p in arrays:
        for l in range(1, 5):
            k = p.cols + p.z * p.cols // p.rows * (l - 1)
            try:
                scheme = build_scheme(p, k, l)
            except ConditionViolation:
                continue
            assert_plan_is_the_walks(scheme)
            built += 1
    assert built > len(arrays)
    assert_plan_is_the_walks(build_scheme(ragged_pda(), 8, 3))


@settings(max_examples=200, deadline=None)
@given(p=c4_arrays(), l=st.integers(1, 4))
def test_drawn_plans_are_the_walks(p, l):
    k = p.cols + p.z * p.cols // p.rows * (l - 1)
    try:
        scheme = build_scheme(p, k, l)
    except C3ViolationInQ:
        return
    assert_plan_is_the_walks(scheme)


def test_plan_memory_is_its_index_arrays():
    """At K=20, L=3, t=2 the plan keeps only its index arrays, about 130 KB."""
    scheme = build_scheme(mn_pda(16, 2), 20, 3)
    tracemalloc.start()
    try:
        plan = scheme.plan
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert plan is scheme.plan
    assert kept < 200_000, kept


def test_plan_keeps_only_its_round_cells_after_every_decode():
    """At K=20, L=3, t=2, after a deliver and every user's decode the plan
    holds its index arrays and its two (K, 3, 560) round-cell arrays, about
    670 KB, and nothing per user: offsets kept for each of the 20 users
    would add about 1.9 MB."""
    scheme = build_scheme(mn_pda(16, 2), 20, 3)
    library = library_for_scheme(scheme, packet_bytes=1, seed=0)
    demand = tuple(range(20, 0, -1))
    tracemalloc.start()
    try:
        plan = scheme.plan
        log = deliver(library, scheme, demand)
        for u in range(1, 21):
            assert decode(library, scheme, demand, log, u) == library.file_bytes(demand[u - 1])
            assert decode_from_messages(library, scheme, demand, log.payloads, u) == library.file_bytes(demand[u - 1])
        del log
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert plan is scheme.plan and plan._round_cells[0].shape == (20, 3, 560)
    assert kept < 800_000, kept


def test_scheme_grids_cannot_be_supplied(scheme832):
    for name in ("placement", "delivery"):
        with pytest.raises(TypeError):
            dataclasses.replace(scheme832, **{name: scheme832.delivery})
        with pytest.raises(TypeError):
            Scheme(mn_pda(4, 2), 8, 3, **{name: scheme832.delivery})


def test_plan_is_lazy_and_outside_equality():
    p = mn_pda(4, 2)
    scheme = build_scheme(p, 8, 3)
    assert "plan" not in vars(scheme)
    text = scheme_to_json(scheme, include_arrays=True)
    assert scheme.plan is scheme.plan
    assert scheme == build_scheme(p, 8, 3)
    assert scheme_to_json(scheme, include_arrays=True) == text
