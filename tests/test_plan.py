"""The plan-based simulator against the loop references it replaced.

The oracle_* helpers below rebuild every round-g grid with oracles.shift_grid
and walk it cell by cell. oracles.deliver_by_cells and
oracles.decode_by_recipes walk the round-1 plan that oracles.plan_by_walk
builds from the delivery grid, one packet int at a time. The library gathers
over Scheme.plan's index arrays instead; its results, including which
UndecodablePacket or OutOfRange it raises, must match the loops exactly, and
its arrays must equal the walk's.
"""

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
    constituents,
    decode_by_recipes,
    deliver_by_cells,
    demand_suite,
    json_placement,
    messages_read,
    plan_by_walk,
    plan_record,
    populate_caches,
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
    """Each plain decode hands file_from_messages one array of the
    len(plan.miss_cols) messages its user reads; deliver matches the loop on
    a ragged plan, on one integer (S = 1) and on none (S = 0)."""
    calls, gather = [], sim.file_from_messages

    def spied(library, scheme, d, user, messages):
        calls.append(messages.shape)
        return gather(library, scheme, d, user, messages)

    monkeypatch.setattr(sim, "file_from_messages", spied)
    for p, k, l in ((ragged_pda(), 8, 3), (mn_pda(2, 1), 2, 1), (mn_pda(3, 3), 3, 1)):
        scheme = build_scheme(p, k, l)
        library = library_for_scheme(scheme, packet_bytes=3, seed=k)
        demand = tuple(range(k, 0, -1))
        log = deliver(library, scheme, demand)
        assert log == deliver_by_cells(library, scheme, demand)
        assert len(log.payloads) == k * p.s
        for u in range(1, k + 1):
            calls.clear()
            assert decode(library, scheme, demand, log, u) == library.file_bytes(demand[u - 1])
            assert calls == [(len(scheme.plan.miss_cols), 3)]


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
