"""The macc benchmark workloads, their correctness gate and the traced per-layer probes.

Every call the benchmark makes into macc sits inside `tr.span("<module>.<function>")`,
so a traced run reports per-layer self time from outside the library. Each
workload checks every output it gets, byte for byte, and counts an operation
as failed on a mismatch, a raised exception, an unexpected exit code or a
failed check in a CLI report; a failure never ends the run.

Load model: one closed-loop client in one process, no threads; `cli-worked`
runs one child process at a time. Demands are drawn from the workload seed,
uniformly over [1, N]^K with N = K, and users are decoded in rotation.
"""

import bisect
import gc
import json
import os
import random
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr
from dataclasses import asdict, dataclass
from fractions import Fraction
from math import comb

import numpy as np

import macc
from macc import (
    build_scheme,
    check_c5,
    cli,
    comparison_table,
    compressed_decode,
    compressed_deliver,
    compressed_load,
    converse_bound,
    decode,
    deliver,
    gap_checks,
    library_for_scheme,
    mn_pda,
    partition_pda,
    r_t1,
    scheme_from_json,
    scheme_to_json,
    validate_pda,
)
from macc.gf2 import cauchy_matrix, field, packet_to_symbols, symbols_to_packet
from macc.pda import STAR
from tracing import NoTrace, Tracer, p50, p90

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(macc.__file__)))
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
    OMP_NUM_THREADS="1",
    OPENBLAS_NUM_THREADS="1",
)
CHILD_TIMEOUT_S = 60
# Times in the result are scaled to a machine on which a reference takes a fixed time,
# by the reference's timings around each operation (Tally.scaled). In-process work is
# scaled by reference_task, which runs every CALIBRATE_EVERY_S between operations and
# takes REF_TASK_S on the reference machine; set-ups and child-process operations by
# reference_child, which runs before each of them and takes REF_CHILD_S there.
REF_TASK_S = 0.010
CALIBRATE_EVERY_S = 0.5
REF_CHILD_S = 0.2
REF_WINDOW_S = 1.0
CURVES = ("hkd", "rk", "sr", "t1", "conv")
NOTRACE = NoTrace()

# What the `macc` console script runs.
MACC = [sys.executable, "-c", "import sys; from macc.cli import main; sys.exit(main())"]

# Which end-to-end metric each per-layer metric should move, and on which workload.
MOVES = {
    "constructions.mn_pda.ms": "design_points_per_s, setup_s on design-sweep; set-up of plain-mn16",
    "constructions.partition_pda.ms": "setup_s on coded-part33",
    "pda.validate_pda.ms": "design_points_per_s on design-sweep (not the decode workloads)",
    "pda.check_c5.ms": "design_points_per_s on design-sweep (not the decode workloads)",
    "transform.build_scheme.ms": "design_points_per_s on design-sweep; run_ms_p50 on cli-worked",
    "transform.scheme_json.ms": "design_points_per_s on design-sweep; run_ms_p50 on cli-worked",
    "transform.round_grid.ms": "decode_ms_p50, decoded_MBps on plain-mn16 (not design-sweep)",
    "sim.library_for_scheme.ms": "setup_s on plain-mn16, coded-part33",
    "sim.deliver.ms": "deliver_ms_p50 on plain-mn16, and inside the coded deliver",
    "sim.messages": "deliver_ms_p50 on plain-mn16",
    "sim.xors": "deliver_ms_p50 on plain-mn16",
    "sim.bytes_broadcast": "deliver_ms_p50 on plain-mn16",
    "sim.decode.ms": "decode_ms_p50, decode_ms_p90, decoded_MBps on plain-mn16",
    "compress.compressed_deliver.ms": "deliver_ms_p50 on coded-part33 (not plain-mn16)",
    "compress.compressed_decode.ms": "decode_ms_p50, decode_ms_p90 on coded-part33 (not plain-mn16)",
    "compress.m1": "deliver_ms_p50, decode_ms_p50 on coded-part33",
    "compress.m2": "deliver_ms_p50, decode_ms_p50 on coded-part33",
    "compress.field_width": "deliver_ms_p50, decode_ms_p50 on coded-part33",
    "gf2.field.ms": "setup_s on coded-part33; run_ms_p50 on cli-worked (GF(2^8)); not plain-mn16",
    "gf2.cauchy_matrix.ms": "deliver_ms_p50 on coded-part33; run_ms_p50 on cli-worked",
    "gf2.matmul.ms": "deliver_ms_p50, decode_ms_p50 on coded-part33",
    "gf2.solve.ms": "decode_ms_p50 on coded-part33",
    "gf2.symbols.ms": "deliver_ms_p50, decode_ms_p50 on coded-part33",
    "gf2.solve_n": "decode_ms_p50 on coded-part33",
    "gf2.encode_mults": "deliver_ms_p50 on coded-part33",
    "rates.comparison_table.ms": "design_points_per_s on design-sweep only",
    "rates.gap_checks.ms": "design_points_per_s on design-sweep only",
    "rates.converse_bound.ms": "design_points_per_s on design-sweep only",
    "cli.import_s": "run_ms_p50, run_ms_p90, setup_s on cli-worked only",
    "cli.main.ms": "run_ms_p50, run_ms_p90 on cli-worked only",
    "cli.exit_nonzero": "failed operations on cli-worked only",
}


class CheckFailed(Exception):
    """An output of macc differs from what the benchmark expects."""


def expect(cond, what):
    if not cond:
        raise CheckFailed(what)


def reference_task():
    """Fixed interpreter work in the style of macc's loops (tuples, dict and set lookups,
    int XOR). It calls no macc code, so its duration tracks only how fast the machine
    runs Python at the moment, which drifts by tens of percent over minutes on a
    shared host."""
    acc = 0
    seen = set()
    table = {}
    for i in range(20000):
        key = (i & 63, i >> 6)
        table[key] = i
        if key[0] in seen:
            acc ^= table[key]
        seen.add(i & 127)
    return acc


def reference_child():
    """A fresh interpreter that imports numpy and exits. Like a set-up or a `macc` run,
    it is mostly process start and imports, which reference_task does not track; it
    runs no macc code."""
    run_child([sys.executable, "-c", "import numpy"], check=True)


def timed(fn):
    """Wall seconds of fn() with the collector off, so that what a collection costs,
    which depends on the heap macc holds, stays out of a reference's timing."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Tally:
    """Operations attempted and failed, when each successful one ran by kind, and the
    timings of the reference its times are scaled by."""

    def __init__(self, tr, reference=reference_task, reference_s=REF_TASK_S,
                 every_s=CALIBRATE_EVERY_S):
        self.tr = tr
        self.attempted = 0
        self.failed = 0
        self.timed = {}  # kind -> [(start, end, seconds)]
        self.refs = []  # [(start, seconds)] of the reference, in time order
        self.reference = reference
        self.reference_s = reference_s
        self.every_s = every_s
        self._next_ref = 0.0

    def calibrate(self):
        """Time the reference when its last timing is every_s old."""
        t0 = time.perf_counter()
        if t0 < self._next_ref:
            return
        self.refs.append((t0, timed(self.reference)))
        self._next_ref = time.perf_counter() + self.every_s

    def op(self, kind, fn, *args):
        """Run one operation; return its result, or None when it failed."""
        self.calibrate()
        self.attempted += 1
        self.tr.op += 1
        t0 = time.perf_counter()
        try:
            with self.tr.span("op." + kind):
                out = fn(*args)
        except Exception as e:  # a failed operation is counted and the run goes on
            self.failed += 1
            if self.failed <= 5:
                print(f"operation {kind} failed: {type(e).__name__}: {e}", file=sys.stderr)
            return None
        t1 = time.perf_counter()
        self.add(kind, t0, t1, t1 - t0)
        return out

    def add(self, kind, start, end, seconds):
        self.timed.setdefault(kind, []).append((start, end, seconds))

    def ref_busy(self):
        return sum(dt for _, dt in self.refs)

    def seconds(self, kind):
        return [dt for _, _, dt in self.timed.get(kind, [])]

    def scaled(self, kind):
        """The kind's durations scaled to a reference taking reference_s, each by the
        median of the reference timings from REF_WINDOW_S before it starts to
        REF_WINDOW_S after it ends (the nearest two when none falls there): the
        machine's speed drifts within a run as well as between runs."""
        starts = [t for t, _ in self.refs]
        out = []
        for t0, t1, dt in self.timed.get(kind, []):
            lo = bisect.bisect_left(starts, t0 - REF_WINDOW_S)
            hi = bisect.bisect_right(starts, t1 + REF_WINDOW_S)
            if lo == hi:
                lo, hi = max(lo - 1, 0), lo + 1
            out.append(dt * self.reference_s / p50([r for _, r in self.refs[lo:hi]]))
        return out


def run_child(args, **kw):
    return subprocess.run(args, env=CHILD_ENV, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, **kw)


def random_demand(rng, k, n):
    return tuple(rng.randint(1, n) for _ in range(k))


# ---- calls into macc shared by workloads and probes -------------------------------------

def check_array(tr, p, l):
    with tr.span("pda.validate_pda"):
        rep = validate_pda(p)
    expect(rep.ok, "validate_pda rejected a stock array")
    with tr.span("pda.check_c5"):
        ok = check_c5(p, l)
    expect(ok, f"check_c5 failed at L={l}")


def json_round_trip(tr, scheme):
    with tr.span("transform.scheme_json"):
        back = scheme_from_json(scheme_to_json(scheme, include_arrays=True))
    expect(back == scheme, "scheme JSON round trip rebuilt different arrays")


def round_grid(tr, scheme):
    """Scheme.q(g) for every round g."""
    for g in range(1, scheme.params.k + 1):
        with tr.span("transform.round_grid"):
            scheme.q(g)


@dataclass
class Case:
    """A lifted scheme with its packet library and the loads the gate expects."""

    scheme: object
    library: object
    f: int
    xors: int
    coded_load: Fraction | None


def make_case(tr, p, k, l, packet_bytes, seed):
    check_array(tr, p, l)
    with tr.span("transform.build_scheme"):
        scheme = build_scheme(p, k, l)
    with tr.span("sim.library_for_scheme"):
        library = library_for_scheme(scheme, k, packet_bytes, seed)
    cells = sum(v != STAR for row in scheme.delivery.grid for v in row)
    try:
        coded_load = compressed_load(scheme)
    except macc.NotApplicable:
        coded_load = None
    return Case(scheme, library, scheme.subpacketization, k * (cells - p.s), coded_load)


def plain_deliver(tr, case, demand):
    with tr.span("sim.deliver"):
        log = deliver(case.library, case.scheme, demand)
    expect(Fraction(log.total_packets_sent, case.f) == case.scheme.load,
           f"plain load {log.total_packets_sent}/{case.f} != {case.scheme.load}")
    tr.count("sim.messages", log.total_packets_sent)
    tr.count("sim.xors", case.xors)
    tr.count("sim.bytes_broadcast", log.bytes_sent)
    return log


def coded_deliver(tr, case, demand):
    with tr.span("compress.compressed_deliver"):
        batch = compressed_deliver(case.library, case.scheme, demand)
    expect(Fraction(batch.m2, case.f) == case.scheme.load, f"m2={batch.m2} off the plain load")
    expect(Fraction(batch.m1, case.f) == case.coded_load, f"m1={batch.m1} off the coded load")
    tr.count("compress.m1", batch.m1)
    tr.count("compress.m2", batch.m2)
    tr.count("compress.field_width", batch.field_width)
    return batch


def plain_decode(tr, case, demand, log, user):
    with tr.span("sim.decode"):
        got = decode(case.library, case.scheme, demand, log, user)
    expect(got == case.library.file_bytes(demand[user - 1]), f"user {user} decoded wrong bytes")
    return True


def coded_decode(tr, case, demand, batch, user):
    with tr.span("compress.compressed_decode"):
        got = compressed_decode(case.library, case.scheme, demand, batch, user)
    expect(got == case.library.file_bytes(demand[user - 1]), f"user {user} decoded wrong bytes")
    return True


def gf2_probe(tr, width, m1, m2, packet_bytes, rng):
    """The coded path's field work at its own shapes: an m1 x m2 Cauchy matrix, an
    (m1 x m2)(m2 x symbols) encode, an m1 x m1 solve, and packet/symbol conversion."""
    gf = field(width)
    with tr.span("gf2.cauchy_matrix"):
        g = cauchy_matrix(m1, m2, gf)
    packets = [rng.getrandbits(8 * packet_bytes) for _ in range(m2)]
    with tr.span("gf2.symbols"):
        x = np.array([packet_to_symbols(p, packet_bytes, width) for p in packets], dtype=np.uint32)
        back = [symbols_to_packet(x[i], packet_bytes, width) for i in range(m1)]
    expect(back == packets[:m1], "packet/symbol round trip changed a packet")
    with tr.span("gf2.matmul"):
        coded = gf.matmul(g, x)
    rhs = coded ^ gf.matmul(g[:, m1:], x[m1:])
    with tr.span("gf2.solve"):
        solved = gf.solve(g[:, :m1], rhs)
    expect(np.array_equal(solved, x[:m1]), "solve did not recover the encoded symbols")
    tr.count("gf2.solve_n", m1)
    tr.count("gf2.encode_mults", m1 * m2 * x.shape[1])
    return True


def cold_field(tr, width):
    """GF(2^width) table build in a fresh process."""
    code = ("import sys, time; from macc.gf2 import GF; t = time.perf_counter(); "
            "GF(int(sys.argv[1])); print(time.perf_counter() - t)")
    proc = run_child([sys.executable, "-c", code, str(width)], check=True)
    tr.record("gf2.field", float(proc.stdout))


def rates(tr, k, l, ts, step_den):
    with tr.span("rates.comparison_table"):
        header, rows = comparison_table(k, l, CURVES, Fraction(1, step_den))
    expect(header == ["m_over_n", *CURVES] and len(rows) == -(-step_den // l) + 1,
           f"comparison_table({k}, {l}) has the wrong shape")
    with tr.span("rates.gap_checks"):
        rep = gap_checks(k, l)
    expect(rep["rk"]["all_strict_on_hypothesis"] and rep["sr"]["all_strict_on_proven_region"]
           and rep["hkd"].get("all_strict_inside", True), f"gap_checks({k}, {l}) not strict")
    for t in ts:
        with tr.span("rates.converse_bound"):
            bound = converse_bound(k, l, t)
        expect(bound <= r_t1(k, l, t), f"converse bound above t1 at K={k} L={l} t={t}")


def simulate_args(scheme_path, demand_seed, packet_bytes):
    return ["simulate", "--scheme", scheme_path, "--packet-bytes", str(packet_bytes),
            "--demand", f"random:{demand_seed}", "--check-all-users", "--compressed"]


def check_report(text, demand_seed, k):
    """A `macc simulate --check-all-users --compressed` report with N = K files."""
    rep = json.loads(text)
    want = random_demand(random.Random(demand_seed), k, k)
    expect(tuple(rep["results"]["demand"]) == want, "report demand differs from random:<seed>")
    checks = rep["checks"]
    expect(len(checks) == 2 * k, f"report has {len(checks)} checks, want {2 * k}")
    expect(all(c["pass"] for c in checks), "report has a failed check")


def cli_main(tr, scheme_path, out_path, demand_seed, k, packet_bytes):
    """`macc simulate` in this process; the CLI's elapsed line on stderr is dropped."""
    with open(os.devnull, "w") as null, redirect_stderr(null):
        with tr.span("cli.main"):
            rc = cli.main(simulate_args(scheme_path, demand_seed, packet_bytes) + ["-o", out_path])
    if rc != 0:
        tr.bump("cli.exit_nonzero")
    expect(rc == 0, f"cli.main exited {rc}")
    with open(out_path) as fh:
        check_report(fh.read(), demand_seed, k)
    return True


def worked_probe(tr, tally, workdir, seed, repeats=3):
    """Every layer on the README instance: mn_pda(4, 2) lifted to K=8, L=3, 4-byte packets."""
    k, l, b = 8, 3, 4
    rng = random.Random(seed)

    def once():
        with tr.span("constructions.mn_pda"):
            p = mn_pda(4, 2)
        with tr.span("constructions.partition_pda"):
            partition_pda(2, 3)
        case = make_case(tr, p, k, l, b, seed)
        json_round_trip(tr, case.scheme)
        round_grid(tr, case.scheme)
        demand = random_demand(rng, k, k)
        log = plain_deliver(tr, case, demand)
        batch = coded_deliver(tr, case, demand)
        for user in range(1, k + 1):
            plain_decode(tr, case, demand, log, user)
            coded_decode(tr, case, demand, batch, user)
        gf2_probe(tr, batch.field_width, batch.m1, batch.m2, b, rng)
        rates(tr, k, l, corners(k, l, 500), 600)
        scheme_path = os.path.join(workdir, "probe-scheme.json")
        with open(scheme_path, "w") as fh:
            fh.write(scheme_to_json(case.scheme))
        cli_main(tr, scheme_path, os.path.join(workdir, "probe-report.json"),
                 rng.randrange(1 << 31), k, b)
        cold_field(tr, batch.field_width)
        with tr.span("cli.import"):
            run_child([sys.executable, "-c", "import macc"], check=True)
        return True

    tr.bump("cli.exit_nonzero", 0)
    for _ in range(repeats):
        tally.op("probe", once)


def corners(k, l, max_rows):
    """Corners t >= 1 of the design point with K' = K - t(L-1) > t and C(K', t) <= max_rows."""
    return [t for t in range(1, k // l + 1)
            if t < k - t * (l - 1) and comb(k - t * (l - 1), t) <= max_rows]


# ---- workloads --------------------------------------------------------------------------

_SETUP_CHILD = ("import json, sys; sys.path[:0] = sys.argv[1:3]; import tracing, workloads; "
                "tr = tracing.Tracer() if sys.argv[6] == '1' else workloads.NOTRACE; "
                "wl = getattr(workloads, sys.argv[3])(**json.loads(sys.argv[4])); "
                "wl.setup(int(sys.argv[5]), tr)")


@dataclass(frozen=True)
class Workload:
    name: str

    op_kind = "op"  # the kind of operation whose times are the end-to-end metrics
    rss_who = resource.RUSAGE_SELF

    def setup(self, seed, tr=NOTRACE, workdir=None):
        """Everything between process start and the first timed operation."""

    def tally(self, tr):
        """A Tally whose reference suits this workload's operations."""
        return Tally(tr)

    def setup_seconds(self, seed, workdir, trace):
        """Wall time of one set-up in a fresh process, from its start to its exit; with
        trace, the set-up's calls into macc are traced there."""
        t0 = time.perf_counter()
        run_child([sys.executable, "-c", _SETUP_CHILD, HERE, SRC, type(self).__name__,
                   json.dumps(asdict(self)), str(seed), str(int(trace))], check=True)
        return time.perf_counter() - t0

    def probe(self, state, tr, tally, workdir, seed):
        """Traced runs only: per-layer probes on this workload's own instance."""

    def op_samples(self, tally):
        """Seconds of each timed operation, as measured and scaled to reference speed."""
        return tally.seconds(self.op_kind), tally.scaled(self.op_kind)


@dataclass(frozen=True)
class DecodeWorkload(Workload):
    """Per demand one deliver, then verified decodes for users in rotation."""

    k: int = 0
    l: int = 0
    packet_bytes: int = 0
    users_per_demand: int = 4

    op_kind = "decode"

    def loop(self, case, seed, seconds, tally):
        tr = tally.tr
        rng = random.Random(seed)
        user = 0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            demand = random_demand(rng, self.k, self.k)
            sent = tally.op("deliver", self.deliver, tr, case, demand)
            if sent is None:
                continue
            for _ in range(self.users_per_demand):
                user = user % self.k + 1
                tally.op("decode", self.decode, tr, case, demand, sent, user)

    def summary(self, case, tally, wall):
        dec = tally.seconds("decode")
        mb = len(dec) * len(case.library.file_bytes(1)) / wall / 1e6
        dlv = tally.seconds("deliver")
        return {"deliver_ms_p50": (_p50_ms(dlv), "ms", len(dlv)),
                "decode_ms_p50": (_p50_ms(dec), "ms", len(dec)),
                "decode_ms_p90": (_p90_ms(dec), "ms", len(dec)),
                "decoded_MBps": (mb, "MB/s", len(dec))}


@dataclass(frozen=True)
class PlainDecode(DecodeWorkload):
    kprime: int = 0
    t: int = 0

    deliver = staticmethod(plain_deliver)
    decode = staticmethod(plain_decode)

    def setup(self, seed, tr=NOTRACE, workdir=None):
        with tr.span("constructions.mn_pda"):
            p = mn_pda(self.kprime, self.t)
        return make_case(tr, p, self.k, self.l, self.packet_bytes, seed)

    def probe(self, case, tr, tally, workdir, seed):
        for _ in range(3):
            round_grid(tr, case.scheme)


@dataclass(frozen=True)
class CodedDecode(DecodeWorkload):
    m: int = 0
    q: int = 0

    deliver = staticmethod(coded_deliver)
    decode = staticmethod(coded_decode)

    def setup(self, seed, tr=NOTRACE, workdir=None):
        with tr.span("constructions.partition_pda"):
            p, _ = partition_pda(self.m, self.q)
        case = make_case(tr, p, self.k, self.l, self.packet_bytes, seed)
        # The first coded delivery builds the GF tables, as a user's first call does.
        coded_deliver(tr, case, tuple(range(1, self.k + 1)))
        return case

    def probe(self, case, tr, tally, workdir, seed):
        rng = random.Random(seed)

        def once():
            batch = coded_deliver(tr, case, tuple(range(1, self.k + 1)))
            round_grid(tr, case.scheme)
            gf2_probe(tr, batch.field_width, batch.m1, batch.m2, self.packet_bytes, rng)
            cold_field(tr, batch.field_width)
            return True

        for _ in range(3):
            tally.op("probe", once)


@dataclass(frozen=True)
class CliWorked(Workload):
    """The README instance through the `macc` command, one child process per operation."""

    kprime: int = 4
    t: int = 2
    k: int = 8
    l: int = 3
    packet_bytes: int = 4

    op_kind = "run"
    rss_who = resource.RUSAGE_CHILDREN

    def setup(self, seed, tr=NOTRACE, workdir=None):
        pda_path = os.path.join(workdir, "mn.pda")
        scheme_path = os.path.join(workdir, "scheme.json")
        for args in (["build-pda", "--family", "mn", "--kprime", str(self.kprime),
                      "--t", str(self.t), "-o", pda_path],
                     ["transform", "--pda", pda_path, "--K", str(self.k), "--L", str(self.l),
                      "-o", scheme_path]):
            with tr.span("cli.run"):
                proc = run_child(MACC + args)
            if proc.returncode != 0:
                raise RuntimeError(f"macc {args[0]} exited {proc.returncode}: {proc.stderr}")
        return scheme_path

    def tally(self, tr):
        """Each run is a fresh process, so it is scaled by the child reference, timed
        before every run."""
        return Tally(tr, reference_child, REF_CHILD_S, every_s=0.0)

    def setup_seconds(self, seed, workdir, trace):
        t0 = time.perf_counter()
        self.setup(seed, Tracer() if trace else NOTRACE, workdir)
        return time.perf_counter() - t0

    def simulate(self, tr, scheme_path, demand_seed):
        with tr.span("cli.run"):
            proc = run_child(MACC + simulate_args(scheme_path, demand_seed, self.packet_bytes))
        if proc.returncode != 0:
            tr.bump("cli.exit_nonzero")
        expect(proc.returncode == 0, f"macc simulate exited {proc.returncode}")
        check_report(proc.stdout, demand_seed, self.k)
        return True

    def loop(self, scheme_path, seed, seconds, tally):
        rng = random.Random(seed)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            tally.op("run", self.simulate, tally.tr, scheme_path, rng.randrange(1 << 31))

    def summary(self, scheme_path, tally, wall):
        runs = tally.seconds("run")
        return {"run_ms_p50": (_p50_ms(runs), "ms", len(runs)),
                "run_ms_p90": (_p90_ms(runs), "ms", len(runs))}

    def probe(self, scheme_path, tr, tally, workdir, seed):
        worked_probe(tr, tally, workdir, seed)


@dataclass(frozen=True)
class DesignSweep(Workload):
    """Arrays, checks, lifts and exact rates over a grid of design points; no packets."""

    k_lo: int = 6
    k_hi: int = 20
    ls: tuple = (2, 3, 4)
    max_rows: int = 500
    step_den: int = 600

    op_kind = "pass"

    def point(self, tr, k, l):
        ts = corners(k, l, self.max_rows)
        for t in ts:
            with tr.span("constructions.mn_pda"):
                p = mn_pda(k - t * (l - 1), t)
            check_array(tr, p, l)
            with tr.span("transform.build_scheme"):
                scheme = build_scheme(p, k, l)
            json_round_trip(tr, scheme)
        rates(tr, k, l, ts, self.step_den)
        return True

    def loop(self, state, seed, seconds, tally):
        """Whole passes over the grid, each in a seeded order, while another fits in time.

        Each point is one checked operation, but the timed unit is the pass: points
        differ in cost, so a per-point median jumps between neighbouring points."""
        rng = random.Random(seed)
        points = [(k, l) for k in range(self.k_lo, self.k_hi + 1) for l in self.ls]
        deadline = time.perf_counter() + seconds
        while True:
            rng.shuffle(points)
            t0, busy0 = time.perf_counter(), tally.ref_busy()
            for k, l in points:
                tally.op("point", self.point, tally.tr, k, l)
            t1 = time.perf_counter()
            tally.add("pass", t0, t1, t1 - t0 - (tally.ref_busy() - busy0))
            if t1 + p50(tally.seconds("pass")) > deadline:
                break

    def op_samples(self, tally):
        """A pass's scaled time is the sum of its points' scaled times, each point scaled
        by the reference timings around it rather than the pass by those across it."""
        points = list(zip(tally.timed.get("point", []), tally.scaled("point")))
        passes = tally.timed["pass"]
        return ([dt for _, _, dt in passes],
                [sum(s for (p0, _, _), s in points if t0 <= p0 < t1) for t0, t1, _ in passes])

    def summary(self, state, tally, wall):
        pts = tally.seconds("point")
        passes = tally.seconds("pass")
        return {"design_points_per_s": (len(pts) / wall, "1/s", len(pts)),
                "pass_ms_p50": (_p50_ms(passes), "ms", len(passes))}


def _p50_ms(xs):
    return 1e3 * p50(xs) if xs else float("nan")


def _p90_ms(xs):
    return 1e3 * p90(xs) if xs else float("nan")


WORKLOADS = {w.name: w for w in (
    PlainDecode("plain-mn16", k=16, l=3, packet_bytes=64, kprime=12, t=2),
    CodedDecode("coded-part33", k=15, l=3, packet_bytes=256, m=3, q=3),
    CliWorked("cli-worked"),
    DesignSweep("design-sweep"),
)}
