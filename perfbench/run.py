#!/usr/bin/env python3
"""Run one macc benchmark workload; the last line of stdout is the result as JSON.

Run from the repository root:

    python3 perfbench/run.py --workload plain-mn16 --seed 1 --seconds 16 --trace 0

With --trace 0 the result holds the end-to-end metrics named in BENCHMARK.json;
with --trace 1 the same workload runs with a span around every call into macc
and the result holds the per-layer metrics. The lines before the result give
the environment and every metric by name, unit and sample count, both as
measured and as the result reports it; a traced run also gives its own
end-to-end figures, from which the tracing overhead follows, and writes its
spans to .perfbench-out/.

An operation is one verified decode on plain-mn16 and coded-part33 (decode_ms,
with the per-demand deliver inside ops_per_s), one `macc simulate` child on
cli-worked (run_ms), and one pass over the design grid on design-sweep
(45 design points). setup_s is the median wall time of SETUP_SAMPLES set-ups,
each in a fresh process (traced there on a traced run).

The machine's speed drifts by tens of percent between runs, so times in the
result are scaled to a reference machine. In-process operations (and the
ops_per_s built on them) are scaled to one on which a fixed in-process
reference task, timed between operations, takes 10 ms. Set-ups and
cli-worked's runs are scaled to one on which a fresh `python -c "import numpy"`,
timed before each run and before and after each set-up, takes 0.2 s. The
reference_ms line, as measured, is the median timing of the reference the
operations are scaled by.
"""

import os

# Set before numpy loads, so that nothing starts more threads than there are cores.
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import json
import platform
import resource
import subprocess
import sys
import tempfile
import time

from tracing import NoTrace, Tracer, p50, p90

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 15


def git_commit():
    """The checked-out commit of ROOT itself, or 'unknown' where ROOT is no git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed):
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "seed": seed,
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


def end_to_end(wl, state, tally, wall, setups, setup_refs, ref_child_s):
    """The result's end-to-end metrics and the workload's own metrics as measured, each
    as (value, unit, samples). In the result, each set-up time is scaled to reference
    speed by the mean of the reference child timings just before and after it,
    operation times by the workload's reference (Tally.scaled), and the wall time
    behind ops_per_s by the ratio of scaled to measured operation time."""
    measured, ops = wl.op_samples(tally)
    factor = sum(ops) / sum(measured)
    rss_mb = resource.getrusage(wl.rss_who).ru_maxrss / 1024
    scaled = {
        "op_ms_p50": (1e3 * p50(ops), "ms", len(ops)),
        "op_ms_p90": (1e3 * p90(ops), "ms", len(ops)),
        "ops_per_s": (len(ops) / (wall * factor), "1/s", len(ops)),
        "peak_rss_MB": (rss_mb, "MB", 1),
    }
    raw = {"reference_ms": (1e3 * p50([dt for _, dt in tally.refs]), "ms", len(tally.refs))}
    around = [(a + b) / 2 for a, b in zip(setup_refs, setup_refs[1:])]
    scaled["setup_s"] = (p50([s * ref_child_s / r for s, r in zip(setups, around)]), "s",
                         len(setups))
    raw["setup_s"] = (p50(setups), "s", len(setups))
    raw["reference_child_s"] = (p50(setup_refs), "s", len(setup_refs))
    raw.update(wl.summary(state, tally, wall))
    raw["peak_rss_MB"] = scaled["peak_rss_MB"]
    raw["failed_ops_frac"] = (tally.failed / tally.attempted, "1", tally.attempted)
    return scaled, raw


def per_layer(spec, native, fallback):
    """Per-layer values: p50 self time of the metric's span (`.ms` in ms, `_s` in s) or a count.

    A metric the workload itself does not exercise is taken from the README-instance
    probe in `fallback`; the source is reported next to each value.
    """
    out = {}
    sources = [("native", native, native.self_times_by_name())]
    if fallback is not None:
        sources.append(("worked", fallback, fallback.self_times_by_name()))
    for m in spec:
        name = m["name"]
        for source, tr, times in sources:
            if name.endswith(".ms") and name[:-3] in times:
                xs = times[name[:-3]]
                out[name] = (1e3 * p50(xs), len(xs), source)
            elif name.endswith("_s") and name[:-2] in times:
                xs = times[name[:-2]]
                out[name] = (p50(xs), len(xs), source)
            elif name in tr.counts:
                out[name] = (tr.counts[name], 1, source)
            else:
                continue
            break
    return out


def layer_shares(tr, n_spans):
    """Total self time per layer (the span name's first part) over the first n_spans spans."""
    totals = {}
    for name, dt in tr.self_times()[:n_spans]:
        layer = name.split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + dt
    whole = sum(totals.values())
    return {layer: (1e3 * t, t / whole) for layer, t in sorted(totals.items())}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "macc", "__init__.py")) or not os.path.isfile(spec_path):
        print(f"error: {ROOT} holds no macc sources under src/ or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path[:0] = [p for p in (HERE, SRC) if p not in sys.path]
    import workloads
    if os.path.dirname(workloads.SRC) != ROOT:
        print(f"error: macc was imported from {workloads.SRC}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; know {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    print("env", json.dumps(environment(args.seed), sort_keys=True))
    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    tr = Tracer() if args.trace else NoTrace()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as workdir:
        tally = wl.tally(tr)
        # Set-ups alternate with reference children, starting and ending with one.
        setups, setup_refs = [], [workloads.timed(workloads.reference_child)]
        for _ in range(SETUP_SAMPLES):
            setups.append(wl.setup_seconds(args.seed, workdir, args.trace))
            setup_refs.append(workloads.timed(workloads.reference_child))
        state = wl.setup(args.seed, tr, workdir)
        t0, busy0 = time.perf_counter(), tally.ref_busy()
        wl.loop(state, args.seed, args.seconds, tally)
        wall = time.perf_counter() - t0 - (tally.ref_busy() - busy0)
        scaled, raw = end_to_end(wl, state, tally, wall, setups, setup_refs,
                                 workloads.REF_CHILD_S)
        if args.trace:
            loop_spans = len(tr.spans)
            wl.probe(state, tr, tally, workdir, args.seed)
            values = per_layer(spec["per_layer"], tr, None)
            if len(values) < len(spec["per_layer"]):
                fallback = Tracer()
                probes = workloads.Tally(fallback)
                workloads.worked_probe(fallback, probes, workdir, args.seed)
                tally.attempted += probes.attempted
                tally.failed += probes.failed
                values = per_layer(spec["per_layer"], tr, fallback)

    print("end-to-end, scaled to reference speed:")
    for name, (value, unit, n) in scaled.items():
        print(f"  {name:<22} {value:12.4f} {unit:<6} n={n}")
    print("as measured:")
    for name, (value, unit, n) in raw.items():
        print(f"  {name:<22} {value:12.4f} {unit:<6} n={n}")

    if args.trace:
        print("per-layer (p50 self time per call, or count per operation):")
        for m in spec["per_layer"]:
            value, n, source = values[m["name"]]
            print(f"  {m['name']:<32} {value:12.4f} {m['unit']:<6} n={n:<5} {source:<6} "
                  f"moves {workloads.MOVES[m['name']]}")
        print("self time by layer over set-up and timed loop (ms, share):")
        for layer, (ms, share) in layer_shares(tr, loop_spans).items():
            print(f"  {layer:<14} {ms:12.1f} {100 * share:6.1f}%")
        print("traced-end-to-end", json.dumps({k: v for k, (v, _, _) in scaled.items()}))
        out_dir = os.path.join(ROOT, ".perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        tr.write(os.path.join(out_dir, f"spans-{wl.name}-seed{args.seed}.jsonl"))
        metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": scaled[m["name"]][0], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
