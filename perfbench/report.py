#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json over ten seeds, untraced and traced, and summarise.

Run from the repository root:

    python3 perfbench/report.py --out perfbench/BENCH_baseline.json
    python3 perfbench/report.py --first-seed 11 --against perfbench/BENCH_baseline.json

For each workload and end-to-end metric it prints the median over the seeds,
the first and third quartile (`statistics.quantiles(values, n=4)`) and their
distance as a share of the median, next to a third of the metric's bound, which
is the steadiness target. One traced run per workload gives the per-layer table
and the tracing overhead: the traced end-to-end figures against the untraced
medians. With --against, each median is also set against the same median in an
earlier --out file, and a change for the worse by more than the metric's bound
is flagged. Runs go one at a time, each for BENCHMARK.json's run_seconds.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = 10
LINE = re.compile(r"^  (\S+)\s+(\S+)\s+(\S+)\s+n=(\d+)")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    out = {"wall_s": wall, "result": json.loads(lines[-1]), "lines": lines[:-1]}
    named, section = {}, None
    for line in lines:
        m = LINE.match(line)
        if m and section == "as measured:":
            named[m[1]] = {"value": float(m[2]), "unit": m[3], "n": int(m[4])}
        elif not line.startswith(" "):
            section = line
        if line.startswith("env "):
            out["env"] = json.loads(line[4:])
        elif line.startswith("traced-end-to-end "):
            out["traced_end_to_end"] = json.loads(line[len("traced-end-to-end "):])
    out["named"] = named
    return out


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", help="write the summary and every run's result here as JSON")
    ap.add_argument("--against", help="an earlier --out file whose medians to compare with")
    args = ap.parse_args(argv)
    earlier = None
    if args.against:
        with open(args.against) as fh:
            earlier = json.load(fh)["workloads"]

    seconds = spec["run_seconds"]
    doc = {"run_seconds": seconds, "first_seed": args.first_seed, "workloads": {}}
    steady = agree = True
    for name in (w["name"] for w in spec["workloads"]):
        runs = [run(name, args.first_seed + i, seconds, 0) for i in range(SEEDS)]
        entry = {"runs": [{"env": r["env"], "result": r["result"]} for r in runs],
                 "wall_s": [round(r["wall_s"], 2) for r in runs],
                 "end_to_end": {}, "named": {}}
        print(f"{name}: {SEEDS} runs, {sum(r['result']['attempted'] for r in runs)} "
              f"operations, {sum(r['result']['failed'] for r in runs)} failed, "
              f"run wall {min(entry['wall_s'])}..{max(entry['wall_s'])} s")
        for m in spec["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            s = spread(values)
            entry["end_to_end"][m["name"]] = dict(s, unit=m["unit"], bound=m["bound"])
            ok = s["spread"] < m["bound"] / 3
            steady &= ok
            print(f"  {m['name']:<14} median {s['median']:12.4f} {m['unit']:<5} "
                  f"spread {100 * s['spread']:5.1f}%  (target < {100 * m['bound'] / 3:.1f}%)"
                  f"{'' if ok else '  NOT STEADY'}")
            if earlier is not None:
                before = earlier[name]["end_to_end"][m["name"]]["median"]
                change = s["median"] / before - 1
                worse = change if m["better"] == "lower" else -change
                agree &= worse <= m["bound"]
                print(f"  {'':<14} against {before:11.4f} {m['unit']:<5} "
                      f"change {100 * change:+5.1f}%"
                      f"  (worse by at most {100 * m['bound']:.0f}%)"
                      f"{'' if worse <= m['bound'] else '  WORSE'}")
        for key in runs[0]["named"]:
            values = [r["named"][key]["value"] for r in runs]
            s = spread(values) if statistics.median(values) else {"median": 0.0, "spread": 0.0}
            entry["named"][key] = dict(s, unit=runs[0]["named"][key]["unit"],
                                       n_per_run=runs[0]["named"][key]["n"])
            print(f"  {key:<20} median {s['median']:12.4f} {runs[0]['named'][key]['unit']:<5} "
                  f"spread {100 * s['spread']:5.1f}%  n={runs[0]['named'][key]['n']} per run, "
                  "as measured")
        traced = run(name, args.first_seed, seconds, 1)
        overhead = {k: traced["traced_end_to_end"][k] / v["median"] - 1
                    for k, v in entry["end_to_end"].items()
                    if k in traced["traced_end_to_end"]}
        entry["traced"] = {"env": traced["env"], "result": traced["result"],
                           "end_to_end": traced["traced_end_to_end"],
                           "overhead": overhead, "report": traced["lines"]}
        print("  tracing overhead: " + ", ".join(
            f"{k} {100 * v:+.1f}%" for k, v in overhead.items()))
        print("\n".join("    " + line for line in traced["lines"]
                        if line.startswith("  ") and ("native" in line or "worked" in line)))
        doc["workloads"][name] = entry
    print("steady" if steady else "NOT STEADY: some spread is a third of its bound or more")
    if earlier is not None:
        print("agrees" if agree else
              "WORSE: some median is worse than the earlier by more than its bound")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
