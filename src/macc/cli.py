"""Command line front end.

Every subcommand emits a deterministic JSON run report (or the artifact
itself for build-pda/transform/compare) to -o, '-' meaning stdout. Exit
codes: 0 success, 1 a validation or decode check failed, 2 usage or parse
error. Wall-clock timing goes to stderr so reports stay byte-identical for
identical command and seed.
"""

import argparse
import json
import random
import sys
import time
from fractions import Fraction

from . import __version__
from .compress import (
    compressed_decode,
    compressed_deliver,
    compressed_load,
    full_view_rounds,
    lambda_profile,
)
from .constructions import MnParams, PartitionParams, mn_pda, partition_pda
from .errors import MaccError, OutOfRange, ParseError
from .pda import check_c4, parse_pda_with_map, serialize_pda, validate_pda
from .rates import (
    comparison_table,
    converse_bound,
    gap_checks,
    r_t1,
)
from .sim import decode, deliver, library_for_scheme
from .transform import build_scheme, check_c5, scheme_from_json, scheme_to_json
from .util import float12, frac_str


def _sha256(path: str) -> str:
    import hashlib  # here, not at the top: loading it maps OpenSSL, which most runs never use
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return "sha256:" + h.hexdigest()


def _jsonable(x):
    if isinstance(x, Fraction):
        return frac_str(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _emit(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _report(args, inputs: dict, results: dict, checks: list) -> str:
    doc = {
        "command": args._argv,
        "inputs": inputs,
        "seed": args.seed,
        "results": _jsonable(results),
        "checks": _jsonable(checks),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except ValueError as e:
        raise ParseError(f"cannot read {path!r}: {e}") from e


def cmd_build_pda(args) -> int:
    if args.family == "mn":
        if args.kprime is None or args.t is None:
            raise ParseError("--family mn needs --kprime and --t")
        params = MnParams(args.kprime, args.t)
        p = mn_pda(args.kprime, args.t)
        labels = None
    else:
        if args.m is None or args.q is None:
            raise ParseError("--family partition needs --m and --q")
        params = PartitionParams(args.m, args.q)
        p, labels = partition_pda(args.m, args.q)
    _emit(serialize_pda(p), args.output)
    if args.json is not None:
        sidecar = args.json
        if sidecar == "auto":
            if args.output == "-":
                raise ParseError("--json without a path needs -o FILE")
            sidecar = args.output + ".json"
        doc = {
            "params": params.as_dict(),
            "signature": {"k_prime": p.cols, "f_prime": p.rows, "z": p.z, "s": p.s},
        }
        if labels is not None:
            doc["labels"] = [list(e) for e in labels]
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", sidecar)
    return 0


def cmd_verify(args) -> int:
    text = _read(args.pda)
    p, relabel = parse_pda_with_map(text)
    rep = validate_pda(p, exhaustive=args.exhaustive)
    checks = [
        {"name": "C1", "pass": rep.c1_ok, "detail": list(rep.c1_counterexamples)},
        {"name": "C2", "pass": rep.c2_ok, "detail": list(rep.c2_counterexamples)},
        {"name": "C3", "pass": rep.c3_ok, "detail": list(rep.c3_counterexamples)},
    ]
    if args.L is not None:
        c4 = check_c4(p)
        checks.append({"name": "C4", "pass": c4, "detail": []})
        if c4:
            c5 = check_c5(p, args.L)
            checks.append({"name": "C5", "pass": c5, "detail": []})
        else:
            checks.append({"name": "C5", "pass": False, "detail": ["skipped: C4 failed"]})
    results = {
        "signature": {"k_prime": p.cols, "f_prime": p.rows, "z": p.z, "s": p.s},
        "renumbered": relabel is not None,
    }
    if relabel:
        results["relabel"] = {str(k): v for k, v in sorted(relabel.items())}
    ok = all(c["pass"] for c in checks)
    _emit(_report(args, {args.pda: _sha256(args.pda)}, results, checks), args.output)
    return 0 if ok else 1


def cmd_transform(args) -> int:
    p, _ = parse_pda_with_map(_read(args.pda))
    scheme = build_scheme(p, args.K, args.L, args.files)
    _emit(scheme_to_json(scheme, include_arrays=args.emit_arrays), args.output)
    return 0


def _parse_demand(spec: str, k: int, n: int, fallback_seed: int):
    try:
        if spec.startswith("random:"):
            rng = random.Random(int(spec.split(":", 1)[1]))
            return tuple(rng.randint(1, n) for _ in range(k))
        if spec == "random":
            rng = random.Random(fallback_seed)
            return tuple(rng.randint(1, n) for _ in range(k))
        return tuple(int(x) for x in spec.split(","))
    except ValueError as e:
        raise ParseError(f"bad demand spec {spec!r}") from e


def cmd_simulate(args) -> int:
    scheme = scheme_from_json(_read(args.scheme), read_file=_read)
    n = args.files if args.files is not None else scheme.params.n
    if n < scheme.params.k:
        raise OutOfRange(f"--files {n} < K={scheme.params.k}")
    library = library_for_scheme(scheme, n, args.packet_bytes, args.seed)
    demand = _parse_demand(args.demand, scheme.params.k, n, args.seed)
    log = deliver(library, scheme, demand)
    load = Fraction(log.total_packets_sent, scheme.subpacketization)
    users = range(1, scheme.params.k + 1) if args.check_all_users else [1]
    checks = []

    def check_users(name, decode_user) -> dict:
        """Decode each user's file, add one check per user and return their verdicts."""
        verdicts = {}
        for u in users:
            ok = decode_user(u) == library.file_bytes(demand[u - 1])
            verdicts[str(u)] = "ok" if ok else "fail"
            checks.append({"name": f"{name}_user_{u}", "pass": ok, "detail": []})
        return verdicts

    results = {
        "params": scheme.params.as_dict(),
        "demand": list(demand),
        "load": load,
        "messages": log.total_packets_sent,
        "bytes_sent": log.bytes_sent,
        "per_user": check_users("decode", lambda u: decode(library, scheme, demand, log, u)),
    }
    if args.compressed:
        batch = compressed_deliver(library, scheme, demand, args.field_width)
        comp_user = check_users(
            "compressed_decode", lambda u: compressed_decode(library, scheme, demand, batch, u)
        )
        results["compressed"] = {
            "lambdas": list(lambda_profile(scheme.pda, scheme.params.l).lambdas),
            "whole_rounds": len(full_view_rounds(scheme, 1)),
            "load": compressed_load(scheme),
            "messages": batch.m1,
            "bytes_sent": batch.m1 * library.packet_bytes,
            "field_width": batch.field_width,
            "per_user": comp_user,
        }
    ok = all(c["pass"] for c in checks)
    _emit(_report(args, {args.scheme: _sha256(args.scheme)}, results, checks), args.output)
    return 0 if ok else 1


def cmd_compare(args) -> int:
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    header, rows = comparison_table(args.K, args.L, schemes, args.step)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(float12(v) for v in row))
    _emit("\n".join(lines) + "\n", args.csv)
    crossover = None
    if "t1" in schemes:
        others = [s for s in schemes if s not in ("t1", "conv")]
        for row in rows:
            x, vals = row[0], dict(zip(header[1:], row[1:]))
            if others and all(vals["t1"] <= vals[s] for s in others):
                crossover = x
            else:
                if crossover is not None:
                    break
    results = {
        "k": args.K,
        "l": args.L,
        "n": args.N,
        "csv": args.csv,
        "rows": len(rows),
        "step": Fraction(args.step),  # comparison_table has read it as one
        "t1_best_up_to": crossover,
    }
    _emit(_report(args, {}, results, []), args.output)
    return 0


def cmd_converse(args) -> int:
    bound = converse_bound(args.K, args.L, args.t)
    ach = r_t1(args.K, args.L, args.t)
    results = {
        "k": args.K,
        "l": args.L,
        "t": args.t,
        "x": Fraction(args.t, args.K),
        "bound": bound,
        "t1": ach,
        "ratio": (ach / bound) if bound > 0 else None,
    }
    checks = [{"name": "bound_le_t1", "pass": bound <= ach, "detail": []}]
    _emit(_report(args, {}, results, checks), args.output)
    return 0 if bound <= ach else 1


def cmd_gaps(args) -> int:
    rep = gap_checks(args.K, args.L)
    checks = []
    if rep["hkd"].get("applicable"):
        checks.append(
            {"name": "hkd_strict_inside", "pass": rep["hkd"]["all_strict_inside"], "detail": []}
        )
    checks.append(
        {"name": "rk_strict_on_hypothesis", "pass": rep["rk"]["all_strict_on_hypothesis"], "detail": []}
    )
    checks.append(
        {"name": "sr_strict_on_proven_region", "pass": rep["sr"]["all_strict_on_proven_region"], "detail": []}
    )
    ok = all(c["pass"] for c in checks)
    _emit(_report(args, {}, rep, checks), args.output)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="macc", description=__doc__)
    ap.add_argument("--version", action="version", version=f"macc {__version__}")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="seed recorded in the report")
        p.add_argument("-o", "--output", default="-", help="output path, '-' for stdout")

    p = sub.add_parser("build-pda", help="emit a stock array in text form")
    p.add_argument("--family", choices=["mn", "partition"], required=True)
    p.add_argument("--kprime", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--json", nargs="?", const="auto", default=None,
                   help="sidecar JSON path (default: OUTPUT.json)")
    common(p)
    p.set_defaults(fn=cmd_build_pda)

    p = sub.add_parser("verify", help="check an array file against C1-C5")
    p.add_argument("--pda", required=True)
    p.add_argument("--L", type=int, default=None, help="also check C4/C5 at this access degree")
    p.add_argument("--exhaustive", action="store_true", help="list all counterexamples")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("transform", help="lift an array to a multiaccess scheme descriptor")
    p.add_argument("--pda", required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--files", type=int, default=None, help="library size N (default K)")
    p.add_argument("--emit-arrays", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("simulate", help="run delivery and decoding on a scheme")
    p.add_argument("--scheme", required=True)
    p.add_argument("--files", type=int, default=None)
    p.add_argument("--packet-bytes", type=int, default=1)
    p.add_argument("--demand", required=True, help="comma list or random[:seed]")
    p.add_argument("--check-all-users", action="store_true")
    p.add_argument("--compressed", action="store_true")
    p.add_argument("--field-width", type=int, choices=[8, 16], default=None)
    common(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("compare", help="tabulate scheme envelopes to CSV")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--schemes", default="hkd,rk,sr,t1,conv")
    p.add_argument("--step", default="1/60")
    p.add_argument("--csv", required=True)
    common(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("converse", help="fixed-placement lower bound at one corner")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_converse)

    p = sub.add_parser("gaps", help="strictness report against the older schemes")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_gaps)

    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    args = ap.parse_args(argv)
    args._argv = argv
    t0 = time.monotonic()
    try:
        rc = args.fn(args)
    except (ParseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OutOfRange as e:
        print(f"error: {e}", file=sys.stderr)
        print(f"usage: run 'macc {args.cmd} --help' for the flag synopsis", file=sys.stderr)
        return 2
    except MaccError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    finally:
        print(f"elapsed {time.monotonic() - t0:.3f}s", file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
