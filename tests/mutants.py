"""Mutation check: does any test notice a one-site fault in the named functions?

Usage (from the repository root):

    python tests/mutants.py --functions pda.star_profile,constructions.mn_pda \
        tests/test_pda.py tests/test_constructions.py [--sample N] [--seed S]

Each mutant changes one site of one function of src/macc: an arithmetic,
bitwise or comparison operator is swapped for its neighbour, or an integer
constant is moved by one. The source is copied to a scratch directory first;
each mutant is written into the copy, the named test files run against it
with `pytest -x`, and the copy is restored before the next mutant, so the
working tree is never touched. A mutant that every test passes survives.
Survivors listed in EQUIVALENT, each with the reason no test can kill it,
are reported apart; any other survivor makes the exit status 1.

--functions takes comma-separated `module.qualname` names (`pda.Pda.__post_init__`);
--sample N runs N sites drawn with --seed instead of all of them.
The script needs the standard library only and lies outside pytest's
collection (it is not named test_*.py).
"""

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.Div: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult, ast.BitXor: ast.BitOr,
    ast.BitOr: ast.BitAnd, ast.BitAnd: ast.BitOr, ast.LShift: ast.RShift,
    ast.RShift: ast.LShift, ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE,
    ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
    ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
}

# Mutants no test can kill, by the key the run prints, with the reason.
EQUIVALENT = {
    "sim.decode_from_messages: np.frombuffer(raw, np.uint8).reshape(-1, b)"
    " -> np.frombuffer(raw, np.uint8).reshape(-2, b)":
        "numpy reads any negative size in reshape as 'the rest'",
    "constructions.mn_pda: ups.reshape(-1, t + 1) -> ups.reshape(-2, t + 1)":
        "numpy reads any negative size in reshape as 'the rest'",
    "compress.compressed_deliver: bytes_to_symbols(round_messages(library, scheme, d, range(1, k + 1)),"
    " gf.width).reshape(k, -1) -> bytes_to_symbols(round_messages(library, scheme, d, range(1, k + 1)),"
    " gf.width).reshape(k, -2)":
        "numpy reads any negative size in reshape as 'the rest'",
    "compress._coding_block: maxsize=4 -> maxsize=5":
        "the cache's size changes how often a block is rebuilt, never its entries",
    "compress._coding_block: maxsize=4 -> maxsize=3":
        "the cache's size changes how often a block is rebuilt, never its entries",
    "compress._coding_matrix: maxsize=4 -> maxsize=5":
        "the cache's size changes how often a matrix is rebuilt, never its entries",
    "compress._coding_matrix: maxsize=4 -> maxsize=3":
        "the cache's size changes how often a matrix is rebuilt, never its entries",
    "constructions.mn_pda: n - t + 1 -> n - t + 2":
        "binom gains a row d = n - t + 1, which no term reaches, as d <= n - t",
    "constructions.partition_pda: np.indices((q,) * (m - 1)).reshape(m - 1, -1)"
    " -> np.indices((q,) * (m - 1)).reshape(m - 1, -2)":
        "numpy reads any negative size in reshape as 'the rest'",
    "gf2.cauchy_matrix: m2 < 1 -> m2 < 0":
        "m1 >= 1 and m1 <= m2 already give m2 >= 1, so the clause never decides",
    "pda._absent: values.size + 1 -> values.size + 2":
        "any bound past the cell count finds the same least absent integer",
    "pda.star_profile: counts[0] -> counts[-1]":
        "every row has the same star count once the check above has passed",
    "transform._lift: star[0] -> star[-1]":
        "every row has the same star count once the check above has passed",
    "transform.check_c5: p.cols + 1 -> p.cols + 2":
        "past K' + 1 the crossing test no longer depends on l, as check_c5's docstring shows",
    "transform.check_c5: p.cols + 1 -> p.cols + 0":
        "at l = K' the block width K' - 1 already covers every column gap, so the argument of"
        " check_c5's docstring holds",
    "transform.check_c5: p.cols + 1 -> p.cols - 1":
        "at l = K' - 1 only the first-to-last column gap exceeds the block width, and a star"
        " block of one row never reaches across it to the other row's cell at any l",
    "transform.Scheme.__post_init__: missing[0] -> missing[-1]":
        "short of exhaustive, _absent lists at most one integer",
    "transform.Scheme.__post_init__: bad[0] -> bad[-1]":
        "short of exhaustive, _clashes returns at most one pair",
    "transform.Scheme.__post_init__: bad[0] -> bad[-1] #2":
        "short of exhaustive, _clashes returns at most one pair",
    "rates.converse_step: t > k // l -> t >= k // l":
        "converse_bound(k, l, k // l) is 0 for every K < 60, so both branches return 0",
    "rates.comparison_table: max(k, 0) -> max(k, 1)":
        "below K = 1 every clamp from -1 to 1 counts at most two corners and no r_sr term past"
        " the cap, so the curves still raise their own error",
    "rates.comparison_table: max(k, 0) -> max(k, -1)":
        "below K = 1 every clamp from -1 to 1 counts at most two corners and no r_sr term past"
        " the cap, so the curves still raise their own error",
    "rates.gap_checks: ratio > rhs -> ratio >= rhs":
        "the hkd ratio exceeds rhs strictly at every probe inside the gap region, as the report"
        " shows (no probe equals it for K <= 150, L <= 15), so equality never decides",
    "gf2.GF._log_sums: max(1, _STEP_ELEMENTS // max(1, len(b))) -> max(2, _STEP_ELEMENTS //"
    " max(1, len(b)))":
        "only the block of rows per step moves, and it stays at least 1; every block gives the"
        " same result",
    "gf2.GF._log_sums: _STEP_ELEMENTS // max(1, len(b)) -> _STEP_ELEMENTS * max(1, len(b))":
        "only the block of rows per step moves, and it stays at least 1; every block gives the"
        " same result",
    "gf2.GF._log_sums: max(1, len(b)) -> max(2, len(b))":
        "only the block of rows per step moves, and it stays at least 1; every block gives the"
        " same result",
    "gf2.GF.matmul: max(1, _STEP_ELEMENTS // max(1, x.size)) -> max(2, _STEP_ELEMENTS //"
    " max(1, x.size))":
        "only the block of rows per step moves, and it stays at least 1; every block gives the"
        " same result",
    "gf2.GF.matmul: _STEP_ELEMENTS // max(1, x.size) -> _STEP_ELEMENTS * max(1, x.size)":
        "only the block of rows per step moves, and it stays at least 1; every block gives the"
        " same result",
    "gf2.GF.matmul: max(1, x.size) -> max(2, x.size)":
        "only the block of rows per step moves, and it stays at least 1; every block gives the"
        " same result",
    "sim.deliver: round_messages(library, scheme, d, range(1, k + 1)).reshape(-1, b)"
    " -> round_messages(library, scheme, d, range(1, k + 1)).reshape(-2, b)":
        "numpy reads any negative size in reshape as 'the rest'",
    "sim._words: words.reshape(-1, words.shape[-1]) -> words.reshape(-2, words.shape[-1])":
        "numpy reads any negative size in reshape as 'the rest'",
    "sim._words: (8, 4, 2, 1) -> (8, 4, 1, 1)":
        "2-byte packets are then XORed as bytes instead of 2-byte words, which gives the same bytes",
    "transform._round_cells: np.arange(k).reshape(-1, 1, 1) -> np.arange(k).reshape(-2, 1, 1)":
        "numpy reads any negative size in reshape as 'the rest'",
    "sim.decode_from_messages: set(map(type, values)) <= {int} -> set(map(type, values)) < {int}":
        "the fast check only decides whether the exact per-entry loop runs, and that loop"
        " accepts every payload the unmutated check passes",
    "sim.decode_from_messages: 0 <= min(values, default=0) <= max(values, default=0) < limit ->"
    " 0 < min(values, default=0) <= max(values, default=0) < limit":
        "the fast check only decides whether the exact per-entry loop runs, and that loop"
        " accepts every payload the unmutated check passes",
    "sim.decode_from_messages: 0 <= min(values, default=0) <= max(values, default=0) < limit ->"
    " 0 <= min(values, default=0) < max(values, default=0) < limit":
        "the fast check only decides whether the exact per-entry loop runs, and that loop"
        " accepts every payload the unmutated check passes",
    "sim.decode_from_messages: 0 <= min(values, default=0) <= max(values, default=0) < limit ->"
    " 1 <= min(values, default=0) <= max(values, default=0) < limit":
        "the fast check only decides whether the exact per-entry loop runs, and that loop"
        " accepts every payload the unmutated check passes",
    "sim.decode_from_messages: default=0 -> default=1":
        "the default is read only when the user reads no message, where the loop below has no"
        " entry",
    "sim.decode_from_messages: default=0 -> default=-1":
        "the default is read only when the user reads no message, where the loop below has no"
        " entry",
    "sim.decode_from_messages: default=0 -> default=1 #2":
        "the default is read only when the user reads no message, where the loop below has no"
        " entry",
    "sim.decode_from_messages: default=0 -> default=-1 #2":
        "the default is read only when the user reads no message, where the loop below has no"
        " entry",
}


class Site:
    """One mutation: the node to change, how, and its printable key."""

    def __init__(self, module, qualname, node, parent, apply, undo):
        self.module, self.node, self.apply, self.undo = module, node, apply, undo
        shown = parent if isinstance(node, ast.Constant) else node
        before = ast.unparse(shown)
        apply()
        after = ast.unparse(shown)
        undo()
        self.key = f"{module}.{qualname}: {before} -> {after}"


def functions_of(tree):
    """(qualname, node) of every function in a module, methods included."""
    def walk(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + node.name, node
                yield from walk(node.body, prefix + node.name + ".")
            elif isinstance(node, ast.ClassDef):
                yield from walk(node.body, prefix + node.name + ".")
    yield from walk(tree.body, "")


def sites_in(module, qualname, fn):
    """Every mutation site of one function, in source order."""
    parents = {child: node for node in ast.walk(fn) for child in ast.iter_child_nodes(node)}
    out = []
    for node in ast.walk(fn):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            old = node.op
            out.append(Site(module, qualname, node, parents.get(node),
                            lambda n=node, o=old: setattr(n, "op", SWAPS[type(o)]()),
                            lambda n=node, o=old: setattr(n, "op", o)))
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    out.append(Site(module, qualname, node, parents.get(node),
                                    lambda n=node, i=i: n.ops.__setitem__(i, SWAPS[type(n.ops[i])]()),
                                    lambda n=node, i=i, o=op: n.ops.__setitem__(i, o)))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            for step in (1, -1):
                out.append(Site(module, qualname, node, parents[node],
                                lambda n=node, d=step: setattr(n, "value", n.value + d),
                                lambda n=node, d=step: setattr(n, "value", n.value - d)))
    out.sort(key=lambda s: (s.node.lineno, s.node.col_offset))
    return out


def unary_minus_constants(tree):
    """Fold -<int> into one constant, so -1 mutates to -2 and 0, not -0 and -2 by
    way of its operand 1."""
    class Fold(ast.NodeTransformer):
        def visit_UnaryOp(self, node):
            self.generic_visit(node)
            if (isinstance(node.op, ast.USub) and isinstance(node.operand, ast.Constant)
                    and type(node.operand.value) is int):
                return ast.copy_location(ast.Constant(-node.operand.value), node)
            return node
    return ast.fix_missing_locations(Fold().visit(tree))


def wanted_of(names):
    """{module: set of qualnames} of module.qualname names."""
    wanted = {}
    for name in names:
        module, _, qualname = name.strip().partition(".")
        wanted.setdefault(module, set()).add(qualname)
    return wanted


def collect_sites(src, wanted):
    """(trees, sites) for wanted, {module: qualnames} of macc under the src
    directory: each module's (path, folded syntax tree) and the mutation
    sites of the functions, a repeated key numbered by its occurrence
    (" #2"). LookupError names a function the module lacks."""
    trees, sites = {}, []
    for module, names in sorted(wanted.items()):
        path = os.path.join(src, "macc", f"{module}.py")
        with open(path) as f:
            tree = unary_minus_constants(ast.parse(f.read()))
        trees[module] = (path, tree)
        found = dict(functions_of(tree))
        missing = sorted(names - set(found))
        if missing:
            raise LookupError(f"no function {', '.join(missing)} in macc.{module}")
        for qualname in sorted(names):
            sites += sites_in(module, qualname, found[qualname])
    seen = {}
    for site in sites:
        seen[site.key] = seen.get(site.key, 0) + 1
        if seen[site.key] > 1:
            site.key += f" #{seen[site.key]}"
    return trees, sites


def run_tests(copy_src, tests, timeout):
    """Exit status of pytest -x over the test files against the copy (None on timeout)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--rootdir", ROOT, "-c", os.path.join(ROOT, "pyproject.toml"),
           "-o", f"pythonpath={copy_src}", *tests]
    try:
        done = subprocess.run(cmd, cwd=os.path.dirname(copy_src), env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return None
    return done.returncode


def verdict(status, key) -> str:
    """The progress word of a mutant whose test run ended with status (None on
    timeout): a run that passes shows a survivor, unless EQUIVALENT lists it."""
    if status != 0:
        return "killed"
    return "equivalent" if key in EQUIVALENT else "survived"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--functions", required=True,
                    help="comma-separated module.qualname names, e.g. pda.star_profile")
    ap.add_argument("--sample", type=int, default=None, help="run N sites drawn at random")
    ap.add_argument("--seed", type=int, default=0, help="seed of the --sample draw")
    ap.add_argument("tests", nargs="+", help="test files to run against each mutant")
    args = ap.parse_args(argv)
    tests = [os.path.abspath(t) for t in args.tests]

    wanted = wanted_of(args.functions.split(","))
    work = tempfile.mkdtemp(prefix="macc-mutants-")
    try:
        copy_src = os.path.join(work, "src")
        shutil.copytree(os.path.join(ROOT, "src"), copy_src,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        try:
            trees, sites = collect_sites(copy_src, wanted)
        except LookupError as e:
            ap.error(str(e))
        if args.sample is not None and args.sample < len(sites):
            sites = sorted(random.Random(args.seed).sample(sites, args.sample),
                           key=lambda s: (s.module, s.node.lineno, s.node.col_offset))

        # The unmutated copy, written back from its syntax tree, must pass.
        for path, tree in trees.values():
            with open(path, "w") as f:
                f.write(ast.unparse(tree))
        start = time.perf_counter()
        if run_tests(copy_src, tests, timeout=None) != 0:
            print("the tests fail on the unmutated source; nothing to measure")
            return 2
        timeout = 10 * (time.perf_counter() - start) + 10
        print(f"{len(sites)} mutants; baseline run {time.perf_counter() - start:.1f} s")

        survivors, equivalent = [], []
        for i, site in enumerate(sites, 1):
            path, tree = trees[site.module]
            site.apply()
            try:
                with open(path, "w") as f:
                    f.write(ast.unparse(tree))
                status = run_tests(copy_src, tests, timeout)
            finally:
                site.undo()
                with open(path, "w") as f:
                    f.write(ast.unparse(tree))
            word = verdict(status, site.key)
            if word != "killed":
                (equivalent if word == "equivalent" else survivors).append(site.key)
            print(f"[{i}/{len(sites)}] {word}: {site.key}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"\n{len(sites) - len(survivors) - len(equivalent)} killed, "
          f"{len(equivalent)} known equivalent, {len(survivors)} survived")
    for key in equivalent:
        print(f"  equivalent: {key}  ({EQUIVALENT[key]})")
    for key in survivors:
        print(f"  SURVIVED: {key}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
