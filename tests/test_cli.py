"""Command line behaviour: artifacts, reports, exit codes, determinism."""

import json
import time

import pytest

from macc import (
    build_scheme,
    mn_pda,
    parse_pda,
    partition_pda,
    scheme_from_json,
    scheme_to_json,
    serialize_pda,
)
from macc.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_build_pda_stdout(capsys):
    rc, out, _ = run(capsys, "build-pda", "--family", "mn", "--kprime", "4", "--t", "2")
    assert rc == 0
    assert parse_pda(out) == mn_pda(4, 2)


@pytest.mark.parametrize("flags", [["mn", "--kprime", "40", "--t", "20"], ["partition", "--m", "12", "--q", "12"]])
def test_build_pda_refuses_huge_arrays_as_usage(capsys, flags):
    rc, out, err = run(capsys, "build-pda", "--family", *flags)
    assert (rc, out) == (2, "")
    assert "-cell cap" in err and "usage: run 'macc build-pda --help' for the flag synopsis" in err


def test_build_pda_partition_sidecar(tmp_path, capsys):
    pda_path = tmp_path / "part.pda"
    rc, _, _ = run(
        capsys,
        "build-pda", "--family", "partition", "--m", "2", "--q", "3",
        "-o", str(pda_path), "--json",
    )
    assert rc == 0
    p, labels = partition_pda(2, 3)
    assert parse_pda(pda_path.read_text()) == p
    doc = json.loads((tmp_path / "part.pda.json").read_text())
    assert doc["signature"] == {"k_prime": 6, "f_prime": 3, "z": 1, "s": 6}
    assert [tuple(e) for e in doc["labels"]] == list(labels)


def test_build_pda_json_needs_file_output(capsys):
    rc, _, err = run(capsys, "build-pda", "--family", "mn", "--kprime", "3", "--t", "1", "--json")
    assert rc == 2
    assert "error" in err


def test_build_pda_missing_params(capsys):
    rc, _, _ = run(capsys, "build-pda", "--family", "mn", "--kprime", "4")
    assert rc == 2
    rc, _, _ = run(capsys, "build-pda", "--family", "partition", "--m", "2")
    assert rc == 2
    rc, _, _ = run(capsys, "build-pda", "--family", "partition", "--m", "1", "--q", "2")
    assert rc == 2


def test_verify_passes_and_reports(tmp_path, capsys):
    f = tmp_path / "mn.pda"
    f.write_text(serialize_pda(mn_pda(4, 2)))
    rc, out, _ = run(capsys, "verify", "--pda", str(f), "--L", "3")
    assert rc == 0
    doc = json.loads(out)
    names = [c["name"] for c in doc["checks"]]
    assert names == ["C1", "C2", "C3", "C4", "C5"]
    assert all(c["pass"] for c in doc["checks"])
    assert doc["results"]["signature"] == {"k_prime": 4, "f_prime": 6, "z": 3, "s": 4}
    assert doc["results"]["renumbered"] is False
    assert doc["seed"] == 0
    assert list(doc["inputs"]) == [str(f)]


def test_verify_flags_violation(tmp_path, capsys):
    f = tmp_path / "bad.pda"
    f.write_text("4 2 1 2\n* * 1 1\n1 2 * *\n")
    rc, out, _ = run(capsys, "verify", "--pda", str(f))
    assert rc == 1
    doc = json.loads(out)
    c3 = next(c for c in doc["checks"] if c["name"] == "C3")
    assert not c3["pass"]
    assert c3["detail"][0] == [[1, 3], [1, 4]]


def test_verify_renumbers_gapped_values(tmp_path, capsys):
    f = tmp_path / "gap.pda"
    f.write_text("2 2 1 5\n* 2\n5 *\n")
    rc, out, _ = run(capsys, "verify", "--pda", str(f))
    assert rc == 0
    doc = json.loads(out)
    assert doc["results"]["renumbered"] is True
    assert doc["results"]["relabel"] == {"2": 1, "5": 2}


def test_verify_exit_two_on_bad_input(tmp_path, capsys):
    empty = tmp_path / "empty.pda"
    empty.write_text("")
    rc, _, err = run(capsys, "verify", "--pda", str(empty))
    assert rc == 2 and "empty" in err
    rc, _, _ = run(capsys, "verify", "--pda", str(tmp_path / "nope.pda"))
    assert rc == 2


def test_verify_exit_two_on_inconsistent_header(tmp_path, capsys):
    # Z = 5 exceeds F' = 1: every row parses, the array itself is impossible
    f = tmp_path / "z.pda"
    f.write_text("2 1 5 1\n* 1\n")
    rc, _, err = run(capsys, "verify", "--pda", str(f))
    assert rc == 2
    assert "Z=5" in err and "Traceback" not in err


def test_simulate_exit_two_on_non_integer_params(tmp_path, capsys):
    doc = json.loads(scheme_to_json(build_scheme(mn_pda(4, 2), 8, 3)))
    for bad in ("8", True, 8.0, None):
        doc["params"]["k"] = bad
        path = tmp_path / "scheme.json"
        path.write_text(json.dumps(doc))
        rc, _, err = run(capsys, "simulate", "--scheme", str(path), "--demand", "random:1")
        assert rc == 2, bad
        assert "not an integer" in err and "Traceback" not in err


def test_simulate_exit_two_on_a_library_past_the_cap(tmp_path, capsys):
    path = tmp_path / "scheme.json"
    path.write_text(scheme_to_json(build_scheme(mn_pda(4, 2), 8, 3)))
    rc, _, err = run(capsys, "simulate", "--scheme", str(path), "--demand", "random:1",
                     "--packet-bytes", "400000000")
    assert rc == 2
    assert "a library of 153600000000 bytes exceeds the" in err and "usage:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["gaps", "--K", "1000000000", "--L", "3"],
                                  ["compare", "--K", "100000", "--L", "3", "--step", "1/1000000"],
                                  ["compare", "--K", "100000", "--L", "3"],
                                  ["converse", "--K", "10000000", "--L", "3", "--t", "3000000"]])
def test_huge_rates_exit_two_at_once(tmp_path, capsys, argv):
    if argv[0] == "compare":
        argv = [*argv, "--csv", str(tmp_path / "table.csv")]
    t0 = time.perf_counter()
    rc, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1
    assert (rc, out) == (2, "") and "exceed the 1048576 cap" in err
    assert f"usage: run 'macc {argv[0]} --help'" in err and "Traceback" not in err


def test_transform_and_simulate(tmp_path, capsys):
    pda_path = tmp_path / "mn.pda"
    pda_path.write_text(serialize_pda(mn_pda(4, 2)))
    scheme_path = tmp_path / "scheme.json"
    rc, _, _ = run(
        capsys, "transform", "--pda", str(pda_path), "--K", "8", "--L", "3",
        "-o", str(scheme_path),
    )
    assert rc == 0
    scheme = scheme_from_json(scheme_path.read_text())
    assert scheme.params.k == 8 and scheme.params.l == 3

    rc, out, _ = run(
        capsys,
        "simulate", "--scheme", str(scheme_path), "--packet-bytes", "2",
        "--demand", "1,2,3,4,5,6,7,8", "--check-all-users", "--compressed",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["results"]["load"] == "2/3"
    assert doc["results"]["messages"] == 32
    assert doc["results"]["compressed"]["load"] == "1/2"
    assert doc["results"]["compressed"]["messages"] == 24
    assert len(doc["checks"]) == 16
    assert all(c["pass"] for c in doc["checks"])


@pytest.mark.parametrize("text, k, l, lambdas, whole, load, messages", [
    # partition_pda(2, 2) with its columns reordered: 4 whole rounds, sum(lambda) = 2
    ("4 2 1 2\n* * 1 2\n2 1 * *\n", 8, 3, [1, 1], 4, "1/2", 8),
    # mn_pda(2, 2): no integer (S = 0), so every round is whole and the batch is empty
    (serialize_pda(mn_pda(2, 2)), 4, 2, [2, 2], 4, "0/1", 0),
], ids=["reordered", "all-star"])
def test_simulate_codes_by_the_whole_rounds(tmp_path, capsys, text, k, l, lambdas, whole, load, messages):
    """The report names c, the whole rounds the batch is sized by, beside the
    lambda profile, which undercounts it on the reordered array."""
    pda_path, scheme_path = tmp_path / "p.pda", tmp_path / "s.json"
    pda_path.write_text(text)
    rc, _, _ = run(capsys, "verify", "--pda", str(pda_path), "--L", str(l))
    assert rc == 0
    rc, _, _ = run(capsys, "transform", "--pda", str(pda_path), "--K", str(k), "--L", str(l),
                   "-o", str(scheme_path))
    assert rc == 0
    rc, out, err = run(capsys, "simulate", "--scheme", str(scheme_path), "--demand", "random:3",
                       "--check-all-users", "--compressed")
    assert rc == 0, err
    doc = json.loads(out)
    compressed = doc["results"]["compressed"]
    assert (compressed["lambdas"], compressed["whole_rounds"]) == (lambdas, whole)
    assert (compressed["load"], compressed["messages"]) == (load, messages)
    assert len(doc["checks"]) == 2 * k
    assert all(c["pass"] for c in doc["checks"])


def test_transform_rejects_condition_breaker(tmp_path, capsys):
    # this array fails the window condition at L = 2 (see conftest)
    from conftest import PNEG_ROWS

    lines = ["5 5 2 14"]
    for row in PNEG_ROWS:
        lines.append(" ".join("*" if v == 0 else str(v) for v in row))
    f = tmp_path / "neg.pda"
    f.write_text("\n".join(lines) + "\n")
    rc, _, err = run(capsys, "transform", "--pda", str(f), "--K", "7", "--L", "2")
    assert rc == 1
    assert "C5" in err


def test_simulate_random_demand_is_seeded(tmp_path, capsys):
    pda_path = tmp_path / "mn.pda"
    pda_path.write_text(serialize_pda(mn_pda(3, 1)))
    scheme_path = tmp_path / "s.json"
    run(capsys, "transform", "--pda", str(pda_path), "--K", "5", "--L", "3",
        "-o", str(scheme_path))
    rc1, out1, _ = run(capsys, "simulate", "--scheme", str(scheme_path),
                       "--demand", "random:77")
    rc2, out2, _ = run(capsys, "simulate", "--scheme", str(scheme_path),
                       "--demand", "random:77")
    assert rc1 == rc2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert all(1 <= d <= 5 for d in doc["results"]["demand"])


def test_reports_are_byte_identical(tmp_path, capsys):
    f = tmp_path / "mn.pda"
    f.write_text(serialize_pda(mn_pda(4, 2)))
    _, out1, _ = run(capsys, "verify", "--pda", str(f), "--L", "3")
    _, out2, _ = run(capsys, "verify", "--pda", str(f), "--L", "3")
    assert out1 == out2


def test_compare_csv(tmp_path, capsys):
    csv_path = tmp_path / "cmp.csv"
    rc, out, _ = run(capsys, "compare", "--K", "20", "--L", "3",
                     "--csv", str(csv_path))
    assert rc == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "m_over_n,hkd,rk,sr,t1,conv"
    assert len(lines) > 20
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "20"
    doc = json.loads(out)
    assert doc["results"]["csv"] == str(csv_path)
    assert doc["results"]["t1_best_up_to"] is not None


def test_compare_scheme_subset(tmp_path, capsys):
    csv_path = tmp_path / "two.csv"
    rc, _, _ = run(capsys, "compare", "--K", "9", "--L", "3",
                   "--schemes", "t1,conv", "--step", "1/9", "--csv", str(csv_path))
    assert rc == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "m_over_n,t1,conv"
    assert len(lines) == 5  # x = 0, 1/9, 2/9, 1/3


def test_converse_subcommand(capsys):
    rc, out, _ = run(capsys, "converse", "--K", "20", "--L", "3", "--t", "2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["results"]["bound"] == "52/15"
    assert doc["results"]["t1"] == "14/3"
    assert doc["results"]["ratio"] == "35/26"
    rc, _, _ = run(capsys, "converse", "--K", "8", "--L", "3", "--t", "9")
    assert rc == 2


def test_gaps_subcommand(capsys):
    rc, out, _ = run(capsys, "gaps", "--K", "20", "--L", "3")
    assert rc == 0
    doc = json.loads(out)
    names = {c["name"] for c in doc["checks"]}
    assert "rk_strict_on_hypothesis" in names
    assert all(c["pass"] for c in doc["checks"])
    assert doc["results"]["hkd"]["rhs"] == "17/11"


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as e:
        main(["nosuchcmd"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["build-pda"])  # missing --family
    assert e.value.code == 2
    capsys.readouterr()


def _scheme_doc():
    return json.loads(scheme_to_json(build_scheme(mn_pda(3, 1), 5, 3), include_arrays=True))


def _with(key, value):
    doc = _scheme_doc()
    doc[key] = value
    return doc


@pytest.mark.parametrize("doc", [
    [1],
    _with("pda", "inline"),
    _with("pda", {"inline": 5}),
    _with("pda", {"path": 5}),
    _with("arrays", {"node_placement": 5}),
    _with("arrays", [1]),
], ids=["top-level-array", "string-pda", "inline-not-text", "path-not-text",
        "array-entry-not-list", "arrays-not-object"])
def test_simulate_exit_two_on_malformed_scheme_structure(tmp_path, capsys, doc):
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "simulate", "--scheme", str(path), "--demand", "random:1")
    assert rc == 2
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["compare", "--K", "8", "--L", "3", "--step", "abc"],
    ["compare", "--K", "8", "--L", "3", "--step", "1/0"],
    ["simulate", "--demand", "random:abc"],
    ["simulate", "--demand", "random:"],
])
def test_bad_literals_exit_two(tmp_path, capsys, argv):
    scheme = tmp_path / "scheme.json"
    scheme.write_text(json.dumps(_scheme_doc()))
    extra = ["--csv", str(tmp_path / "out.csv")] if argv[0] == "compare" else ["--scheme", str(scheme)]
    rc, _, err = run(capsys, *argv, *extra)
    assert rc == 2
    assert "error:" in err and "Traceback" not in err
