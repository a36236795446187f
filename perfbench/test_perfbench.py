"""Self-test of the benchmark: tiny runs print every metric, and the correctness gate can fail.

Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "plain-mn16": workloads.PlainDecode("plain-mn16", k=8, l=3, packet_bytes=4, kprime=4, t=2),
    "coded-part33": workloads.CodedDecode("coded-part33", k=8, l=3, packet_bytes=4, m=2, q=2),
    "cli-worked": workloads.CliWorked("cli-worked"),
    "design-sweep": workloads.DesignSweep("design-sweep", k_lo=6, k_hi=7, ls=(2, 3),
                                          max_rows=20, step_den=12),
}
NAMED = {
    "plain-mn16": ["deliver_ms_p50", "decode_ms_p50", "decode_ms_p90", "decoded_MBps"],
    "coded-part33": ["deliver_ms_p50", "decode_ms_p50", "decode_ms_p90", "decoded_MBps"],
    "cli-worked": ["run_ms_p50", "run_ms_p90"],
    "design-sweep": ["design_points_per_s", "pass_ms_p50"],
}

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def tiny_run(name, trace, monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, name, TINY[name])
    rc = run.main(["--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_workloads_match_benchmark_json():
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])
    assert sorted(workloads.MOVES) == sorted(m["name"] for m in SPEC["per_layer"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_prints_every_metric(name, trace, monkeypatch, capsys):
    text, result = tiny_run(name, trace, monkeypatch, capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.split()[:1] == [m["name"]] and f" {m['unit']} " in line for line in text)
    for key in NAMED[name] + ["peak_rss_MB", "failed_ops_frac", "setup_s"]:
        assert any(line.split()[:1] == [key] and "n=" in line for line in text), key


@pytest.mark.parametrize("name, attr", [("plain-mn16", "decode"),
                                        ("coded-part33", "compressed_decode")])
def test_flipped_byte_counts_as_failed(name, attr, monkeypatch, capsys):
    real = getattr(workloads, attr)
    calls = []

    def flip_first(*args):
        out = real(*args)
        calls.append(1)
        if len(calls) == 1:
            out = bytes([out[0] ^ 1]) + out[1:]
        return out

    monkeypatch.setattr(workloads, attr, flip_first)
    _, result = tiny_run(name, 0, monkeypatch, capsys)
    assert len(calls) > 1
    assert result["failed"] == 1 and not result["correct"]


def test_failed_check_in_cli_report_is_caught():
    demand = workloads.random_demand(workloads.random.Random(5), 2, 2)
    report = {"results": {"demand": list(demand)},
              "checks": [{"name": f"c{i}", "pass": i != 3, "detail": []} for i in range(4)]}
    with pytest.raises(workloads.CheckFailed):
        workloads.check_report(json.dumps(report), 5, 2)
    report["checks"][3]["pass"] = True
    workloads.check_report(json.dumps(report), 5, 2)
