"""The benchmark's calls into macc, run here because its own self-test is too slow
for Tier-1: a change to the package that breaks perfbench/ fails this test."""

import random
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_probes_run(monkeypatch, scheme832):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    assert workloads.gf2_probe(workloads.NOTRACE, 8, 24, 32, 4, random.Random(1))
    workloads.round_grid(workloads.NOTRACE, scheme832)
