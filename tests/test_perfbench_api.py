"""The benchmark's calls into macc, run here because its own self-test is too slow
for Tier-1: a change to the package that breaks perfbench/ fails this test."""

import random
from pathlib import Path

from macc import mn_pda

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_probes_run(monkeypatch, scheme832):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    assert workloads.gf2_probe(workloads.NOTRACE, 8, 24, 32, 4, random.Random(1))
    workloads.round_grid(workloads.NOTRACE, scheme832)


def test_benchmark_delivery_calls_run(monkeypatch):
    """make_case, plain deliver and decode for every user, coded deliver and one
    coded decode on the worked K=8, L=3 instance with 4-byte packets."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    tr = workloads.NOTRACE
    case = workloads.make_case(tr, mn_pda(4, 2), 8, 3, 4, 1)
    demand = (2, 7, 1, 8, 2, 8, 1, 8)
    log = workloads.plain_deliver(tr, case, demand)
    for user in range(1, 9):
        assert workloads.plain_decode(tr, case, demand, log, user)
    batch = workloads.coded_deliver(tr, case, demand)
    assert workloads.coded_decode(tr, case, demand, batch, 1)
