"""The benchmark's output gate, without Spark.

``perfbench`` checks every job's outputs against the digests stored in
``perfbench/digests.json``. This test runs the search and ASMiner stage
of both workloads on a ``LocalPLIEngine`` built from the workload's
data, so a change to the miner or ASMiner that moves ``M_eps``, the
minimal separators or the schemes fails here first. The ``quality``
digest needs the Spark session and stays with the benchmark.
"""
import importlib
import os

import pytest

from repro.entropy.local_pli import LocalPLIEngine

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
SEED = 0


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return tuple(importlib.import_module(m) for m in ("checks", "harness", "spans"))


@pytest.mark.parametrize("workload", ["entropy_large_n", "nursery_schemes"])
def test_search_outputs_match_the_stored_digests(perfbench, workload):
    checks, harness, spans = perfbench
    wl = harness.WORKLOADS[workload]
    pdf = harness.make_data(wl, wl.default_data_seed, SEED)
    job = harness.Job("job0", False)
    out = harness.empty_outputs()
    harness.search_stage(LocalPLIEngine(pdf), wl, job, spans.NullTracer(), out)
    assert job.incomplete == 0
    got, want = checks.digests(out), checks.load_expected()[workload]
    assert {k: got[k] for k in ("mvds", "minseps", "schemas")} == {
        k: want[k] for k in ("mvds", "minseps", "schemas")
    }
    assert checks.recheck_outputs(pdf, out, SEED) == []
