"""The program entry points that the benchmark's tracer wraps.

``perfbench/spans.py`` records per-layer spans and counters by wrapping
entry points by name and call shape, and ``perfbench/harness.job_layers``
turns them into the per-layer metrics. A renamed method or a changed
call shape would leave a traced run's figures at zero without failing
anything else, so this test installs the hooks on a small run and checks
that every figure they feed is non-zero.
"""
import importlib
import os

import pytest

from repro.core.miner import MVDMiner
from repro.core.schema_miner import enumerate_schemas
from repro.entropy.local_pli import LocalPLIEngine
from tests.helpers import random_relation

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

#: Per-layer metrics of ``job_layers`` that come from the wrapped entry
#: points (the scan, quality and ASMiner-enumerate spans are opened by
#: the harness around its own calls).
HOOKED = (
    "entropy.partition_s",
    "entropy.reduce_s",
    "entropy.mutual_info_calls",
    "search.separator_tests",
    "search.full_mvd_searches",
    "search.transversal_s",
    "search.transversal_calls",
    "search.reduce_min_sep_s",
    "search.get_full_mvds_s",
    "asminer.compat_tests",
    "asminer.mis_enumerated",
    "asminer.build_s",
)


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("spans"), importlib.import_module("harness")


def test_traced_run_fills_every_hooked_figure(perfbench):
    spans, harness = perfbench
    tracer = spans.Tracer()
    tracer.job_id = "job0"
    engine = LocalPLIEngine(random_relation(40, "ABCDE", 2, 3))
    with spans.module_hooks(tracer):
        spans.instrument_engine(tracer, engine)
        miner = MVDMiner(engine, 0.3)
        spans.instrument_miner(tracer, miner)
        res = miner.mine()
        schemas = list(enumerate_schemas(res.full_mvds, engine.columns))
    assert res.complete and res.n_full_mvds >= 2 and schemas

    job = harness.Job("job0", True, pair_s=[res.elapsed], nodes=miner.nodes_explored)
    job.counters = dict(tracer.counters)
    job.entropy = engine.cache_info()
    job.outputs = {"mvds": {}, "minseps": {}, "schemas": {0.3: [s.bags for s in schemas]},
                   "quality": []}
    layers = harness.job_layers(job, tracer.job_spans("job0"))
    assert {k: layers[k] for k in HOOKED if not layers[k] > 0} == {}
