"""Self-test of the benchmark harness.

Run from the repository root:

    python3 -m pytest perfbench -q

The last three tests start Spark and take about two minutes together.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
from repro.entropy.local_pli import LocalPLIEngine  # noqa: E402


def declared(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def fake_jobs() -> tuple[list[harness.Job], spans.Tracer]:
    tracer = spans.Tracer()
    jobs = []
    for i, traced in enumerate((False, True, False)):
        job = harness.Job(f"job{i}", traced, seconds=1.0 + i, pair_s=[0.01 * k for k in range(1, 40)],
                          peak_rss_mb=100.0, entropy={"calls": 10, "computations": 2})
        job.outputs = {"mvds": {}, "minseps": {}, "schemas": {0.1: [()]}, "quality": []}
        if traced:
            tracer.job_id = job.job_id
            with tracer.span("job", "job"), tracer.span("search", "pair"):
                pass
            job.counters = {"mis_enumerated": 2}
        jobs.append(job)
    return jobs, tracer


def test_every_metric_is_declared_with_its_unit():
    jobs, tracer = fake_jobs()
    e2e, tail = harness.end_to_end(jobs, [0.5, 0.6, 0.7])
    assert {k: u for k, (_, u) in e2e.items()} == declared("end_to_end")
    layers = {**harness.per_layer(jobs, tracer, tail), "incomplete_pct": 0.0}
    assert {k: harness.layer_unit(k) for k in layers} == declared("per_layer")


def test_workloads_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    assert names == list(harness.WORKLOADS)


def test_self_times_subtract_child_spans():
    tr = spans.Tracer()
    tr.spans = [
        [0, -1, "search", "pair", 0.0, 10.0, "j"],
        [1, 0, "entropy", "partition", 1.0, 4.0, "j"],
        [2, 0, "search", "get_full_mvds", 5.0, 9.0, "j"],
        [3, 2, "entropy", "reduce", 6.0, 7.0, "j"],
    ]
    own = spans.self_times(tr.spans)
    assert own["entropy"] == pytest.approx(4.0)
    assert own["search"] == pytest.approx(6.0)


def test_seed_only_renames_the_data():
    wl = harness.WORKLOADS["nursery_schemes"]
    a = harness.make_data(wl, wl.default_data_seed, 1)
    b = harness.make_data(wl, wl.default_data_seed, 2)
    assert not a.equals(b)
    ea, eb = LocalPLIEngine(a), LocalPLIEngine(b)
    for cols in (["A"], ["A", "I"], ["B", "E", "G", "I"], list(a.columns)):
        assert ea.entropy(cols) == pytest.approx(eb.entropy(cols), abs=1e-12)


def test_perturbed_m_eps_fails_the_digest_check():
    wl = harness.WORKLOADS["nursery_schemes"]
    engine = LocalPLIEngine(harness.make_data(wl, wl.default_data_seed, 7))
    out = harness.empty_outputs()
    harness.search_stage(engine, wl, harness.Job("t", False), spans.NullTracer(), out)
    expected = checks.load_expected()[wl.name]
    assert checks.digests(out)["mvds"] == expected["mvds"]

    richest = max(out["mvds"], key=lambda e: len(out["mvds"][e]))
    dropped = {**out["mvds"], richest: out["mvds"][richest][1:]}
    moved = {**out["mvds"], 0.0: out["mvds"][0.0] + out["mvds"][richest][:1]}
    for mvds in (dropped, moved):
        got = checks.digests({**out, "mvds": mvds})
        assert checks.digest_mismatches(got, expected)[0] == "mvds"


def run_benchmark(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_benchmark(str(tmp_path), "--workload", "nursery_schemes", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_exactly_the_declared_metrics(trace, kind):
    proc = run_benchmark(ROOT, "--workload", "nursery_schemes", "--seed", "1",
                         "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared(kind)


def test_thd_quantile_is_a_smooth_robust_median():
    assert harness.thd_quantile([3.0] * 7, 0.5) == pytest.approx(3.0)
    assert harness.thd_quantile(list(range(1, 10)), 0.5) == pytest.approx(5.0)
    # One sample crossing the gap moves the estimate a little, not by the gap.
    low = [1.0] * 50 + [10.0] * 51
    high = [1.0] * 51 + [10.0] * 50
    assert abs(harness.thd_quantile(low, 0.5) - harness.thd_quantile(high, 0.5)) < 9.0 / 4
    # The window leaves out the extremes of a few samples.
    assert harness.thd_quantile([1.0, 2.0, 3.0, 4.0, 100.0], 0.5) < 4.0
