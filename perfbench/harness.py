"""Workloads, jobs and metrics of the Maimon pipeline benchmark.

A job runs the four stages of the pipeline through the public API:

1. scan: ``LocalPLIEngine.from_spark`` on the persisted DataFrame;
2. search: ``MVDMiner.mine`` one attribute pair at a time, per threshold;
3. ASMiner: ``enumerate_schemas`` on each threshold's ``M_eps``;
4. quality: ``spurious_pct`` and ``cell_savings_pct`` on a sample of the
   schemes, stratified over their J-measure.

Every job starts from a fresh engine, so the entropy memo is cold. A run
sets up Spark and the data ``SETUP_REPEATS`` times, runs one warm-up job,
then runs jobs back to back for the measuring window (at least
``MIN_JOBS``), then checks every job's output, the warm-up's too. With
tracing on, untraced and traced jobs alternate after the warm-up;
end-to-end figures come from the untraced measured jobs only.
"""
from __future__ import annotations

import contextlib
import gc
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
import pandas as pd

import checks
import spans
from repro import datasets
from repro.core.miner import MVDMiner
from repro.core.quality import cell_savings_pct, spurious_pct
from repro.core.schema_miner import enumerate_schemas
from repro.entropy.local_pli import LocalPLIEngine

now = time.perf_counter

SETUP_REPEATS = 4
#: Measured jobs per run, at least; the warm-up job comes on top.
MIN_JOBS = 3
#: No job may be predicted to end later than this after the process
#: started, so that a run ends well inside three minutes.
JOB_CUTOFF_S = 120.0
#: Cooperative mining deadline of one job; pairs it cuts short count as
#: incomplete.
JOB_DEADLINE_S = 40.0
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str  # a datasets.TABLE2 name, or "nursery"
    rows_cap: int | None  # None for Nursery, which has a fixed size
    epsilons: tuple[float, ...]
    minseps_only: bool
    max_schemas: int | None  # ASMiner cap per threshold
    quality_sample: int  # schemes given E and S per job

    @property
    def default_data_seed(self) -> int:
        return 0 if self.dataset == "nursery" else datasets.spec(self.dataset).seed


#: Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("entropy_large_n", "image", 50_000, (0.0,), True, None, 0),
        Workload("nursery_schemes", "nursery", None, (0.0, 0.02, 0.05, 0.1, 0.3), False, 200, 2),
    )
}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------
def make_data(wl: Workload, data_seed: int, seed: int) -> pd.DataFrame:
    """The workload's relation, with rows shuffled and values renamed by
    ``seed``. Both leave every entropy, and so every output, unchanged."""
    if wl.dataset == "nursery":
        pdf = datasets.nursery(seed=data_seed)
    else:
        s = datasets.spec(wl.dataset)
        pdf = datasets.planted_relation(s.n_cols, min(s.paper_rows, wl.rows_cap), seed=data_seed)
    rng = np.random.default_rng(seed)
    renamed = {}
    for c in pdf.columns:
        uniq, inv = np.unique(pdf[c].to_numpy(), return_inverse=True)
        renamed[c] = rng.permutation(len(uniq))[inv]
    out = pd.DataFrame(renamed)
    return out.iloc[rng.permutation(len(out))].reset_index(drop=True)


def start_spark(tmp: str):
    from pyspark.sql import SparkSession

    k = min(4, os.cpu_count() or 1)
    return (
        SparkSession.builder.master(f"local[{k}]")
        .appName("perfbench")
        .config("spark.driver.memory", "2g")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.local.dir", tmp)
        .config("spark.sql.warehouse.dir", os.path.join(tmp, "warehouse"))
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        # The session settings of jobs/_session.py.
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


@dataclass
class Setup:
    spark: object
    pdf: pd.DataFrame
    df: object
    n_rows: int
    seconds: list[float]


def set_up(wl: Workload, data_seed: int, seed: int, tmp: str) -> Setup:
    """Spark start, data generation and createDataFrame+persist, timed
    ``SETUP_REPEATS`` times; the last session is kept."""
    seconds: list[float] = []
    st = None
    for _ in range(SETUP_REPEATS):
        if st is not None:
            st.df.unpersist()
            st.spark.stop()
        t0 = now()
        spark = start_spark(tmp)
        pdf = make_data(wl, data_seed, seed)
        df = spark.createDataFrame(pdf).persist()
        n_rows = df.count()
        seconds.append(now() - t0)
        st = Setup(spark, pdf, df, n_rows, seconds)
        log(f"setup: {seconds[-1]:.3f} s")
    return st


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway server exits on EOF
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------
def reset_peak_rss() -> None:
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")  # resets VmHWM to the current RSS
    except OSError:
        pass  # VmHWM then reads the process-lifetime peak


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class TruncationWatch:
    """Counts ``get_full_mvds`` searches that hit ``max_nodes_per_search``.

    The miner stops such a search silently; its node counter then rises
    by more than the budget within one call.
    """

    def __init__(self, miner: MVDMiner):
        self.count = 0
        inner = miner.get_full_mvds

        def watched(*args, **kwargs):
            before = miner.nodes_explored
            try:
                return inner(*args, **kwargs)
            finally:
                if miner.nodes_explored - before > miner.max_nodes:
                    self.count += 1

        miner.get_full_mvds = watched

    def take(self) -> int:
        n, self.count = self.count, 0
        return n


@dataclass
class Job:
    job_id: str
    traced: bool
    seconds: float = 0.0
    pair_s: list[float] = field(default_factory=list)
    incomplete: int = 0
    truncated: int = 0
    nodes: int = 0
    peak_rss_mb: float = 0.0
    scan_jobs: int = 0
    quality_jobs: int = 0
    entropy: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)


def _spark_jobs(sc, group: str) -> int:
    return len(sc.statusTracker().getJobIdsForGroup(group))


def empty_outputs() -> dict:
    return {"mvds": {}, "minseps": {}, "schemas": {}, "quality": []}


def search_stage(engine, wl: Workload, job: Job, tracer, out: dict) -> None:
    """Mine each threshold one attribute pair at a time, then run ASMiner
    on its ``M_eps``; fills ``out`` and the job's search figures."""
    pairs = list(combinations(sorted(engine.columns), 2))
    deadline_at = now() + JOB_DEADLINE_S
    for eps in wl.epsilons:
        miner = MVDMiner(engine, eps, deadline_s=max(0.0, deadline_at - now()))
        watch = TruncationWatch(miner)
        if isinstance(tracer, spans.Tracer):
            spans.instrument_miner(tracer, miner)
        mvds: dict = {}  # insertion-ordered set
        seps: dict = {}
        for pair in pairs:
            tp = now()
            with tracer.span("search", "pair"):
                res = miner.mine([pair], minseps_only=wl.minseps_only)
            job.pair_s.append(now() - tp)
            cut = watch.take()
            job.truncated += cut
            job.incomplete += bool(cut or res.timed_out)
            seps[pair] = res.minseps.get(pair, [])
            mvds.update(dict.fromkeys(res.full_mvds))
        job.nodes += miner.nodes_explored
        with tracer.span("asminer", "enumerate"):
            found = list(enumerate_schemas(list(mvds), engine.columns, max_schemas=wl.max_schemas))
        out["mvds"][eps] = list(mvds)
        out["minseps"][eps] = seps
        out["schemas"][eps] = [s.bags for s in found]


def run_job(st: Setup, wl: Workload, job_id: str, tracer) -> Job:
    traced = isinstance(tracer, spans.Tracer)
    job = Job(job_id, traced)
    sc = st.spark.sparkContext
    out = empty_outputs()
    if traced:
        tracer.job_id = job_id
        tracer.counters.clear()
    hooks = spans.module_hooks(tracer) if traced else contextlib.nullcontext()
    gc.collect()  # the previous job's engine sits in reference cycles
    reset_peak_rss()
    with hooks:
        t0 = now()
        with tracer.span("job", "job"):
            sc.setJobGroup(f"{job_id}-scan", "scan")
            with tracer.span("scan", "scan"):
                engine = LocalPLIEngine.from_spark(st.df)
            sc.setJobGroup(f"{job_id}-search", "search")  # closes the scan group
            if traced:
                spans.instrument_engine(tracer, engine)
            search_stage(engine, wl, job, tracer, out)
            if wl.quality_sample:
                sc.setJobGroup(f"{job_id}-quality", "quality")
                with tracer.span("quality", "sample"):
                    sample = stratified_sample(engine, out["schemas"], wl.quality_sample)
                for bags in sample:
                    with tracer.span("quality", "spurious"):
                        e = spurious_pct(st.df, bags, st.n_rows)
                    with tracer.span("quality", "savings"):
                        s = cell_savings_pct(st.df, bags, st.n_rows)
                    out["quality"].append((bags, e, s))
        job.seconds = now() - t0
    job.peak_rss_mb = peak_rss_mb()
    job.scan_jobs = _spark_jobs(sc, f"{job_id}-scan")
    job.quality_jobs = _spark_jobs(sc, f"{job_id}-quality")
    job.entropy = engine.cache_info()
    job.counters = dict(tracer.counters) if traced else {}
    job.outputs = out
    return job


def stratified_sample(engine, schemas: dict, k: int) -> list[tuple[frozenset, ...]]:
    """``k`` distinct schemes spread evenly over the J-measure range."""
    pool: dict = {}
    for found in schemas.values():
        for bags in found:
            if bags not in pool:
                pool[bags] = engine.j_schema(bags)
    ranked = sorted(pool, key=lambda b: (round(pool[b], 9), checks.schema_str(b)))
    if len(ranked) <= k:
        return ranked
    return [ranked[i] for i in np.unique(np.linspace(0, len(ranked) - 1, k).astype(int))]


def run_jobs(st: Setup, wl: Workload, seconds: float, trace: bool, tracer, t_process: float):
    """A warm-up job, then measured jobs back to back while the next one
    still fits in ``seconds`` (at least ``MIN_JOBS``); with ``trace``
    every second measured job is traced.

    The first job of a process pays one-off costs, such as the first
    compile of each Spark join plan and the first touch of the partition
    cache's memory. It is the warm-up: its output is checked like every
    other job's, but no metric counts it.
    """
    jobs = [run_job(st, wl, "job0", spans.NullTracer())]
    log(f"job0: {jobs[0].seconds:.3f} s warm-up")
    t0 = now()
    while len(jobs) <= MIN_JOBS or (
        now() - t0 + jobs[-1].seconds <= seconds
        and now() - t_process + jobs[-1].seconds <= JOB_CUTOFF_S
    ):
        traced = trace and len(jobs) % 2 == 0
        job = run_job(st, wl, f"job{len(jobs)}", tracer if traced else spans.NullTracer())
        log(f"{job.job_id}: {job.seconds:.3f} s{' traced' if traced else ''}, "
            f"peak RSS {job.peak_rss_mb:.0f} MB, {job.incomplete} incomplete pairs")
        jobs.append(job)
    return jobs


def measured(jobs: list[Job]) -> list[Job]:
    """The untraced jobs after the warm-up."""
    return [j for j in jobs[1:] if not j.traced]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten of ``n`` samples beyond it."""
    ok = [q for q in TAIL_LADDER if n * (1 - q / 100) >= 10]
    return ok[-1] if ok else TAIL_LADDER[0]


def thd_quantile(values, q: float) -> float:
    """Trimmed Harrell-Davis estimate of the ``q`` quantile of ``values``.

    It is a weighted mean of the order statistics, weighted by the
    Beta((n+1)q, (n+1)(1-q)) distribution cut to a window of width
    1/sqrt(n) around its mode. Where the samples have a gap, a single
    order statistic jumps across it when two samples trade places; this
    estimate moves smoothly instead. The window keeps the few slowest
    pairs, which are seconds long, out of a percentile of milliseconds.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    a, b = q * (n + 1), (1 - q) * (n + 1)
    grid = 100_000
    t = (np.arange(grid) + 0.5) / grid
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))])
    cdf /= cdf[-1]
    width = 1 / np.sqrt(n)
    mode = min(max((a - 1) / (a + b - 2), 0.0), 1.0)
    lo = min(max(mode - width / 2, 0.0), 1.0 - width)
    edges = np.clip(np.arange(n + 1) / n, lo, lo + width)
    weights = np.diff(np.interp(edges, np.arange(grid + 1) / grid, cdf))
    return float(weights @ x / weights.sum())


def pair_means_ms(jobs: list[Job]) -> list[float]:
    """Latency of each attribute pair and threshold, averaged over ``jobs``.

    Every job mines the same pairs in the same order, and the pairs of one
    threshold run back to back. A brief change in machine speed therefore
    moves a whole block of similar pairs in one job; averaging each pair
    over the jobs first keeps such a block from carrying a percentile.
    """
    return [1000 * statistics.fmean(s) for s in zip(*(j.pair_s for j in jobs))]


def end_to_end(jobs: list[Job], setup_s: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics over the measured jobs, and the tail's details.

    ``job_s`` and the pair latencies are trimmed Harrell-Davis estimates; the
    pair latencies are taken over ``pair_means_ms``. The tail percentile
    is fixed per workload from the pair calls of two jobs, so it names
    the same percentile in every run.
    """
    plain = measured(jobs)
    pair_ms = pair_means_ms(plain)
    q = tail_percentile(len(pair_ms) * 2)
    tail = thd_quantile(pair_ms, q / 100)
    metrics = {
        "job_s": (thd_quantile([j.seconds for j in plain], 0.5), "s"),
        "pair_p50_ms": (thd_quantile(pair_ms, 0.5), "ms"),
        "pair_tail_ms": (tail, "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (statistics.median(j.peak_rss_mb for j in plain), "MB"),
    }
    detail = {
        "percentile": q,
        "pairs": len(pair_ms),
        "beyond": sum(1 for v in pair_ms if v > tail),
    }
    return metrics, detail


def job_layers(job: Job, job_spans: list[list]) -> dict[str, float]:
    """Per-layer figures of one traced job."""
    own = spans.self_times(job_spans)
    sec = lambda layer, name: spans.span_seconds(job_spans, layer, name)[0]  # noqa: E731
    c = job.counters
    calls, comps = job.entropy["calls"], job.entropy["computations"]
    n_schemas = sum(len(v) for v in job.outputs["schemas"].values())
    n_quality = len(job.outputs["quality"])
    quality_s = sum(sec("quality", n) for n in ("sample", "spurious", "savings"))
    return {
        "scan.s": sec("scan", "scan"),
        "scan.spark_jobs": job.scan_jobs,
        "entropy.calls": calls,
        "entropy.computations": comps,
        "entropy.hit_ratio": 1 - comps / calls if calls else 0.0,
        "entropy.partition_s": sec("entropy", "partition"),
        "entropy.reduce_s": sec("entropy", "reduce"),
        "entropy.mutual_info_calls": c.get("mutual_info", 0),
        "entropy.self_s": own["entropy"],
        "search.pairs": len(job.pair_s),
        "search.separator_tests": c.get("separator_tests", 0),
        "search.full_mvd_searches": spans.span_seconds(job_spans, "search", "get_full_mvds")[1],
        "search.nodes_explored": job.nodes,
        "search.truncated_searches": job.truncated,
        "search.transversal_s": sec("search", "transversal"),
        "search.transversal_calls": c.get("transversal_calls", 0),
        "search.reduce_min_sep_s": sec("search", "reduce_min_sep"),
        "search.get_full_mvds_s": sec("search", "get_full_mvds"),
        "search.self_s": own["search"],
        "asminer.s": sec("asminer", "enumerate"),
        "asminer.compat_tests": c.get("compat_tests", 0),
        "asminer.mis_enumerated": c.get("mis_enumerated", 0),
        "asminer.schemas": n_schemas,
        "asminer.useful_ratio": n_schemas / c["mis_enumerated"] if c.get("mis_enumerated") else 0.0,
        "asminer.build_s": sec("asminer", "build"),
        "asminer.self_s": own["asminer"],
        "quality.schemas": n_quality,
        "quality.s_per_schema": quality_s / n_quality if n_quality else 0.0,
        "quality.spurious_s": sec("quality", "spurious"),
        "quality.savings_s": sec("quality", "savings"),
        "quality.spark_jobs": job.quality_jobs,
        "quality.self_s": own["quality"],
    }


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    last = name.rsplit(".", 1)[-1]
    if last == "s" or last.endswith("_s") or last == "s_per_schema":
        return "s"
    return {"incomplete_pct": "%", "hit_ratio": "ratio", "useful_ratio": "ratio",
            "percentile": "percentile"}.get(last, "count")


def per_layer(jobs: list[Job], tracer, tail: dict) -> dict[str, float]:
    """Per-layer metrics: the median over traced jobs of each figure,
    plus the tracing overhead and the tail's details. The caller adds
    ``incomplete_pct``, which counts every job of the run."""
    traced = [j for j in jobs if j.traced]
    plain = measured(jobs)
    per_job = [job_layers(j, tracer.job_spans(j.job_id)) for j in traced]
    out = {k: statistics.median(d[k] for d in per_job) for k in per_job[0]}
    traced_s = statistics.median(j.seconds for j in traced)
    out.update(
        {
            "trace.job_s": traced_s,
            "trace.overhead_s": traced_s - statistics.median(j.seconds for j in plain),
            "trace.spans_per_job": len(tracer.spans) / len(traced),
            "pair_tail.percentile": tail["percentile"],
            "pair_tail.pairs_beyond": tail["beyond"],
        }
    )
    return out


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------
def check_run(st: Setup, jobs: list[Job], expected: dict | None, seed: int) -> list[str]:
    """Every problem found in the run's outputs; empty when all hold."""
    problems = []
    got = [checks.digests(j.outputs) for j in jobs]
    for j, d in zip(jobs, got):
        ref = expected if expected is not None else got[0]
        bad = checks.digest_mismatches(d, ref)
        if bad:
            problems.append(f"{j.job_id}: digest mismatch in {', '.join(bad)}")
    last = jobs[-1].outputs
    problems += checks.recheck_outputs(st.pdf, last, seed)
    if last["quality"]:
        bags, e, _ = last["quality"][seed % len(last["quality"])]
        e_duck = checks.duckdb_spurious_pct(st.pdf, bags)
        if abs(e_duck - e) > 1e-9:
            problems.append(f"E({checks.schema_str(bags)}): Spark {e!r} != DuckDB {e_duck!r}")
    return problems


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)
