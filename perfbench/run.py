#!/usr/bin/env python3
"""Outside-in benchmark of the Maimon pipeline (see README.md).

Run from the repository root:

    python3 perfbench/run.py --workload nursery_schemes --seed 1 --seconds 34 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``attempted`` counts attribute pairs mined; ``failed`` counts the pairs a
deadline or a truncated search cut short. The run exits with code 1 when
an output check fails and 2 when the program sources are missing.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0, help="row order and value names")
    p.add_argument("--seconds", type=float, default=20.0, help="measuring window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--data-seed", type=int, default=None,
        help="generator seed; default: the Table 2 spec seed (Nursery: 0)",
    )
    p.add_argument(
        "--record-digests", action="store_true",
        help="store this run's output digests as the expected ones",
    )
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    t_process = time.perf_counter()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"program sources not found under {SRC}", file=sys.stderr)
        return 2
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Keep every temporary file of Python, the JVMs and Spark in the checkout.
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_LOCAL_DIRS"] = tmp
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ.setdefault("PYSPARK_PYTHON", sys.executable)
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)  # the session below sets its own
    sys.path.insert(0, SRC)

    import checks
    import harness
    import spans

    wl = harness.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}; one of {sorted(harness.WORKLOADS)}",
              file=sys.stderr)
        return 2
    data_seed = wl.default_data_seed if args.data_seed is None else args.data_seed
    default_data = data_seed == wl.default_data_seed
    if args.record_digests and not default_data:
        print("--record-digests needs the default data seed", file=sys.stderr)
        return 2
    stored = checks.load_expected()
    if default_data and not args.record_digests and wl.name not in stored:
        print(f"no stored digests for {wl.name}", file=sys.stderr)
        return 2

    st = harness.set_up(wl, data_seed, args.seed, tmp)
    try:
        tracer = spans.Tracer() if args.trace else spans.NullTracer()
        jobs = harness.run_jobs(st, wl, args.seconds, bool(args.trace), tracer, t_process)
        if args.record_digests:
            stored[wl.name] = checks.digests(jobs[0].outputs)
            with open(checks.DIGESTS_PATH, "w") as f:
                json.dump(stored, f, indent=2, sort_keys=True)
                f.write("\n")
        expected = stored[wl.name] if default_data else None
        problems = harness.check_run(st, jobs, expected, args.seed)
    finally:
        harness.stop_spark(st.spark)

    pairs_path = os.path.join(OUT, f"pairs-{wl.name}-seed{args.seed}.json")
    with open(pairs_path, "w") as f:
        json.dump([{"job_id": j.job_id, "traced": j.traced, "seconds": j.seconds,
                    "pair_s": j.pair_s} for j in jobs], f)
    attempted = sum(len(j.pair_s) for j in jobs)
    failed = sum(j.incomplete for j in jobs)
    e2e, tail = harness.end_to_end(jobs, st.seconds)
    if args.trace:
        metrics = harness.per_layer(jobs, tracer, tail)
        metrics["incomplete_pct"] = 100.0 * failed / attempted
        trace_path = os.path.join(OUT, f"trace-{wl.name}-seed{args.seed}.jsonl")
        tracer.write(trace_path)
        result = {k: {"value": v, "unit": harness.layer_unit(k)} for k, v in metrics.items()}
        print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
    else:
        result = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    print(f"workload {wl.name}: seed {args.seed}, data seed {data_seed}, "
          f"{len(jobs)} jobs ({sum(j.traced for j in jobs)} traced)")
    for k, m in result.items():
        print(f"  {k:28s} {m['value']:14.6g} {m['unit']}")
    print(f"  pair tail: p{tail['percentile']:g} of {tail['pairs']} pair means, "
          f"{tail['beyond']} beyond it")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
