"""Sec. 8.3.1 / Fig 13: minimal-separator mining time vs #rows.

The paper runs the three largest datasets (Image, Foursquare, Ditag
Feature) with all columns on 10%-100% row samples for eps in
{0, 0.01, 0.1}, and finds runtime mostly linear in rows. We reproduce
the sweep on the scaled analogs; runtime includes the engine build (the
data scan is the row-dependent part, exactly as in the paper's PLI
construction). ``TL`` marks a deadline only; ``complete`` is False when
a deadline or the node budget cut the run (see
:attr:`MinerResult.complete`).
"""
from __future__ import annotations

import time

import pandas as pd

from repro import datasets
from repro.core.miner import MVDMiner
from repro.entropy.local_pli import LocalPLIEngine
from repro.experiments.common import EngineFactory, fmt_runtime, write_markdown

DATASETS = ("image", "four_square", "ditag_feature")
EPSILONS = (0.0, 0.01, 0.1)


def run_row_scalability(
    *,
    fractions: tuple[float, ...] = (0.1, 0.25, 0.5, 0.75, 1.0),
    base_rows: int = 50_000,
    per_run_timeout_s: float = 60.0,
    engine_factory: EngineFactory = LocalPLIEngine,
) -> pd.DataFrame:
    """Minimal-separator mining time per (dataset, fraction, eps)."""
    rows = []
    for name in DATASETS:
        full = datasets.load(name, rows_cap=base_rows)
        for frac in fractions:
            pdf = datasets.sample_rows(full, frac)
            for eps in EPSILONS:
                t0 = time.monotonic()
                engine = engine_factory(pdf)
                build_s = time.monotonic() - t0
                miner = MVDMiner(engine, eps, deadline_s=per_run_timeout_s)
                res = miner.mine(minseps_only=True)
                rows.append(
                    {
                        "dataset": name,
                        "rows": len(pdf),
                        "frac": frac,
                        "eps": eps,
                        "runtime_s": fmt_runtime(build_s + res.elapsed, res.timed_out),
                        "n_minseps": res.n_minseps,
                        "complete": res.complete,
                    }
                )
    df = pd.DataFrame(rows)
    write_markdown(df, "row_scalability", "Fig 13 — row scalability (minimal separators)")
    return df
