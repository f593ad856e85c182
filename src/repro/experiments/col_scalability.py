"""Sec. 8.3.2 / Fig 14: column scalability of minimal-separator mining.

All rows, 10%-100% of the columns, eps in {0, 0.01, 0.1}, a fixed time
limit per run; report the number of minimal separators discovered
within the limit (the paper's wide datasets, e.g. Voter State at 45
columns, time out while still reporting separators found). ``TL``
marks a deadline; ``complete`` is :attr:`MinerResult.complete`, which
these separator-only runs lose to the deadline alone, since the
separator test has no node budget.
"""
from __future__ import annotations

import pandas as pd

from repro import datasets
from repro.core.miner import MVDMiner
from repro.entropy.local_pli import LocalPLIEngine
from repro.experiments.common import EngineFactory, fmt_runtime, write_markdown

DATASETS = ("voter_state", "reflns")
FRACTIONS = (0.25, 0.5, 0.75, 1.0)
EPSILONS = (0.0, 0.01, 0.1)


def run_col_scalability(
    *,
    rows_cap: int = 2_000,
    per_run_timeout_s: float = 20.0,
    engine_factory: EngineFactory = LocalPLIEngine,
) -> pd.DataFrame:
    rows = []
    for name in DATASETS:
        full = datasets.load(name, rows_cap=rows_cap)
        for frac in FRACTIONS:
            pdf = datasets.take_cols(full, frac)
            for eps in EPSILONS:
                engine = engine_factory(pdf)
                miner = MVDMiner(engine, eps, deadline_s=per_run_timeout_s)
                res = miner.mine(minseps_only=True)
                rows.append(
                    {
                        "dataset": name,
                        "cols": len(pdf.columns),
                        "frac": frac,
                        "eps": eps,
                        "runtime_s": fmt_runtime(res.elapsed, res.timed_out),
                        "n_minseps": res.n_minseps,
                        "complete": res.complete,
                    }
                )
    df = pd.DataFrame(rows)
    write_markdown(df, "col_scalability", "Fig 14 — column scalability (minimal separators)")
    return df
