"""Appendix Sec. 14.1 / Fig 18: from minimal separators to full MVDs.

For each threshold: mine the minimal separators per attribute pair,
then collect the full MVDs of every separator within a bounded window,
from one getFullMVDs search per key shared by the pairs it separates
(:meth:`MVDMiner.shared_full_mvds`); report #minimal separators, #full
MVDs, and the generation rate. The paper's observations, which we
check: at eps = 0 the counts coincide; the gap grows with the
threshold; rates reach tens of full MVDs per second. ``complete`` is
phase 1's (see :attr:`MinerResult.complete`); the phase-2 window is cut
by design, so ``n_minseps_done`` counts the separators whose full MVDs
phase 2 got before it, and the eps = 0 check compares the full MVDs
with those.
"""
from __future__ import annotations

import time

import pandas as pd

from repro import datasets
from repro.core.miner import DeadlineReached, MVDMiner
from repro.entropy.local_pli import LocalPLIEngine
from repro.experiments.common import EngineFactory, write_markdown

DATASETS = ("hepatitis", "echocardiogram", "bridges", "school_results")


def run_fullmvds(
    *,
    thresholds: tuple[float, ...] = (0.0, 0.01, 0.05, 0.1, 0.3, 0.5),
    rows_cap: int = 400,
    minsep_deadline_s: float = 20.0,
    window_s: float = 10.0,
    engine_factory: EngineFactory = LocalPLIEngine,
) -> pd.DataFrame:
    rows = []
    for name in DATASETS:
        pdf = datasets.load(name, rows_cap=rows_cap, noise=0.03)
        engine = engine_factory(pdf)
        for eps in thresholds:
            # A deadline leaves partial separators; they still feed phase 2.
            phase1 = MVDMiner(engine, eps, deadline_s=minsep_deadline_s).mine(minseps_only=True)
            minseps = phase1.minseps
            n_seps = len({x for seps in minseps.values() for x in seps})
            # Phase 2 only is timed (the paper's Fig 18 excludes minsep time).
            phase2 = MVDMiner(engine, eps, deadline_s=window_s)
            t0 = time.monotonic()
            found, done = set(), set()
            try:
                for (a, b), seps in minseps.items():
                    for x in seps:
                        found.update(phase2.shared_full_mvds(engine.mask(x), engine.mask((a, b))))
                        done.add(x)
            except DeadlineReached:
                pass
            dt = time.monotonic() - t0
            rows.append(
                {
                    "dataset": name,
                    "eps": eps,
                    "n_minseps": n_seps,
                    "n_minseps_done": len(done),
                    "n_full_mvds": len(found),
                    "window_s": round(dt, 2),
                    "rate_per_s": round(len(found) / dt, 1) if dt > 0 else float("inf"),
                    "complete": phase1.complete,
                }
            )
    df = pd.DataFrame(rows)
    write_markdown(df, "fullmvds", "Fig 18 — minimal separators to full MVDs")
    return df
