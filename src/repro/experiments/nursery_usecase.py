"""Sec. 8.1 / Figs 10-11: the Nursery use case.

Sweep the threshold from 0 to 0.5, enumerate acyclic schemes, and for
each report its J-measure, storage savings S and spurious-tuple rate E,
then extract the pareto-optimal schemes (the paper's Fig 10 shows the
ten pareto schemes; Fig 11 the full S-vs-E cloud of 415 schemes).
Spurious tuples and savings are computed on the driver from one collect
of each scheme's columns; the join is counted over the join tree, not
materialized (see core.quality).
"""
from __future__ import annotations

import pandas as pd

from repro import datasets
from repro.core.quality import cell_savings_pct, spurious_pct
from repro.entropy.local_pli import LocalPLIEngine
from repro.experiments.common import stratify, sweep_schemes, write_markdown


def run_nursery(
    spark,
    *,
    thresholds: list[float] | None = None,
    max_schemas_per_eps: int = 200,
    quality_cap: int = 40,
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Returns (all-schemes table with S and E, pareto-front table);
    ``complete`` is False if a deadline cut mining at some threshold."""
    if thresholds is None:
        # Most distinct schemes appear at small thresholds (the class
        # noise level); the grid is denser there, like the paper's sweep.
        thresholds = [0.0, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5]
    pdf = datasets.nursery()
    df = spark.createDataFrame(pdf)
    df.persist()
    n_rows = df.count()
    swept, complete = sweep_schemes(
        LocalPLIEngine(pdf), thresholds, max_schemes=max_schemas_per_eps,
        mine_deadline_s=60.0,
    )
    # Quality for up to quality_cap schemes, stratified
    # across the J range so the S-vs-E cloud spans like Fig 11.
    schemes = pd.DataFrame(
        {
            "schema": " / ".join("".join(sorted(b)) for b in s.bags),
            "n_relations": s.n_relations,
            "J": j,
            "found_at_eps": eps,
            "savings_pct": cell_savings_pct(df, s.bags, n_rows),
            "spurious_pct": spurious_pct(df, s.bags, n_rows),
            "complete": complete,
        }
        for s, j, eps in stratify(swept, quality_cap)
    ).round({"savings_pct": 2, "spurious_pct": 2})
    df.unpersist()

    pareto = _pareto(schemes)
    write_markdown(
        schemes, "nursery_schemes", "Fig 11 — Nursery schemes: J, savings S, spurious E"
    )
    write_markdown(pareto, "nursery_pareto", "Fig 10 — Nursery pareto-optimal schemes")
    return schemes, pareto


def _pareto(schemes: pd.DataFrame) -> pd.DataFrame:
    """Schemes whose (savings up, spurious down) is not dominated."""
    rows = []
    for _, r in schemes.iterrows():
        dominated = (
            (schemes["savings_pct"] >= r["savings_pct"])
            & (schemes["spurious_pct"] <= r["spurious_pct"])
            & (
                (schemes["savings_pct"] > r["savings_pct"])
                | (schemes["spurious_pct"] < r["spurious_pct"])
            )
        ).any()
        if not dominated:
            rows.append(r)
    return pd.DataFrame(rows).sort_values("spurious_pct").reset_index(drop=True)
