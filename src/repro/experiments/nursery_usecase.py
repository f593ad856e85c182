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

import numpy as np
import pandas as pd

from repro import datasets
from repro.core.miner import MVDMiner
from repro.core.quality import cell_savings_pct, spurious_pct
from repro.core.schema_miner import enumerate_schemas
from repro.entropy.local_pli import LocalPLIEngine
from repro.experiments.common import write_markdown


def mine_nursery_schemas(
    *,
    thresholds: list[float],
    max_schemas_per_eps: int = 200,
    mine_deadline_s: float = 60.0,
    noise: float = 0.02,
) -> pd.DataFrame:
    """Union of schemas found across the threshold sweep, with J(S)."""
    pdf = datasets.nursery(noise=noise)
    engine = LocalPLIEngine(pdf)
    seen: dict[tuple, dict] = {}
    for eps in thresholds:
        miner = MVDMiner(engine, eps, deadline_s=mine_deadline_s)
        res = miner.mine()
        for schema in enumerate_schemas(
            res.full_mvds, engine.columns, max_schemas=max_schemas_per_eps
        ):
            if schema.bags not in seen:
                seen[schema.bags] = {
                    "schema": " / ".join("".join(sorted(b)) for b in schema.bags),
                    "n_relations": len(schema.bags),
                    "J": engine.j_tree(list(schema.tree.bags), list(schema.tree.edges)),
                    "found_at_eps": eps,
                }
    return pd.DataFrame(sorted(seen.values(), key=lambda r: r["J"]))


def run_nursery(
    spark,
    *,
    thresholds: list[float] | None = None,
    max_schemas_per_eps: int = 200,
    quality_cap: int = 40,
    noise: float = 0.02,
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Returns (all-schemes table with S and E, pareto-front table)."""
    if thresholds is None:
        # Most distinct schemes appear at small thresholds (the class
        # noise level); the grid is denser there, like the paper's sweep.
        thresholds = [0.0, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5]
    pdf = datasets.nursery(noise=noise)
    df = spark.createDataFrame(pdf)
    df.persist()
    n_rows = df.count()
    schemes = mine_nursery_schemas(
        thresholds=thresholds, max_schemas_per_eps=max_schemas_per_eps, noise=noise
    )
    # Quality for up to quality_cap schemes, stratified
    # across the J range so the S-vs-E cloud spans like Fig 11.
    if len(schemes) > quality_cap:
        idx = np.unique(np.linspace(0, len(schemes) - 1, quality_cap).astype(int))
        schemes = schemes.iloc[idx].copy()
    else:
        schemes = schemes.copy()
    sav, spur = [], []
    for bags_str in schemes["schema"]:
        bags = [frozenset(part) for part in bags_str.split(" / ")]
        sav.append(cell_savings_pct(df, bags, n_rows))
        spur.append(spurious_pct(df, bags, n_rows))
    schemes["savings_pct"] = np.round(sav, 2)
    schemes["spurious_pct"] = np.round(spur, 2)
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
