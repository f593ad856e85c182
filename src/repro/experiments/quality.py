"""Sec. 8.4 / Fig 15: quality of the generated acyclic schemes.

Per threshold: run the enumeration for a bounded window and report the
number of schemes, the maximum number of relations, and the minimum
width / intersection width over all schemes found. ``complete`` says
that mining finished within its window, and enumeration within its
window and short of ``MAX_SCHEMAS``; a cut enumeration keeps the schemes
found before it, and one that ends at exactly the cap reads as partial.
The paper's claim: larger thresholds yield more decomposed schemes (more
relations, smaller width).
"""
from __future__ import annotations

import pandas as pd

from repro import datasets
from repro.core.jointree import schema_int_width, schema_width
from repro.core.miner import DeadlineReached, MVDMiner
from repro.core.schema_miner import enumerate_schemas
from repro.entropy.local_pli import LocalPLIEngine
from repro.experiments.common import EngineFactory, write_markdown

DATASETS = ("image", "abalone", "adult", "breast_cancer")
THRESHOLDS = (0.0, 0.01, 0.05, 0.1, 0.3, 0.5)
MAX_SCHEMAS = 500


def run_quality(
    *,
    rows_cap: int = 1_000,
    mine_deadline_s: float = 20.0,
    enum_deadline_s: float = 10.0,
    engine_factory: EngineFactory = LocalPLIEngine,
) -> pd.DataFrame:
    rows = []
    for name in DATASETS:
        pdf = datasets.load(name, rows_cap=rows_cap, noise=0.03)
        engine = engine_factory(pdf)
        for eps in THRESHOLDS:
            miner = MVDMiner(engine, eps, deadline_s=mine_deadline_s)
            res = miner.mine()
            schemas, cut = [], False
            try:
                schemas.extend(
                    enumerate_schemas(
                        res.full_mvds,
                        engine.columns,
                        max_schemas=MAX_SCHEMAS,
                        deadline_s=enum_deadline_s,
                    )
                )
            except DeadlineReached:
                cut = True
            rows.append(
                {
                    "dataset": name,
                    "eps": eps,
                    "n_schemes": len(schemas),
                    "max_relations": max((s.n_relations for s in schemas), default=1),
                    "min_width": min(
                        (schema_width(s.bags) for s in schemas),
                        default=len(pdf.columns),
                    ),
                    "min_int_width": min(
                        (schema_int_width(s.bags) for s in schemas),
                        default=len(pdf.columns),
                    ),
                    "n_full_mvds": res.n_full_mvds,
                    "complete": res.complete and not cut and len(schemas) < MAX_SCHEMAS,
                }
            )
    df = pd.DataFrame(rows)
    write_markdown(df, "quality", "Fig 15 — quality of approximate schemas")
    return df
