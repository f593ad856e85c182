"""Sec. 8.2 / Fig 12: spurious-tuple percentage vs J-measure.

Generate all schemes with thresholds in [0, 0.5], bucket them by J(S),
and report quantiles of the spurious-tuple percentage per bucket. The
paper's claim, which we verify, is a consistent monotone relationship
between J and the spurious rate (with J = 0 iff 0% spurious).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro import datasets
from repro.core.quality import spurious_pct
from repro.entropy.local_pli import LocalPLIEngine
from repro.experiments.common import stratify, sweep_schemes, write_markdown

DATASETS = ("abalone", "breast_cancer", "echocardiogram", "bridges")
THRESHOLDS = (0.0, 0.05, 0.1, 0.2, 0.3, 0.5)
N_BUCKETS = 5


def run_accuracy(
    spark,
    *,
    rows_cap: int = 800,
    quality_cap: int = 30,
) -> pd.DataFrame:
    """Per dataset and J-bucket: #schemes and spurious-% quantiles;
    ``complete`` is False for a dataset whose sweep was partial at some
    threshold (see :func:`sweep_schemes`)."""
    rows = []
    for name in DATASETS:
        pdf = datasets.load(name, rows_cap=rows_cap, noise=0.03)
        swept, complete = sweep_schemes(
            LocalPLIEngine(pdf), THRESHOLDS, max_schemes=50, mine_deadline_s=30.0
        )
        schemes = stratify(swept, quality_cap)
        if not schemes:
            continue
        df = spark.createDataFrame(pdf)
        df.persist()
        n_rows = df.count()
        measured = [
            {"J": j, "spurious_pct": spurious_pct(df, schema.bags, n_rows)}
            for schema, j, _ in schemes
        ]
        df.unpersist()
        m = pd.DataFrame(measured)
        j_max = max(m["J"].max(), 1e-9)
        m["bucket"] = np.minimum((m["J"] / j_max * N_BUCKETS).astype(int), N_BUCKETS - 1)
        for b, grp in m.groupby("bucket"):
            rows.append(
                {
                    "dataset": name,
                    "J_bucket": f"[{b * j_max / N_BUCKETS:.3f}, {(b + 1) * j_max / N_BUCKETS:.3f})",
                    "n_schemes": len(grp),
                    "spurious_q25": round(grp["spurious_pct"].quantile(0.25), 2),
                    "spurious_median": round(grp["spurious_pct"].median(), 2),
                    "spurious_q75": round(grp["spurious_pct"].quantile(0.75), 2),
                    "complete": complete,
                }
            )
    out = pd.DataFrame(rows)
    write_markdown(out, "accuracy", "Fig 12 — spurious tuples (%) vs J-measure buckets")
    return out
