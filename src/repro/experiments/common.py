"""Shared plumbing for the evaluation-section reproductions (Sec. 8).

Each experiment module exposes ``run_*`` functions that return a pandas
DataFrame shaped like the paper's table/figure data, and can write it as
a markdown table under ``results/``. Engine construction is pluggable:
benchmarks use the driver-side PLI engine on generated pandas frames;
``jobs/`` route the scan through Spark (``LocalPLIEngine.from_spark``).
The scheme experiments (Figs 10-12) share one threshold sweep,
:func:`sweep_schemes`, and one sampler over its J-ordered output,
:func:`stratify`.
"""
from __future__ import annotations

import os
from typing import Callable, Sequence

import numpy as np
import pandas as pd

from repro.core.miner import MVDMiner
from repro.core.schema_miner import MinedSchema, enumerate_schemas
from repro.entropy.base import EntropyEngine
from repro.entropy.local_pli import LocalPLIEngine

EngineFactory = Callable[[pd.DataFrame], EntropyEngine]


def spark_engine_factory(spark) -> EngineFactory:
    """Engine factory that routes the input scan through Spark."""

    def make(pdf: pd.DataFrame) -> EntropyEngine:
        return LocalPLIEngine.from_spark(spark.createDataFrame(pdf))

    return make


def sweep_schemes(
    engine: EntropyEngine,
    thresholds: Sequence[float],
    *,
    max_schemes: int,
    mine_deadline_s: float,
) -> tuple[list[tuple[MinedSchema, float, float]], bool]:
    """The distinct schemes ASMiner finds over the threshold sweep (at
    most ``max_schemes`` per threshold), as (schema, J, first threshold
    that found it), by ascending J; and whether every threshold is
    complete: mining completed (see :attr:`MinerResult.complete`) and
    ASMiner stopped short of ``max_schemes``. An enumeration that ends at
    exactly the cap reads as partial."""
    seen: dict[tuple[frozenset, ...], tuple[MinedSchema, float, float]] = {}
    complete = True
    for eps in thresholds:
        res = MVDMiner(engine, eps, deadline_s=mine_deadline_s).mine()
        found = list(enumerate_schemas(res.full_mvds, engine.columns, max_schemas=max_schemes))
        complete &= res.complete and len(found) < max_schemes
        for schema in found:
            if schema.bags not in seen:
                j = engine.j_tree(list(schema.tree.bags), list(schema.tree.edges))
                seen[schema.bags] = (schema, j, eps)
    return sorted(seen.values(), key=lambda s: s[1]), complete


def stratify(items: Sequence, cap: int) -> list:
    """At most ``cap`` of ``items``, evenly spaced over the sequence, so a
    sample of J-ordered schemes spans the whole J range."""
    if len(items) <= cap:
        return list(items)
    return [items[i] for i in np.unique(np.linspace(0, len(items) - 1, cap).astype(int))]


def results_dir() -> str:
    d = os.environ.get("REPRO_RESULTS_DIR", os.path.join(os.getcwd(), "results"))
    os.makedirs(d, exist_ok=True)
    return d


def to_markdown(df: pd.DataFrame) -> str:
    """Plain markdown table (``tabulate`` is unavailable offline)."""
    cols = [str(c) for c in df.columns]
    lines = ["| " + " | ".join(cols) + " |", "|" + "|".join("---" for _ in cols) + "|"]
    for _, row in df.iterrows():
        lines.append("| " + " | ".join(str(v) for v in row) + " |")
    return "\n".join(lines)


def write_markdown(df: pd.DataFrame, name: str, title: str) -> str:
    """Write a results table as markdown; returns the path."""
    path = os.path.join(results_dir(), f"{name}.md")
    with open(path, "w") as f:
        f.write(f"# {title}\n\n")
        f.write(to_markdown(df))
        f.write("\n")
    return path


def fmt_runtime(elapsed: float, timed_out: bool) -> str:
    """Paper-style runtime cell: seconds, or 'TL' when the limit hit."""
    return "TL" if timed_out else f"{elapsed:.2f}"
