"""Schema quality metrics used by the evaluation (Sec. 8.1, 8.2, 8.4).

- ``spurious_pct``: E = (|join of bag projections| - |R|) / |R| * 100.
  Only the size of the acyclic join is needed, so it is counted, not
  materialized: weights propagate bottom-up over the join tree, whose
  parent-first edges are walked in reverse (Yannakakis, VLDB 1981;
  Abo Khamis, Ngo, Rudra, "FAQ", PODS 2016).
- ``cell_savings_pct``: S = (cells(R) - sum cells(R[bag])) / cells(R),
  with cells = #rows * #columns of the distinct projections (Sec. 8.1).
- ``schema_width`` / ``schema_int_width`` / #relations (Sec. 8.4) live
  in :mod:`repro.core.jointree`.

Both metrics collect the relation to the driver once and work on pandas
frames there. ``R`` is a set of tuples (the paper's relations are
sets), so ``|R|`` defaults to the number of distinct rows. NULL is one
value in grouping and joining, as in the entropy engines.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.jointree import JoinTree, build_join_tree

_INT64_MAX = np.iinfo(np.int64).max
# Labels of the weight columns. Spark column names are strings, so
# integer labels never clash with an attribute.
_WEIGHT, _MESSAGE = 0, 1


def _distinct_projections(
    df: DataFrame, bags: Sequence[frozenset]
) -> Iterator[pd.DataFrame]:
    """Each bag's distinct projection, from one collect of ``df``. A
    schema covers every column of the relation it decomposes, so a
    ``select`` of the bags' columns first would only add a Spark plan."""
    pdf = df.toPandas()
    for bag in bags:
        yield pdf[sorted(bag)].drop_duplicates(ignore_index=True)


def _checked_sum(w: pd.Series) -> int:
    """Exact sum of non-negative int64 counts; raises instead of wrapping.

    A running sum of values <= 2**63 - 1 turns negative at its first
    overflow, so a negative prefix sum detects every overflow.
    """
    if (np.cumsum(w.to_numpy()) < 0).any():
        raise OverflowError("join size exceeds 2**63 - 1")
    return int(w.sum())


def _checked_mul(a: pd.Series, b: pd.Series | int) -> np.ndarray:
    """Elementwise product of non-negative int64 counts; raises instead
    of wrapping."""
    a, b = a.to_numpy(), np.asarray(b, dtype=np.int64)
    if np.any(a > _INT64_MAX // np.maximum(b, 1)):
        raise OverflowError("join size exceeds 2**63 - 1")
    return a * b


def _join_size(tree: JoinTree, frames: list[pd.DataFrame]) -> int:
    """|R[bag_1] |><| ... |><| R[bag_m]| by count propagation, leaves first
    (the tree's edges in reverse).

    A bag tuple's weight is the number of join tuples of its subtree that
    extend it. A child sends its parent the sum of its weights per
    separator value; the parent multiplies them in, and tuples without a
    partner drop out. An empty separator sends one scalar. Every
    intermediate weight is at most the join size, because all bags
    project one relation, so a join size below 2**63 never overflows.
    """
    for f in frames:
        f[_WEIGHT] = np.ones(len(f), dtype=np.int64)
    for p, c in reversed(tree.edges):
        sep = sorted(tree.bags[c] & tree.bags[p])
        # Each per-separator sum is at most the total, so no sum below wraps.
        total = _checked_sum(frames[c][_WEIGHT])
        if not sep:
            frames[p][_WEIGHT] = _checked_mul(frames[p][_WEIGHT], total)
            continue
        msg = (
            frames[c].groupby(sep, dropna=False, sort=False)[_WEIGHT].sum()
            .rename(_MESSAGE).reset_index()
        )
        # Grouping turns an all-NULL object key into float64 NaN, which
        # pandas will not merge with the parent's object column.
        msg = msg.astype(frames[p][sep].dtypes.to_dict())
        merged = frames[p].merge(msg, on=sep)
        merged[_WEIGHT] = _checked_mul(merged[_WEIGHT], merged.pop(_MESSAGE))
        frames[p] = merged
    return _checked_sum(frames[0][_WEIGHT])


def spurious_pct(df: DataFrame, bags: Iterable[Iterable[str]], n_rows: int | None = None) -> float:
    """Percentage of spurious tuples E of the decomposition (Sec. 8.1)."""
    tree = build_join_tree(bags)
    if tree is None:
        raise ValueError("schema is not acyclic")
    if n_rows is None:
        n_rows = df.distinct().count()
    join_count = _join_size(tree, list(_distinct_projections(df, tree.bags)))
    return 100.0 * (join_count - n_rows) / n_rows


def cell_savings_pct(df: DataFrame, bags: Iterable[Iterable[str]], n_rows: int | None = None) -> float:
    """Percentage of cells saved by storing projections instead of R."""
    bags = [frozenset(b) for b in bags]
    if n_rows is None:
        n_rows = df.distinct().count()
    orig = n_rows * len(df.columns)
    dec = sum(len(p) * len(b) for p, b in zip(_distinct_projections(df, bags), bags))
    return 100.0 * (orig - dec) / orig
