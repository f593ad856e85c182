"""Direct Spark implementation of the entropy formula, Eq. (5).

``H(X) = log2 N - (1/N) * sum over value groups of cnt * log2 cnt``,
computed as the paper's "simple SQL query"::

    SELECT X, count(*) * log2(count(*)) FROM R GROUP BY X

expressed as a Catalyst DataFrame aggregation. One Spark job per cache
miss; the memoization in :class:`~repro.entropy.base.EntropyEngine`
keeps repeated queries free.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.entropy.base import EntropyEngine


class SparkGroupByEntropyEngine(EntropyEngine):
    """Entropy oracle backed by ``groupBy``/``agg`` jobs on a cached DataFrame."""

    def __init__(self, df: DataFrame):
        # Its own frame, so close() unpersists this one and not the caller's.
        self.df = df.select(*df.columns)
        self.df.persist()
        super().__init__(tuple(df.columns), self.df.count())

    def _entropy(self, mask: int) -> float:
        # Stable projection order so plans (and shuffle keys) are deterministic.
        proj = [c for c in self.columns if mask >> self.bit[c] & 1]
        row = (
            self.df.groupBy(*proj)
            .agg(F.count(F.lit(1)).alias("cnt"))
            .agg(F.sum(F.col("cnt") * F.log2(F.col("cnt"))).alias("s"))
            .first()
        )
        s = row["s"] or 0.0
        return max(0.0, self.log2_n - s / self.n_rows)

    def close(self) -> None:
        self.df.unpersist()
