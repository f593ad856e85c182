"""Spark entropy engines vs the local reference, plus the DuckDB oracle
check of the Eq. (5) aggregation query itself."""
from itertools import combinations

import numpy as np
import pandas as pd
import pytest

import repro.entropy.local_pli as local_pli
from repro.entropy.local_pli import LocalPLIEngine
from repro.entropy.spark_groupby import SparkGroupByEntropyEngine
from repro.oracle import assert_equivalent
from tests.helpers import COMBINE_KERNELS, naive_entropy, random_relation

QUERIES = ["A", "B", "AB", "CD", "ABC", "ACD", "ABCD"]


@pytest.fixture(scope="module")
def data(spark):
    pdf = random_relation(300, "ABCD", 3, 42)
    df = spark.createDataFrame(pdf)
    df.persist()
    df.count()
    yield pdf, df
    df.unpersist()


@pytest.fixture(scope="module")
def gb_engine(data):
    _, df = data
    eng = SparkGroupByEntropyEngine(df)
    yield eng
    eng.close()


@pytest.mark.parametrize("cols", QUERIES)
def test_groupby_engine_matches_local(data, gb_engine, cols):
    pdf, _ = data
    local = LocalPLIEngine(pdf)
    assert gb_engine.entropy(cols) == pytest.approx(local.entropy(cols), abs=1e-9)


def test_from_spark_equals_from_pandas(data):
    pdf, df = data
    a = LocalPLIEngine.from_spark(df)
    b = LocalPLIEngine(pdf)
    for cols in ["AB", "ABCD"]:
        assert a.entropy(cols) == pytest.approx(b.entropy(cols), abs=1e-9)


def test_groupby_aggregation_oracle(spark, data):
    """The grouped count*log2(count) frame -- the paper's SQL query --
    checked row-by-row against DuckDB."""
    from pyspark.sql import functions as F

    pdf, df = data
    got = (
        df.groupBy("A", "B")
        .agg(F.count(F.lit(1)).alias("cnt"))
        .select(
            F.col("A").alias("a"),
            F.col("B").alias("b"),
            (F.col("cnt") * F.log2(F.col("cnt"))).alias("clogc"),
        )
    )
    assert_equivalent(
        got,
        """
        SELECT A AS a, B AS b,
               count(*) * log2(count(*)) AS clogc
        FROM r GROUP BY A, B
        """,
        r=pdf,
    )


def test_entropy_stats_track_cache(gb_engine):
    before = gb_engine.entropy_computations
    gb_engine.entropy("AB")
    gb_engine.entropy("BA")
    assert gb_engine.entropy_computations <= before + 1


def _edge_relations() -> dict[str, pd.DataFrame]:
    dup = random_relation(40, "ABC", 3, 7)
    return {
        "nan": pd.DataFrame(
            {"A": [1.0, np.nan, np.nan, 2.0, 1.0, np.nan], "B": [1, 1, 2, 2, 1, 1],
             "C": [np.nan, np.nan, 0.5, 0.5, np.nan, 0.5]}
        ),
        "none": pd.DataFrame(
            {"A": ["x", None, None, "y", "x", None], "B": [1, 1, 2, 2, 1, 1],
             "C": [None, "u", "u", None, None, "u"]}
        ),
        "none_and_nan": pd.DataFrame(
            {"A": [1.0, None, np.nan, 2.0, 1.0, None], "B": [1, 1, 2, 2, 1, 1]},
            dtype=object,
        ),
        "duplicated_rows": pd.concat([dup, dup, dup.iloc[:5]], ignore_index=True),
        "identical_rows": pd.DataFrame({"A": [3] * 5, "B": ["v"] * 5}),
        "one_row": pd.DataFrame({"A": [1], "B": ["x"], "C": [2.5]}),
        "one_column": pd.DataFrame({"A": [1, 1, 2, 3, 3, 3]}),
        # Joined with \x1f, rows 0 and 1 would both read "a\x1fb\x1fc".
        "separator": pd.DataFrame(
            {"A": ["a\x1fb", "a", "a\x1fb", "a", "a\x1f"],
             "B": ["c", "b\x1fc", "c", "b\x1fc", "\x1fb"]}
        ),
    }


EDGE_RELATIONS = _edge_relations()


@pytest.mark.parametrize("name", sorted(EDGE_RELATIONS))
def test_engines_agree_on_nulls_duplicates_and_degenerate_shapes(spark, monkeypatch, name):
    """Local PLI (both kernels), Spark groupBy and direct Eq. (5) agree
    to 1e-9; NULLs form one value group in every engine."""
    pdf = EDGE_RELATIONS[name]
    subsets = [
        list(c) for r in range(1, len(pdf.columns) + 1) for c in combinations(pdf.columns, r)
    ]
    expected = [naive_entropy(pdf, cols) for cols in subsets]
    gb = SparkGroupByEntropyEngine(spark.createDataFrame(pdf))
    try:
        for cols, h in zip(subsets, expected):
            assert gb.entropy(cols) == pytest.approx(h, abs=1e-9), cols
    finally:
        gb.close()
    for kernel in sorted(COMBINE_KERNELS):
        monkeypatch.setattr(local_pli, "_DENSE_CELLS_PER_ROW", COMBINE_KERNELS[kernel])
        eng = LocalPLIEngine(pdf)
        for cols, h in zip(subsets, expected):
            assert eng.entropy(cols) == pytest.approx(h, abs=1e-9), (kernel, cols)
