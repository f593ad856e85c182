"""Schema quality metrics, with DuckDB oracle checks."""
import numpy as np
import pandas as pd
import pytest

from repro.core.jointree import build_join_tree
from repro.core.quality import _join_size, cell_savings_pct, spurious_pct
from repro.oracle import assert_equivalent
from tests.helpers import exact_jd_relation
from repro import datasets

BAGS = [frozenset(b) for b in ("ABD", "ACD", "BDE", "AF")]


def _violation_relation() -> pd.DataFrame:
    pdf = exact_jd_relation()
    pdf.loc[len(pdf)] = ["a1", "b3", "c1", "d1", "e1", "f1"]
    return pdf


@pytest.fixture(scope="module")
def exact_df(spark):
    df = spark.createDataFrame(exact_jd_relation())
    df.persist()
    df.count()
    yield df
    df.unpersist()


def test_exact_schema_zero_spurious(exact_df):
    assert spurious_pct(exact_df, BAGS) == pytest.approx(0.0)


def test_spurious_after_violation(spark):
    df = spark.createDataFrame(_violation_relation())
    # (a1,d1) group now joins B in {b1,b2,b3} x C in {c1,c2} = 6 rows,
    # relation has 5 -> 1 spurious tuple = 20%.
    assert spurious_pct(df, BAGS) == pytest.approx(20.0)


def _duckdb_spurious_sql(bags) -> str:
    """E over table ``r`` in SQL: the natural join of the distinct bag
    projections, counted, against the distinct rows of ``r``."""
    def cols(names) -> str:
        return ", ".join(sorted(names))

    joined, acc = "", set()
    for i, bag in enumerate(bags):
        proj = f"(SELECT DISTINCT {cols(bag)} FROM r) b{i}"
        if not acc:
            joined = proj
        elif acc & bag:
            joined += f" JOIN {proj} USING ({cols(acc & bag)})"
        else:
            joined += f" CROSS JOIN {proj}"
        acc |= bag
    return f"""
        SELECT 100 * (j::DOUBLE - n) / n AS E
        FROM (SELECT count(*) AS j FROM {joined}),
             (SELECT count(*) AS n FROM (SELECT DISTINCT * FROM r))
    """


def test_acyclic_join_matches_duckdb(spark):
    nursery = datasets.nursery()
    for pdf, schema, expected in [
        (_violation_relation(), "ABD / ACD / BDE / AF", 20.0),
        # Nursery schemes of results/nursery_schemes.md, low to high E.
        (nursery, "ABCDEFGI / ABCDFGHI", 1.86),
        (nursery, "ABEFI / ADEFGHI / CDGI", 21.38),
        (nursery, "A / B / C / D / EHI / F / GHI", 400.0),
    ]:
        bags = [frozenset(b) for b in schema.split(" / ")]
        e = spurious_pct(spark.createDataFrame(pdf), bags)
        assert round(e, 2) == expected, schema
        assert_equivalent(
            spark.createDataFrame(pd.DataFrame({"E": [e]})),
            _duckdb_spurious_sql(bags),
            r=pdf,
        )


def test_cyclic_schema_rejected(exact_df):
    with pytest.raises(ValueError):
        spurious_pct(exact_df, [frozenset("AB"), frozenset("BC"), frozenset("CA")])


def test_null_is_one_join_value(spark):
    # NULL in the separator B joins NULL: J = 0 on this relation, so E = 0.
    pdf = pd.DataFrame({"A": [1, 1, 2], "B": [None, None, "x"], "C": [1, 1, 3]})
    df = spark.createDataFrame(pdf)
    assert spurious_pct(df, [frozenset("AB"), frozenset("BC")]) == pytest.approx(0.0)


@pytest.mark.parametrize("null", [None, np.nan])
def test_all_null_separator_joins_itself(null):
    # Every B is NULL, and NULL joins NULL: AB |><| BC is the 3 x 3 product.
    pdf = pd.DataFrame({"A": [1, 2, 3], "B": [null] * 3, "C": [4, 5, 6]})
    tree = build_join_tree([frozenset("AB"), frozenset("BC")])
    frames = [pdf[sorted(bag)] for bag in tree.bags]
    assert _join_size(tree, frames) == 9


def test_all_null_separator_spurious(spark):
    pdf = pd.DataFrame({"A": [1, 2, 3], "B": [None] * 3, "C": [4, 5, 6]})
    df = spark.createDataFrame(pdf, "A long, B string, C long")
    assert spurious_pct(df, [frozenset("AB"), frozenset("BC")]) == pytest.approx(200.0)


def test_cell_savings_manual(spark):
    # R: 4 rows x 3 cols = 12 cells. Bags AB (2 distinct rows x 2 cols)
    # and BC (4 x 2) -> 4 + 8 = 12 cells -> savings 0%.
    pdf = pd.DataFrame(
        {"A": [0, 0, 1, 1], "B": [0, 0, 1, 1], "C": [0, 1, 0, 1]}
    )
    df = spark.createDataFrame(pdf)
    s = cell_savings_pct(df, [frozenset("AB"), frozenset("BC")])
    assert s == pytest.approx(100.0 * (12 - (2 * 2 + 4 * 2)) / 12)


def test_savings_positive_for_real_decomposition(exact_df):
    assert cell_savings_pct(exact_df, BAGS) > 0.0


def test_duplicate_rows_do_not_count(spark):
    # R is a set: a duplicated row changes neither |R| nor the projections.
    pdf = exact_jd_relation()
    df = spark.createDataFrame(pdf)
    dup = spark.createDataFrame(pd.concat([pdf, pdf.iloc[:1]], ignore_index=True))
    assert cell_savings_pct(dup, BAGS) == cell_savings_pct(df, BAGS)
    assert spurious_pct(dup, BAGS) == spurious_pct(df, BAGS)


def test_disjoint_bags_cross_join(spark):
    pdf = pd.DataFrame({"A": [0, 1], "B": [0, 1]})
    df = spark.createDataFrame(pdf)
    # 2 x 2 cross product over 2 rows.
    assert spurious_pct(df, [frozenset("A"), frozenset("B")]) == pytest.approx(100.0)


def test_join_size_past_int64_raises(spark):
    # Two rows of distinct values, one bag per column: the join is 2**k.
    def schema(k):
        cols = [f"c{i}" for i in range(k)]
        df = spark.createDataFrame(pd.DataFrame({c: [0, 1] for c in cols}))
        return df, [frozenset([c]) for c in cols]

    assert spurious_pct(*schema(62)) == 100.0 * (2**62 - 2) / 2
    # At 63 the final sum passes 2**63 - 1; at 65 a wrapped product would
    # read 0, so only the product check catches it.
    for k in (63, 65):
        with pytest.raises(OverflowError):
            spurious_pct(*schema(k))


def test_planted_schema_low_spurious(spark):
    """A planted noise-free relation decomposes with 0 spurious tuples
    under a schema the miner finds at eps=0."""
    from repro.core.miner import MVDMiner
    from repro.core.schema_miner import enumerate_schemas
    from repro.entropy.local_pli import LocalPLIEngine

    pdf = datasets.planted_relation(6, 150, seed=4, noise=0.0)
    engine = LocalPLIEngine(pdf)
    res = MVDMiner(engine, 0.0).mine()
    schemas = list(enumerate_schemas(res.full_mvds, engine.columns, max_schemas=3))
    assert schemas, "planted data must yield at least one exact schema"
    df = spark.createDataFrame(pdf)
    for s in schemas:
        assert spurious_pct(df, list(s.bags)) == pytest.approx(0.0, abs=1e-9)
