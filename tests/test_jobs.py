"""Smoke tests: every spark-submit entrypoint's run() works at micro scale."""
import json
import sys

import pytest

sys.path.insert(0, ".")


@pytest.fixture(autouse=True)
def _isolated_results(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))


def test_mine_mvds_job(spark):
    from jobs import mine_mvds

    res, schemas = mine_mvds.run(spark, "sg_bioentry", 0.1, 150)
    assert res.n_full_mvds >= 0
    assert isinstance(schemas, list)
    # The job prints the stats as one JSON line.
    assert json.loads(json.dumps(res.stats)) == res.stats
    assert res.stats["nodes_explored"] >= 0


def test_table2_job(spark, monkeypatch):
    from jobs import table2_full_mvds
    from repro import datasets

    monkeypatch.setattr(
        datasets, "TABLE2", tuple(s for s in datasets.TABLE2 if s.name == "abalone")
    )
    df = table2_full_mvds.run(spark, rows_cap=100, timeout_s=3.0)
    assert len(df) == 1


def test_quality_job(spark, monkeypatch):
    from jobs import exp_quality
    from repro.experiments import quality

    monkeypatch.setattr(quality, "DATASETS", ("abalone",))
    monkeypatch.setattr(quality, "THRESHOLDS", (0.1,))
    df = quality.run_quality(rows_cap=100, mine_deadline_s=2.0, enum_deadline_s=1.0)
    assert len(df) == 1
    assert callable(exp_quality.run)


def test_all_jobs_importable():
    from jobs import (  # noqa: F401
        exp_accuracy,
        exp_col_scalability,
        exp_fullmvds,
        exp_nursery,
        exp_quality,
        exp_row_scalability,
        mine_mvds,
        table2_full_mvds,
    )
