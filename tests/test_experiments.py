"""Every evaluation harness runs end-to-end at micro scale and produces
a well-formed table (the benchmarks run the same code at report scale).
The datasets and thresholds of each figure are module constants; the
micro runs shrink them with ``monkeypatch``."""
import ast
import glob
import os

import pytest

from repro import datasets
from repro.core.miner import MVDMiner
from repro.entropy.local_pli import LocalPLIEngine
from repro.experiments import (
    accuracy,
    col_scalability,
    fullmvds,
    quality,
    row_scalability,
)
from repro.experiments.accuracy import run_accuracy
from repro.experiments.col_scalability import run_col_scalability
from repro.experiments.common import (
    results_dir,
    spark_engine_factory,
    stratify,
    sweep_schemes,
    to_markdown,
)
from repro.experiments.fullmvds import run_fullmvds
from repro.experiments.nursery_usecase import run_nursery
from repro.experiments.quality import run_quality
from repro.experiments.row_scalability import run_row_scalability
from repro.experiments.table2 import run_table2

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(autouse=True)
def _isolated_results(tmp_path, monkeypatch):
    """Micro runs must not clobber the benchmark-scale results/*.md."""
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))


def only_table2(monkeypatch, *names):
    monkeypatch.setattr(
        datasets, "TABLE2", tuple(s for s in datasets.TABLE2 if s.name in names)
    )


def test_table2_micro(monkeypatch):
    only_table2(monkeypatch, "sg_bioentry", "abalone")
    df = run_table2(rows_cap=150, timeout_s=2.0)
    assert set(df["dataset"]) == {"sg_bioentry", "abalone"}
    assert {"runtime_s", "full_mvds", "paper_runtime_s", "paper_full_mvds"} <= set(
        df.columns
    )
    assert os.path.exists(os.path.join(results_dir(), "table2.md"))
    assert "tmp" in results_dir() or os.environ.get("REPRO_RESULTS_DIR")


def test_table2_timeout_reports_tl(monkeypatch):
    only_table2(monkeypatch, "voter_state")
    df = run_table2(rows_cap=400, timeout_s=0.0)
    assert df.iloc[0]["runtime_s"] == "TL"


def test_table2_spark_engine(spark, monkeypatch):
    only_table2(monkeypatch, "sg_bioentry")
    df = run_table2(rows_cap=100, timeout_s=5.0, engine_factory=spark_engine_factory(spark))
    assert len(df) == 1


def test_row_scalability_micro(monkeypatch):
    monkeypatch.setattr(row_scalability, "DATASETS", ("image",))
    monkeypatch.setattr(row_scalability, "EPSILONS", (0.0,))
    df = run_row_scalability(fractions=(0.5, 1.0), base_rows=2000, per_run_timeout_s=5.0)
    assert len(df) == 2
    assert df["rows"].iloc[0] < df["rows"].iloc[1]
    assert df["complete"].all()


def test_col_scalability_micro(monkeypatch):
    monkeypatch.setattr(col_scalability, "DATASETS", ("reflns",))
    monkeypatch.setattr(col_scalability, "FRACTIONS", (0.25, 0.5))
    monkeypatch.setattr(col_scalability, "EPSILONS", (0.0,))
    df = run_col_scalability(rows_cap=200, per_run_timeout_s=3.0)
    assert len(df) == 2
    assert df["cols"].iloc[0] < df["cols"].iloc[1]


def test_col_scalability_marks_a_node_budget_cut(monkeypatch):
    monkeypatch.setattr(col_scalability, "DATASETS", ("reflns",))
    monkeypatch.setattr(col_scalability, "FRACTIONS", (0.5,))
    monkeypatch.setattr(col_scalability, "EPSILONS", (0.1,))
    monkeypatch.setattr(MVDMiner, "max_nodes", 1)
    df = run_col_scalability(rows_cap=200, per_run_timeout_s=20.0)
    assert df.iloc[0]["runtime_s"] != "TL" and df.iloc[0]["n_minseps"] > 0
    # A minseps_only run makes no budgeted search: the separator test's
    # split search has no node budget, so even one node cuts nothing.
    assert df.iloc[0]["complete"]


def test_quality_micro(monkeypatch):
    monkeypatch.setattr(quality, "DATASETS", ("abalone",))
    monkeypatch.setattr(quality, "THRESHOLDS", (0.0, 0.3))
    monkeypatch.setattr(quality, "MAX_SCHEMAS", 30)
    df = run_quality(rows_cap=200, mine_deadline_s=3.0, enum_deadline_s=2.0)
    assert len(df) == 2
    assert (df["n_schemes"] >= 0).all()
    # paper shape: more schemes / decomposition at larger threshold
    assert df["n_full_mvds"].iloc[1] >= df["n_full_mvds"].iloc[0]


def test_quality_marks_a_cut_enumeration(monkeypatch):
    monkeypatch.setattr(quality, "DATASETS", ("abalone",))
    monkeypatch.setattr(quality, "THRESHOLDS", (0.0, 0.3))
    df = run_quality(rows_cap=200, mine_deadline_s=3.0, enum_deadline_s=0.0)
    assert len(df) == 2
    assert not df["complete"].any()


def test_quality_marks_a_cap_bound_enumeration(monkeypatch):
    # abalone@200 has 28 schemes at eps 0; the cap stops ASMiner at one.
    monkeypatch.setattr(quality, "DATASETS", ("abalone",))
    monkeypatch.setattr(quality, "THRESHOLDS", (0.0,))
    monkeypatch.setattr(quality, "MAX_SCHEMAS", 1)
    df = run_quality(rows_cap=200, mine_deadline_s=10.0, enum_deadline_s=10.0)
    assert df.iloc[0]["n_schemes"] == 1
    assert not df.iloc[0]["complete"]


def test_fullmvds_micro(monkeypatch):
    monkeypatch.setattr(fullmvds, "DATASETS", ("echocardiogram",))
    df = run_fullmvds(
        thresholds=(0.0, 0.1), rows_cap=120, minsep_deadline_s=3.0, window_s=2.0
    )
    assert "complete" in df.columns
    assert len(df) == 2
    at0 = df[df["eps"] == 0.0].iloc[0]
    # paper: at eps=0, #full MVDs equals #minimal separators
    assert at0["n_full_mvds"] == at0["n_minseps"]


def test_nursery_mining_micro():
    schemes, complete = sweep_schemes(
        LocalPLIEngine(datasets.nursery()), [0.3], max_schemes=5, mine_deadline_s=10.0
    )
    assert complete and len(schemes) >= 1
    for schema, j, eps in schemes:
        assert schema.n_relations == len(schema.bags) >= 2
        assert j >= 0.0 and eps == 0.3
    assert [j for _, j, _ in schemes] == sorted(j for _, j, _ in schemes)


def test_sweep_reports_a_cut_mining_run():
    schemes, complete = sweep_schemes(
        LocalPLIEngine(datasets.nursery()), [0.0, 0.3], max_schemes=5, mine_deadline_s=0.0
    )
    assert complete is False and schemes == []


def test_sweep_marks_a_cap_bound_threshold_partial():
    # Nursery has 335 schemes at eps 0.05; the cap stops ASMiner at one.
    schemes, complete = sweep_schemes(
        LocalPLIEngine(datasets.nursery()), [0.05], max_schemes=1, mine_deadline_s=60.0
    )
    assert complete is False and len(schemes) == 1


def test_stratify_spans_the_sequence():
    assert stratify(list(range(10)), 4) == [0, 3, 6, 9]
    assert stratify(list("ab"), 5) == ["a", "b"]


def test_nursery_full_micro(spark):
    schemes, pareto = run_nursery(
        spark, thresholds=[0.3], max_schemas_per_eps=5, quality_cap=3
    )
    assert len(schemes) >= 1
    assert {"savings_pct", "spurious_pct", "complete"} <= set(schemes.columns)
    assert schemes["complete"].all()
    assert len(pareto) >= 1
    # pareto is a subset of schemes
    assert set(pareto["schema"]) <= set(schemes["schema"])


def test_accuracy_micro(spark, monkeypatch):
    monkeypatch.setattr(accuracy, "DATASETS", ("bridges",))
    monkeypatch.setattr(accuracy, "THRESHOLDS", (0.0, 0.2))
    monkeypatch.setattr(accuracy, "N_BUCKETS", 3)
    df = run_accuracy(spark, rows_cap=120, quality_cap=6)
    assert {"J_bucket", "spurious_median", "complete"} <= set(df.columns)


def test_to_markdown_roundtrip():
    import pandas as pd

    md = to_markdown(pd.DataFrame({"a": [1, 2], "b": ["x", "y"]}))
    assert md.splitlines()[0] == "| a | b |"
    assert "| 1 | x |" in md


def _keyword_calls(paths):
    """{run_* name: keywords it is called with} over the given files."""
    calls: dict[str, set[str]] = {}
    for path in paths:
        for node in ast.walk(ast.parse(open(path).read())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id.startswith("run_"):
                    calls.setdefault(node.func.id, set()).update(
                        k.arg for k in node.keywords if k.arg
                    )
    return calls


def test_every_run_keyword_has_a_caller():
    """A harness keeps a keyword parameter only if some job or benchmark
    sets it by name; a value only tests set is a module constant."""
    callers = _keyword_calls(
        glob.glob(os.path.join(ROOT, "jobs", "*.py"))
        + glob.glob(os.path.join(ROOT, "benchmarks", "*.py"))
    )
    unset = []
    for path in glob.glob(os.path.join(ROOT, "src", "repro", "experiments", "*.py")):
        for node in ast.parse(open(path).read()).body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("run_"):
                for arg in node.args.kwonlyargs:
                    if arg.arg not in callers.get(node.name, set()):
                        unset.append(f"{node.name}({arg.arg}=)")
    assert callers and not unset, unset
