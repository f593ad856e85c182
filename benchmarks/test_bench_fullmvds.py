"""Benchmark: Fig 18 (appendix) — from minimal separators to full MVDs.
Writes results/fullmvds.md."""
from repro.experiments.common import to_markdown
from repro.experiments.fullmvds import run_fullmvds


def test_bench_fullmvds(benchmark):
    df = benchmark.pedantic(
        lambda: run_fullmvds(
            thresholds=(0.0, 0.05, 0.1, 0.3),
            rows_cap=400,
            minsep_deadline_s=10.0,
            window_s=5.0,
        ),
        rounds=1,
        iterations=1,
    )
    print("\n" + to_markdown(df))
    assert len(df) == 4 * 4
    # Paper observations: at eps=0 the full-MVD count equals the
    # minimal-separator count (over the separators phase 2 reached in
    # its window); the generation rate is tens+/sec.
    at0 = df[df["eps"] == 0.0]
    assert (at0["n_full_mvds"] == at0["n_minseps_done"]).all()
    assert (df["rate_per_s"] > 0).any()
