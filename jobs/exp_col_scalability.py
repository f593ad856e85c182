"""spark-submit entrypoint for column scalability (Fig 14)."""
import sys

sys.path.insert(0, ".")

from jobs._session import get_spark  # noqa: E402
from repro.experiments.col_scalability import run_col_scalability  # noqa: E402
from repro.experiments.common import spark_engine_factory, to_markdown  # noqa: E402


def run(spark, rows_cap: int = 2_000):
    return run_col_scalability(
        rows_cap=rows_cap,
        engine_factory=spark_engine_factory(spark),
    )


if __name__ == "__main__":
    spark = get_spark("col_scalability")
    rows_cap = int(sys.argv[1]) if len(sys.argv) > 1 else 2_000
    print(to_markdown(run(spark, rows_cap)))
    spark.stop()
