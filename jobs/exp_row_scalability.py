"""spark-submit entrypoint for row scalability (Fig 13). The engine
scan is routed through Spark (createDataFrame -> distributed collect)."""
import sys

sys.path.insert(0, ".")

from jobs._session import get_spark  # noqa: E402
from repro.experiments.common import spark_engine_factory, to_markdown  # noqa: E402
from repro.experiments.row_scalability import run_row_scalability  # noqa: E402


def run(spark, base_rows: int = 50_000):
    return run_row_scalability(
        base_rows=base_rows,
        engine_factory=spark_engine_factory(spark),
    )


if __name__ == "__main__":
    spark = get_spark("row_scalability")
    base_rows = int(sys.argv[1]) if len(sys.argv) > 1 else 50_000
    print(to_markdown(run(spark, base_rows)))
    spark.stop()
