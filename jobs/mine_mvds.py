"""Generic miner entrypoint: mine eps-MVDs and acyclic schemes for one
dataset analog and print them, then the run's ``MinerResult.stats`` as
one JSON line.

Usage: spark-submit jobs/mine_mvds.py <dataset> [epsilon] [rows_cap]
"""
import json
import sys

sys.path.insert(0, ".")

from jobs._session import get_spark  # noqa: E402
from repro import datasets  # noqa: E402
from repro.core.miner import MVDMiner  # noqa: E402
from repro.core.schema_miner import enumerate_schemas  # noqa: E402
from repro.entropy.local_pli import LocalPLIEngine  # noqa: E402


def run(spark, name: str, epsilon: float = 0.05, rows_cap: int = 2_000):
    pdf = datasets.load(name, rows_cap=rows_cap)
    engine = LocalPLIEngine.from_spark(spark.createDataFrame(pdf))
    res = MVDMiner(engine, epsilon, deadline_s=60.0).mine()
    schemas = list(enumerate_schemas(res.full_mvds, engine.columns, max_schemas=20))
    return res, schemas


if __name__ == "__main__":
    spark = get_spark("mine_mvds")
    name = sys.argv[1] if len(sys.argv) > 1 else "abalone"
    eps = float(sys.argv[2]) if len(sys.argv) > 2 else 0.05
    cap = int(sys.argv[3]) if len(sys.argv) > 3 else 2_000
    res, schemas = run(spark, name, eps, cap)
    print(f"{name}: eps={eps} -> {res.n_full_mvds} full MVDs "
          f"({res.n_minseps} minseps, {res.elapsed:.1f}s, complete={res.complete})")
    for m in res.full_mvds[:50]:
        print("  ", m)
    print(f"{len(schemas)} schemas (first 20):")
    for s in schemas:
        print("  ", " / ".join("".join(sorted(b)) for b in s.bags))
    print(json.dumps(res.stats))
    spark.stop()
