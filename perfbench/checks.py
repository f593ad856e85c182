"""Output checks of one benchmark run.

Three checks, each independent of the timing code:

- ``digests``: SHA-256 of the canonical JSON of four outputs of a job --
  ``M_eps`` per threshold, the minimal separators per attribute pair, the
  enumerated schema bag sets and E/S rounded to 6 decimals. The expected
  values for the default data seeds live in ``digests.json``. The run seed
  only shuffles rows and renames values, which leaves every output
  unchanged, so the stored digests hold for any ``--seed``.
- ``recheck_outputs``: J(m) <= eps + 1e-9 for every returned MVD and
  I(A;B|X) <= eps + 1e-9 for a seeded sample of the returned
  A,B-separators X, on a fresh ``LocalPLIEngine`` built from the driver's
  copy of the data.
- ``duckdb_spurious_pct``: E of one scheme recounted by DuckDB over
  distinct bag projections, following the ``repro.oracle`` pattern.
"""
from __future__ import annotations

import hashlib
import json
import os

import duckdb
import numpy as np
import pandas as pd

from repro.core.jointree import build_join_tree
from repro.entropy.base import FLOAT_TOL
from repro.entropy.local_pli import LocalPLIEngine

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
COMPONENTS = ("mvds", "minseps", "schemas", "quality")
#: Separators are cheap to find but each costs a fresh partition on the
#: large workload, so a run re-checks a seeded sample of them.
MAX_SEPARATOR_CHECKS = 200


def attrs(cols) -> str:
    return ",".join(sorted(cols))


def schema_str(bags) -> str:
    return " / ".join(sorted(attrs(b) for b in bags))


def canonical_outputs(out: dict) -> dict:
    """The four outputs of a job as JSON-ready, order-free values.

    ``out`` maps ``mvds`` and ``schemas`` to ``{eps: list}``, ``minseps``
    to ``{eps: {(a, b): [separator, ...]}}`` and ``quality`` to a list of
    ``(bags, E, S)``.
    """
    return {
        "mvds": {str(e): sorted(str(m) for m in ms) for e, ms in out["mvds"].items()},
        "minseps": {
            str(e): {f"{a},{b}": sorted(attrs(x) for x in seps) for (a, b), seps in per.items()}
            for e, per in out["minseps"].items()
        },
        "schemas": {
            str(e): sorted(schema_str(s) for s in ss) for e, ss in out["schemas"].items()
        },
        "quality": sorted(
            [schema_str(bags), round(e, 6), round(s, 6)] for bags, e, s in out["quality"]
        ),
    }


def digests(out: dict) -> dict[str, str]:
    canon = canonical_outputs(out)
    return {
        k: hashlib.sha256(json.dumps(canon[k], sort_keys=True).encode()).hexdigest()
        for k in COMPONENTS
    }


def load_expected() -> dict:
    with open(DIGESTS_PATH) as f:
        return json.load(f)


def digest_mismatches(got: dict[str, str], expected: dict[str, str]) -> list[str]:
    """Names of the components whose digest differs from ``expected``."""
    return [k for k in COMPONENTS if got.get(k) != expected.get(k)]


def recheck_outputs(pdf: pd.DataFrame, out: dict, seed: int) -> list[str]:
    """Re-derive every returned MVD, and up to ``MAX_SEPARATOR_CHECKS``
    separators drawn by ``seed``, on a fresh engine.

    Returns one message per output that breaks its threshold.
    """
    engine = LocalPLIEngine(pdf)
    bad = []
    for eps, ms in out["mvds"].items():
        for m in ms:
            j = engine.j_mvd(m)
            if j > eps + FLOAT_TOL:
                bad.append(f"eps={eps}: J({m}) = {j:.6g}")
    seps = [
        (eps, a, b, x)
        for eps, per in out["minseps"].items()
        for (a, b), found in per.items()
        for x in found
    ]
    if len(seps) > MAX_SEPARATOR_CHECKS:
        rng = np.random.default_rng(seed)
        seps = [seps[i] for i in rng.choice(len(seps), MAX_SEPARATOR_CHECKS, replace=False)]
    for eps, a, b, x in seps:
        i = engine.mutual_info({a}, {b}, x)
        if i > eps + FLOAT_TOL:
            bad.append(f"eps={eps}: I({a};{b}|{attrs(x)}) = {i:.6g}")
    return bad


def duckdb_spurious_pct(pdf: pd.DataFrame, bags) -> float:
    """E = (|join of distinct bag projections| - |R|) / |R| * 100 in DuckDB."""
    tree = build_join_tree([frozenset(b) for b in bags])
    if tree is None:
        raise ValueError("schema is not acyclic")
    adj: dict[int, list[int]] = {i: [] for i in range(len(tree.bags))}
    for u, v in tree.edges:
        adj[u].append(v)
        adj[v].append(u)
    order = [0]
    for u in order:  # BFS over the join tree: each join key is a separator
        order += [v for v in adj[u] if v not in order]

    def cols(names) -> str:
        return ", ".join(f'"{c}"' for c in sorted(names))

    def proj(i: int) -> str:
        return f"(SELECT DISTINCT {cols(tree.bags[i])} FROM r) AS b{i}"

    sql = f"SELECT count(*) FROM {proj(order[0])}"
    acc = set(tree.bags[order[0]])
    for i in order[1:]:
        common = acc & tree.bags[i]
        if common:
            sql += f" JOIN {proj(i)} USING ({cols(common)})"
        else:
            sql += f" CROSS JOIN {proj(i)}"
        acc |= tree.bags[i]
    con = duckdb.connect()
    try:
        con.register("r", pdf)
        n_rows = con.execute("SELECT count(*) FROM (SELECT DISTINCT * FROM r)").fetchone()[0]
        joined = con.execute(sql).fetchone()[0]
    finally:
        con.close()
    return 100.0 * (joined - n_rows) / n_rows

