"""Shared fixtures/builders for the test suite."""
from __future__ import annotations

import math
import string

import numpy as np
import pandas as pd

from repro.core.jointree import JoinTree
from repro.core.mvd import MVD, names_of
from repro.entropy.local_pli import LocalPLIEngine

#: The bit map of MVDs written over one-letter names: bit i is letter i.
LETTERS = tuple(string.ascii_uppercase)

#: Values of ``local_pli._DENSE_CELLS_PER_ROW`` that force each
#: ``_combine`` kernel: bincount over the grid, or factorizing the cells.
COMBINE_KERNELS = {"dense": math.inf, "factorize": -1}


def fig1_relation() -> pd.DataFrame:
    """Our transcription of the paper's Fig. 1 relation (4 rows over
    A..F). The figure's exact tuples are an image we do not have; this
    relation reproduces every quantity stated in the text: H(ABCDEF) =
    log 4 = 2 and BDE marginals 1/4, 1/4, 1/2 giving H(BDE) = 3/2."""
    rows = [
        ("a1", "b1", "c1", "d1", "e1", "f1"),
        ("a1", "b1", "c2", "d1", "e1", "f1"),
        ("a1", "b2", "c1", "d1", "e2", "f1"),
        ("a2", "b2", "c2", "d2", "e2", "f2"),
    ]
    return pd.DataFrame(rows, columns=list("ABCDEF"))


def exact_jd_relation() -> pd.DataFrame:
    """4 rows satisfying the acyclic JD of schema {ABD, ACD, BDE, AF}
    exactly (B x C product inside the (a1, d1) group; E, F functionally
    determined), so J of that schema is 0."""
    rows = [
        ("a1", "b1", "c1", "d1", "e1", "f1"),
        ("a1", "b1", "c2", "d1", "e1", "f1"),
        ("a1", "b2", "c1", "d1", "e1", "f1"),
        ("a1", "b2", "c2", "d1", "e1", "f1"),
    ]
    return pd.DataFrame(rows, columns=list("ABCDEF"))


def sec52_relation() -> pd.DataFrame:
    """The Sec. 5.2 counterexample: two tuples over X, A, B, C with
    X constant; J(X->>AB|C) = J(X->>AC|B) = J(X->>BC|A) = 1 but
    J(X->>A|B|C) = 2."""
    return pd.DataFrame(
        [(0, 0, 0, 0), (0, 1, 1, 1)], columns=["X", "A", "B", "C"]
    )


def random_relation(n_rows: int, cols: str, n_vals: int, seed: int) -> pd.DataFrame:
    g = np.random.default_rng(seed)
    return pd.DataFrame(
        g.integers(0, n_vals, size=(n_rows, len(cols))), columns=list(cols)
    )


def engine_of(pdf: pd.DataFrame) -> LocalPLIEngine:
    return LocalPLIEngine(pdf)


def naive_entropy(pdf: pd.DataFrame, cols) -> float:
    """Direct Eq. (5) in pandas, the reference for every engine.

    NULLs (``None`` and ``NaN`` alike) form one value group, as in SQL
    ``GROUP BY``.
    """
    n = len(pdf)
    counts = pdf.groupby(list(cols), observed=True, dropna=False).size().to_numpy()
    return math.log2(n) - sum(c * math.log2(c) for c in counts) / n


def mask_of(attrs, names=LETTERS) -> int:
    """The mask of the names ``attrs`` (bit i is ``names[i]``)."""
    return sum(1 << names.index(c) for c in set(attrs))


def mvd(key, deps, names=LETTERS) -> MVD:
    """The MVD ``key ->> deps`` written over names; pass ``engine.names``
    to compare with a miner's output or to measure it on an engine."""
    return MVD.of(mask_of(key, names), [mask_of(d, names) for d in deps], tuple(names))


def over_names(m: MVD) -> tuple[frozenset, tuple[frozenset, ...]]:
    """The key and dependents of ``m`` as frozensets of names."""
    return names_of(m.key, m.names), tuple(names_of(d, m.names) for d in m.deps)


def support_mvds(tree: JoinTree) -> list[MVD]:
    """``MVD(T)``: one MVD per edge -- key = bag intersection, dependents
    = the attributes of the two subtrees minus the key (Sec. 3.1). Bit i
    is the i-th sorted attribute of the tree, as on an engine over them."""
    names = tuple(sorted(frozenset().union(*tree.bags)))
    n = len(tree.bags)
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for u, v in tree.edges:
        adj[u].append(v)
        adj[v].append(u)
    out: list[MVD] = []
    for u, v in tree.edges:
        key = tree.bags[u] & tree.bags[v]
        # attributes reachable from u without crossing edge (u, v)
        seen = {u}
        stack = [u]
        while stack:
            x = stack.pop()
            for w in adj[x]:
                if (x, w) in ((u, v), (v, u)):
                    continue
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        side_u = frozenset().union(*(tree.bags[i] for i in seen)) - key
        side_v = frozenset().union(*tree.bags) - key - side_u
        if side_u and side_v:
            out.append(mvd(key, [side_u, side_v], names))
    return out
