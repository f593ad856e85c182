"""Entropy-engine abstraction shared by the Maimon reproduction.

Every mining component (Sec 5-7 of the paper) consumes entropies only
through :class:`EntropyEngine`: a memoized oracle for the empirical
entropy ``H(X)`` of an attribute set ``X`` (Eq. 5), with derived helpers
for the J-measure of MVDs (Sec. 3.2), whose two-dependent case is the
conditional mutual information ``I(Y;Z|X)`` (Eq. 2), and of acyclic
schemas (Eq. 6).

Attribute sets are int bitmasks inside the miner, MVDs and ASMiner: bit
``i`` is ``names[i]``, the i-th of ``sorted(columns)``. The engine owns
that map; every method taking an attribute set accepts names or a mask,
and both reach the same memo entry.

All entropies are in **bits** (log base 2), matching the paper's worked
examples (``H(ABCDEF) = log 4 = 2`` in Example 3.4). Derived measures
are clamped at ``>= 0`` against floating-point noise; the Shannon
inequalities guarantee the true values are non-negative.
"""
from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Iterable, Sequence, Union

import numpy as np

from repro.core.mvd import MVD, names_of

#: Tolerance added to every ``J <= eps`` / ``I > eps`` comparison. Exact
#: dependencies produce J = 0 only up to float rounding of the entropy
#: sums; without a tolerance, eps = 0 behaves like an arbitrary tiny
#: threshold and Beeri's uniqueness of the full MVD (Sec. 5.2) fails.
FLOAT_TOL = 1e-9

#: An attribute set: names, or an int bitmask over the engine's bits.
Attrs = Union[Iterable[str], int]


class EntropyEngine(ABC):
    """Memoized oracle for empirical entropies over one relation.

    Subclasses implement :meth:`_entropy` for a non-empty attribute set;
    the base class provides caching, ``I``, and ``J`` helpers plus call
    statistics (used by the scalability experiments to report work).
    """

    def __init__(self, columns: Iterable[str], n_rows: int):
        self.columns: tuple[str, ...] = tuple(columns)
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("duplicate column names")
        self.n_rows = int(n_rows)
        # Bit i stands for the i-th name in sorted order.
        self.names = tuple(sorted(self.columns))
        self.bit: dict[str, int] = {c: i for i, c in enumerate(self.names)}
        self._cache: dict[int, float] = {0: 0.0}
        self.entropy_computations = 0  # cache misses (actual work)
        self.entropy_calls = 0  # all requests

    # -- attribute sets ------------------------------------------------
    def mask(self, cols: Attrs) -> int:
        """The bitmask of ``cols``; a mask passes through after a range
        check. Raises ``KeyError`` for an unknown name or bit."""
        if isinstance(cols, int):
            if cols < 0 or cols >> len(self.names):
                raise KeyError(f"mask {cols:#x} has bits past the {len(self.names)} columns")
            return cols
        m = 0
        for c in cols:
            m |= 1 << self.bit[c]
        return m

    def attrs(self, mask: int) -> frozenset:
        """The names of the attributes in ``mask``."""
        return names_of(mask, self.names)

    # -- core oracle ---------------------------------------------------
    @abstractmethod
    def _entropy(self, mask: int) -> float:
        """Compute H in bits for a non-empty attribute mask."""

    def entropy(self, cols: Attrs) -> float:
        """Memoized H(cols); H(emptyset) = 0."""
        # The memo holds only checked masks, so a mask found in it needs
        # no range check.
        h = self._cache.get(cols) if isinstance(cols, int) else None
        if h is None:
            m = self.mask(cols)
            h = self._cache.get(m)
            if h is None:
                h = self._entropy(m)
                self.entropy_computations += 1
                self._cache[m] = h
        self.entropy_calls += 1
        return h

    # -- derived measures ----------------------------------------------
    def mutual_info(self, Y: Attrs, Z: Attrs, X: Attrs = 0) -> float:
        """Conditional mutual information I(Y;Z|X) in bits (Eq. 2): the
        J of ``X ->> Y|Z``.

        Y and Z need not be disjoint from X (``H`` is defined on unions),
        but callers in the miner always pass disjoint sets.
        """
        return self.j_parts(X, (Y, Z))

    def j_mvd(self, mvd: "MVD") -> float:
        """J-measure of an MVD: sum H(X Yi) - H(X Y1..Ym) - (m-1) H(X)."""
        return self.j_parts(mvd.key, mvd.deps)

    def j_parts(self, key: Attrs, deps: Iterable[Attrs]) -> float:
        """J of ``key ->> deps`` (Sec. 3.2); for two dependents it is
        I(Y;Z|key), Eq. (2), term for term."""
        key = self.mask(key)
        # H(key) first: each H(key | d) of a one-attribute d then composes
        # from the key's partition and one base partition.
        h_key = self.entropy(key)
        total, j, m = key, 0.0, 0
        for d in deps:
            d = self.mask(d)
            total |= d
            j += self.entropy(key | d)
            m += 1
        j = j - self.entropy(total) - (m - 1) * h_key
        return max(0.0, j)

    def j_tree(self, bags: list[frozenset], edges: list[tuple[int, int]]) -> float:
        """Lee's measure of a join tree (Eq. 6)."""
        omega = frozenset().union(*bags)
        j = (
            sum(self.entropy(b) for b in bags)
            - sum(self.entropy(bags[u] & bags[v]) for (u, v) in edges)
            - self.entropy(omega)
        )
        return max(0.0, j)

    def j_schema(self, bags: Iterable[frozenset]) -> float:
        """J(S) for an acyclic schema via any of its join trees (Th. 3.3).

        Raises ``ValueError`` if ``bags`` is not acyclic.
        """
        from repro.core.jointree import build_join_tree

        tree = build_join_tree(list(bags))
        if tree is None:
            raise ValueError("schema is not acyclic: no join tree exists")
        return self.j_tree(list(tree.bags), list(tree.edges))

    # -- utilities ------------------------------------------------------
    @property
    def log2_n(self) -> float:
        return math.log2(self.n_rows) if self.n_rows else 0.0

    def cache_info(self) -> dict:
        return {
            "cached": len(self._cache),
            "calls": self.entropy_calls,
            "computations": self.entropy_computations,
        }


def entropy_from_group_sizes(sizes: Sequence[int] | np.ndarray, n_rows: int) -> float:
    """H from the multiset of value-group sizes (Eq. 5), in bits.

    Groups of size 1 contribute 0 (``1 * log 1``), which is the
    singleton-pruning identity the PLI engines exploit; callers may pass
    only the non-singleton group sizes.
    """
    if n_rows <= 0:
        return 0.0
    c = np.asarray(sizes, dtype=np.float64)
    c = c[c > 1]
    s = float((c * np.log2(c)).sum())
    return max(0.0, math.log2(n_rows) - s / n_rows)
