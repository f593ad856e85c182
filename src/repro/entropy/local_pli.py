"""Driver-side PLI-cache entropy engine (the miner's hot-loop oracle).

This mirrors the paper's Sec. 6.3 architecture: one scan over the data
produces, per attribute, a *stripped partition* (value groups of size
>= 2; singleton groups are dropped because ``1 * log 1 = 0`` in Eq. 5).
Partitions for attribute sets are composed by intersecting row-group
labels -- the numpy analog of the paper's ``TID`` join on tuple ids in
the in-memory H2 database. Composed partitions are LRU-cached by
attribute set. A miss on ``X`` costs one composition whenever some
``X - {a}`` is cached (a base partition when ``|X| = 2``): it is
intersected with the base partition of ``a``, trying the last attribute
first. Only when no such subset is cached is the prefix of ``X`` built
recursively. The miner's many correlated queries (``H(X)``, ``H(XY)``,
``H(XYZ)`` ...) therefore share work whatever order they arrive in.

Intersecting partitions with ``n1`` and ``n2`` groups over ``N`` rows
labels each row with its cell ``c1 * n2 + c2`` in the grid of group
pairs. When ``n1 * n2 <= 8 N`` the cells are counted densely, with one
``bincount`` over the grid; otherwise they are factorized first.

Representation: a partition of attribute set ``a`` is an int array of
length N mapping each row to its value-group id, with ``-1`` for rows
whose value is a singleton (pruned). ``None`` stands for the all-
singleton partition (every row distinct on ``a``), which absorbs any
further composition -- the compressed fixpoint the paper relies on.
"""
from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Optional

import numpy as np
import pandas as pd

from repro.entropy.base import EntropyEngine, entropy_from_group_sizes

# (codes or None, n_groups, non-singleton group sizes or None)
_Partition = tuple[Optional[np.ndarray], int, Optional[np.ndarray]]

_ALL_SINGLETON: _Partition = (None, 0, None)


def _strip(codes: np.ndarray, counts: np.ndarray) -> _Partition:
    """Renumber groups, mapping groups of size < 2 to -1 (pruned)."""
    keep = counts >= 2
    k = int(keep.sum())
    if k == 0:
        return _ALL_SINGLETON
    remap = np.full(len(counts), -1, dtype=np.int32)
    remap[keep] = np.arange(k, dtype=np.int32)
    return remap[codes], k, counts[keep]


def _factorize_strip(values: np.ndarray) -> _Partition:
    codes, _ = pd.factorize(values, use_na_sentinel=False)
    counts = np.bincount(codes)
    return _strip(codes, counts)


#: Largest ``n1 * n2 / N`` for which ``_combine`` counts cells densely.
_DENSE_CELLS_PER_ROW = 8


def _combine(p1: _Partition, p2: _Partition) -> _Partition:
    """Partition of a union from the partitions of two disjoint sets."""
    c1, n1, _ = p1
    c2, n2, _ = p2
    if c1 is None or c2 is None:
        return _ALL_SINGLETON
    # Each row's cell in the n1 x n2 grid of group pairs. Rows pruned on
    # either side go to one sentinel cell past the grid.
    n_cells = n1 * n2
    cells = c1.astype(np.int64) * n2 + c2
    cells[(c1 < 0) | (c2 < 0)] = n_cells
    if n_cells <= _DENSE_CELLS_PER_ROW * len(cells):
        counts = np.bincount(cells, minlength=n_cells + 1)
        counts[n_cells] = 0
        return _strip(cells, counts)
    codes, uniq = pd.factorize(cells)
    counts = np.bincount(codes)
    counts[uniq == n_cells] = 0
    return _strip(codes, counts)


class LocalPLIEngine(EntropyEngine):
    """Entropy oracle over an in-memory (pandas) snapshot of a relation.

    ``cache_bytes`` bounds the memory spent on composed partitions
    (base single-attribute partitions are always kept).
    """

    def __init__(
        self,
        pdf: pd.DataFrame,
        columns: Iterable[str] | None = None,
        *,
        cache_bytes: int = 1 << 30,
    ):
        cols = tuple(columns) if columns is not None else tuple(pdf.columns)
        super().__init__(cols, len(pdf))
        self._order = {c: i for i, c in enumerate(cols)}
        self._base: dict[str, _Partition] = {
            c: _factorize_strip(pdf[c].to_numpy()) for c in cols
        }
        self._parts: OrderedDict[tuple, _Partition] = OrderedDict()
        row_bytes = 4 * max(1, self.n_rows)
        self._max_entries = max(8, cache_bytes // row_bytes)

    @classmethod
    def from_spark(cls, df, columns: Iterable[str] | None = None, **kw) -> "LocalPLIEngine":
        """Build from a Spark DataFrame via one distributed collect.

        This is the reproduction's analog of the paper's single pass that
        feeds the main-memory H2 store: Spark performs the scan/transfer
        (Arrow-accelerated), the lattice lives on the driver.
        """
        cols = list(columns) if columns is not None else list(df.columns)
        return cls(df.select(*cols).toPandas(), cols, **kw)

    # -- partition lattice ---------------------------------------------
    def _key(self, fs: frozenset) -> tuple:
        return tuple(sorted(fs, key=self._order.__getitem__))

    def _cached(self, key: tuple) -> Optional[_Partition]:
        """The partition of a non-empty sorted key if it is at hand."""
        if len(key) == 1:
            return self._base[key[0]]
        part = self._parts.get(key)
        if part is not None:
            self._parts.move_to_end(key)
        return part

    def partition(self, cols: Iterable[str]) -> _Partition:
        key = self._key(frozenset(cols))
        if not key:
            raise ValueError("empty attribute set has no partition")
        part = self._cached(key)
        if part is not None:
            return part
        for i in reversed(range(len(key))):
            sub = self._cached(key[:i] + key[i + 1:])
            if sub is not None:
                part = _combine(sub, self._base[key[i]])
                break
        else:
            part = _combine(self.partition(key[:-1]), self._base[key[-1]])
        self._parts[key] = part
        while len(self._parts) > self._max_entries:
            self._parts.popitem(last=False)
        return part

    # -- oracle ---------------------------------------------------------
    def _entropy(self, cols: frozenset) -> float:
        _, _, counts = self.partition(cols)
        if counts is None:
            return self.log2_n
        return entropy_from_group_sizes(counts, self.n_rows)
