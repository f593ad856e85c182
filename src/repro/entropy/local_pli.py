"""Driver-side PLI-cache entropy engine (the miner's hot-loop oracle).

This mirrors the paper's Sec. 6.3 architecture: one scan over the data
produces, per attribute, a *stripped partition* (value groups of size
>= 2; singleton groups are dropped because ``1 * log 1 = 0`` in Eq. 5).
Partitions for attribute sets are composed by intersecting row-group
labels -- the numpy analog of the paper's ``TID`` join on tuple ids in
the in-memory H2 database. Composed partitions are LRU-cached by
attribute mask, and a base partition is keyed by its one-bit mask. A
miss on ``X`` costs one composition whenever some ``X - {a}`` is cached
(a base partition when ``|X| = 2``): it is intersected with the base
partition of ``a``, trying the highest bit first. Only when no such
subset is cached is ``X`` minus its highest bit built recursively. The
miner's many correlated queries (``H(X)``, ``H(XY)``, ``H(XYZ)`` ...)
therefore share work whatever order they arrive in.

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
from typing import Optional

import numpy as np
import pandas as pd

from repro.entropy.base import Attrs, EntropyEngine, entropy_from_group_sizes

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


#: Bound on the bytes of composed partitions an engine caches.
_CACHE_BYTES = 1 << 30

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

    ``_CACHE_BYTES`` bounds the memory spent on composed partitions
    (base single-attribute partitions are always kept).
    """

    def __init__(self, pdf: pd.DataFrame):
        cols = tuple(pdf.columns)
        super().__init__(cols, len(pdf))
        self._base: dict[int, _Partition] = {
            1 << self.bit[c]: _factorize_strip(pdf[c].to_numpy()) for c in cols
        }
        self._parts: OrderedDict[int, _Partition] = OrderedDict()
        row_bytes = 4 * max(1, self.n_rows)
        self._max_entries = max(8, _CACHE_BYTES // row_bytes)

    @classmethod
    def from_spark(cls, df) -> "LocalPLIEngine":
        """Build from a Spark DataFrame via one distributed collect.

        This is the reproduction's analog of the paper's single pass that
        feeds the main-memory H2 store: Spark performs the scan/transfer
        (Arrow-accelerated), the lattice lives on the driver.
        """
        return cls(df.toPandas())

    # -- partition lattice ---------------------------------------------
    def _cached(self, mask: int) -> Optional[_Partition]:
        """The partition of ``mask`` if it is at hand."""
        part = self._parts.get(mask)
        if part is None:
            return self._base.get(mask)
        self._parts.move_to_end(mask)
        return part

    def partition(self, cols: Attrs) -> _Partition:
        mask = self.mask(cols)
        part = self._cached(mask)
        if part is not None:
            return part
        if not mask:
            raise ValueError("empty attribute set has no partition")
        for i in reversed(range(mask.bit_length())):
            top = 1 << i
            if mask & top and (sub := self._cached(mask ^ top)) is not None:
                break
        else:
            top = 1 << (mask.bit_length() - 1)
            sub = self.partition(mask ^ top)
        part = _combine(sub, self._base[top])
        self._parts[mask] = part
        while len(self._parts) > self._max_entries:
            self._parts.popitem(last=False)
        return part

    # -- oracle ---------------------------------------------------------
    def _entropy(self, mask: int) -> float:
        _, _, counts = self.partition(mask)
        if counts is None:
            return self.log2_n
        return entropy_from_group_sizes(counts, self.n_rows)
