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
labels each row with its cell ``c1 * (n2 + 1) + c2`` in the grid of
group-id pairs. Cells in row 0 or column 0 of the grid hold the rows
pruned on either side; they are zeroed before stripping, so no pass over
the rows masks them. When the grid has at most ``8 N`` cells they are
counted densely, with one ``bincount``; otherwise they are factorized
first.

Representation: a partition of attribute set ``a`` is an array of length
N mapping each row to its value-group id ``1..k``, with ``0`` for rows
whose value is a singleton (pruned). Codes are stored in the narrowest
dtype that holds ``k`` (``uint8`` up to 255 groups, ``uint16`` up to
65,535, else ``int32``), so a partition takes one to four bytes a row.
Its non-singleton group sizes are stored the same way, in the narrowest
dtype that holds N.
``None`` stands for the all-singleton partition (every row distinct on
``a``), which absorbs any further composition -- the compressed fixpoint
the paper relies on. The cache of composed partitions is bounded by the
bytes it holds (codes plus group sizes), ``_CACHE_BYTES``, and never
shrinks below its ``_MIN_ENTRIES`` most recent entries.
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


def _narrow_dtype(n: int) -> type:
    """The narrowest dtype holding ``0..n``."""
    return np.uint8 if n <= 0xFF else np.uint16 if n <= 0xFFFF else np.int32


def _strip(codes: np.ndarray, counts: np.ndarray) -> _Partition:
    """Renumber the groups of size >= 2 as ``1..k``; the rest go to 0.
    ``codes`` has one entry per row, so its length bounds every size."""
    keep = counts >= 2
    k = np.count_nonzero(keep)
    if k == 0:
        return _ALL_SINGLETON
    dtype = _narrow_dtype(k)
    remap = np.zeros(len(counts), dtype=dtype)
    remap[keep] = np.arange(1, k + 1, dtype=dtype)
    return remap[codes], k, counts[keep].astype(_narrow_dtype(len(codes)))


def _factorize_strip(values: np.ndarray) -> _Partition:
    codes, _ = pd.factorize(values, use_na_sentinel=False)
    counts = np.bincount(codes)
    return _strip(codes, counts)


def _nbytes(part: _Partition) -> int:
    codes, _, counts = part
    return 0 if codes is None else codes.nbytes + counts.nbytes


#: Bound on the bytes of composed partitions an engine caches.
_CACHE_BYTES = 1 << 30

#: Composed partitions an engine keeps whatever their size.
_MIN_ENTRIES = 8

#: Most grid cells per row for which ``_combine`` counts cells densely.
_DENSE_CELLS_PER_ROW = 8


def _combine(p1: _Partition, p2: _Partition) -> _Partition:
    """Partition of a union from the partitions of two disjoint sets."""
    c1, n1, _ = p1
    c2, n2, _ = p2
    if c1 is None or c2 is None:
        return _ALL_SINGLETON
    # Each row's cell in the (n1+1) x (n2+1) grid of group-id pairs; rows
    # pruned on either side land in row 0 or column 0. int64 cells: int32
    # ones are no faster, as ``bincount`` casts its input to intp.
    width = n2 + 1
    cells = c1.astype(np.int64)
    cells *= width
    cells += c2
    n_cells = (n1 + 1) * width
    if n_cells <= _DENSE_CELLS_PER_ROW * len(cells):
        counts = np.bincount(cells, minlength=n_cells)
        grid = counts.reshape(n1 + 1, width)
        grid[0] = 0
        grid[:, 0] = 0
        return _strip(cells, counts)
    codes, uniq = pd.factorize(cells)
    counts = np.bincount(codes)
    counts[(uniq < width) | (uniq % width == 0)] = 0
    return _strip(codes, counts)


class LocalPLIEngine(EntropyEngine):
    """Entropy oracle over an in-memory (pandas) snapshot of a relation.

    ``_CACHE_BYTES`` bounds the bytes held in composed partitions beyond
    the ``_MIN_ENTRIES`` most recent (base single-attribute partitions
    are always kept).
    """

    def __init__(self, pdf: pd.DataFrame):
        cols = tuple(pdf.columns)
        super().__init__(cols, len(pdf))
        self._base: dict[int, _Partition] = {
            1 << self.bit[c]: _factorize_strip(pdf[c].to_numpy()) for c in cols
        }
        self._parts: OrderedDict[int, _Partition] = OrderedDict()
        self._held_bytes = 0  # _nbytes summed over self._parts

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
        self._held_bytes += _nbytes(part)
        while self._held_bytes > _CACHE_BYTES and len(self._parts) > _MIN_ENTRIES:
            self._held_bytes -= _nbytes(self._parts.popitem(last=False)[1])
        return part

    # -- oracle ---------------------------------------------------------
    def _entropy(self, mask: int) -> float:
        _, _, counts = self.partition(mask)
        if counts is None:
            return self.log2_n
        return entropy_from_group_sizes(counts, self.n_rows)
