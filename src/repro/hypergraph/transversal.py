"""Minimal hypergraph transversals (the substrate of MineMinSeps, Fig 5).

``nextMinTransversal`` in the paper enumerates minimal transversals of
the family C of already-discovered minimal separators (Theorem 6.1 /
the hypergraph-dualization problem). The asymptotically best algorithm
is Fredman-Khachiyan; at the family sizes Maimon produces per attribute
pair, Berge's sequential algorithm is exact and fast, so we use it.

Sets are int bitmasks, ordered by size, then by ascending bit positions:
the order of sorted names under the engine's bit map.

Berge's algorithm folds the sets of C left to right, so the transversals
of ``C + [s]`` follow from those of C in one step. MineMinSeps grows C by
appending one separator per round, so :func:`minimal_transversals`
keeps the results of the last few families it was asked about and
starts from the longest cached prefix of the family it is given: each
round then costs one Berge step instead of ``len(C)``.

A Berge step needs no global minimization. Let T be the minimal
transversals of C and s the new set. Every ``t`` in T that hits s stays,
and stays minimal (a smaller transversal of ``C + [s]`` would be one of
C). The candidates ``t | x`` for a ``t`` that misses s and a bit ``x`` of
s cannot contain one another (intersecting with s gives one ``x`` each,
so one would contain the other's ``t``), nor a kept transversal (it
would contain its own ``t``). So a candidate is dropped iff it contains
a kept transversal, which must then contain ``x``.
"""
from __future__ import annotations

from typing import Sequence

#: Families whose minimal transversals are kept for later calls. The miner
#: extends one family per attribute pair, so a few suffice; the bound keeps
#: the memory of a long run flat. A value depends only on its key and is
#: never mutated, so sharing the memo across callers is safe.
_MEMO_SIZE = 8
_memo: dict[tuple[int, ...], tuple[int, ...]] = {}


def bits(mask: int) -> list[int]:
    """The one-bit masks of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


def _berge_step(trs: Sequence[int], s: int) -> tuple[int, ...]:
    """Minimal transversals of ``C + [s]`` from those of C (``trs``)."""
    kept: list[int] = []
    missed: list[int] = []
    for t in trs:
        (kept if t & s else missed).append(t)
    # A kept transversal inside t | x must contain x.
    holding = {x: [k for k in kept if k & x] for x in bits(s)}
    new = []
    for t in missed:
        for x, ks in holding.items():
            c = t | x
            if not any(k & c == k for k in ks):
                new.append(c)
    return tuple(sorted(kept + new, key=lambda t: (t.bit_count(), bits(t))))


def minimal_transversals(sets: Sequence[int]) -> list[int]:
    """All minimal transversals of ``sets`` (Berge's algorithm).

    The empty family has the single transversal ``0``. A family
    containing the empty set has no transversal (cannot be hit).
    Deterministic output order (by size, then ascending bits).
    Results are memoized by family, and a call folds only the sets past
    the longest family it has cached that is a prefix of ``sets``.
    """
    key = tuple(sets)
    trs = _memo.get(key)
    if trs is None:
        start, trs = 0, (0,)
        for n in sorted({len(k) for k in tuple(_memo) if len(k) < len(key)}, reverse=True):
            hit = _memo.get(key[:n])
            if hit is not None:
                start, trs = n, hit
                break
        for s in key[start:]:
            trs = _berge_step(trs, s)
        _memo[key] = trs
        while len(_memo) > _MEMO_SIZE:
            _memo.pop(next(iter(_memo)), None)
    return list(trs)
