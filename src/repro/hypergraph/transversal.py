"""Minimal hypergraph transversals (the substrate of MineMinSeps, Fig 5).

``nextMinTransversal`` in the paper enumerates minimal transversals of
the family C of already-discovered minimal separators (Theorem 6.1 /
the hypergraph-dualization problem). The asymptotically best algorithm
is Fredman-Khachiyan; at the family sizes Maimon produces per attribute
pair, Berge's sequential algorithm is exact and fast, so we use it.

Berge's algorithm folds the sets of C left to right, so the transversals
of ``C + [s]`` follow from those of C in one step. MineMinSeps grows C by
appending one separator per round, so :func:`minimal_transversals`
keeps the results of the last few families it was asked about and
starts from the longest cached prefix of the family it is given: each
round then costs one Berge step instead of ``len(C)``.

A Berge step needs no global minimization. Let T be the minimal
transversals of C and s the new set. Every ``t`` in T that hits s stays,
and stays minimal (a smaller transversal of ``C + [s]`` would be one of
C). The candidates ``t | {x}`` for a ``t`` that misses s and ``x`` in s
cannot contain one another (intersecting with s gives one ``x`` each, so
one would contain the other's ``t``), nor a kept transversal (it would
contain its own ``t``). So a candidate is dropped iff it contains a kept
transversal, which must then contain ``x``.
"""
from __future__ import annotations

from typing import Iterable, Sequence

#: Families whose minimal transversals are kept for later calls. The miner
#: extends one family per attribute pair, so a few suffice; the bound keeps
#: the memory of a long run flat. A value depends only on its key and is
#: never mutated, so sharing the memo across callers is safe.
_MEMO_SIZE = 8
_memo: dict[tuple[frozenset, ...], tuple[frozenset, ...]] = {}


def is_transversal(d: frozenset, sets: Iterable[frozenset]) -> bool:
    """True iff ``d`` intersects every member of ``sets``."""
    return all(d & s for s in sets)


def _order(t: frozenset) -> tuple:
    return (len(t), tuple(sorted(t)))


def _berge_step(trs: Sequence[frozenset], s: frozenset) -> tuple[frozenset, ...]:
    """Minimal transversals of ``C + [s]`` from those of C (``trs``)."""
    kept: list[frozenset] = []
    missed: list[frozenset] = []
    for t in trs:
        (missed if s.isdisjoint(t) else kept).append(t)
    # A kept transversal inside t | {x} must contain x.
    holding = {x: [t for t in kept if x in t] for x in s}
    new = []
    for t in missed:
        for x in s:
            c = t | {x}
            if not any(k <= c for k in holding[x]):
                new.append(c)
    return tuple(sorted(kept + new, key=_order))


def minimal_transversals(sets: Sequence[frozenset]) -> list[frozenset]:
    """All minimal transversals of ``sets`` (Berge's algorithm).

    The empty family has the single transversal ``{}``. A family
    containing the empty set has no transversal (cannot be hit).
    Deterministic output order (by size, then sorted elements).
    Results are memoized by family, and a call folds only the sets past
    the longest family it has cached that is a prefix of ``sets``.
    """
    key = tuple(sets)
    trs = _memo.get(key)
    if trs is None:
        start, trs = 0, (frozenset(),)
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
