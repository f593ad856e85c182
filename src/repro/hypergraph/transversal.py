"""Minimal hypergraph transversals (the substrate of MineMinSeps, Fig 5).

``nextMinTransversal`` in the paper enumerates minimal transversals of
the family C of already-discovered minimal separators (Theorem 6.1 /
the hypergraph-dualization problem). The asymptotically best algorithm
is Fredman-Khachiyan; at the family sizes Maimon produces per attribute
pair, Berge's sequential algorithm is exact and fast, so we use it.

Sets are int bitmasks, ordered by size, then by ascending bit positions:
the order of sorted names under the engine's bit map.

Berge's algorithm folds the sets of C left to right, so the transversals
of ``C + [s]`` follow from those of C in one step. The one caller,
MineMinSeps, appends one separator per round and runs the attribute
pairs one after another, so :func:`minimal_transversals` keeps only the
family it was last asked about: a family that extends it costs one Berge
step per new set, and any other family is folded from scratch.

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

#: The last family asked about and its minimal transversals (immutable).
_last: tuple[tuple[int, ...], tuple[int, ...]] = ((), (0,))


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
    A call folds only the sets past the previous call's family when
    that family is a prefix of ``sets``.
    """
    global _last
    key = tuple(sets)
    done, trs = _last
    if key[: len(done)] != done:
        done, trs = (), (0,)
    for s in key[len(done):]:
        trs = _berge_step(trs, s)
    _last = (key, trs)
    return list(trs)
