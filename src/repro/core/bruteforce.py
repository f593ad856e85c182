"""Exhaustive reference implementations (test oracle + naive baseline).

The paper has no external competitor system; the natural baseline is
the definition itself: enumerate all subsets / set partitions and test
the J-measure. These functions are exponential and only usable for
small attribute counts, which is exactly the point -- they are the
ground truth the miner is validated against, and the baseline the
benchmarks compare runtime with.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterator, Sequence

from repro.core.mvd import MVD
from repro.entropy.base import FLOAT_TOL, EntropyEngine


def set_partitions(items: Sequence[str]) -> Iterator[list[list[str]]]:
    """All set partitions of ``items`` (restricted growth strings)."""
    items = list(items)
    if not items:
        yield []
        return

    def rec(i: int, parts: list[list[str]]) -> Iterator[list[list[str]]]:
        if i == len(items):
            yield [list(p) for p in parts]
            return
        for p in parts:
            p.append(items[i])
            yield from rec(i + 1, parts)
            p.pop()
        parts.append([items[i]])
        yield from rec(i + 1, parts)
        parts.pop()

    yield from rec(0, [])


def brute_separates(
    engine: EntropyEngine, x: frozenset, a: str, b: str, eps: float
) -> bool:
    """Def 5.5 directly: does any eps-MVD with key ``x`` separate a, b?

    It suffices to check standard (2-dependent) MVDs: coarsening a
    multi-dependent MVD into the A-side and B-side groups never
    increases J (Prop. 5.2).
    """
    rest = sorted(set(engine.columns) - x - {a, b})
    for r in range(len(rest) + 1):
        for extra in combinations(rest, r):
            y = frozenset({a, *extra})
            z = frozenset(set(rest) - set(extra) | {b})
            if engine.mutual_info(y, z, x) <= eps + FLOAT_TOL:
                return True
    return False


def brute_min_seps(
    engine: EntropyEngine, a: str, b: str, eps: float
) -> list[frozenset]:
    """All inclusion-minimal A,B-separators, by definition."""
    others = sorted(set(engine.columns) - {a, b})
    seps: list[frozenset] = []
    for r in range(len(others) + 1):
        for xs in combinations(others, r):
            x = frozenset(xs)
            if any(s <= x for s in seps):
                continue  # a subset already separates => not minimal
            if brute_separates(engine, x, a, b, eps):
                seps.append(x)
    return sorted(seps, key=lambda s: (len(s), tuple(sorted(s))))


def brute_full_mvds(
    engine: EntropyEngine,
    key: frozenset,
    eps: float,
    pair: tuple[str, str] | None = None,
) -> list[MVD]:
    """All full eps-MVDs with key ``key`` (optionally separating a pair).

    Enumerates every partition of the non-key attributes, keeps those
    with J <= eps, then drops any MVD strictly refined by another kept
    MVD (the 'full' condition of Sec. 5.2).
    """
    rest = sorted(set(engine.columns) - key)
    sat: list[MVD] = []
    for parts in set_partitions(rest):
        if len(parts) < 2:
            continue
        mvd = MVD.of(engine.mask(key), map(engine.mask, parts), engine.names)
        if pair is not None and not mvd.separates(engine.mask(pair)):
            continue
        if engine.j_mvd(mvd) <= eps + FLOAT_TOL:
            sat.append(mvd)
    return sorted(
        (m for m in sat if not any(o != m and o.refines(m) for o in sat)),
        key=str,
    )


def brute_mine(engine: EntropyEngine, eps: float) -> set[MVD]:
    """The exhaustive analog of MVDMiner's output ``M_eps`` (Eq. 11)."""
    cols = list(engine.columns)
    out: set[MVD] = set()
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            a, b = cols[i], cols[j]
            for x in brute_min_seps(engine, a, b, eps):
                for m in brute_full_mvds(engine, x, eps, (a, b)):
                    out.add(m)
    return out
