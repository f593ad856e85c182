"""Multivalued dependencies (Sec. 3.1 and 5.2 of the paper).

An MVD ``X ->> Y1 | ... | Ym`` (m >= 2) has *key* X and pairwise
disjoint non-empty *dependents* Y1..Ym, as int bitmasks over ``names``
(the engine's sorted names, which only ``str`` reads). Instances are
immutable and canonical (dependents by lowest bit), so they hash/compare
structurally -- required by ``M_eps`` deduplication.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable


def canon(blocks: Iterable[int]) -> tuple[int, ...]:
    """Disjoint non-empty blocks in canonical order: by lowest bit."""
    return tuple(sorted(blocks, key=lambda b: b & -b))


def refines(fine: Iterable[int], coarse: tuple[int, ...]) -> bool:
    """Every block of ``fine`` lies inside a block of ``coarse``."""
    return all(any(d & e == d for e in coarse) for d in fine)


def names_of(mask: int, names: tuple[str, ...]) -> frozenset:
    """The names of the attributes in ``mask`` (bit i is ``names[i]``)."""
    return frozenset(c for i, c in enumerate(names) if mask >> i & 1)


@dataclass(frozen=True)
class MVD:
    """Canonical MVD. Build via :meth:`of` (validates and canonicalizes)."""

    key: int
    deps: tuple[int, ...]
    names: tuple[str, ...] = field(compare=False, repr=False)

    @staticmethod
    def of(key: int, deps: Iterable[int], names: tuple[str, ...]) -> "MVD":
        cdeps = canon(deps)
        if len(cdeps) < 2:
            raise ValueError("an MVD needs at least two dependents")
        seen = 0
        for d in cdeps:
            if not d:
                raise ValueError("empty dependent")
            if d & key:
                raise ValueError(f"dependent {d:#x} overlaps key {key:#x}")
            if d & seen:
                raise ValueError("dependents must be pairwise disjoint")
            seen |= d
        return MVD(key, cdeps, names)

    # -- structure ------------------------------------------------------
    def separates(self, pair: int) -> bool:
        """True iff the two attributes of ``pair`` are in two dependents (Def. 5.5)."""
        return sum(1 for d in self.deps if d & pair) == 2

    # -- refinement partial order (Sec. 5.2) ----------------------------
    def refines(self, other: "MVD") -> bool:
        """self >= other: same key, every dependent of self inside one of other."""
        return self.key == other.key and refines(self.deps, other.deps)

    @cached_property
    def label(self) -> str:
        """The MVD over names, e.g. ``"AB ->> C|DE"``; rendered once, as
        ASMiner sorts by it once per MIS. Not a field: no part of ``==``."""
        k = "".join(sorted(names_of(self.key, self.names))) or "{}"
        ds = "|".join("".join(sorted(names_of(d, self.names))) for d in self.deps)
        return f"{k} ->> {ds}"

    def __str__(self) -> str:
        return self.label
