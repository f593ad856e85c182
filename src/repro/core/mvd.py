"""Multivalued dependencies (Sec. 3.1 and 5.2 of the paper).

An MVD ``X ->> Y1 | ... | Ym`` (m >= 2) has *key* X and pairwise
disjoint non-empty *dependents* Y1..Ym. Instances are immutable and
canonical (dependents sorted), so they hash/compare structurally --
required by ``M_eps`` deduplication.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


def _canon_deps(deps: Iterable[Iterable[str]]) -> tuple[frozenset, ...]:
    return tuple(sorted((frozenset(d) for d in deps), key=lambda d: tuple(sorted(d))))


@dataclass(frozen=True)
class MVD:
    """Canonical MVD. Build via :meth:`of` (validates and canonicalizes)."""

    key: frozenset
    deps: tuple[frozenset, ...] = field()

    @staticmethod
    def of(key: Iterable[str], deps: Iterable[Iterable[str]]) -> "MVD":
        key = frozenset(key)
        cdeps = _canon_deps(deps)
        if len(cdeps) < 2:
            raise ValueError("an MVD needs at least two dependents")
        seen: set = set()
        for d in cdeps:
            if not d:
                raise ValueError("empty dependent")
            if d & key:
                raise ValueError(f"dependent {sorted(d)} overlaps key {sorted(key)}")
            if d & seen:
                raise ValueError("dependents must be pairwise disjoint")
            seen |= d
        return MVD(key, cdeps)

    # -- structure ------------------------------------------------------
    def separates(self, a: str, b: str) -> bool:
        """True iff a and b occur in two distinct dependents (Def. 5.5)."""
        return any(a in d and b not in d for d in self.deps) and any(b in d for d in self.deps)

    # -- refinement partial order (Sec. 5.2) ----------------------------
    def refines(self, other: "MVD") -> bool:
        """self >= other: same key, every dependent of self inside one of other."""
        if self.key != other.key:
            return False
        return all(any(d <= e for e in other.deps) for d in self.deps)

    def strictly_refines(self, other: "MVD") -> bool:
        return self != other and self.refines(other)

    def __str__(self) -> str:  # e.g. "AB ->> C|DE"
        k = "".join(sorted(self.key)) or "{}"
        ds = "|".join("".join(sorted(d)) for d in self.deps)
        return f"{k} ->> {ds}"
