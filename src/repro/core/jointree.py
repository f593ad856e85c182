"""Join trees and acyclic schemas (Def. 3.1 and Sec. 3.2).

A schema is acyclic iff it admits a join tree: a tree over its bags
where, for every attribute, the bags containing it form a connected
subtree (the running-intersection property). We build join trees with
Kruskal's maximum-weight spanning tree on pairwise bag-intersection
sizes -- for acyclic hypergraphs every maximum-weight spanning tree is a
join tree (Maier), and we verify running intersection afterwards, so
:func:`build_join_tree` doubles as the acyclicity test.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


def normalize_schema(bags: Iterable[Iterable[str]]) -> tuple[frozenset, ...]:
    """Dedup and drop bags contained in other bags (schema requirement
    ``Omega_i !<= Omega_j``), canonical order."""
    uniq = {frozenset(b) for b in bags}
    kept = [b for b in uniq if not any(b < o for o in uniq)]
    return tuple(sorted(kept, key=lambda b: tuple(sorted(b))))


@dataclass(frozen=True)
class JoinTree:
    """A join tree: ``bags[i]`` are the nodes, ``edges`` index pairs."""

    bags: tuple[frozenset, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def attributes(self) -> frozenset:
        return frozenset().union(*self.bags)

    def separators(self) -> list[frozenset]:
        return [self.bags[u] & self.bags[v] for (u, v) in self.edges]


class _DSU:
    def __init__(self, n: int):
        self.p = list(range(n))

    def find(self, x: int) -> int:
        while self.p[x] != x:
            self.p[x] = self.p[self.p[x]]
            x = self.p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.p[ra] = rb
        return True


def _running_intersection_ok(bags: Sequence[frozenset], edges: Sequence[tuple[int, int]]) -> bool:
    adj: dict[int, list[int]] = {i: [] for i in range(len(bags))}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for attr in frozenset().union(*bags):
        holders = {i for i, b in enumerate(bags) if attr in b}
        start = next(iter(holders))
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w in holders and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen != holders:
            return False
    return True


def build_join_tree(bags: Iterable[Iterable[str]]) -> JoinTree | None:
    """Join tree of an acyclic schema, or None if the schema is cyclic.

    Bags are normalized first (dedup, drop contained bags). A schema
    whose bags do not even connect under shared attributes is still
    acyclic in the paper's sense when the "tree" is a forest of
    attribute-disjoint components; we connect such components with
    empty-separator edges (H(empty) = 0 keeps Eq. 6 unchanged).
    """
    norm = normalize_schema(bags)
    if not norm:
        return None
    if len(norm) == 1:
        return JoinTree(norm, ())
    weighted = sorted(
        (
            (len(norm[i] & norm[j]), i, j)
            for i in range(len(norm))
            for j in range(i + 1, len(norm))
        ),
        key=lambda t: (-t[0], t[1], t[2]),
    )
    dsu = _DSU(len(norm))
    edges: list[tuple[int, int]] = []
    for _, i, j in weighted:
        if dsu.union(i, j):
            edges.append((i, j))
            if len(edges) == len(norm) - 1:
                break
    if not _running_intersection_ok(norm, edges):
        return None
    return JoinTree(norm, tuple(edges))


def schema_width(bags: Iterable[Iterable[str]]) -> int:
    """width(S): attributes in the largest relation (treewidth + 1)."""
    return max(len(frozenset(b)) for b in bags)


def schema_int_width(bags: Iterable[Iterable[str]]) -> int:
    """intWidth(S): largest pairwise bag intersection."""
    bs = [frozenset(b) for b in bags]
    if len(bs) < 2:
        return 0
    return max(len(bs[i] & bs[j]) for i in range(len(bs)) for j in range(i + 1, len(bs)))
