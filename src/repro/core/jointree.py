"""Join trees and acyclic schemas (Def. 3.1 and Sec. 3.2).

A schema is acyclic iff it admits a join tree: a tree over its bags
where, for every attribute, the bags containing it form a connected
subtree (the running-intersection property). :func:`build_join_tree`
grows a maximum-weight spanning tree on bag-intersection sizes with
Prim's algorithm (an acyclic schema's join trees are exactly these
trees: Bernstein & Goodman 1981; Maier 1983) and doubles as the
acyclicity test. In a spanning tree the edges whose separator holds
attribute a form a forest on the deg(a) bags holding a, so the tree is a
join tree iff its weight is sum(deg(a) - 1) = sum |bag| - |attributes|.
Edges are (parent, child) pairs, parents first from root bag 0, so
``reversed(edges)`` puts every child before its parent.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


def normalize_schema(bags: Iterable[Iterable[str]]) -> tuple[frozenset, ...]:
    """Dedup and drop bags contained in other bags (schema requirement
    ``Omega_i !<= Omega_j``), canonical order."""
    uniq = {frozenset(b) for b in bags}
    kept = [b for b in uniq if not any(b < o for o in uniq)]
    return tuple(sorted(kept, key=lambda b: tuple(sorted(b))))


@dataclass(frozen=True)
class JoinTree:
    """A join tree: ``bags[i]`` are the nodes, ``edges`` (parent, child)
    index pairs, parents first."""

    bags: tuple[frozenset, ...]
    edges: tuple[tuple[int, int], ...]


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
    # Bag outside the tree -> (weight, parent) of its heaviest edge into it.
    best = {c: (len(norm[0] & norm[c]), 0) for c in range(1, len(norm))}
    edges: list[tuple[int, int]] = []
    weight = 0
    while best:
        c = max(best, key=lambda b: best[b][0])
        w, p = best.pop(c)
        edges.append((p, c))
        weight += w
        for b, (wb, _) in best.items():
            shared = len(norm[c] & norm[b])
            if shared > wb:
                best[b] = (shared, c)
    if weight != sum(map(len, norm)) - len(frozenset().union(*norm)):
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
