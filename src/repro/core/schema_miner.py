"""ASMiner: enumerating acyclic schemas from mined eps-MVDs (Sec. 7).

The novel insight reproduced here is Def. 7.1: a *pairwise*
compatibility test on MVDs such that the support of any join tree is
pairwise compatible (Theorem 7.2). ASMiner (Fig 8) therefore reduces
schema enumeration to enumerating maximal independent sets of the
incompatibility graph, synthesizing one acyclic schema per set with
BuildAcyclicSchema (Fig 9). Both work on the MVDs' int masks; only a
yielded schema's bags become frozensets of names (:attr:`MinedSchema.bags`).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.core.jointree import JoinTree, build_join_tree
from repro.core.miner import Deadline
from repro.core.mvd import MVD, names_of
from repro.graphs.mis import maximal_independent_sets
from repro.hypergraph.transversal import bits


def _splits(phi: MVD, psi: MVD) -> bool:
    """Some X Ai of phi contains Y and meets two dependents of psi."""
    for a in phi.deps:
        xa = phi.key | a
        if not psi.key & ~xa and sum(1 for b in psi.deps if xa & b) >= 2:
            return True
    return False


def compatible(phi: MVD, psi: MVD) -> bool:
    """Pairwise compatibility of two MVDs (Def. 7.1).

    phi = X ->> A1|...|Am and psi = Y ->> B1|...|Bk are compatible iff
    there exist i, j with

    1. (split-free) Y <= X Ai and X <= Y Bj, and
    2. X Ai meets at least two distinct B-blocks, and Y Bj meets at
       least two distinct A-blocks.

    The conditions on i and on j are independent: :func:`_splits` each way.
    """
    return _splits(phi, psi) and _splits(psi, phi)


def build_acyclic_schema(q: Iterable[MVD], omega: int) -> tuple[int, ...]:
    """BuildAcyclicSchema (Fig 9): start from {Omega}; apply MVDs in
    ascending key-cardinality order, splitting the single relation that
    contains each key; skip redundant MVDs (splits producing < 2 parts).
    Bags are masks, ordered as their sorted names (ascending bits).
    """
    schema = [omega]
    for phi in sorted(q, key=lambda m: (m.key.bit_count(), str(m))):
        x = phi.key
        idx = next((i for i, bag in enumerate(schema) if not x & ~bag), None)
        if idx is None:
            continue  # key split across relations: redundant for this set
        bag = schema[idx]
        # Every part contains x, so dropping x drops an empty part too.
        parts = {(c | x) & bag for c in phi.deps} - {x}
        if len(parts) < 2:
            continue  # redundant MVD (does not split its relation)
        schema[idx : idx + 1] = sorted(parts, key=lambda p: tuple(bits(p)))
    # No bag lies inside another: two bags meet inside the key that split
    # them apart, later keys are no smaller, so a part inside another bag
    # would be its key, and the key alone is never a part.
    return tuple(sorted(schema, key=lambda b: tuple(bits(b))))


@dataclass(frozen=True)
class MinedSchema:
    """One enumerated schema with its supporting MVD set and join tree."""

    bags: tuple[frozenset, ...]
    support: tuple[MVD, ...]
    tree: JoinTree

    @property
    def n_relations(self) -> int:
        return len(self.bags)


def enumerate_schemas(
    mvds: Sequence[MVD],
    omega: Iterable[str],
    *,
    max_schemas: int | None = None,
    deadline_s: float | None = None,
) -> Iterator[MinedSchema]:
    """ASMiner (Fig 8). Yields de-duplicated acyclic schemas synthesized
    from maximal pairwise-compatible subsets of ``mvds``.

    The trivial schema {Omega} (every MVD in the set redundant) is
    skipped. Caps mirror the paper's enumeration windows. The deadline
    is checked once per row of the graph build and once per MIS, so it
    also bounds the quadratic build before the first schema; past it,
    :class:`~repro.core.miner.DeadlineReached` is raised after the schemas
    already yielded.
    """
    mvds = list(mvds)
    if not mvds:
        return  # only the trivial schema {Omega}
    names = mvds[0].names
    full = sum(1 << names.index(c) for c in frozenset(omega))
    n = len(mvds)
    deadline = Deadline(deadline_s)
    incompat = [0] * n
    for i in range(n):
        deadline.check()
        for j in range(i + 1, n):
            if not compatible(mvds[i], mvds[j]):
                incompat[i] |= 1 << j
                incompat[j] |= 1 << i
    seen: set[tuple[int, ...]] = set()
    for q_idx in maximal_independent_sets(n, incompat):
        deadline.check()
        q = [mvds[i] for i in q_idx]
        bags = build_acyclic_schema(q, full)
        if len(bags) < 2 or bags in seen:
            continue
        seen.add(bags)
        named = tuple(names_of(b, names) for b in bags)
        yield MinedSchema(bags=named, support=tuple(q), tree=build_join_tree(named))
        if max_schemas is not None and len(seen) >= max_schemas:
            return
