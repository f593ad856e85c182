"""Maximal independent set enumeration (the substrate of ASMiner, Sec 7).

ASMiner enumerates maximal independent sets of the *incompatibility*
graph over ``M_eps``. The paper cites the polynomial-delay enumerators
of Johnson-Papadimitriou-Yannakakis and Cohen-Kimelfeld-Sagiv; we use
bitset Bron-Kerbosch with pivoting (Tomita et al., TCS 2006) over the
non-neighbours, exposed as a generator so callers impose the same
caps/timeouts the paper uses (30-minute windows). At ``|M_eps|`` in the
hundreds this is comfortably fast; the polynomial delay guarantee is
only needed for adversarial instances.
"""
from __future__ import annotations

from typing import Iterator, Sequence


def maximal_independent_sets(n: int, adj: Sequence[int]) -> Iterator[list[int]]:
    """Yield all maximal independent sets of a graph given as bitmask
    adjacency, each as an ascending list of vertex indices.

    ``adj[v]`` is an int whose bit ``u`` is set iff (u, v) is an edge.
    Self-loops are ignored. Deterministic order.
    """
    full = (1 << n) - 1
    non = [full & ~adj[v] & ~(1 << v) for v in range(n)]

    def expand(r: int, p: int, x: int) -> Iterator[list[int]]:
        if p == 0 and x == 0:
            out = []
            while r:
                out.append((r & -r).bit_length() - 1)
                r &= r - 1
            yield out
            return
        # pivot: vertex of P|X with most non-neighbours in P
        pivot, best = -1, -1
        m = p | x
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            deg = (non[v] & p).bit_count()
            if deg > best:
                pivot, best = v, deg
        cand = p & ~non[pivot]
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            yield from expand(r | (1 << v), p & non[v], x & non[v])
            p &= ~(1 << v)
            x |= 1 << v

    yield from expand(0, full, 0)
