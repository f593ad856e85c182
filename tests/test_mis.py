"""Maximal clique / maximal independent set enumeration vs brute force."""
from itertools import combinations

import numpy as np
import pytest

from repro.graphs.mis import maximal_independent_sets


def brute_max_cliques(n, edges):
    def is_clique(vs):
        return all((a, b) in edges or (b, a) in edges for a, b in combinations(vs, 2))

    cliques = [
        frozenset(c)
        for r in range(n + 1)
        for c in combinations(range(n), r)
        if is_clique(c)
    ]
    return {c for c in cliques if not any(c < o for o in cliques)}


def maximal_cliques(n, adj):
    """Maximal cliques of ``adj``: the maximal independent sets of its complement."""
    full = (1 << n) - 1
    comp = [full & ~adj[v] & ~(1 << v) for v in range(n)]
    return [frozenset(s) for s in maximal_independent_sets(n, comp)]


def adj_from_edges(n, edges):
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def test_empty_graph_single_empty_clique():
    assert list(maximal_cliques(0, [])) == [frozenset()]


def test_no_edges_each_vertex_maximal():
    out = set(maximal_cliques(3, [0, 0, 0]))
    assert out == {frozenset({0}), frozenset({1}), frozenset({2})}


def test_complete_graph_one_clique():
    adj = adj_from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert set(maximal_cliques(4, adj)) == {frozenset(range(4))}


def test_path_graph():
    adj = adj_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert set(maximal_cliques(4, adj)) == {
        frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})
    }


def test_mis_is_clique_of_complement():
    adj = adj_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    out = {frozenset(s) for s in maximal_independent_sets(4, adj)}
    assert out == {frozenset({0, 2}), frozenset({1, 3}), frozenset({0, 3})}


@pytest.mark.parametrize("seed", range(12))
def test_matches_brute_force_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                edges.add((i, j))
    got = set(maximal_cliques(n, adj_from_edges(n, edges)))
    assert got == brute_max_cliques(n, edges)


@pytest.mark.parametrize("seed", range(6))
def test_mis_properties(seed):
    rng = np.random.default_rng(seed + 100)
    n = 7
    edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3}
    adj = adj_from_edges(n, edges)
    for s in maximal_independent_sets(n, adj):
        assert s == sorted(set(s))
        # independent
        assert not any((a, b) in edges or (b, a) in edges for a, b in combinations(s, 2))
        # maximal: every outside vertex has a neighbour inside
        for v in set(range(n)) - set(s):
            assert any(adj[v] >> u & 1 for u in s)
