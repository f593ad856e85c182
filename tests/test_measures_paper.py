"""Ground truths stated in the paper's text, plus its theorems as
numerical property tests (Sec. 3.2, 5.1, 5.2)."""
import pytest

from repro.core.jointree import build_join_tree
from repro.core.mvd import MVD
from repro.entropy.local_pli import LocalPLIEngine
from tests.helpers import (
    exact_jd_relation,
    fig1_relation,
    mvd,
    random_relation,
    sec52_relation,
    support_mvds,
)


def test_fig1_total_entropy():
    eng = LocalPLIEngine(fig1_relation())
    assert eng.entropy("ABCDEF") == pytest.approx(2.0)  # log 4 (Example 3.4)


def test_fig1_bde_entropy():
    # marginals 1/4, 1/4, 1/2 -> H(BDE) = 3/2 (Example 3.4)
    eng = LocalPLIEngine(fig1_relation())
    assert eng.entropy("BDE") == pytest.approx(1.5)


def test_lee_theorem_exact_jd():
    # Theorem 3.3: R |= AJD(S) iff J(S) = 0, on a relation built to
    # satisfy the schema {ABD, ACD, BDE, AF} exactly.
    eng = LocalPLIEngine(exact_jd_relation())
    bags = [frozenset(b) for b in ("ABD", "ACD", "BDE", "AF")]
    assert eng.j_schema(bags) == pytest.approx(0.0, abs=1e-9)


def test_lee_theorem_violated_jd():
    # One extra tuple breaks the B x C product inside the (a1, d1)
    # group -- the paper's "a single tuple invalidates the schema".
    pdf = exact_jd_relation()
    pdf.loc[len(pdf)] = ["a1", "b3", "c1", "d1", "e1", "f1"]
    eng = LocalPLIEngine(pdf)
    bags = [frozenset(b) for b in ("ABD", "ACD", "BDE", "AF")]
    assert eng.j_schema(bags) > 1e-6


def test_j_tree_independence_lee():
    # J depends only on the schema, not the chosen join tree: the star
    # schema {XU, XV, XW} has two join trees (path and star).
    pdf = random_relation(100, "XUVW", 3, 0)
    eng = LocalPLIEngine(pdf)
    bags = [frozenset(b) for b in ("XU", "XV", "XW")]
    j_path = eng.j_tree(bags, [(0, 1), (1, 2)])
    j_star = eng.j_tree(bags, [(0, 1), (0, 2)])
    assert j_path == pytest.approx(j_star, abs=1e-9)


def test_sec52_counterexample():
    """The Sec. 5.2 two-tuple relation: all three standard MVDs have
    J = 1, but the fully refined MVD has J = 2 (full MVD non-uniqueness
    for eps > 0)."""
    eng = LocalPLIEngine(sec52_relation())
    x = frozenset("X")
    assert eng.entropy("X") == pytest.approx(0.0)
    for w in ("A", "AB", "ABC", "BC"):
        assert eng.entropy(w) == pytest.approx(1.0)
    assert eng.j_mvd(mvd(x, ["AB", "C"], eng.names)) == pytest.approx(1.0)
    assert eng.j_mvd(mvd(x, ["AC", "B"], eng.names)) == pytest.approx(1.0)
    assert eng.j_mvd(mvd(x, ["BC", "A"], eng.names)) == pytest.approx(1.0)
    assert eng.j_mvd(mvd(x, ["A", "B", "C"], eng.names)) == pytest.approx(2.0)


@pytest.mark.parametrize("seed", range(6))
def test_prop52_refinement_monotone(seed):
    # phi >= psi (phi refines psi) implies J(phi) >= J(psi).
    eng = LocalPLIEngine(random_relation(80, "XABC", 3, seed))
    fine = mvd("X", ["A", "B", "C"], eng.names)
    for coarse in (mvd("X", ["AB", "C"], eng.names), mvd("X", ["AC", "B"], eng.names),
                   mvd("X", ["BC", "A"], eng.names)):
        assert eng.j_mvd(fine) >= eng.j_mvd(coarse) - 1e-9


def mvd_join(phi, psi):
    """``phi v psi`` (Lemma 5.4): the non-empty pairwise intersections of
    the dependents of two MVDs with one key."""
    return MVD.of(phi.key, [a & b for a in phi.deps for b in psi.deps if a & b], phi.names)


@pytest.mark.parametrize("seed", range(6))
def test_lemma54_join_bounds(seed):
    # J(phi v psi) <= J(phi) + m J(psi) and <= k J(phi) + J(psi).
    eng = LocalPLIEngine(random_relation(100, "XABCD", 3, seed + 50))
    phi = mvd("X", ["AB", "CD"], eng.names)
    psi = mvd("X", ["AC", "BD"], eng.names)
    j_join = eng.j_mvd(mvd_join(phi, psi))
    m, k = len(phi.deps), len(psi.deps)
    assert j_join <= eng.j_mvd(phi) + m * eng.j_mvd(psi) + 1e-9
    assert j_join <= k * eng.j_mvd(phi) + eng.j_mvd(psi) + 1e-9
    assert j_join >= max(eng.j_mvd(phi), eng.j_mvd(psi)) - 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_theorem51_identity(seed):
    """Eq. (9): J(T) equals the telescoping sum of mutual informations
    over a depth-first enumeration of the join tree."""
    eng = LocalPLIEngine(random_relation(120, "ABCDEF", 3, seed + 60))
    bags = [frozenset(b) for b in ("ABD", "ACD", "BDE", "AF")]
    tree = build_join_tree(bags)
    j = eng.j_tree(list(tree.bags), list(tree.edges))
    # DFS order from node 0; parent gives Delta_i.
    adj = {i: [] for i in range(len(tree.bags))}
    for u, v in tree.edges:
        adj[u].append(v)
        adj[v].append(u)
    order, parent, stack, seen = [0], {0: None}, [0], {0}
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                parent[w] = u
                order.append(w)
                stack.append(w)
    total = 0.0
    acc = tree.bags[order[0]]
    for node in order[1:]:
        delta = tree.bags[node] & tree.bags[parent[node]]
        total += eng.mutual_info(acc, tree.bags[node], delta)
        acc = acc | tree.bags[node]
    assert j == pytest.approx(total, abs=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_corollary52_support_bounds(seed):
    """Cor. 5.2 via Eq. (10): max_phi J(phi) <= J(T) <= sum_phi J(phi)
    over the support MVDs of the tree."""
    eng = LocalPLIEngine(random_relation(90, "ABCDEF", 3, seed + 70))
    bags = [frozenset(b) for b in ("ABD", "ACD", "BDE", "AF")]
    tree = build_join_tree(bags)
    j = eng.j_tree(list(tree.bags), list(tree.edges))
    js = [eng.j_mvd(m) for m in support_mvds(tree)]
    assert max(js) <= j + 1e-9
    assert j <= sum(js) + 1e-9
