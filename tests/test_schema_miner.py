"""ASMiner: compatibility (Def 7.1), BuildAcyclicSchema (Fig 9), and the
end-to-end schema enumeration (Fig 8)."""
import hashlib
from itertools import combinations

import pytest

import repro.core.schema_miner as schema_miner
from repro import datasets
from repro.core.jointree import build_join_tree
from repro.core.miner import DeadlineReached, MVDMiner
from repro.core.mvd import names_of
from repro.core.schema_miner import (
    build_acyclic_schema,
    compatible,
    enumerate_schemas,
)
from repro.entropy.local_pli import LocalPLIEngine
from tests.helpers import mask_of, mvd, random_relation, support_mvds


def fs(*names):
    return [frozenset(n) for n in names]


# ---------------------------------------------------------------------------
# compatibility (Def. 7.1 / Theorem 7.2)
# ---------------------------------------------------------------------------
def test_path_tree_support_compatible():
    t = build_join_tree(fs("AB", "BC", "CD"))
    sup = support_mvds(t)
    for i in range(len(sup)):
        for j in range(i + 1, len(sup)):
            assert compatible(sup[i], sup[j])


def test_paper_tree_support_compatible():
    t = build_join_tree(fs("ABD", "ACD", "BDE", "AF"))
    sup = support_mvds(t)
    assert len(sup) == 3
    for i in range(len(sup)):
        for j in range(i + 1, len(sup)):
            assert compatible(sup[i], sup[j]), (str(sup[i]), str(sup[j]))


@pytest.mark.parametrize("seed", range(8))
def test_theorem72_random_trees(seed):
    """The support of any join tree is pairwise compatible."""
    import numpy as np

    from repro.datasets import attr_names, random_tree_schema

    rng = np.random.default_rng(seed + 7)
    schema = random_tree_schema(attr_names(9), rng)
    t = build_join_tree([b for b, _ in schema])
    sup = support_mvds(t)
    for i in range(len(sup)):
        for j in range(i + 1, len(sup)):
            assert compatible(sup[i], sup[j]), (str(sup[i]), str(sup[j]))


def test_incompatible_crossing_mvds():
    # X ->> A|BC and A ->> X|BC over {X,A,B,C}: the second key A is not
    # contained in X union a single dependent side in a split-free way
    # with two-block crossings on both sides.
    phi = mvd("X", ["AB", "C"])
    psi = mvd("C", ["A", "BX"])
    # phi, psi cannot be the support of one join tree: verify the
    # definition's verdict is symmetric at least.
    assert compatible(phi, psi) == compatible(psi, phi)


def test_compatibility_symmetry_random():
    import numpy as np

    rng = np.random.default_rng(3)
    attrs = list("ABCDE")
    for _ in range(30):
        k1 = frozenset(rng.choice(attrs, rng.integers(0, 2), replace=False))
        rest1 = [a for a in attrs if a not in k1]
        cut = rng.integers(1, len(rest1))
        phi = mvd(k1, [rest1[:cut], rest1[cut:]])
        k2 = frozenset(rng.choice(attrs, rng.integers(0, 2), replace=False))
        rest2 = [a for a in attrs if a not in k2]
        cut2 = rng.integers(1, len(rest2))
        psi = mvd(k2, [rest2[:cut2], rest2[cut2:]])
        assert compatible(phi, psi) == compatible(psi, phi)


# ---------------------------------------------------------------------------
# BuildAcyclicSchema (Fig 9)
# ---------------------------------------------------------------------------
def build_over_names(q, omega):
    """build_acyclic_schema on the bit map of ``q``'s MVDs, its bags as names."""
    return {names_of(b, q[0].names) for b in build_acyclic_schema(q, mask_of(omega, q[0].names))}


def test_build_from_paper_support():
    t = build_join_tree(fs("ABD", "ACD", "BDE", "AF"))
    sup = support_mvds(t)
    bags = build_over_names(sup, "ABCDEF")
    assert bags == {
        frozenset("ABD"), frozenset("ACD"), frozenset("BDE"), frozenset("AF")
    }


def test_build_single_mvd():
    bags = build_over_names([mvd("X", ["A", "B"])], "XAB")
    assert bags == {frozenset("XA"), frozenset("XB")}


def test_build_multi_dependent_mvd():
    bags = build_over_names([mvd("X", ["A", "B", "C"])], "XABC")
    assert bags == {frozenset("XA"), frozenset("XB"), frozenset("XC")}


def test_redundant_mvd_skipped():
    # After X ->> A|BC splits {XABC} into {XA, XBC}, the MVD
    # XBC ->> nothing-to-split is redundant; schema unchanged.
    q = [mvd("X", ["A", "BC"])]
    bags1 = build_over_names(q, "XABC")
    q2 = q + [mvd("XA", ["B", "C"])]  # key XA inside no single bag? XA in XA bag only; splits nothing there
    bags2 = build_over_names(q2, "XABC")
    assert bags1 == {frozenset("XA"), frozenset("XBC")}
    assert bags2 >= {frozenset("XA")}


def test_build_result_always_acyclic():
    import numpy as np

    rng = np.random.default_rng(11)
    for seed in range(10):
        pdf = random_relation(30, "ABCDE", 2, seed + 60)
        res = MVDMiner(LocalPLIEngine(pdf), 0.4).mine()
        for schema in enumerate_schemas(res.full_mvds, "ABCDE", max_schemas=10):
            assert build_join_tree(schema.bags) is not None


@pytest.mark.parametrize("seed", range(6))
def test_theorem74_support_subset_of_q(seed):
    """The synthesized schema's join-tree support is contained in Q up
    to coarsening: every support MVD of the built tree must be implied
    by (have J bounded by) the set Q -- we check the structural half:
    each tree separator appears as a key in Q."""
    pdf = random_relation(40, "ABCDE", 2, seed + 80)
    res = MVDMiner(LocalPLIEngine(pdf), 0.4).mine()
    for schema in enumerate_schemas(res.full_mvds, "ABCDE", max_schemas=5):
        keys = {names_of(m.key, m.names) for m in schema.support}
        for sep in (schema.tree.bags[u] & schema.tree.bags[v] for u, v in schema.tree.edges):
            assert sep in keys or any(sep <= k for k in keys)


# ---------------------------------------------------------------------------
# enumerate_schemas (Fig 8)
# ---------------------------------------------------------------------------
def test_enumeration_deduplicates():
    pdf = random_relation(30, "ABCD", 2, 5)
    res = MVDMiner(LocalPLIEngine(pdf), 0.5).mine()
    schemas = list(enumerate_schemas(res.full_mvds, "ABCD"))
    assert len({s.bags for s in schemas}) == len(schemas)


def test_max_schemas_cap():
    pdf = random_relation(30, "ABCDE", 2, 6)
    res = MVDMiner(LocalPLIEngine(pdf), 0.5).mine()
    assert len(list(enumerate_schemas(res.full_mvds, "ABCDE", max_schemas=3))) <= 3


def test_supports_are_pairwise_compatible():
    pdf = random_relation(30, "ABCDE", 2, 7)
    res = MVDMiner(LocalPLIEngine(pdf), 0.4).mine()
    for schema in enumerate_schemas(res.full_mvds, "ABCDE", max_schemas=10):
        q = schema.support
        for i in range(len(q)):
            for j in range(i + 1, len(q)):
                assert compatible(q[i], q[j])


def test_corollary52_j_bound():
    """Every enumerated schema S with m relations built from eps-MVDs
    satisfies J(S) <= (m-1) * eps (Cor. 5.2 / Sec. 4)."""
    eps = 0.3
    pdf = random_relation(40, "ABCDE", 2, 8)
    engine = LocalPLIEngine(pdf)
    res = MVDMiner(engine, eps).mine()
    for schema in enumerate_schemas(res.full_mvds, "ABCDE", max_schemas=20):
        j = engine.j_tree(list(schema.tree.bags), list(schema.tree.edges))
        assert j <= (len(schema.bags) - 1) * eps + 1e-6


def test_empty_mvd_set_yields_nothing():
    assert list(enumerate_schemas([], "ABC")) == []


def test_deadline_stops_enumeration():
    pdf = random_relation(30, "ABCDE", 2, 9)
    res = MVDMiner(LocalPLIEngine(pdf), 0.5).mine()
    with pytest.raises(DeadlineReached):
        list(enumerate_schemas(res.full_mvds, "ABCDE", deadline_s=0.0))


def test_deadline_bounds_the_graph_build(monkeypatch):
    """The incompatibility graph costs n^2/2 compatibility tests before
    the first schema; an expired deadline must stop it before the first."""
    cols = "ABCDEFGH"
    mvds = [
        mvd(key, [rest[:i], rest[i:]])
        for key in combinations(cols, 2)
        for rest in [[c for c in cols if c not in key]]
        for i in (1, 3)
    ]
    assert len(mvds) >= 50
    calls = []

    def counting(phi, psi):
        calls.append(1)
        return compatible(phi, psi)

    monkeypatch.setattr(schema_miner, "compatible", counting)
    with pytest.raises(DeadlineReached):
        list(enumerate_schemas(mvds, cols, max_schemas=50, deadline_s=0.0))
    assert calls == []
    assert list(enumerate_schemas(mvds, cols, max_schemas=1))
    assert calls


def test_capped_nursery_schemes_are_pinned():
    """``max_schemas`` binds on Nursery at eps = 0.05, so the capped scheme
    set depends on the MIS order; pin the schemes and their order."""
    engine = LocalPLIEngine(datasets.nursery())
    out = []
    for eps in (0.02, 0.05):
        res = MVDMiner(engine, eps).mine()
        assert res.complete
        out += [
            " / ".join("".join(sorted(b)) for b in s.bags)
            for s in enumerate_schemas(res.full_mvds, engine.columns, max_schemas=200)
        ]
    assert len(out) == 88 + 200
    assert hashlib.sha256("\n".join(out).encode()).hexdigest() == (
        "04842c49dcde8c3553fb51ed891c4274b1db75b28c3edb65ba30cbfb69d28c0d"
    )
