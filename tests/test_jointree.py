"""Join trees, acyclicity detection, support MVDs (Sec. 3.1, Def. 3.1)."""
import pytest

from repro.core.jointree import (
    build_join_tree,
    normalize_schema,
    schema_int_width,
    schema_width,
)
from repro.core.mvd import MVD
from tests.helpers import support_mvds


def fs(*names):
    return [frozenset(n) for n in names]


def test_normalize_drops_contained_and_duplicates():
    bags = fs("AB", "AB", "A", "BC")
    assert set(normalize_schema(bags)) == {frozenset("AB"), frozenset("BC")}


def test_single_bag_tree():
    t = build_join_tree(fs("ABC"))
    assert t.bags == (frozenset("ABC"),)
    assert t.edges == ()
    assert support_mvds(t) == []


def test_paper_schema_is_acyclic():
    t = build_join_tree(fs("ABD", "ACD", "BDE", "AF"))
    assert t is not None
    assert len(t.edges) == 3
    seps = {frozenset(s) for s in t.separators()}
    assert seps == {frozenset("AD"), frozenset("BD"), frozenset("A")}


def test_support_of_paper_schema():
    # Example 3.2: MVD(T) = {BD->>E|ACF, AD->>CF|BE, A->>F|BCDE}.
    t = build_join_tree(fs("ABD", "ACD", "BDE", "AF"))
    sup = set(support_mvds(t))
    expected_keys = {frozenset("BD"), frozenset("AD"), frozenset("A")}
    assert {m.key for m in sup} == expected_keys
    for m in sup:
        if m.key == frozenset("BD"):
            assert set(m.deps) == {frozenset("E"), frozenset("ACF")}
        if m.key == frozenset("A"):
            assert set(m.deps) == {frozenset("F"), frozenset("BCDE")}


def test_triangle_schema_is_cyclic():
    assert build_join_tree(fs("AB", "BC", "CA")) is None


def test_cycle_of_four_is_cyclic():
    assert build_join_tree(fs("AB", "BC", "CD", "DA")) is None


def test_path_schema_acyclic():
    t = build_join_tree(fs("AB", "BC", "CD"))
    assert t is not None
    assert {frozenset(s) for s in t.separators()} == {frozenset("B"), frozenset("C")}


def test_star_schema_acyclic():
    t = build_join_tree(fs("XA", "XB", "XC"))
    assert t is not None
    assert all(s == frozenset("X") for s in t.separators())
    sup = support_mvds(t)
    assert all(m.key == frozenset("X") for m in sup)


def test_disconnected_components_connected_by_empty_separator():
    t = build_join_tree(fs("AB", "CD"))
    assert t is not None
    assert t.separators() == [frozenset()]
    assert support_mvds(t) == [MVD.of("", ["AB", "CD"])]


def test_running_intersection_violation_detected():
    # {AB, C, AC-ish trap}: bags AB, BC, ABD arranged so MST is forced
    # into a valid tree -- instead use a genuinely cyclic hypergraph.
    assert build_join_tree(fs("ABC", "CDE", "EFA", "ACE")) is not None
    assert build_join_tree(fs("ABC", "CDE", "EFA")) is None


def test_schema_width_and_int_width():
    bags = fs("ABD", "ACD", "BDE", "AF")
    assert schema_width(bags) == 3
    assert schema_int_width(bags) == 2  # |ABD & ACD| = |AD|
    assert schema_int_width(fs("ABC")) == 0


def test_support_mvds_cover_all_edges():
    t = build_join_tree(fs("AB", "BC", "CD", "DE"))
    sup = support_mvds(t)
    assert len(sup) == len(t.edges) == 3
    # every MVD partitions the full attribute set
    for m in sup:
        assert m.key | frozenset().union(*m.deps) == frozenset("ABCDE")


@pytest.mark.parametrize("seed", range(6))
def test_random_planted_schema_is_acyclic(seed):
    import numpy as np

    from repro.datasets import attr_names, random_tree_schema

    rng = np.random.default_rng(seed)
    schema = random_tree_schema(attr_names(10), rng)
    bags = [b for b, _ in schema]
    assert build_join_tree(bags) is not None
