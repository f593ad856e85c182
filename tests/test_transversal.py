"""Minimal hypergraph transversals vs exhaustive enumeration and vs a
from-scratch Berge fold."""
import sys
from itertools import combinations

import numpy as np
import pytest

import repro.hypergraph.transversal as transversal
from repro.hypergraph.transversal import is_transversal, minimal_transversals


def brute_minimal_transversals(sets, universe):
    all_tr = [
        frozenset(c)
        for r in range(len(universe) + 1)
        for c in combinations(sorted(universe), r)
        if is_transversal(frozenset(c), sets)
    ]
    return sorted(
        (t for t in all_tr if not any(o < t for o in all_tr)),
        key=lambda t: (len(t), tuple(sorted(t))),
    )


def berge_from_scratch(sets):
    """Reference: Berge's fold over the whole family, minimizing globally
    after every set."""
    if any(not s for s in sets):
        return []
    trs = [frozenset()]
    for s in sets:
        nxt = set()
        for t in trs:
            if t & s:
                nxt.add(t)
            else:
                nxt.update(t | {x} for x in s)
        trs = [c for c in nxt if not any(o < c for o in nxt)]
    return sorted(trs, key=lambda t: (len(t), tuple(sorted(t))))


def _random_set(rng, universe, max_size):
    size = int(rng.integers(1, max_size + 1))
    return frozenset(rng.choice(universe, size, replace=False).tolist())


def test_empty_family():
    assert minimal_transversals([]) == [frozenset()]


def test_family_with_empty_set_has_no_transversal():
    assert minimal_transversals([frozenset("A"), frozenset()]) == []


def test_single_set():
    out = minimal_transversals([frozenset("ABC")])
    assert out == [frozenset("A"), frozenset("B"), frozenset("C")]


def test_disjoint_sets_product():
    out = minimal_transversals([frozenset("AB"), frozenset("CD")])
    assert set(out) == {
        frozenset("AC"), frozenset("AD"), frozenset("BC"), frozenset("BD")
    }


def test_nested_sets_collapse():
    # {A} must be hit, {AB} then comes free.
    out = minimal_transversals([frozenset("A"), frozenset("AB")])
    assert out == [frozenset("A")]


def test_classic_triangle():
    sets = [frozenset("AB"), frozenset("BC"), frozenset("AC")]
    out = set(minimal_transversals(sets))
    assert out == {frozenset("AB"), frozenset("BC"), frozenset("AC")}


def test_duplicate_sets_handled():
    out = minimal_transversals([frozenset("AB"), frozenset("AB")])
    assert out == [frozenset("A"), frozenset("B")]


def test_is_transversal():
    sets = [frozenset("AB"), frozenset("CD")]
    assert is_transversal(frozenset("AC"), sets)
    assert not is_transversal(frozenset("A"), sets)
    assert is_transversal(frozenset("ABCD"), sets)
    assert is_transversal(frozenset(), [])


@pytest.mark.parametrize("seed", range(12))
def test_matches_brute_force_random(seed):
    rng = np.random.default_rng(seed)
    universe = list("ABCDEF")
    n_sets = int(rng.integers(1, 6))
    sets = []
    for _ in range(n_sets):
        size = int(rng.integers(1, 4))
        sets.append(frozenset(rng.choice(universe, size, replace=False).tolist()))
    got = minimal_transversals(sets)
    want = brute_minimal_transversals(sets, universe)
    assert got == want
    # every output really is a minimal transversal
    for t in got:
        assert is_transversal(t, sets)
        for x in t:
            assert not is_transversal(t - {x}, sets)


# ----------------------------------------------------------------------
# the prefix-memoized fold
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(10))
def test_fold_matches_from_scratch_after_every_append(seed):
    rng = np.random.default_rng(100 + seed)
    universe = [f"a{i}" for i in range(int(rng.integers(6, 11)))]
    family = []
    for _ in range(int(rng.integers(20, 61))):
        family.append(_random_set(rng, universe, 4))
        assert minimal_transversals(family) == berge_from_scratch(family)


@pytest.mark.parametrize("seed", range(10))
def test_fold_matches_brute_force_after_every_append(seed):
    rng = np.random.default_rng(200 + seed)
    universe = list("ABCDEFGH")
    family = []
    for _ in range(int(rng.integers(1, 13))):
        family.append(_random_set(rng, universe, 5))
        assert minimal_transversals(family) == brute_minimal_transversals(family, universe)


def test_families_that_share_a_prefix_then_diverge():
    rng = np.random.default_rng(7)
    universe = list("ABCDEFGHI")
    prefix = [_random_set(rng, universe, 3) for _ in range(8)]
    left = prefix + [_random_set(rng, universe, 3) for _ in range(5)]
    right = prefix + [_random_set(rng, universe, 3) for _ in range(5)]
    assert left[8:] != right[8:]
    for n in range(len(left) + 1):
        for fam in (left[:n], right[:n]):
            assert minimal_transversals(fam) == berge_from_scratch(fam)
    # Back to the shorter family after the longer ones were cached.
    assert minimal_transversals(prefix) == berge_from_scratch(prefix)


def test_empty_set_after_cached_prefix():
    family = [frozenset("PQ"), frozenset("QR")]
    assert minimal_transversals(family) == [frozenset("Q"), frozenset("PR")]
    assert minimal_transversals(family + [frozenset()]) == []
    assert minimal_transversals(family + [frozenset(), frozenset("S")]) == []


def test_mutating_the_result_does_not_change_later_calls():
    family = [frozenset("XY"), frozenset("YZ")]
    out = minimal_transversals(family)
    want = list(out)
    out.clear()
    assert minimal_transversals(family) == want
    out = minimal_transversals(family)
    out.append(frozenset("junk"))
    assert minimal_transversals(family + [frozenset("W")]) == berge_from_scratch(
        family + [frozenset("W")]
    )
    assert minimal_transversals(family) == want


def test_long_family_does_not_recurse():
    rng = np.random.default_rng(3)
    universe = [f"u{i}" for i in range(8)]
    distinct = [_random_set(rng, universe, 4) for _ in range(6)]
    # A fresh first set, so no cached prefix shortens the fold.
    n = max(3_000, sys.getrecursionlimit() + 1)
    family = [frozenset(["fresh"])] + [distinct[i % 6] for i in range(n - 1)]
    assert minimal_transversals(family) == berge_from_scratch(family)


def test_append_costs_one_berge_step(monkeypatch):
    steps = []
    step = transversal._berge_step

    def counted(trs, s):
        steps.append(s)
        return step(trs, s)

    monkeypatch.setattr(transversal, "_berge_step", counted)
    rng = np.random.default_rng(11)
    universe = [f"v{i}" for i in range(9)]
    family = [frozenset(["start"])]
    minimal_transversals(family)
    for _ in range(40):
        family.append(_random_set(rng, universe, 4))
        del steps[:]
        minimal_transversals(family)
        assert steps == [family[-1]]
    assert len(transversal._memo) <= transversal._MEMO_SIZE
