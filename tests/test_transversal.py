"""Minimal hypergraph transversals vs exhaustive enumeration and vs a
from-scratch Berge fold. Sets are int bitmasks, as in the miner."""
import sys

import numpy as np
import pytest

import repro.hypergraph.transversal as transversal
from repro.hypergraph.transversal import minimal_transversals


def mask(letters):
    """Bit i for the i-th capital letter: ``mask("AC") == 0b101``."""
    return sum(1 << (ord(c) - ord("A")) for c in set(letters))


def positions(t):
    return [i for i in range(t.bit_length()) if t >> i & 1]


def rank(t):
    """(size, ascending bit positions): the order of sorted names."""
    return len(positions(t)), positions(t)


def is_transversal(d, sets):
    """True iff ``d`` intersects every member of ``sets``."""
    return all(d & s for s in sets)


def brute_minimal_transversals(sets, n_bits):
    all_tr = [c for c in range(1 << n_bits) if is_transversal(c, sets)]
    return sorted(
        (t for t in all_tr if not any(o != t and o & t == o for o in all_tr)),
        key=rank,
    )


def berge_from_scratch(sets):
    """Reference: Berge's fold over the whole family, minimizing globally
    after every set."""
    if any(not s for s in sets):
        return []
    trs = [0]
    for s in sets:
        nxt = set()
        for t in trs:
            if t & s:
                nxt.add(t)
            else:
                nxt.update(t | 1 << x for x in positions(s))
        trs = [c for c in nxt if not any(o != c and o & c == o for o in nxt)]
    return sorted(trs, key=rank)


def _random_set(rng, n_bits, max_size):
    size = int(rng.integers(1, max_size + 1))
    return sum(1 << int(i) for i in rng.choice(n_bits, size, replace=False))


def test_empty_family():
    assert minimal_transversals([]) == [0]


def test_family_with_empty_set_has_no_transversal():
    assert minimal_transversals([mask("A"), 0]) == []


def test_single_set():
    out = minimal_transversals([mask("ABC")])
    assert out == [mask("A"), mask("B"), mask("C")]


def test_disjoint_sets_product():
    out = minimal_transversals([mask("AB"), mask("CD")])
    # Ascending bits, as sorted names: AD (0b1001) before BC (0b0110).
    assert out == [mask("AC"), mask("AD"), mask("BC"), mask("BD")]


def test_nested_sets_collapse():
    # {A} must be hit, {AB} then comes free.
    out = minimal_transversals([mask("A"), mask("AB")])
    assert out == [mask("A")]


def test_classic_triangle():
    sets = [mask("AB"), mask("BC"), mask("AC")]
    out = minimal_transversals(sets)
    assert out == [mask("AB"), mask("AC"), mask("BC")]


def test_duplicate_sets_handled():
    out = minimal_transversals([mask("AB"), mask("AB")])
    assert out == [mask("A"), mask("B")]


def test_is_transversal():
    sets = [mask("AB"), mask("CD")]
    assert is_transversal(mask("AC"), sets)
    assert not is_transversal(mask("A"), sets)
    assert is_transversal(mask("ABCD"), sets)
    assert is_transversal(0, [])


@pytest.mark.parametrize("seed", range(12))
def test_matches_brute_force_random(seed):
    rng = np.random.default_rng(seed)
    n_sets = int(rng.integers(1, 6))
    sets = [_random_set(rng, 6, 3) for _ in range(n_sets)]
    got = minimal_transversals(sets)
    want = brute_minimal_transversals(sets, 6)
    assert got == want
    # every output really is a minimal transversal
    for t in got:
        assert is_transversal(t, sets)
        for x in positions(t):
            assert not is_transversal(t & ~(1 << x), sets)


# ----------------------------------------------------------------------
# the fold from the last family
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(10))
def test_fold_matches_from_scratch_after_every_append(seed):
    rng = np.random.default_rng(100 + seed)
    n_bits = int(rng.integers(6, 11))
    family = []
    for _ in range(int(rng.integers(20, 61))):
        family.append(_random_set(rng, n_bits, 4))
        assert minimal_transversals(family) == berge_from_scratch(family)


@pytest.mark.parametrize("seed", range(10))
def test_fold_matches_brute_force_after_every_append(seed):
    rng = np.random.default_rng(200 + seed)
    family = []
    for _ in range(int(rng.integers(1, 13))):
        family.append(_random_set(rng, 8, 5))
        assert minimal_transversals(family) == brute_minimal_transversals(family, 8)


def test_families_that_share_a_prefix_then_diverge():
    rng = np.random.default_rng(7)
    prefix = [_random_set(rng, 9, 3) for _ in range(8)]
    left = prefix + [_random_set(rng, 9, 3) for _ in range(5)]
    right = prefix + [_random_set(rng, 9, 3) for _ in range(5)]
    assert left[8:] != right[8:]
    for n in range(len(left) + 1):
        for fam in (left[:n], right[:n]):
            assert minimal_transversals(fam) == berge_from_scratch(fam)
    # Back to the shorter family after the longer ones were cached.
    assert minimal_transversals(prefix) == berge_from_scratch(prefix)


def test_empty_set_after_cached_prefix():
    family = [mask("PQ"), mask("QR")]
    assert minimal_transversals(family) == [mask("Q"), mask("PR")]
    assert minimal_transversals(family + [0]) == []
    assert minimal_transversals(family + [0, mask("S")]) == []


def test_mutating_the_result_does_not_change_later_calls():
    family = [mask("XY"), mask("YZ")]
    out = minimal_transversals(family)
    want = list(out)
    out.clear()
    assert minimal_transversals(family) == want
    out = minimal_transversals(family)
    out.append(mask("JUNK"))
    assert minimal_transversals(family + [mask("W")]) == berge_from_scratch(
        family + [mask("W")]
    )
    assert minimal_transversals(family) == want


def test_long_family_does_not_recurse():
    rng = np.random.default_rng(3)
    distinct = [_random_set(rng, 8, 4) for _ in range(6)]
    # A fresh first set, so no cached prefix shortens the fold.
    n = max(3_000, sys.getrecursionlimit() + 1)
    family = [1 << 8] + [distinct[i % 6] for i in range(n - 1)]
    assert minimal_transversals(family) == berge_from_scratch(family)


def test_append_costs_one_berge_step(monkeypatch):
    steps = []
    step = transversal._berge_step

    def counted(trs, s):
        steps.append(s)
        return step(trs, s)

    monkeypatch.setattr(transversal, "_berge_step", counted)
    rng = np.random.default_rng(11)
    family = [1 << 9]
    minimal_transversals(family)
    for _ in range(40):
        family.append(_random_set(rng, 9, 4))
        del steps[:]
        minimal_transversals(family)
        assert steps == [family[-1]]
    assert transversal._last == (tuple(family), tuple(berge_from_scratch(family)))
