"""MVDMiner vs the exhaustive reference (Sec. 6), on relations small
enough for brute force. These are the strongest correctness tests in
the suite: separator predicates, minimal-separator completeness, full
MVD sets, and the end-to-end M_eps output."""
import math
from itertools import combinations

import pytest

from repro.core.bruteforce import (
    brute_full_mvds,
    brute_min_seps,
    brute_mine,
    brute_separates,
)
from repro.core.miner import MVDMiner
from repro.core.mvd import MVD
from repro.entropy.local_pli import LocalPLIEngine
from tests.helpers import exact_jd_relation, random_relation, sec52_relation

EPSILONS = [0.0, 0.1, 0.3]
SEEDS = range(4)


def engines(pdf):
    return LocalPLIEngine(pdf), LocalPLIEngine(pdf)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("eps", EPSILONS)
def test_separates_matches_brute(seed, eps):
    pdf = random_relation(40, "ABCDE", 2, seed)
    e1, e2 = engines(pdf)
    miner = MVDMiner(e1, eps)
    for a, b in [("A", "B"), ("C", "E"), ("B", "D")]:
        others = sorted(set("ABCDE") - {a, b})
        for r in range(len(others) + 1):
            for xs in combinations(others, r):
                x = frozenset(xs)
                assert miner.separates(x, a, b) == brute_separates(e2, x, a, b, eps), (
                    f"x={sorted(x)} pair=({a},{b}) eps={eps}"
                )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("eps", EPSILONS)
def test_min_seps_match_brute(seed, eps):
    pdf = random_relation(35, "ABCDE", 2, seed + 10)
    e1, e2 = engines(pdf)
    miner = MVDMiner(e1, eps)
    for a, b in combinations("ABCDE", 2):
        got = set(miner.mine_min_seps(a, b))
        want = set(brute_min_seps(e2, a, b, eps))
        assert got == want, f"pair=({a},{b}) eps={eps}"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("eps", EPSILONS)
def test_full_mvds_match_brute(seed, eps):
    pdf = random_relation(30, "ABCDE", 2, seed + 20)
    e1, e2 = engines(pdf)
    miner = MVDMiner(e1, eps)
    for key in [frozenset(), frozenset("A"), frozenset("AB"), frozenset("CD")]:
        rest = sorted(set("ABCDE") - key)
        a, b = rest[0], rest[1]
        got = set(miner.get_full_mvds(key, (a, b)))
        want = set(brute_full_mvds(e2, key, eps, (a, b)))
        assert got == want, f"key={sorted(key)} eps={eps}"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("eps", EPSILONS)
def test_unoptimized_matches_optimized(seed, eps):
    pdf = random_relation(30, "ABCDE", 2, seed + 30)
    m_opt = MVDMiner(LocalPLIEngine(pdf), eps, optimized=True)
    m_plain = MVDMiner(LocalPLIEngine(pdf), eps, optimized=False)
    for key in [frozenset(), frozenset("A")]:
        rest = sorted(set("ABCDE") - key)
        pair = (rest[0], rest[-1])
        assert set(m_opt.get_full_mvds(key, pair)) == set(
            m_plain.get_full_mvds(key, pair)
        )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("eps", EPSILONS)
def test_mine_matches_brute(seed, eps):
    pdf = random_relation(30, "ABCD", 2, seed + 40)
    res = MVDMiner(LocalPLIEngine(pdf), eps).mine()
    want = brute_mine(LocalPLIEngine(pdf), eps)
    assert set(res.full_mvds) == want


def test_exact_relation_fully_independent():
    # In exact_jd_relation, A, D, E, F are constants and B, C are an
    # independent product: the empty set separates everything.
    res = MVDMiner(LocalPLIEngine(exact_jd_relation()), 0.0).mine()
    assert res.full_mvds == [
        MVD.of("", ["A", "B", "C", "D", "E", "F"])
    ]
    assert all(seps == [frozenset()] for seps in res.minseps.values())


def test_sec52_full_mvd_multiplicity():
    """For eps = 1 the Sec. 5.2 relation has three incomparable full
    MVDs with key X (the failure of Beeri uniqueness for eps > 0)."""
    eng = LocalPLIEngine(sec52_relation())
    miner = MVDMiner(eng, 1.0)
    got = set(miner.get_full_mvds(frozenset("X")))
    assert got == {
        MVD.of("X", ["AB", "C"]),
        MVD.of("X", ["AC", "B"]),
        MVD.of("X", ["BC", "A"]),
    }


def test_sec52_exact_separators():
    # At eps = 0, neither {} nor {X} separates A, B (I(A;B) = 1), but
    # {C} does: given C both A and B are constant.
    eng = LocalPLIEngine(sec52_relation())
    miner = MVDMiner(eng, 0.0)
    assert miner.mine_min_seps("A", "B") == [frozenset("C")]
    assert not miner.separates(frozenset(), "A", "B")
    assert not miner.separates(frozenset("X"), "A", "B")


def test_k_limits_results():
    eng = LocalPLIEngine(sec52_relation())
    miner = MVDMiner(eng, 1.0)
    assert len(miner.get_full_mvds(frozenset("X"), k=1)) == 1


def test_pair_in_key_rejected():
    miner = MVDMiner(LocalPLIEngine(random_relation(10, "ABC", 2, 0)), 0.0)
    with pytest.raises(ValueError):
        miner.get_full_mvds(frozenset("A"), ("A", "B"))


def test_two_column_relation():
    # Only candidate: {} ->> A|B. Independent product -> holds.
    import pandas as pd

    pdf = pd.DataFrame([(0, 0), (0, 1), (1, 0), (1, 1)], columns=["A", "B"])
    res = MVDMiner(LocalPLIEngine(pdf), 0.0).mine()
    assert res.full_mvds == [MVD.of("", ["A", "B"])]


def test_deadline_returns_partial():
    pdf = random_relation(200, "ABCDEFGH", 3, 1)
    miner = MVDMiner(LocalPLIEngine(pdf), 0.5, deadline_s=0.0)
    res = miner.mine()
    assert res.timed_out


def test_large_eps_trivial_separator():
    """With eps >= log N every MVD holds, so {} is the only minimal
    separator for every pair (the paper's limiting behaviour)."""
    pdf = random_relation(16, "ABC", 4, 2)
    eps = math.log2(len(pdf)) + 1
    miner = MVDMiner(LocalPLIEngine(pdf), eps)
    for a, b in combinations("ABC", 2):
        assert miner.mine_min_seps(a, b) == [frozenset()]


def test_results_are_canonical_and_deduped():
    pdf = random_relation(40, "ABCD", 2, 9)
    res = MVDMiner(LocalPLIEngine(pdf), 0.3).mine()
    assert len(set(res.full_mvds)) == len(res.full_mvds)
    for m in res.full_mvds:
        assert m.attributes == frozenset("ABCD")


def test_minseps_only_skips_phase2():
    pdf = random_relation(40, "ABCD", 2, 10)
    res = MVDMiner(LocalPLIEngine(pdf), 0.3).mine(minseps_only=True)
    assert res.full_mvds == []
    assert res.n_minseps > 0
