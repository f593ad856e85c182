"""MVDMiner vs the exhaustive reference (Sec. 6), on relations small
enough for brute force. These are the strongest correctness tests in
the suite: separator predicates, minimal-separator completeness, full
MVD sets, and the end-to-end M_eps output."""
import math
from itertools import combinations

import numpy as np
import pandas as pd
import pytest

from repro.core.bruteforce import (
    brute_full_mvds,
    brute_min_seps,
    brute_mine,
    brute_separates,
)
from repro.core.miner import Deadline, DeadlineReached, MVDMiner
from repro.core.mvd import canon
from repro.core.schema_miner import enumerate_schemas
from repro.entropy.local_pli import LocalPLIEngine
from tests.helpers import exact_jd_relation, mvd, over_names, random_relation, sec52_relation

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
                got = miner.separates(e1.mask(x), e1.mask((a, b)))
                assert got == brute_separates(e2, x, a, b, eps), (
                    f"x={sorted(x)} pair=({a},{b}) eps={eps}"
                )


class _ClosureOnly(MVDMiner):
    """The separator test without its two-block witness: every test that
    passes I(A;B|X) <= eps runs the closure and the split search."""

    def _witness(self, x, pair):
        return False


def _every_separator_test(miner):
    """Each (X, pair) over the miner's columns, with X outside the pair,
    answered by ``miner.separates``."""
    n = len(miner.engine.names)
    out = {}
    for pair in (1 << i | 1 << j for i, j in combinations(range(n), 2)):
        rest = miner._all & ~pair
        for x in range(1 << n):
            if not x & ~rest:
                out[x, pair] = miner.separates(x, pair)
    return out


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("eps", EPSILONS)
def test_witness_answers_like_the_closure(seed, eps):
    # Eight rows: some keys separate at every eps, a few only by MVDs
    # that put more than A or B on its side, which the witness misses.
    pdf = random_relation(8, "ABCDE", 2, seed + 80)
    engine, closure_engine, ref = LocalPLIEngine(pdf), LocalPLIEngine(pdf), LocalPLIEngine(pdf)
    miner = MVDMiner(engine, eps)
    got = _every_separator_test(miner)
    want = _every_separator_test(_ClosureOnly(closure_engine, eps))
    assert got == want and any(got.values())
    for (x, pair), ans in got.items():
        a, b = sorted(engine.attrs(pair))
        assert ans == brute_separates(ref, engine.attrs(x), a, b, eps)
    # The witness reads no entropy the closure does not, but for
    # H(Omega), H(Omega-A) and H(Omega-B) of each pair.
    shared = {miner._all ^ p for p in (0, *(1 << i for i in range(5)))}
    assert set(engine._cache) <= set(closure_engine._cache) | shared


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("eps", EPSILONS)
def test_split_search_answers_like_brute(seed, eps):
    # Seven columns: closure roots of up to five blocks, which the split
    # search of every test past I(A;B|X) places one by one.
    pdf = random_relation(12, "ABCDEFG", 2, seed + 90)
    miner, ref = _ClosureOnly(LocalPLIEngine(pdf), eps), LocalPLIEngine(pdf)
    for (x, pair), ans in _every_separator_test(miner).items():
        a, b = sorted(miner.engine.attrs(pair))
        assert ans == brute_separates(ref, miner.engine.attrs(x), a, b, eps)
    assert miner.split_nodes > 0


@pytest.mark.parametrize("eps", EPSILONS)
def test_stats_count_witness_hits_per_run(eps):
    # Independent factors AB, CD and E: exact separators at eps = 0 too.
    pdf = (
        random_relation(4, "AB", 2, 1)
        .merge(random_relation(4, "CD", 2, 2), how="cross")
        .merge(random_relation(4, "E", 2, 3), how="cross")
    )
    miner = MVDMiner(LocalPLIEngine(pdf), eps)
    first = miner.mine()
    assert 0 < first.stats["witness_hits"] == miner.witness_hits
    assert first.stats["witness_hits"] <= first.stats["separator_tests"]
    # A second run answers every test from the memo.
    assert miner.mine().stats["witness_hits"] == 0
    closure = _ClosureOnly(LocalPLIEngine(pdf), eps).mine()
    assert closure.stats["witness_hits"] == 0
    assert closure.minseps == first.minseps and closure.full_mvds == first.full_mvds


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("eps", EPSILONS)
def test_min_seps_match_brute(seed, eps):
    pdf = random_relation(35, "ABCDE", 2, seed + 10)
    e1, e2 = engines(pdf)
    miner = MVDMiner(e1, eps)
    for a, b in combinations("ABCDE", 2):
        got = set(map(e1.attrs, miner.mine_min_seps(e1.mask((a, b)))))
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
        got = {m for m in miner.get_full_mvds(e1.mask(key)) if m.separates(e1.mask((a, b)))}
        want = set(brute_full_mvds(e2, key, eps, (a, b)))
        assert got == want, f"key={sorted(key)} eps={eps}"


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
        mvd("", ["A", "B", "C", "D", "E", "F"])
    ]
    assert all(seps == [frozenset()] for seps in res.minseps.values())


def test_sec52_full_mvd_multiplicity():
    """For eps = 1 the Sec. 5.2 relation has three incomparable full
    MVDs with key X (the failure of Beeri uniqueness for eps > 0)."""
    eng = LocalPLIEngine(sec52_relation())
    miner = MVDMiner(eng, 1.0)
    got = set(miner.get_full_mvds(eng.mask("X")))
    assert got == {
        mvd("X", ["AB", "C"], eng.names),
        mvd("X", ["AC", "B"], eng.names),
        mvd("X", ["BC", "A"], eng.names),
    }


def test_sec52_exact_separators():
    # At eps = 0, neither {} nor {X} separates A, B (I(A;B) = 1), but
    # {C} does: given C both A and B are constant.
    eng = LocalPLIEngine(sec52_relation())
    miner = MVDMiner(eng, 0.0)
    ab = eng.mask("AB")
    assert list(miner.mine_min_seps(ab)) == [eng.mask("C")]
    assert not miner.separates(0, ab)
    assert not miner.separates(eng.mask("X"), ab)


def test_two_column_relation():
    # Only candidate: {} ->> A|B. Independent product -> holds.
    pdf = pd.DataFrame([(0, 0), (0, 1), (1, 0), (1, 1)], columns=["A", "B"])
    res = MVDMiner(LocalPLIEngine(pdf), 0.0).mine()
    assert res.full_mvds == [mvd("", ["A", "B"])]


def test_deadline_returns_partial():
    pdf = random_relation(200, "ABCDEFGH", 3, 1)
    miner = MVDMiner(LocalPLIEngine(pdf), 0.5, deadline_s=0.0)
    res = miner.mine()
    assert res.timed_out


class _CallBudget(Deadline):
    """A deadline that expires on the call after its first ``calls``."""

    def __init__(self, calls: int):
        super().__init__(None)
        self.left = calls

    def check(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise DeadlineReached()


def test_deadline_keeps_the_separators_found_so_far():
    """A deadline that expires after a pair's first minimal separator
    leaves that separator in the partial result."""
    # A and B are independent given C, and given D (a copy of C).
    rows = [(2 * c + a, 2 * c + b, c, c) for c in (0, 1) for a in (0, 1) for b in (0, 1)]
    pdf = pd.DataFrame(rows, columns=["A", "B", "C", "D"])
    full = MVDMiner(LocalPLIEngine(pdf), 0.0).mine([("A", "B")])
    assert full.complete and len(full.minseps[("A", "B")]) == 2

    miner = MVDMiner(LocalPLIEngine(pdf), 0.0)
    miner.deadline = counter = _CallBudget(10**9)
    first = next(miner.mine_min_seps(miner.engine.mask("AB")))
    miner = MVDMiner(LocalPLIEngine(pdf), 0.0)
    miner.deadline = _CallBudget(10**9 - counter.left)
    res = miner.mine([("A", "B")])
    assert res.timed_out and not res.complete
    assert res.minseps[("A", "B")] == [miner.engine.attrs(first)]


def test_deadline_keeps_the_first_separators_full_mvds():
    """getFullMVDs runs on each separator as MineMinSeps yields it, so a
    deadline that expires right after the first separator's search keeps
    that separator's full MVDs."""
    rows = [(2 * c + a, 2 * c + b, c, c) for c in (0, 1) for a in (0, 1) for b in (0, 1)]
    pdf = pd.DataFrame(rows, columns=["A", "B", "C", "D"])
    miner = MVDMiner(LocalPLIEngine(pdf), 0.0)
    miner.deadline = counter = _CallBudget(10**9)
    ab = miner.engine.mask("AB")
    first = next(miner.mine_min_seps(ab))
    want = [m for m in miner.get_full_mvds(first) if m.separates(ab)]
    assert want
    miner = MVDMiner(LocalPLIEngine(pdf), 0.0)
    miner.deadline = _CallBudget(10**9 - counter.left)
    res = miner.mine([("A", "B")])
    assert res.timed_out
    assert res.minseps[("A", "B")] == [miner.engine.attrs(first)]
    assert res.full_mvds == want


def test_full_mvd_search_checks_the_deadline():
    """The top-down search checks the deadline at each partition and at
    each placement of its split search, so a deadline one check short of
    a whole search stops it."""
    pdf = random_relation(40, "ABCDE", 2, 0)
    miner = MVDMiner(LocalPLIEngine(pdf), 0.3)
    miner.deadline = counter = _CallBudget(10**9)
    assert miner.get_full_mvds(0)
    checks = 10**9 - counter.left
    assert miner.nodes_explored > 1 and miner.split_nodes > 0
    miner = MVDMiner(LocalPLIEngine(pdf), 0.3)
    miner.deadline = _CallBudget(checks - 1)
    with pytest.raises(DeadlineReached):
        miner.get_full_mvds(0)


def test_large_eps_trivial_separator():
    """With eps >= log N every MVD holds, so {} is the only minimal
    separator for every pair (the paper's limiting behaviour)."""
    pdf = random_relation(16, "ABC", 4, 2)
    eps = math.log2(len(pdf)) + 1
    miner = MVDMiner(LocalPLIEngine(pdf), eps)
    for a, b in combinations("ABC", 2):
        assert list(miner.mine_min_seps(miner.engine.mask((a, b)))) == [0]


def test_results_are_canonical_and_deduped():
    pdf = random_relation(40, "ABCD", 2, 9)
    res = MVDMiner(LocalPLIEngine(pdf), 0.3).mine()
    assert len(set(res.full_mvds)) == len(res.full_mvds)
    for m in res.full_mvds:
        assert m.deps == canon(m.deps)
        assert sum(m.deps) | m.key == 0b1111


def test_minseps_only_skips_phase2():
    pdf = random_relation(40, "ABCD", 2, 10)
    res = MVDMiner(LocalPLIEngine(pdf), 0.3).mine(minseps_only=True)
    assert res.full_mvds == []
    assert res.n_minseps > 0


# ----------------------------------------------------------------------
# pairwise-consistency closure (Fig 16) against the restart-scan reference
# ----------------------------------------------------------------------
def _tuple_canon(parts):
    return tuple(sorted(parts, key=lambda p: tuple(sorted(p))))


def restart_scan_closure(engine, eps_eff, key, parts):
    """The closure as first written: rescan all pairs from the start
    after every merge, with no memo."""
    parts = list(parts)
    changed = True
    while changed:
        changed = False
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                if engine.mutual_info(parts[i], parts[j], key) > eps_eff:
                    parts[i] = parts[i] | parts[j]
                    del parts[j]
                    changed = True
                    break
            if changed:
                break
    return _tuple_canon(parts)


def _random_partition(rng, attrs):
    n_blocks = rng.integers(1, len(attrs) + 1)
    labels = rng.integers(0, n_blocks, size=len(attrs))
    blocks = {}
    for a, lab in zip(attrs, labels):
        blocks.setdefault(lab, set()).add(a)
    return [frozenset(b) for b in blocks.values()]


def _closure_cases(rng, cols, n_cases):
    """Random (key, starting partition) pairs."""
    for _ in range(n_cases):
        key = frozenset(c for c in cols if rng.random() < 0.3)
        rest = sorted(set(cols) - key)
        if len(rest) < 2:
            continue
        yield key, _random_partition(rng, rest)


@pytest.mark.parametrize("eps", EPSILONS)
def test_closure_matches_restart_scan(eps):
    rng = np.random.default_rng(7)
    relations = [random_relation(30, "ABCDEF", 2, seed + 50) for seed in SEEDS]
    # A product of three random factors keeps fixpoints of >= 3 blocks
    # at eps = 0, so closures of merged fixpoints get covered there too.
    relations.append(
        random_relation(4, "AB", 2, 1)
        .merge(random_relation(4, "CD", 2, 2), how="cross")
        .merge(random_relation(4, "EF", 2, 3), how="cross")
    )
    relations.append(sec52_relation())
    outcomes = {"merged": 0, "child": 0}
    for pdf in relations:
        cols = list(pdf.columns)
        miner = MVDMiner(LocalPLIEngine(pdf), eps)
        ref_engine = LocalPLIEngine(pdf)
        mask = miner.engine.mask
        for key, parts in _closure_cases(rng, cols, 60):
            want = restart_scan_closure(ref_engine, miner.eps_eff, key, parts)
            got = miner._closure(mask(key), [mask(p) for p in parts])
            got = tuple(miner.engine.attrs(p) for p in got)
            assert got == want, f"key={sorted(key)} parts={parts}"
            if len(want) < len(parts):
                outcomes["merged"] += 1
            # A fixpoint with two of its blocks merged, closed again.
            if len(want) < 3:
                continue
            i, j = rng.choice(len(want), size=2, replace=False)
            others = [p for t, p in enumerate(want) if t not in (i, j)]
            merged = want[i] | want[j]
            want_child = restart_scan_closure(ref_engine, miner.eps_eff, key, others + [merged])
            got_child = miner._closure(mask(key), [mask(p) for p in others + [merged]])
            got_child = tuple(miner.engine.attrs(p) for p in got_child)
            assert got_child == want_child, f"key={sorted(key)} parent={want}"
            outcomes["child"] += 1
    assert all(n > 0 for n in outcomes.values()), outcomes


def test_canon_orders_blocks_by_minimum():
    rng = np.random.default_rng(3)
    attrs = ["A", "B", "a", "b", "age", "ab", "Z9", "z", "x_1", "x_10"]
    engine = LocalPLIEngine(pd.DataFrame({c: [0] for c in rng.permutation(attrs)}))
    for _ in range(200):
        parts = _random_partition(rng, list(rng.permutation(attrs)))
        got = [engine.attrs(p) for p in canon([engine.mask(p) for p in parts])]
        assert tuple(got) == _tuple_canon(parts)
        assert got == sorted(parts, key=min)


def test_each_dependence_test_reaches_the_engine_once():
    pdf = random_relation(30, "ABCDEF", 2, 61)
    for eps in EPSILONS:
        engine = LocalPLIEngine(pdf)
        seen: dict = {}
        inner = engine.mutual_info

        def counted(y, z, x=0, inner=inner, seen=seen):
            assert all(type(v) is int for v in (y, z, x))  # masks, not names
            k = (x, frozenset((y, z)))
            seen[k] = seen.get(k, 0) + 1
            return inner(y, z, x)

        engine.mutual_info = counted
        miner = MVDMiner(engine, eps)
        res = miner.mine()
        # The miner reaches mutual_info only through its dependence tests.
        assert res.stats["dependence_tests"] == len(seen) > 0
        for key in [frozenset(), frozenset("A"), frozenset("BC")]:
            rest = sorted(set("ABCDEF") - key)
            miner.get_full_mvds(engine.mask(key))
            pair = engine.mask((rest[0], rest[-1]))
            assert miner.separates(engine.mask(key), pair) == any(
                m.separates(pair) for m in miner.get_full_mvds(engine.mask(key))
            )
        assert max(seen.values()) == 1
        assert miner.dependence_tests == len(seen)
        assert miner.dependence_memo_hits > 0


# ----------------------------------------------------------------------
# node budget: truncated searches are reported; separator tests have none
# ----------------------------------------------------------------------
def test_truncated_search_is_reported_and_not_memoized():
    pdf = random_relation(30, "ABCDE", 2, 18)
    res = MVDMiner(LocalPLIEngine(pdf), 0.3).mine()
    assert res.complete and res.stats["truncated_searches"] == 0

    miner = MVDMiner(LocalPLIEngine(pdf), 0.3)
    miner.max_nodes = 1
    res = miner.mine()
    assert res.complete is False
    assert not res.timed_out
    assert res.stats["truncated_searches"] > 0

    # The split search of a separator test has no node budget: every
    # answer is exact, and memoized.
    miner = MVDMiner(LocalPLIEngine(pdf), 0.3)
    miner.max_nodes = 1
    ref = LocalPLIEngine(pdf)
    for a, b in combinations("ABCDE", 2):
        others = sorted(set("ABCDE") - {a, b})
        for r in range(len(others) + 1):
            for xs in combinations(others, r):
                x = frozenset(xs)
                memo_key = (miner.engine.mask(x), miner.engine.mask((a, b)))
                ans = miner.separates(*memo_key)
                assert ans == brute_separates(ref, x, a, b, 0.3)
                assert miner._sep_memo[memo_key] == ans
    assert miner.truncated_searches == 0


# ----------------------------------------------------------------------
# MinerResult.stats: per-run counters
# ----------------------------------------------------------------------
def test_stats_count_each_run_on_a_shared_engine():
    pdf = random_relation(40, "ABCDE", 2, 5)
    engine = LocalPLIEngine(pdf)
    first = MVDMiner(engine, 0.0).mine()
    calls, comps = engine.entropy_calls, engine.entropy_computations
    assert first.stats["calls"] == calls > 0
    assert first.stats["computations"] == comps > 0
    second = MVDMiner(engine, 0.1).mine()
    # Counters cover the second run only; "cached" is the memo's size.
    assert second.stats["calls"] == engine.entropy_calls - calls > 0
    assert second.stats["computations"] == engine.entropy_computations - comps
    assert second.stats["cached"] == len(engine._cache) >= first.stats["cached"]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("eps", [0.3, 0.5])
def test_one_transversal_round_per_separator(seed, eps):
    # Up to 10 minimal separators per pair on these relations.
    pdf = random_relation(20, "ABCDEFG", 3, seed + 70)
    miner = MVDMiner(LocalPLIEngine(pdf), eps)
    res = miner.mine()
    assert res.complete
    assert max(len(v) for v in res.minseps.values()) > 2
    assert res.stats["transversal_rounds"] == res.n_minseps
    assert 0 < res.stats["separator_tests"] == len(miner._sep_memo)
    # A second run on the same miner answers every test from the memo.
    again = miner.mine()
    assert again.stats["separator_tests"] == 0
    assert again.stats["transversal_rounds"] == again.n_minseps == res.n_minseps


# ----------------------------------------------------------------------
# names at the boundary, bit order from sorted names
# ----------------------------------------------------------------------
def test_results_are_reported_over_names():
    """Names appear where results are reported: the minimal separators,
    the text of an MVD and the bags of a schema. MVDs hold masks."""
    pdf = random_relation(30, "ABCDE", 2, 12)
    engine = LocalPLIEngine(pdf)
    res = MVDMiner(engine, 0.3).mine()
    assert res.n_minseps > 0 and res.n_full_mvds > 0
    for (a, b), seps in res.minseps.items():
        assert {a, b} <= set("ABCDE")
        for x in seps:
            assert type(x) is frozenset and x <= set("ABCDE") - {a, b}
    for m in res.full_mvds:
        assert type(m.key) is int and all(type(d) is int for d in m.deps)
        key, deps = over_names(m)
        k, ds = str(m).split(" ->> ")
        assert k == ("".join(sorted(key)) or "{}")
        assert ds.split("|") == ["".join(sorted(d)) for d in deps]
    schemas = list(enumerate_schemas(res.full_mvds, engine.columns))
    assert schemas
    for s in schemas:
        assert all(type(b) is frozenset and b <= set("ABCDE") for b in s.bags)
        assert frozenset().union(*s.bags) == frozenset("ABCDE")


def test_reduce_min_sep_drops_the_lowest_bits_first():
    # A and B both reveal C, and are independent given C. D copies C, so
    # {C} and {D} are the two minimal A,B-separators.
    rows = [(2 * c + a, 2 * c + b, c, c) for c in (0, 1) for a in (0, 1) for b in (0, 1)]
    pdf = pd.DataFrame(rows, columns=["A", "B", "C", "D"])
    miner = MVDMiner(LocalPLIEngine(pdf[["D", "B", "C", "A"]]), 0.0)
    m, ab = miner.engine.mask, miner.engine.mask("AB")
    # Ascending bits is sorted names: C is tried (and dropped) before D.
    assert miner.reduce_min_sep(m("CD"), ab) == m("D")
    assert list(miner.mine_min_seps(ab)) == [m("D"), m("C")]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("eps", [0.0, 0.3])
def test_column_order_does_not_change_the_search(seed, eps):
    pdf = random_relation(20, "ABCDEFG", 3, seed + 70)
    pdf.columns = ["g", "C00", "b", "C10", "a", "C2", "f"]
    shuffled = pdf[list(np.random.default_rng(seed).permutation(pdf.columns))]
    assert list(shuffled.columns) != list(pdf.columns)
    res = MVDMiner(LocalPLIEngine(pdf), eps).mine()
    again = MVDMiner(LocalPLIEngine(shuffled), eps).mine()
    assert max(len(v) for v in res.minseps.values()) > 1
    assert list(again.minseps.items()) == list(res.minseps.items())
    assert again.full_mvds == res.full_mvds
    assert again.stats == res.stats


# ----------------------------------------------------------------------
# one getFullMVDs search per key, shared by the pairs it separates
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("eps", EPSILONS)
def test_shared_full_mvds_match_the_pair_search_and_brute(seed, eps):
    # Eight rows: keys separate at every eps, and pairs share them.
    pdf = random_relation(8, "ABCDEF", 2, seed + 80)
    engine, pair_engine, ref = LocalPLIEngine(pdf), LocalPLIEngine(pdf), LocalPLIEngine(pdf)
    miner, pair_miner = MVDMiner(engine, eps), MVDMiner(pair_engine, eps)
    checked = 0
    for a, b in combinations("ABCDEF", 2):
        pair = engine.mask((a, b))
        for x in miner.mine_min_seps(pair):
            got = miner.shared_full_mvds(x, pair)
            assert got == [m for m in pair_miner.get_full_mvds(x) if m.separates(pair)]
            assert got == brute_full_mvds(ref, engine.attrs(x), eps, (a, b))
            checked += bool(got)
    assert checked > 0 and miner.full_shared > 0


def _count_full_searches(miner):
    """Each key that ``miner`` hands getFullMVDs, with how many times it
    did so."""
    keys: dict = {}
    inner = miner.get_full_mvds

    def counted(key):
        keys[key] = keys.get(key, 0) + 1
        return inner(key)

    miner.get_full_mvds = counted
    return keys


@pytest.mark.parametrize("eps", [0.1, 0.3])
def test_one_full_search_per_distinct_key(eps):
    pdf = random_relation(20, "ABCDEFG", 3, 71)
    miner = MVDMiner(LocalPLIEngine(pdf), eps)
    keys = _count_full_searches(miner)
    seps, searches, shared = [], 0, 0
    for pair in combinations("ABCDEFG", 2):
        res = miner.mine([pair])
        assert res.complete
        seps += res.minseps[pair]
        searches += res.stats["full_searches"]
        shared += res.stats["full_shared"]
    assert set(keys.values()) == {1}
    assert searches == len(keys) == len(set(seps)) < len(seps) == searches + shared


def test_cut_full_search_is_not_shared(monkeypatch):
    pdf = random_relation(20, "ABCDEFG", 3, 71)
    monkeypatch.setattr(MVDMiner, "max_nodes", 1)
    miner = MVDMiner(LocalPLIEngine(pdf), 0.3)
    keys = _count_full_searches(miner)
    res = miner.mine()
    assert not res.complete and not res.timed_out
    seps = [miner.engine.mask(x) for v in res.minseps.values() for x in v]
    cut = set(keys) - set(miner._full_memo)
    # A cut key is searched again for every pair it separates.
    assert cut and any(seps.count(x) > 1 for x in cut)
    assert all(keys[x] == seps.count(x) for x in cut)
    assert all(keys[x] == 1 for x in miner._full_memo)
    assert res.stats["full_searches"] == sum(keys.values())


# ----------------------------------------------------------------------
# a partial answer is a subset of the complete one
# ----------------------------------------------------------------------
def _within(part, whole):
    """Whether each pair's separators and each full MVD of ``part`` are
    also in ``whole``."""
    return set(part.full_mvds) <= set(whole.full_mvds) and all(
        set(seps) <= set(whole.minseps[pair]) for pair, seps in part.minseps.items()
    )


@pytest.mark.parametrize("eps", [0.1, 0.3, 0.6])
def test_partial_answers_are_subsets_of_the_complete_one(eps, monkeypatch):
    """Cut by the node budget or by the deadline, a run may miss
    separators and MVDs, but what it reports is right: each separator
    is minimal and each MVD is full. A ``minseps_only`` run makes no
    budgeted search, so the budget never cuts it."""
    partial = 0
    for seed in range(10):
        pdf = random_relation(30 + seed, "ABCDEFGH"[: 7 + seed % 2], 3, seed)
        miner = MVDMiner(LocalPLIEngine(pdf), eps)
        miner.deadline = counter = _CallBudget(10**9)
        whole = miner.mine()
        checks = 10**9 - counter.left
        assert whole.complete
        runs, only = [], []
        for budget in (1, 2, 5, 20):
            with monkeypatch.context() as m:
                m.setattr(MVDMiner, "max_nodes", budget)
                runs.append(MVDMiner(LocalPLIEngine(pdf), eps).mine())
                only.append(MVDMiner(LocalPLIEngine(pdf), eps).mine(minseps_only=True))
        for quarter in (1, 2, 3):
            miner = MVDMiner(LocalPLIEngine(pdf), eps)
            miner.deadline = _CallBudget(checks * quarter // 4)
            runs.append(miner.mine())
            assert runs[-1].timed_out
        for res in runs + only:
            assert _within(res, whole), f"seed={seed}"
            partial += not res.complete
        assert all(res.complete and res.minseps == whole.minseps for res in only)
    assert partial > 0
