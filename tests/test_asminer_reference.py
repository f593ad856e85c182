"""ASMiner on masks against the name-level code it replaced.

Def 7.1's compatibility test, Fig 9's BuildAcyclicSchema and the MVD
label were first written over frozensets of names. Those versions are
kept here as references, and the mask versions must give the same
verdicts, the same bags in the same order and the same text on random
MVD sets: empty keys, three or more dependents, and names of several
characters whose string order is not their order as tuples.
"""
import numpy as np
import pytest

from repro.core.jointree import build_join_tree, normalize_schema
from repro.core.miner import MVDMiner
from repro.core.mvd import names_of
from repro.core.schema_miner import build_acyclic_schema, compatible, enumerate_schemas
from repro.entropy.local_pli import LocalPLIEngine
from repro.graphs.mis import maximal_independent_sets
from tests.helpers import mask_of, mvd, over_names, random_relation

NAMES = {
    "letters": tuple("ABCDEFG"),
    "padded": tuple(f"C{i:02d}" for i in range(8)),
    "mixed": tuple(sorted(["B", "Z9", "a", "ab", "b", "x_1", "x_10"])),
}


# -- the name-level references: an MVD is (key, dependents) ---------------
def ref_str(key, deps) -> str:
    k = "".join(sorted(key)) or "{}"
    ds = "|".join("".join(sorted(d)) for d in deps)
    return f"{k} ->> {ds}"


def ref_compatible(phi, psi) -> bool:
    (x, phi_deps), (y, psi_deps) = phi, psi
    for ai in phi_deps:
        xai = x | ai
        if not (y <= xai):
            continue
        if sum(1 for b in psi_deps if xai & b) < 2:
            continue
        for bj in psi_deps:
            ybj = y | bj
            if not (x <= ybj):
                continue
            if sum(1 for a in phi_deps if ybj & a) < 2:
                continue
            return True
    return False


def ref_build(q, omega) -> tuple[frozenset, ...]:
    schema = [frozenset(omega)]
    for x, deps in sorted(q, key=lambda m: (len(m[0]), ref_str(*m))):
        idx = next((i for i, bag in enumerate(schema) if x <= bag), None)
        if idx is None:
            continue
        bag = schema[idx]
        parts = {(c | x) & bag for c in deps}
        parts = {p for p in parts if p and p != x}
        if len(parts) < 2:
            continue
        schema[idx : idx + 1] = sorted(parts, key=lambda p: tuple(sorted(p)))
    return normalize_schema(schema)


# -- random MVD sets --------------------------------------------------------
def random_named_mvd(rng, names):
    """(key, dependents) over ``names``, dependents in the order of their
    sorted names; the key is empty about a fifth of the time."""
    key = frozenset(names)
    while len(names) - len(key) < 2:
        key = frozenset(c for c in names if rng.random() < 0.2)
    rest = [names[i] for i in rng.permutation(len(names)) if names[i] not in key]
    k = int(rng.integers(2, min(len(rest), 4) + 1))
    blocks = [{c} for c in rest[:k]]
    for c in rest[k:]:
        blocks[rng.integers(k)].add(c)
    deps = sorted((frozenset(b) for b in blocks), key=lambda d: tuple(sorted(d)))
    return key, tuple(deps)


def random_set(rng, names, n):
    named = [random_named_mvd(rng, names) for _ in range(n)]
    return named, [mvd(k, ds, names) for k, ds in named]


@pytest.mark.parametrize("kind", NAMES)
def test_mvd_text_and_order_match_reference(kind):
    names = NAMES[kind]
    named, masked = random_set(np.random.default_rng(1), names, 300)
    assert any(not k for k, _ in named) and any(len(ds) >= 3 for _, ds in named)
    for (key, deps), m in zip(named, masked):
        assert over_names(m) == (key, deps)
        assert str(m) == ref_str(key, deps)


@pytest.mark.parametrize("kind", NAMES)
def test_compatible_matches_reference(kind):
    names = NAMES[kind]
    verdicts = set()
    for seed in range(4):
        named, masked = random_set(np.random.default_rng(seed + 10), names, 40)
        for i in range(len(named)):
            for j in range(len(named)):
                want = ref_compatible(named[i], named[j])
                assert compatible(masked[i], masked[j]) == want, (str(masked[i]), str(masked[j]))
                verdicts.add(want)
    assert verdicts == {True, False}


@pytest.mark.parametrize("kind", NAMES)
def test_build_matches_reference(kind):
    names = NAMES[kind]
    rng = np.random.default_rng(2)
    omega = mask_of(names, names)
    sizes = set()
    for _ in range(400):
        named, masked = random_set(rng, names, int(rng.integers(1, 9)))
        got = tuple(names_of(b, names) for b in build_acyclic_schema(masked, omega))
        assert got == ref_build(named, names), [str(m) for m in masked]
        sizes.add(len(got))
    assert max(sizes) >= 3


@pytest.mark.parametrize("seed", range(3))
def test_enumeration_matches_reference_on_mined_sets(seed):
    """ASMiner end to end on a mined ``M_eps`` over padded names: the same
    schemas with the same supports, in the same order."""
    pdf = random_relation(30, "ABCDEF", 2, seed + 90)
    pdf.columns = ["C03", "C10", "C01", "C00", "C12", "C02"]
    engine = LocalPLIEngine(pdf)
    mvds = MVDMiner(engine, 0.4).mine().full_mvds
    named = [over_names(m) for m in mvds]
    n = len(named)
    incompat = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if not ref_compatible(named[i], named[j]):
                incompat[i] |= 1 << j
                incompat[j] |= 1 << i
    want, seen = [], set()
    for q_idx in maximal_independent_sets(n, incompat):
        bags = ref_build([named[i] for i in q_idx], engine.columns)
        if len(bags) >= 2 and bags not in seen:
            seen.add(bags)
            want.append((bags, [str(mvds[i]) for i in q_idx], build_join_tree(bags)))
    got = [
        (s.bags, [str(m) for m in s.support], s.tree)
        for s in enumerate_schemas(mvds, engine.columns)
    ]
    assert len(want) >= 2
    assert got == want
