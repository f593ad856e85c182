"""Unit tests for the EntropyEngine base layer and shared helpers."""
import math
from itertools import combinations

import numpy as np
import pytest

from repro.entropy.base import entropy_from_group_sizes
from tests.helpers import engine_of, random_relation


def test_entropy_from_group_sizes_uniform():
    # 4 groups of size 2 over 8 rows: H = log2 8 - 8*1/8 = 2 bits.
    assert entropy_from_group_sizes([2, 2, 2, 2], 8) == pytest.approx(2.0)


def test_entropy_from_group_sizes_singletons_ignored():
    assert entropy_from_group_sizes([1, 1, 1, 1], 4) == pytest.approx(2.0)
    assert entropy_from_group_sizes([], 4) == pytest.approx(2.0)


def test_entropy_from_group_sizes_single_group():
    assert entropy_from_group_sizes([5], 5) == pytest.approx(0.0)


def test_entropy_from_group_sizes_empty_relation():
    assert entropy_from_group_sizes([], 0) == 0.0


def generator_entropy(sizes, n_rows: int) -> float:
    """The scalar loop the vectorized reduction replaced: the reference."""
    s = sum(c * math.log2(c) for c in sizes if c > 1)
    return max(0.0, math.log2(n_rows) - s / n_rows)


def test_entropy_from_group_sizes_int64_array():
    sizes = np.array([2, 2, 2, 2], dtype=np.int64)
    assert entropy_from_group_sizes(sizes, 8) == pytest.approx(2.0)
    assert entropy_from_group_sizes(np.array([], dtype=np.int64), 4) == pytest.approx(2.0)


def test_entropy_from_group_sizes_huge_group():
    n = 10**6
    assert entropy_from_group_sizes(np.array([n], dtype=np.int64), n) == pytest.approx(0.0)
    # One group of 10^6 rows plus 10^6 singletons: H = 1 + log2(10^6) / 2.
    h = entropy_from_group_sizes(np.array([n], dtype=np.int64), 2 * n)
    assert h == pytest.approx(1 + math.log2(n) / 2, abs=1e-12)


@pytest.mark.parametrize("seed", range(100))
def test_entropy_from_group_sizes_matches_generator(seed):
    g = np.random.default_rng(seed)
    sizes = g.integers(1, g.integers(2, 2000), size=g.integers(1, 3000))
    n_rows = int(sizes.sum()) + int(g.integers(0, 100))  # plus pruned singletons
    expected = generator_entropy(sizes.tolist(), n_rows)
    assert entropy_from_group_sizes(sizes, n_rows) == pytest.approx(expected, abs=1e-12)


def test_empty_set_entropy_is_zero():
    eng = engine_of(random_relation(50, "ABC", 3, 0))
    assert eng.entropy(()) == 0.0
    assert eng.entropy(frozenset()) == 0.0


def test_unknown_column_raises():
    eng = engine_of(random_relation(10, "AB", 2, 0))
    with pytest.raises(KeyError):
        eng.entropy("AZ")


def test_duplicate_columns_rejected():
    import pandas as pd

    from repro.entropy.local_pli import LocalPLIEngine

    pdf = random_relation(5, "AB", 2, 0)
    pdf.columns = ["A", "A"]
    with pytest.raises(ValueError):
        LocalPLIEngine(pdf)


def test_cache_hits_do_not_recompute():
    eng = engine_of(random_relation(100, "ABCD", 3, 1))
    eng.entropy("AB")
    n = eng.entropy_computations
    eng.entropy("BA")  # same frozenset
    eng.entropy(frozenset("AB"))
    assert eng.entropy_computations == n
    assert eng.entropy_calls >= 3


def test_cache_info_keys():
    eng = engine_of(random_relation(10, "AB", 2, 2))
    eng.entropy("A")
    info = eng.cache_info()
    assert set(info) == {"cached", "calls", "computations"}


@pytest.mark.parametrize("seed", range(5))
def test_mutual_info_nonnegative(seed):
    eng = engine_of(random_relation(60, "ABCD", 3, seed))
    for y, z in combinations("ABCD", 2):
        x = frozenset("ABCD") - {y, z}
        assert eng.mutual_info({y}, {z}, x) >= 0.0
        assert eng.mutual_info({y}, {z}) >= 0.0


@pytest.mark.parametrize("seed", range(5))
def test_chain_rule_identity(seed):
    # I(B; CD | A) = I(B; C | A) + I(B; D | AC), Eq. (4).
    eng = engine_of(random_relation(80, "ABCD", 3, seed + 10))
    lhs = eng.mutual_info("B", "CD", "A")
    rhs = eng.mutual_info("B", "C", "A") + eng.mutual_info("B", "D", "AC")
    assert lhs == pytest.approx(rhs, abs=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_monotonicity_and_submodularity(seed):
    eng = engine_of(random_relation(70, "ABC", 4, seed + 20))
    # monotonicity H(AB) >= H(A)
    assert eng.entropy("AB") >= eng.entropy("A") - 1e-12
    assert eng.entropy("ABC") >= eng.entropy("BC") - 1e-12
    # submodularity H(AB) + H(AC) >= H(ABC) + H(A)
    assert (
        eng.entropy("AB") + eng.entropy("AC")
        >= eng.entropy("ABC") + eng.entropy("A") - 1e-9
    )


@pytest.mark.parametrize("seed", range(3))
def test_entropy_bounds(seed):
    pdf = random_relation(64, "ABCDE", 3, seed + 30)
    eng = engine_of(pdf)
    for cols in ["A", "AB", "ABCDE"]:
        h = eng.entropy(cols)
        assert 0.0 <= h <= math.log2(len(pdf)) + 1e-12


def test_j_schema_requires_acyclic():
    eng = engine_of(random_relation(20, "ABC", 2, 0))
    with pytest.raises(ValueError):
        eng.j_schema([frozenset("AB"), frozenset("BC"), frozenset("CA")])


def test_mutual_info_is_eq2_exactly():
    # I(Y;Z|X) = H(XY) + H(XZ) - H(XYZ) - H(X), Eq. (2), bit for bit.
    eng = engine_of(random_relation(50, "ABCDE", 3, 5))
    h = eng.entropy
    for y, z, x in [("B", "CD", "A"), ("B", "CD", ""), ("A", "E", "BD"), ("CE", "D", "AB")]:
        X, Y, Z = frozenset(x), frozenset(y), frozenset(z)
        want = max(0.0, h(X | Y) + h(X | Z) - h(X | Y | Z) - h(X))
        assert eng.mutual_info(Y, Z, X) == want
        assert eng.mutual_info(eng.mask(Y), eng.mask(Z), eng.mask(X)) == want


# ----------------------------------------------------------------------
# attribute sets: names at the boundary, int bitmasks inside
# ----------------------------------------------------------------------
WIDE = ["zeta", "a1", "B", "a10", "Y_2", "a2", "x"]


def _wide_engine():
    pdf = random_relation(40, "ABCDEFG", 3, 8)
    pdf.columns = WIDE
    return engine_of(pdf)


def test_bit_i_is_the_ith_sorted_name():
    eng = _wide_engine()
    assert eng.columns == tuple(WIDE)
    assert [eng.bit[c] for c in sorted(WIDE)] == list(range(len(WIDE)))
    assert eng.mask(["a1"]) == 1 << sorted(WIDE).index("a1")


def test_attrs_inverts_mask():
    eng = _wide_engine()
    for r in range(len(WIDE) + 1):
        for cols in combinations(WIDE, r):
            x = frozenset(cols)
            assert eng.attrs(eng.mask(x)) == x
            assert eng.mask(eng.mask(x)) == eng.mask(x)


def test_unknown_name_or_bit_raises():
    eng = _wide_engine()
    with pytest.raises(KeyError):
        eng.mask(["a1", "nope"])
    with pytest.raises(KeyError):
        eng.mask(1 << len(WIDE))
    with pytest.raises(KeyError):
        eng.entropy((1 << len(WIDE)) | 1)
    with pytest.raises(KeyError):
        eng.mask(-1)
    assert eng.mask((1 << len(WIDE)) - 1) == (1 << len(WIDE)) - 1


def test_names_and_mask_share_one_cache_entry():
    eng = _wide_engine()
    h = eng.entropy(["x", "a10"])
    n, cached = eng.entropy_computations, len(eng._cache)
    assert eng.entropy(eng.mask(["a10", "x"])) == h
    assert eng.entropy_computations == n and len(eng._cache) == cached


def test_mutual_info_same_for_names_and_masks():
    eng = _wide_engine()
    m = eng.mask
    for a, b in combinations(WIDE, 2):
        for x in ([], ["zeta"], ["B", "a2"]):
            if a in x or b in x:
                continue
            by_name = eng.mutual_info({a}, {b}, x)
            assert eng.mutual_info(m([a]), m([b]), m(x)) == by_name
            assert eng.mutual_info(m([a]), {b}, frozenset(x)) == by_name
