"""LocalPLIEngine vs the direct Eq. (5) reference, plus PLI internals."""
import math
import random
from itertools import combinations

import numpy as np
import pandas as pd
import pytest

import repro.entropy.local_pli as local_pli
from repro.entropy.local_pli import LocalPLIEngine, _combine, _factorize_strip
from tests.helpers import COMBINE_KERNELS, naive_entropy, random_relation

SUBSETS_4 = [
    "".join(c) for r in (1, 2, 3, 4) for c in combinations("ABCD", r)
]


@pytest.fixture(params=sorted(COMBINE_KERNELS))
def kernel(request, monkeypatch):
    """Force one ``_combine`` kernel for the whole test."""
    monkeypatch.setattr(local_pli, "_DENSE_CELLS_PER_ROW", COMBINE_KERNELS[request.param])
    return request.param


def assert_same_partition(part, ref_codes: np.ndarray) -> None:
    """``part`` is the stripped form of the row grouping ``ref_codes``:
    the same kept rows (pruned rows read 0), the same groups up to
    relabeling as ``1..k``, and ``counts[g - 1]`` is the size of group
    ``g``."""
    codes, k, counts = part
    ref_counts = np.bincount(ref_codes)
    assert k == int((ref_counts >= 2).sum())
    if k == 0:
        assert codes is None and counts is None
        return
    kept = ref_counts[ref_codes] >= 2
    np.testing.assert_array_equal(codes > 0, kept)
    assert sorted(counts.tolist()) == sorted(ref_counts[ref_counts >= 2].tolist())
    np.testing.assert_array_equal(np.bincount(codes[kept], minlength=k + 1), [0, *counts])
    # Each (ours, reference) label pair names one group: a bijection.
    pairs = set(zip(codes[kept].tolist(), ref_codes[kept].tolist()))
    assert len(pairs) == len(set(ref_codes[kept].tolist())) == k


def joint_codes(*columns: np.ndarray) -> np.ndarray:
    """Row grouping on several columns by one joint ``pd.factorize``."""
    codes, _ = pd.factorize(pd.Series(list(zip(*columns))))
    return codes


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("cols", SUBSETS_4)
def test_matches_naive_entropy(seed, cols):
    pdf = random_relation(120, "ABCD", 3, seed)
    eng = LocalPLIEngine(pdf)
    assert eng.entropy(cols) == pytest.approx(naive_entropy(pdf, list(cols)), abs=1e-9)


@pytest.mark.parametrize("n_vals", [1, 2, 10, 1000])
def test_extreme_cardinalities(n_vals):
    pdf = random_relation(200, "AB", n_vals, 3)
    eng = LocalPLIEngine(pdf)
    for cols in ["A", "B", "AB"]:
        assert eng.entropy(cols) == pytest.approx(
            naive_entropy(pdf, list(cols)), abs=1e-9
        )


def test_constant_column_entropy_zero():
    pdf = pd.DataFrame({"A": [1] * 50, "B": range(50)})
    eng = LocalPLIEngine(pdf)
    assert eng.entropy("A") == pytest.approx(0.0)
    assert eng.entropy("B") == pytest.approx(math.log2(50))
    assert eng.entropy("AB") == pytest.approx(math.log2(50))


def test_all_distinct_rows_full_entropy():
    pdf = pd.DataFrame({"A": range(32), "B": range(32)})
    eng = LocalPLIEngine(pdf)
    assert eng.entropy("AB") == pytest.approx(5.0)


def test_string_and_mixed_dtypes():
    pdf = pd.DataFrame(
        {"A": ["x", "y", "x", "y"], "B": [1.5, 1.5, 2.5, 2.5], "C": [1, 1, 1, 2]}
    )
    eng = LocalPLIEngine(pdf)
    for cols in ["A", "B", "AB", "ABC"]:
        assert eng.entropy(cols) == pytest.approx(naive_entropy(pdf, list(cols)), abs=1e-9)


def test_determinism_across_instances():
    pdf = random_relation(150, "ABCDE", 4, 9)
    e1, e2 = LocalPLIEngine(pdf), LocalPLIEngine(pdf)
    for cols in ["ABC", "DE", "ABCDE"]:
        assert e1.entropy(cols) == e2.entropy(cols)


def test_tiny_cache_still_correct(monkeypatch):
    """Eviction must never change results, only recompute."""
    pdf = random_relation(100, "ABCDEF", 3, 11)
    big = LocalPLIEngine(pdf)
    monkeypatch.setattr(local_pli, "_CACHE_BYTES", 1)
    small = LocalPLIEngine(pdf)  # ~8 entries min
    for r in (2, 3, 4):
        for cols in combinations("ABCDEF", r):
            assert small.entropy(cols) == pytest.approx(big.entropy(cols), abs=1e-12)


def test_partition_strips_singletons():
    codes, k, counts = _factorize_strip(np.array([1, 1, 2, 3, 3, 3, 4]))
    assert k == 2
    assert sorted(counts.tolist()) == [2, 3]
    assert (codes == 0).sum() == 2  # values 2 and 4
    assert sorted(set(codes.tolist())) == [0, 1, 2]


def test_partition_all_singletons():
    codes, k, counts = _factorize_strip(np.arange(10))
    assert codes is None and k == 0 and counts is None


def test_combine_absorbs_all_singleton():
    p = _factorize_strip(np.array([1, 1, 2, 2]))
    none = _factorize_strip(np.arange(4))
    assert _combine(p, none) == (None, 0, None)
    assert _combine(none, p) == (None, 0, None)


def test_combine_matches_joint_factorization(monkeypatch):
    a = np.array([0, 0, 1, 1, 2, 2, 0, 0])
    b = np.array([5, 5, 5, 5, 6, 7, 5, 6])
    # Joint groups: (0,5) at rows 0, 1, 6; (1,5) at 2, 3; the rest single.
    for cells_per_row in COMBINE_KERNELS.values():
        monkeypatch.setattr(local_pli, "_DENSE_CELLS_PER_ROW", cells_per_row)
        part = _combine(_factorize_strip(a), _factorize_strip(b))
        assert part[1] == 2
        assert_same_partition(part, joint_codes(a, b))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n_vals,dense", [(3, True), (60, False), (1000, True)])
def test_combine_kernels_match_joint_factorization(kernel, seed, n_vals, dense):
    """Both kernels give the joint partition, on inputs from either side
    of the dense cut-over; ``ABC`` also has pruned rows on both sides."""
    pdf = random_relation(200, "ABC", n_vals, seed)
    a, b, c = (pdf[col].to_numpy() for col in "ABC")
    pa, pb, pc = (_factorize_strip(v) for v in (a, b, c))
    # The side of the unpatched cut-over, 8 cells per row, for pa x pb.
    assert (pa[1] * pb[1] <= 8 * 200) == dense
    pab = _combine(pa, pb)
    assert_same_partition(pab, joint_codes(a, b))
    assert_same_partition(_combine(pab, pc), joint_codes(a, b, c))
    assert_same_partition(_combine(pc, pab), joint_codes(a, b, c))


def test_empty_partition_request_rejected():
    eng = LocalPLIEngine(random_relation(10, "AB", 2, 0))
    with pytest.raises(ValueError):
        eng.partition([])


@pytest.mark.parametrize("seed", range(3))
def test_prefix_composition_order_invariance(seed):
    """H must not depend on the order attribute sets are requested in."""
    pdf = random_relation(90, "ABCD", 3, seed + 40)
    e1, e2 = LocalPLIEngine(pdf), LocalPLIEngine(pdf)
    q1 = ["ABCD", "AB", "ACD", "D"]
    for cols in q1:
        e1.entropy(cols)
    for cols in reversed(q1):
        e2.entropy(cols)
    for cols in q1:
        assert e1.entropy(cols) == pytest.approx(e2.entropy(cols), abs=1e-12)


SUBSETS_6 = [frozenset(c) for r in range(1, 7) for c in combinations("ABCDEF", r)]


@pytest.mark.parametrize("cache_bytes", [1 << 30, 1])
@pytest.mark.parametrize("order_seed", range(3))
def test_any_query_order_matches_naive(order_seed, cache_bytes, monkeypatch):
    """H must not depend on which subsets happen to be cached, nor on
    eviction (``cache_bytes=1`` keeps only 8 composed partitions)."""
    pdf = random_relation(100, "ABCDEF", 3, 21)
    queries = SUBSETS_6[:]
    random.Random(order_seed).shuffle(queries)
    monkeypatch.setattr(local_pli, "_CACHE_BYTES", cache_bytes)
    eng = LocalPLIEngine(pdf)
    for cols in queries:
        assert eng.entropy(cols) == pytest.approx(naive_entropy(pdf, sorted(cols)), abs=1e-9)


def test_miss_composes_from_any_cached_subset(monkeypatch):
    calls = []

    def counting_combine(p1, p2):
        calls.append(1)
        return _combine(p1, p2)

    monkeypatch.setattr(local_pli, "_combine", counting_combine)
    eng = LocalPLIEngine(random_relation(60, "ABCD", 3, 5))
    eng.entropy("ABCD")  # nothing cached: ABCD <- ABC <- AB
    assert len(calls) == 3
    eng = LocalPLIEngine(random_relation(60, "ABCD", 3, 5))
    eng.entropy("BCD")
    calls.clear()
    eng.entropy("ABCD")  # BCD is cached and is not a prefix
    assert len(calls) == 1


def narrowest(k: int) -> type:
    """The code dtype expected for a partition with ``k`` groups."""
    return np.uint8 if k < 256 else np.uint16 if k < 65_536 else np.int32


@pytest.mark.parametrize("k", [127, 128, 255, 256, 32_767, 32_768, 65_535, 65_536])
def test_group_counts_at_dtype_limits(kernel, k):
    """``A`` has ``k`` groups and ``AB`` has ``2k``, either side of the
    uint8 and uint16 limits; rows 4k.. are pruned on one side or both."""
    a = np.concatenate([np.repeat(np.arange(k), 4), [-1, -2, 0]])
    b = np.concatenate([np.tile([0, 0, 1, 1], k), [5, 6, 7]])
    order = np.random.default_rng(k).permutation(len(a))
    a, b = a[order], b[order]
    pa, pb = _factorize_strip(a), _factorize_strip(b)
    assert pa[1] == k and pa[0].dtype == narrowest(k)
    assert_same_partition(pa, joint_codes(a))
    for pab in (_combine(pa, pb), _combine(pb, pa)):
        assert pab[1] == 2 * k and pab[0].dtype == narrowest(2 * k)
        assert_same_partition(pab, joint_codes(a, b))


def test_cached_codes_use_narrowest_dtype(kernel):
    eng = LocalPLIEngine(random_relation(3000, "ABCDE", 40, 4))
    for cols in SUBSETS_4:
        eng.entropy(cols)
    parts = [*eng._base.values(), *eng._parts.values()]
    assert {p[0].dtype for p in parts if p[0] is not None} == {np.dtype(np.uint8), np.dtype(np.uint16)}
    for codes, k, _ in parts:
        assert codes is None or codes.dtype == narrowest(k)


def test_cache_bytes_bound_eviction(kernel, monkeypatch):
    """The held bytes stay within ``_CACHE_BYTES`` unless only the
    ``_MIN_ENTRIES`` most recent partitions are held, and eviction never
    changes an H."""
    pdf = random_relation(400, "ABCDEFG", 4, 7)
    big = LocalPLIEngine(pdf)
    monkeypatch.setattr(local_pli, "_CACHE_BYTES", 20_000)
    small = LocalPLIEngine(pdf)
    most = 0
    for r in range(2, 8):
        for cols in combinations("ABCDEFG", r):
            assert small.entropy(cols) == pytest.approx(big.entropy(cols), abs=1e-12)
            held = sum(local_pli._nbytes(p) for p in small._parts.values())
            assert held == small._held_bytes
            assert held <= 20_000 or len(small._parts) <= local_pli._MIN_ENTRIES
            most = max(most, len(small._parts))
    # The byte bound, not the entry floor, was binding; and it evicted.
    assert local_pli._MIN_ENTRIES < most < small.entropy_computations


def test_out_of_range_mask_rejected_after_memo_warms():
    eng = LocalPLIEngine(random_relation(20, "ABC", 2, 0))
    for m in range(8):
        eng.entropy(m)
    for bad in (8, 9, 1 << 40, -1):
        with pytest.raises(KeyError):
            eng.entropy(bad)
