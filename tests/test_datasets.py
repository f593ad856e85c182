"""Synthetic dataset substrate: planted schemas, Nursery analog, registry."""
import hashlib

import numpy as np
import pandas as pd
import pytest

from repro import datasets
from repro.core.jointree import build_join_tree
from repro.core.miner import MVDMiner
from repro.entropy.local_pli import LocalPLIEngine


def test_attr_names_small_and_large():
    assert datasets.attr_names(3) == ["A", "B", "C"]
    names = datasets.attr_names(30)
    assert len(names) == 30 and len(set(names)) == 30
    assert names == sorted(names)  # lexicographic == positional


def test_registry_has_20_datasets():
    assert len(datasets.TABLE2) == 20
    assert len({s.name for s in datasets.TABLE2}) == 20


def test_registry_matches_paper_columns():
    # spot-check a few column counts against Table 2
    assert datasets.spec("fd_reduced_30").n_cols == 30
    assert datasets.spec("voter_state").n_cols == 45
    assert datasets.spec("sg_bioentry").n_cols == 7
    assert datasets.spec("abalone").paper_rows == 4177
    assert datasets.spec("census").paper_runtime_s == "TL"


@pytest.mark.parametrize("name", [s.name for s in datasets.TABLE2])
def test_load_every_dataset(name):
    pdf = datasets.load(name, rows_cap=200)
    assert len(pdf.columns) == datasets.spec(name).n_cols
    assert len(pdf) > 0
    assert not pdf.duplicated().any()


def test_load_deterministic():
    a = datasets.load("abalone", rows_cap=300)
    b = datasets.load("abalone", rows_cap=300)
    pd.testing.assert_frame_equal(a, b)


def test_row_cap_roughly_respected():
    pdf = datasets.load("letter", rows_cap=1000)
    assert 200 <= len(pdf) <= 4000  # within the generator's 4x guard


def test_planted_noise_free_has_exact_schema():
    """noise=0 planted data admits at least one exact (J = 0) separator
    structure: the miner at eps=0 finds a non-empty M."""
    pdf = datasets.planted_relation(7, 300, seed=5, noise=0.0)
    res = MVDMiner(LocalPLIEngine(pdf), 0.0).mine()
    assert res.n_full_mvds > 0


def test_planted_noise_increases_j():
    clean = datasets.planted_relation(6, 200, seed=2, noise=0.0)
    noisy = datasets.planted_relation(6, 200, seed=2, noise=0.1)
    assert len(noisy) > len(clean) * 1.02


def test_random_tree_schema_properties():
    rng = np.random.default_rng(0)
    cols = datasets.attr_names(12)
    schema = datasets.random_tree_schema(cols, rng)
    bags = [b for b, _ in schema]
    assert frozenset().union(*bags) == frozenset(cols)
    assert build_join_tree(bags) is not None
    for bag, sep in schema[1:]:
        assert sep < bag


def test_nursery_shape():
    pdf = datasets.nursery()
    assert pdf.shape == (12960, 9)
    assert list(pdf.columns) == list("ABCDEFGHI")
    for col, dom in zip("ABCDEFGH", datasets.NURSERY_DOMAINS):
        assert pdf[col].nunique() == dom
    assert pdf["I"].nunique() == 5


def test_nursery_inputs_full_product():
    pdf = datasets.nursery()
    assert not pdf[list("ABCDEFGH")].duplicated().any()


def test_nursery_no_exact_nontrivial_decomposition():
    """The class depends on several attributes, so at eps=0 only
    separators among the product inputs exist; no scheme splits I away
    from its drivers exactly."""
    eng = LocalPLIEngine(datasets.nursery(noise=0.0))
    miner = MVDMiner(eng, 0.0)
    # H and E both drive I: I(I; A..G | nothing close) -- check I is not
    # independent of its main driver H.
    assert eng.mutual_info("I", "H") > 0.1


def test_nursery_deterministic():
    pd.testing.assert_frame_equal(datasets.nursery(seed=1), datasets.nursery(seed=1))


def test_take_cols():
    pdf = datasets.load("letter", rows_cap=100)
    cut = datasets.take_cols(pdf, 0.5)
    assert len(cut.columns) == round(0.5 * 17)
    assert list(cut.columns) == list(pdf.columns[: len(cut.columns)])
    assert len(datasets.take_cols(pdf, 0.01).columns) == 2  # floor of 2


def test_sample_rows():
    pdf = datasets.load("letter", rows_cap=500)
    half = datasets.sample_rows(pdf, 0.5)
    assert len(half) == round(0.5 * len(pdf))
    pd.testing.assert_frame_equal(half, datasets.sample_rows(pdf, 0.5))


def test_unknown_dataset_raises():
    with pytest.raises(KeyError):
        datasets.load("nope")


def test_generated_data_is_pinned():
    """Every benchmark input, and the digests of its outputs, depend on
    the generator: a change to any analog's rows must be deliberate."""
    h = hashlib.sha256()
    for pdf in [datasets.load(s.name, rows_cap=120) for s in datasets.TABLE2] + [
        datasets.nursery()
    ]:
        h.update(pdf.to_csv(index=False).encode())
    assert h.hexdigest() == "05864cd43e097ffbc03fae8124578907ba83c6d3d78c3595e8d490d91029e854"
