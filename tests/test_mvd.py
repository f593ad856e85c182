"""Unit tests for the canonical MVD model (Sec. 3.1, 5.2)."""
import pytest

from repro.core.mvd import MVD
from tests.helpers import mask_of, mvd, over_names


def test_canonicalization_equality():
    m1 = mvd("A", ["BC", "D"])
    m2 = mvd(frozenset("A"), [frozenset("D"), frozenset("CB")])
    assert m1 == m2
    assert hash(m1) == hash(m2)
    assert over_names(m1) == (frozenset("A"), (frozenset("BC"), frozenset("D")))


def test_names_take_no_part_in_equality():
    m = mvd("A", ["B", "C"])
    assert MVD(m.key, m.deps, ()) == m and hash(MVD(m.key, m.deps, ())) == hash(m)


def test_requires_two_dependents():
    with pytest.raises(ValueError):
        mvd("A", ["BC"])


def test_rejects_empty_dependent():
    with pytest.raises(ValueError):
        mvd("A", ["B", ""])


def test_rejects_key_overlap():
    with pytest.raises(ValueError):
        mvd("AB", ["BC", "D"])


def test_rejects_overlapping_dependents():
    with pytest.raises(ValueError):
        mvd("A", ["BC", "CD"])


def test_separates():
    m = mvd("X", ["AB", "C"])
    assert m.separates(mask_of("AC"))
    assert not m.separates(mask_of("AB"))
    assert not m.separates(mask_of("XC"))  # key attr is in no dependent
    assert not m.separates(mask_of("AZ"))  # nor is Z


def test_refines_basic():
    fine = mvd("X", ["A", "B", "C"])
    coarse = mvd("X", ["AB", "C"])
    assert fine.refines(coarse)
    assert not coarse.refines(fine)
    assert coarse.refines(coarse)


def test_refines_requires_same_key():
    assert not mvd("X", ["A", "B"]).refines(mvd("Y", ["A", "B"]))


def test_refines_incomparable():
    m1 = mvd("X", ["AB", "CD"])
    m2 = mvd("X", ["AC", "BD"])
    assert not m1.refines(m2) and not m2.refines(m1)


def test_str_roundtrippable_labels():
    assert str(mvd("X", ["A", "BC"])) == "X ->> A|BC"
    assert str(mvd("", ["A", "B"])) == "{} ->> A|B"


def test_empty_key_allowed():
    m = mvd("", ["A", "B"])
    assert m.key == 0
    assert m.separates(mask_of("AB"))
