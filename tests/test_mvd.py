"""Unit tests for the canonical MVD model (Sec. 3.1, 5.2)."""
import pytest

from repro.core.mvd import MVD


def test_canonicalization_equality():
    m1 = MVD.of("A", ["BC", "D"])
    m2 = MVD.of(frozenset("A"), [frozenset("D"), frozenset("CB")])
    assert m1 == m2
    assert hash(m1) == hash(m2)


def test_requires_two_dependents():
    with pytest.raises(ValueError):
        MVD.of("A", ["BC"])


def test_rejects_empty_dependent():
    with pytest.raises(ValueError):
        MVD.of("A", ["B", ""])


def test_rejects_key_overlap():
    with pytest.raises(ValueError):
        MVD.of("AB", ["BC", "D"])


def test_rejects_overlapping_dependents():
    with pytest.raises(ValueError):
        MVD.of("A", ["BC", "CD"])


def test_separates():
    m = MVD.of("X", ["AB", "C"])
    assert m.separates("A", "C")
    assert not m.separates("A", "B")
    assert not m.separates("X", "C")  # key attr is in no dependent
    assert not m.separates("A", "Z") and not m.separates("Z", "A")  # nor is Z


def test_refines_basic():
    fine = MVD.of("X", ["A", "B", "C"])
    coarse = MVD.of("X", ["AB", "C"])
    assert fine.refines(coarse)
    assert fine.strictly_refines(coarse)
    assert not coarse.refines(fine)
    assert coarse.refines(coarse) and not coarse.strictly_refines(coarse)


def test_refines_requires_same_key():
    assert not MVD.of("X", ["A", "B"]).refines(MVD.of("Y", ["A", "B"]))


def test_refines_incomparable():
    m1 = MVD.of("X", ["AB", "CD"])
    m2 = MVD.of("X", ["AC", "BD"])
    assert not m1.refines(m2) and not m2.refines(m1)


def test_str_roundtrippable_labels():
    assert str(MVD.of("X", ["A", "BC"])) == "X ->> A|BC"
    assert str(MVD.of("", ["A", "B"])) == "{} ->> A|B"


def test_empty_key_allowed():
    m = MVD.of("", ["A", "B"])
    assert m.key == frozenset()
    assert m.separates("A", "B")
