"""The library's value classes: equality by class and fields, hashes that
agree with equality, readable reprs, validation in the constructor, and a
cold import that loads neither ``dataclasses`` nor the thread pool."""

import os
import pathlib
import subprocess
import sys

import pytest

import wildram
from wildram.addpoly import PPolynomial
from wildram.ascover import ASCover, CoverClass
from wildram.autoreps import Character, GroupElem, InvalidCharacter, make_character
from wildram.coeffring import ArtinElem, FieldElem, make_artin_algebra, make_field
from wildram.cohomology import OneCochain, PolePartClass, cocycle_class_vector
from wildram.deform import (DeformationDatum, MatrixRep, make_datum,
                            tangent_cocycle_extract, trivial_rep)
from wildram.series import INF, DistinguishedPolynomial, LaurentSeries

F5 = make_field(5)
F25 = make_field(5, 2)
A = make_artin_algebra(F5, 2)
CH = make_character(F5, [[1]], 3)
ZERO, ONE = F5.zero(), F5.one()
P0 = PolePartClass(CH, (ZERO,) * 4)
P1 = PolePartClass(CH, (ONE,) + (ZERO,) * 3)
REP = trivial_rep(A, CH)
E = CH.generator(1).exps
T = LaurentSeries.t_power(F5, -3, INF)
EPS = A.eps().raw

# class, constructor arguments, (index of one field, another value for it),
# whether equal objects hash.  RingElem is tested through FieldElem.
CASES = [
    (FieldElem, (F25, 7), (1, 8), True),
    (ArtinElem, (A, (1, 2)), (1, (1, 3)), True),
    (Character, (F5, 1, (ONE,), 3), (3, 4), True),
    (GroupElem, ((0, 1),), (0, (1, 1)), True),
    (PolePartClass, (CH, P0.coeffs), (1, P1.coeffs), True),
    (OneCochain, (CH, (P0,)), (1, (P1,)), True),
    (MatrixRep, (A, CH, REP.C, REP.lam),
     (2, {**REP.C, E: REP.C[E] + A.eps()}), False),
    (DeformationDatum, (CH, (ZERO,), (ZERO,), (ZERO,) * 3),
     (3, (ONE, ZERO, ZERO)), True),
    (PPolynomial, (F5, ((0, 1),)), (1, ((0, 2),)), True),
    (ASCover, (1, F5, PPolynomial(F5, ((0, 1),))),
     (2, PPolynomial(F5, ((1, 1),))), True),
    # LaurentSeries is unhashable, so a CoverClass is too
    (CoverClass, (T, 1, T, T), (1, 2), False),
    (DistinguishedPolynomial, (A, 2, (EPS, EPS)), (1, 3), True),
]
IDS = [case[0].__name__ for case in CASES]


def changed(args, change):
    i, value = change
    return args[:i] + (value,) + args[i + 1:]


@pytest.mark.parametrize("cls,args,change,hashable", CASES, ids=IDS)
def test_equal_fields_give_equal_objects(cls, args, change, hashable):
    x, y = cls(*args), cls(*args)
    assert x is not y and x == y and not x != y
    if hashable:
        assert hash(x) == hash(y) and len({x, y}) == 1
    else:
        with pytest.raises(TypeError):
            hash(x)


@pytest.mark.parametrize("cls,args,change,hashable", CASES, ids=IDS)
def test_one_changed_field_gives_unequal_objects(cls, args, change, hashable):
    x, y = cls(*args), cls(*changed(args, change))
    assert x != y and y != x and not x == y
    if hashable:
        assert len({x, y}) == 2


@pytest.mark.parametrize("cls,args,change,hashable", CASES, ids=IDS)
def test_another_class_with_the_same_fields_is_unequal(cls, args, change, hashable):
    twin = type(cls.__name__, (cls,), {"__slots__": ()})
    x, y = cls(*args), twin(*args)
    assert x != y and y != x
    if hashable:
        assert {x: 1}.get(y) is None


@pytest.mark.parametrize("cls,args,change,hashable", CASES, ids=IDS)
def test_slotted_and_readable(cls, args, change, hashable):
    x = cls(*args)
    assert not hasattr(x, "__dict__")
    assert " object at 0x" not in repr(x)


def test_character_equality_ignores_the_memo():
    """Every kind of memo entry, each filled by the code that reads it:
    build_rho's series, the peel, the generator complex and the chords of
    a tangent extraction."""
    a, b = make_character(F5, [[1]], 3), make_character(F5, [[1]], 3)
    datum = make_datum(a, [1], [2], [1, 0, 3])
    cocycle_class_vector(a, tangent_cocycle_extract(datum.matrix_rep(), datum.ftilde(20)))
    assert {key if isinstance(key, str) else key[0] for key in a.memo} == {
        "rho", "peel", "complex", "chord"}
    assert a == b and hash(a) == hash(b) and not b.memo
    assert repr(a) == repr(b) == (
        "Character(field=GF(5^1), s=1, vals=(Fq[1],), m=3)")


@pytest.mark.parametrize("args,message", [
    ((F5, 0, (), 3), "exactly s"),
    ((F5, 1, (ONE, ONE), 3), "exactly s"),
    ((F5, 1, (ONE,), 5), "coprime"),
    ((F5, 1, (ONE,), 0), "coprime"),
    ((F25, 2, (F25.one(), F25.gen()), 1), "two-dimensionality"),
    ((F5, 2, (ONE, ONE), 2), "dependent"),
    ((F25, 2, (F25.one(), F25.from_int(2)), 2), "dependent"),
    ((F5, 1, (ZERO,), 3), "dependent"),
])
def test_invalid_characters_raise(args, message):
    with pytest.raises(InvalidCharacter, match=message):
        Character(*args)


def test_wrong_lengths_raise_value_error():
    with pytest.raises(ValueError, match="m\\+1"):
        PolePartClass(CH, (ZERO,) * 3)
    with pytest.raises(ValueError, match="one value per generator"):
        OneCochain(CH, (P0, P0))


def test_cold_import_loads_no_dataclasses_and_no_thread_pool():
    """A fresh interpreter without site hooks, which may import anything,
    imports the package and its command line."""
    code = ("import sys, wildram, wildram.cli; print(sorted(m for m in "
            "('dataclasses', 'inspect', 'concurrent.futures') if m in sys.modules))")
    root = str(pathlib.Path(wildram.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-S", "-B", "-c", code], capture_output=True,
                         text=True, timeout=60, env={**os.environ, "PYTHONPATH": root})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
