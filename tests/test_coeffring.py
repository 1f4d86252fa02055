"""Finite fields and Artin local algebras: exact arithmetic invariants."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import oracle_constants, oracle_elem, oracle_field_tables, oracle_raw
from wildram.addpoly import PPolynomial, ppoly_apply
from wildram.autoreps import make_character
from wildram.cli import selftest_grid
from wildram.coeffring import (
    ArtinElem,
    FieldElem,
    NotAUnit,
    ReducibleModulus,
    RingMismatch,
    _default_modulus,
    _is_irreducible,
    make_artin_algebra,
    make_field,
    p_power_root,
    ring_is_field,
)
from wildram.series import LaurentSeries

FIELDS = [make_field(2), make_field(3), make_field(5),
          make_field(2, 2), make_field(3, 2), make_field(2, 3), make_field(5, 2)]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: "F%d" % f.q)
def test_field_axioms_exhaustive(field):
    els = list(field.elements())
    assert len(els) == field.q
    one, zero = field.one(), field.zero()
    for a in els:
        assert a + zero == a and a * one == a
        assert a - a == zero and a + (-a) == zero
        if a:
            inv = field.from_raw(field.raw_inv(a.idx))
            assert a * inv == one


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: "F%d" % f.q)
def test_frobenius_is_additive_and_pth_power(field):
    for a in field.elements():
        assert a.frobenius() == a ** field.p
        for b in field.elements():
            assert (a + b).frobenius() == a.frobenius() + b.frobenius()


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: "F%d" % f.q)
def test_p_power_root_roundtrip(field):
    for a in field.elements():
        for e in (1, 2):
            r = field.from_raw(field.raw_p_root(a.idx, e))
            assert r ** (field.p ** e) == a


def test_from_int_is_ring_hom():
    field = make_field(7)
    for x in range(-10, 15):
        for y in range(-10, 15):
            assert field.from_int(x) + field.from_int(y) == field.from_int(x + y)
            assert field.from_int(x) * field.from_int(y) == field.from_int(x * y)


def test_multiplicative_order_divides_q_minus_1():
    field = make_field(3, 2)
    g = field.gen()
    powers = set()
    acc = field.one()
    for _ in range(field.q - 1):
        acc = acc * g
        powers.add(acc.idx)
    assert field.one().idx in powers


def test_reducible_modulus_rejected():
    with pytest.raises(ReducibleModulus):
        make_field(2, 2, modulus=[1, 0, 1])  # x^2 + 1 = (x+1)^2 over F_2


def _monic(p, k):
    return [low + (1,) for low in itertools.product(range(p), repeat=k)]


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


# Every (p, d) with d <= 6 and p^d <= 625 among the primes p with p^2 <= 625:
# 3 220 monic polynomials.  The larger primes only have d = 1.
IRREDUCIBILITY_CASES = [(p, d) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)
                        for d in range(1, 7) if p ** d <= 625]


@pytest.mark.parametrize("p,d", IRREDUCIBILITY_CASES)
def test_irreducibility_matches_products_of_factors(p, d):
    """The verdict on every monic polynomial of degree d over F_p against the
    set of products of two monic factors of positive degree, and the
    default modulus is the first irreducible in lexicographic order."""
    reducible = {_poly_mul(a, b, p) for k in range(1, d // 2 + 1)
                 for a in _monic(p, k) for b in _monic(p, d - k)}
    candidates = _monic(p, d)
    assert [_is_irreducible(f, p) for f in candidates] == \
        [f not in reducible for f in candidates]
    assert _default_modulus(p, d) == \
        next(f for f in candidates if f not in reducible)


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_f9_associativity_and_distributivity(i, j, k):
    field = make_field(3, 2)
    a, b, c = (field.from_raw(x) for x in (i, j, k))
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("n", [2, 3, 4])
def test_artin_algebra_nilpotency(n):
    A = make_artin_algebra(make_field(3), n)
    eps = A.eps()
    acc = A.one()
    for _ in range(n - 1):
        acc = acc * eps
        assert acc
    assert acc * eps == A.zero()
    assert A.nilpotency == n


def test_artin_units_are_exactly_nonzero_residue():
    A = make_artin_algebra(make_field(2, 2), 2)
    for x in A.elements():
        assert x.is_unit() == bool(x.residue())
        if x.is_unit():
            inv = A.from_raw(A.raw_inv(x.raw))
            assert x * inv == A.one()
        else:
            with pytest.raises(NotAUnit):
                A.raw_inv(x.raw)


def test_include_residue_roundtrip():
    field = make_field(5)
    A = make_artin_algebra(field, 3)
    for a in field.elements():
        assert A.include(a).residue() == a
    assert not ring_is_field(A) and ring_is_field(field)


def test_small_extension_adds_one_level():
    field = make_field(3)
    A3 = make_artin_algebra(field, 3)
    A4 = A3.small_extension()
    assert A4.n == 4 and A4.base == A3.base
    x = A3.elem([field.from_int(1), field.from_int(2), field.from_int(1)])
    assert x.reduce(2).raw == x.raw[:2]
    assert x.lift(A4).reduce(3) == x


def test_one_descriptor_per_artin_algebra():
    """make_artin_algebra, small_extension and reduce hand out the one
    descriptor of F_q[eps]/eps^n, as make_field does for F_q."""
    field = make_field(3)
    A3 = make_artin_algebra(make_field(3), 3)
    assert make_artin_algebra(field, 3) is A3
    assert A3.small_extension() is make_artin_algebra(field, 4)
    assert A3.one().reduce().ring is make_artin_algebra(field, 2)
    assert A3.one().reduce(1).ring is make_artin_algebra(field, 1)


def test_p_power_root_on_field_elements():
    field = make_field(3, 2)
    for a in field.elements():
        assert p_power_root(a) ** 3 == a


# GF(4), GF(25), GF(9)[eps]/eps^2 and GF(5)[eps]/eps^3.
ORACLE_RINGS = [make_field(2, 2), make_field(5, 2),
                make_artin_algebra(make_field(3, 2), 2),
                make_artin_algebra(make_field(5), 3)]


def raw_values(ring):
    if ring_is_field(ring):
        return st.integers(0, ring.q - 1)
    return st.tuples(*[st.integers(0, ring.base.q - 1)] * ring.n)


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_elements_match_the_per_class_oracle(data):
    """Every element operation, from_int, zero, one and raw_pow, negative
    exponents included, against one element class per ring."""
    ring = data.draw(st.sampled_from(ORACLE_RINGS), label="ring")
    a = data.draw(raw_values(ring), label="a")
    b = data.draw(raw_values(ring), label="b")
    k = data.draw(st.integers(-60, 60), label="k")
    n = data.draw(st.integers(-8, 40), label="n")
    x, y = ring.from_raw(a), ring.from_raw(b)
    ox, oy = oracle_elem(ring, a), oracle_elem(ring, b)
    for got, want in [(x + y, ox + oy), (x - y, ox - oy), (x * y, ox * oy),
                      (-x, -ox)]:
        assert type(got) is type(x) and got.ring == ring
        assert got.raw == oracle_raw(want)
    assert bool(x) == bool(ox) and x.is_unit() == ox.is_unit()
    if n >= 0 or ox.is_unit():
        assert (x ** n).raw == ring.raw_pow(a, n) == oracle_raw(ox ** n)
    else:
        with pytest.raises(NotAUnit):
            x ** n
        with pytest.raises(NotAUnit):
            ox ** n
    assert (ring.from_int(k).raw, ring.zero().raw, ring.one().raw) == \
        oracle_constants(ring, k)
    assert ring.to_raw(x) == a and ring.to_raw(k) == ring.from_int(k).raw
    assert x == ring.from_raw(a) and hash(x) == hash(ring.from_raw(a))


def test_field_and_artin_elements_with_one_raw_stay_apart():
    """Equality and hashing tell a field element from an Artin element with
    the same ring and raw value, and from its image in F[eps]/eps^2."""
    field = make_field(5, 2)
    A = make_artin_algebra(field, 2)
    for raw in range(field.q):
        x, y = FieldElem(field, raw), ArtinElem(field, raw)
        assert x != y and y != x
        assert len({x, y}) == 2 and {x: 1}.get(y) is None
        assert x != A.include(x) and len({x, A.include(x)}) == 2


def test_mixing_field_and_artin_elements_raises():
    field = make_field(3, 2)
    A = make_artin_algebra(field, 2)
    other = make_field(2, 2).one()
    for x in field.elements():
        for z in (A.include(x), A.eps(), other):
            for op in (lambda u, v: u + v, lambda u, v: u - v,
                       lambda u, v: u * v):
                with pytest.raises(ValueError):
                    op(x, z)
                with pytest.raises(ValueError):
                    op(z, x)


F25 = make_field(5, 2)
A25 = make_artin_algebra(F25, 2)
REFUSALS = {
    "series_of_an_artin_element": lambda: LaurentSeries.make(F25, {0: A25.one()}),
    "series_of_another_field": lambda: LaurentSeries.make(
        make_field(5), {0: make_field(3).one()}),
    "ppoly_of_an_artin_element": lambda: PPolynomial.make(F25, {1: A25.one()}),
    "ppoly_at_another_field": lambda: ppoly_apply(
        PPolynomial.make(F25, {0: 1, 1: 1}), make_field(3, 2).gen()),
    "character_of_another_field": lambda: make_character(
        F25, [make_field(3, 2).gen()], 3),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_elements_of_another_ring_are_refused(case):
    """An element of another ring is refused where it becomes a raw value,
    instead of being stored as a foreign raw or read as an index."""
    with pytest.raises(RingMismatch):
        REFUSALS[case]()


F5 = make_field(5)
A9_3 = make_artin_algebra(make_field(3, 2), 3)
MALFORMED_RAWS = {
    "field_tuple": (F5, (1, 0)), "field_list": (F5, [1]),
    "field_str": (F5, "1"), "field_float": (F5, 1.0), "field_none": (F5, None),
    "artin_short": (A9_3, (1, 0)), "artin_long": (A9_3, (1, 0, 0, 0)),
    "artin_out_of_range": (A9_3, (9, 0, 0)), "artin_negative": (A9_3, (-1, 0, 0)),
    "artin_float_entry": (A9_3, (1.0, 0, 0)), "artin_list": (A9_3, [1, 0, 0]),
    "artin_float": (A9_3, 2.0),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_RAWS))
def test_malformed_raw_values_are_refused(case):
    """Over a field only elements and ints become raw values; over
    F_q[eps]/eps^n also n-tuples of ints in range(q).  Anything else is
    refused where it becomes a raw value, not stored for a later product
    to fail on."""
    ring, value = MALFORMED_RAWS[case]
    with pytest.raises(RingMismatch):
        ring.to_raw(value)
    with pytest.raises(RingMismatch):
        LaurentSeries.make(ring, {0: value}, 5)


A5_2 = make_artin_algebra(F5, 2)
MALFORMED_VECTORS = {
    "field_too_long": (F5, [1, 2, 3]), "field_out_of_range": (F5, [7]),
    "field_negative": (F5, [-1]), "field_float": (F5, [1.0]),
    "extension_too_long": (make_field(3, 2), [1, 2, 0]),
    "artin_too_long": (A5_2, [[1], [2], [3]]),
    "artin_out_of_range": (A5_2, [[5], [0]]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_VECTORS))
def test_malformed_coefficient_vectors_are_refused(case):
    """A coefficient vector becomes a raw value only if it names an element:
    at most d entries in range(p) over GF(p^d), at most n such vectors over
    F_q[eps]/eps^n.  [1, 2, 3] over GF(5) was read as the raw 86, and three
    eps-components over eps^2 as a 3-tuple."""
    ring, vec = MALFORMED_VECTORS[case]
    with pytest.raises(RingMismatch):
        ring.raw_from_vector(vec)
    with pytest.raises(RingMismatch):
        LaurentSeries.from_dict(ring, {"prec": 3, "terms": [[0, vec]]})


def test_raw_artin_tuples_are_kept():
    for raw in itertools.product((0, 1, 8), repeat=3):
        assert A9_3.to_raw(raw) == raw
    s = LaurentSeries.make(A9_3, {0: (1, 2, 0), 1: (0, 8, 3)}, 5)
    assert (s * s).coeff(0) == A9_3.raw_mul((1, 2, 0), (1, 2, 0))


def test_elem_returns_an_element_of_its_own_field():
    field = make_field(5, 2)
    for x in field.elements():
        assert field.elem(x) == x


# every field of the selftest grid, GF(9) among them with the modulus
# x^2 + 1 whose root x is not primitive, and the largest fields in scope
TABLE_FIELDS = sorted({(pt["field"]["p"], pt["field"]["d"]) for pt in selftest_grid()}
                      | {(2, 6), (5, 3), (5, 4)})


@pytest.mark.parametrize("p,d", TABLE_FIELDS)
def test_tables_from_a_primitive_element_match_the_oracle(p, d):
    field = make_field(p, d)
    assert field.tables() == oracle_field_tables(field)
