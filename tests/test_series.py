"""Truncated Laurent series: ring operations, inversion, composition,
reversion and Weierstrass preparation."""

import pytest
from hypothesis import given, settings, strategies as st

from wildram.coeffring import make_artin_algebra, make_field, ring_is_field
from wildram.series import (
    INF,
    DistinguishedPolynomial,
    LaurentSeries,
    NotAUnitSeries,
    NotReversible,
    compose,
    holomorphic_part,
    invert_unit_series,
    pole_part,
    revert,
    weierstrass_prepare,
)

F5 = make_field(5)
F4 = make_field(2, 2)
F9 = make_field(3, 2)
F4_EPS2 = make_artin_algebra(F4, 2)
F9_EPS3 = make_artin_algebra(F9, 3)


def series_strategy(field, lo=-3, hi=8, prec=10):
    exps = st.lists(st.integers(lo, hi), max_size=6, unique=True)
    return exps.flatmap(
        lambda es: st.tuples(
            st.just(es),
            st.lists(st.integers(1, field.q - 1), min_size=len(es), max_size=len(es)),
        )
    ).map(lambda ec: LaurentSeries(field, dict(zip(*ec)), prec))


@st.composite
def ring_series(draw, ring, lo=-3, hi=8):
    """A series over a field or an Artin ring with reduced valuation v in
    [lo, hi]: a unit at t^v, arbitrary terms above it, nilpotent terms below
    it (Artin rings only), and a finite or INF precision that may cut any of
    these off."""
    field = ring_is_field(ring)
    q = ring.q if field else ring.base.q
    comp = st.integers(0, q - 1)
    unit = st.integers(1, q - 1)
    v = draw(st.integers(lo, hi))
    if field:
        terms = draw(st.dictionaries(st.integers(v + 1, hi + 2), comp, max_size=6))
        terms[v] = draw(unit)
    else:
        rest = [comp] * (ring.n - 1)
        terms = draw(st.dictionaries(st.integers(v + 1, hi + 2),
                                     st.tuples(comp, *rest), max_size=6))
        terms[v] = draw(st.tuples(unit, *rest))
        terms.update(draw(st.dictionaries(st.integers(v - 4, v - 1),
                                          st.tuples(st.just(0), *rest), max_size=3)))
    prec = draw(st.one_of(st.just(INF), st.integers(v - 2, hi + 6)))
    return LaurentSeries(ring, terms, prec)


def schoolbook_mul(a, b):
    """Reference product, one raw_mul/raw_add per pair of terms: the nonzero
    coefficients and the precision min(a.prec + b.lead, b.prec + a.lead)."""
    r = a.ring
    prec = min(a.prec + b.lead, b.prec + a.lead)
    out = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            e = e1 + e2
            if e < prec:
                out[e] = r.raw_add(out.get(e, r.raw_zero()), r.raw_mul(c1, c2))
    return {e: c for e, c in out.items() if not r.raw_is_zero(c)}, prec


@pytest.mark.parametrize("ring", [F5, F4, F9, F4_EPS2, F9_EPS3],
                         ids=["F5", "F4", "F9", "F4_eps2", "F9_eps3"])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_mul_matches_schoolbook(ring, data):
    a = data.draw(ring_series(ring))
    b = data.draw(ring_series(ring))
    prod = a * b
    assert (prod.coeffs, prod.prec) == schoolbook_mul(a, b)


def check_ring_laws(a, b, c):
    assert ((a + b) - b).eq_to_prec(a)
    assert (a * (b + c)).eq_to_prec(a * b + a * c)
    assert ((a * b) * c).eq_to_prec(a * (b * c))


@given(series_strategy(F5), series_strategy(F5), series_strategy(F5))
@settings(max_examples=80, deadline=None)
def test_ring_laws(a, b, c):
    check_ring_laws(a, b, c)


@given(ring_series(F9_EPS3), ring_series(F9_EPS3), ring_series(F9_EPS3))
@settings(max_examples=80, deadline=None)
def test_ring_laws_artin(a, b, c):
    check_ring_laws(a, b, c)


@given(series_strategy(F5))
@settings(max_examples=60, deadline=None)
def test_derivative_leibniz(a):
    b = a.shift(1)
    lhs = (a * b).derivative()
    rhs = a.derivative() * b + a * b.derivative()
    assert lhs == rhs.truncate(lhs.prec)


def test_invert_exact_geometric():
    a = LaurentSeries.make(F5, {0: 1, 1: 4}, 12)  # 1 - t
    inv = invert_unit_series(a)
    for e in range(inv.prec):
        assert inv.coeff(e) == 1  # 1/(1-t) = sum t^e


@given(series_strategy(F5))
@settings(max_examples=60, deadline=None)
def test_invert_roundtrip(a):
    if a.is_zero():
        return
    inv = invert_unit_series(a)
    prod = a * inv
    one = LaurentSeries.one(F5, prod.prec)
    assert prod == one


def test_invert_rejects_nonunit():
    A = make_artin_algebra(F5, 2)
    eps = A.eps()
    s = LaurentSeries.make(A, {0: eps}, 8)
    with pytest.raises(NotAUnitSeries):
        invert_unit_series(s)


def test_invert_with_nilpotent_terms_below_lead():
    """Inverting t^m + eps*(lower terms) must terminate and be correct;
    the certified precision may be a little below the naive bound."""
    for n in (2, 3):
        A = make_artin_algebra(F5, n)
        eps = A.eps()
        for m in (2, 3, 4):
            s = LaurentSeries.make(A, {m: A.one(), 0: eps * A.from_int(3),
                                       1: eps * A.from_int(2)}, 30)
            inv = invert_unit_series(s)
            assert inv.prec >= 30 - 2 * m - 2 * (n - 1) * m
            prod = s * inv
            assert prod == LaurentSeries.one(A, prod.prec)


def test_pole_and_holomorphic_split():
    a = LaurentSeries.make(F5, {-2: 3, -1: 1, 0: 2, 3: 4}, 6)
    assert sorted(pole_part(a).coeffs) == [-2, -1]
    assert sorted(holomorphic_part(a).coeffs) == [0, 3]
    assert (pole_part(a) + holomorphic_part(a)).eq_to_prec(a)


def test_compose_linear_fractional():
    # f(t) = 1/t composed with g(t) = t/(1+t): f(g) = (1+t)/t = 1/t + 1
    f = LaurentSeries.t_power(F5, -1, 10)
    g = LaurentSeries.make(F5, {1: 1}, 12) * invert_unit_series(
        LaurentSeries.make(F5, {0: 1, 1: 1}, 12))
    h = compose(f, g)
    assert h.coeff(-1) == 1 and h.coeff(0) == 1
    assert all(h.coeff(e) == 0 for e in range(1, h.prec))


@given(series_strategy(F5, lo=2, hi=6))
@settings(max_examples=40, deadline=None)
def test_compose_is_substitution_on_powers(inner0):
    inner = LaurentSeries.make(F5, {1: 1}, 10) + inner0
    outer = LaurentSeries.make(F5, {2: 3, 5: 1}, 10)
    direct = inner.pow(2).scale(F5.from_int(3)) + inner.pow(5)
    got = compose(outer, inner)
    assert got == direct.truncate(got.prec)


def test_revert_roundtrip():
    a = LaurentSeries.make(F5, {1: 2, 2: 1, 4: 3}, 14)
    b = revert(a)
    both = compose(a, b)
    ident = LaurentSeries.t_power(F5, 1, both.prec)
    assert both == ident
    other = compose(b, a)
    assert other == LaurentSeries.t_power(F5, 1, other.prec)


def test_revert_needs_unit_linear_term():
    a = LaurentSeries.make(F5, {2: 1}, 8)
    with pytest.raises(NotReversible):
        revert(a)


def test_frobenius_power_on_series():
    a = LaurentSeries.make(F4, {-1: 2, 1: 3}, 6)
    b = a.frobenius_power()
    for e, c in a.coeffs.items():
        assert b.coeff(2 * e) == F4.raw_frobenius(c)


def test_eps_component_and_lift_reduce():
    A = make_artin_algebra(F5, 2)
    base = LaurentSeries.make(F5, {-1: 2, 3: 1}, 9)
    lifted = base.lift_ring(A)
    pert = lifted + LaurentSeries.make(A, {0: A.eps()}, 9)
    assert pert.eps_component(0) == base
    assert pert.eps_component(1) == LaurentSeries.make(F5, {0: 1}, 9)
    assert pert.residue() == base


def test_weierstrass_preparation_exact():
    A = make_artin_algebra(F5, 2)
    eps = A.eps()
    # (t^2 + eps(2t + 3)) * unit
    dist = DistinguishedPolynomial(A, 2, ((eps * A.from_int(3)).raw,
                                          (eps * A.from_int(2)).raw))
    unit = LaurentSeries.make(A, {0: 4, 1: 1, 2: eps}, 18)
    f = dist.to_series(18) * unit
    got_dist, got_unit = weierstrass_prepare(f)
    assert got_dist.degree == 2
    assert got_dist.coeffs == dist.coeffs
    prod = got_dist.to_series(got_unit.prec) * got_unit
    assert prod == f.truncate(prod.prec)


def test_to_dict_from_dict_roundtrip():
    for ring in (F5, make_artin_algebra(F4, 3)):
        s = LaurentSeries.make(ring, {-2: ring.raw_one(), 5: ring.raw_from_int(1)}, 9)
        assert LaurentSeries.from_dict(ring, s.to_dict()) == s
