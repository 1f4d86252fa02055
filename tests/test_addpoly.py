"""Additive p-polynomials and Moore determinants."""

import itertools

import pytest

from wildram.addpoly import (
    PPolynomial,
    additive_poly_from_character,
    frobenius_minus_identity,
    moore_det,
    moore_swap_identity_check,
    ppoly_apply,
)
from wildram.coeffring import make_field
from wildram.series import LaurentSeries

from conftest import character_for


def test_moore_det_vanishes_iff_dependent():
    field = make_field(2, 2)
    els = list(field.elements())
    for a, b in itertools.product(els, els):
        det = moore_det([a, b])
        # rows (a, b), (a^2, b^2): zero exactly when a, b are F_2-dependent
        dependent = (not a) or (not b) or a == b
        assert (not det) if dependent else bool(det)


def test_moore_det_alternating_and_triangular():
    field = make_field(3, 2)
    g = field.gen()
    one = field.one()
    d1 = moore_det([one, g])
    d2 = moore_det([g, one])
    assert d1 == -d2
    assert not moore_det([one, one])


def test_additive_polynomial_is_fp_linear():
    field = make_field(5)
    poly = PPolynomial.make(field, {0: field.from_int(2), 1: field.from_int(1)})
    for a in field.elements():
        for b in field.elements():
            assert ppoly_apply(poly, a + b) == ppoly_apply(poly, a) + ppoly_apply(poly, b)


def test_frobenius_minus_identity_kills_subfield():
    field = make_field(2, 2)
    D = frobenius_minus_identity(field, 1)
    # F(x) - x vanishes exactly on the prime field inside F_4
    roots = [a for a in field.elements() if not ppoly_apply(D, a)]
    assert len(roots) == 2


def test_ppoly_apply_on_series_respects_frobenius_twist():
    """Applying sum c_nu Y^{p^nu} to a series must use the series' own
    Frobenius powers; coefficients outside the prime field matter."""
    field = make_field(2, 2)
    g = field.gen()
    poly = PPolynomial.make(field, {0: g})
    s = LaurentSeries.make(field, {1: g}, 8)
    out = ppoly_apply(poly, s)
    assert out.coeff_elem(1) == g * g


def test_character_kernel_polynomial_splits_with_unit_value():
    for p, s, m in [(2, 2, 3), (3, 2, 2)]:
        ch = character_for(p, s, m)
        for i in range(1, s + 1):
            poly = additive_poly_from_character(ch, omit=i)
            # vanishes on the values of the omitted-complement generators
            for j in range(1, s + 1):
                v = ch.vals[j - 1]
                img = ppoly_apply(poly, v)
                if j == i:
                    assert img
                else:
                    assert not img


@pytest.mark.parametrize("p,s,m", [(2, 2, 3), (3, 2, 2), (5, 2, 2)])
def test_moore_swap_identity(p, s, m):
    ch = character_for(p, s, m)
    for i in range(1, s + 1):
        assert moore_swap_identity_check(ch, i)


def test_root_space_of_additive_poly_is_subspace():
    """Exhaustively over q <= 64: the roots of Y^{p^s} - Y form the subfield
    F_{p^s}, an F_p-subspace of the right size."""
    for p, d in [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
                 (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)]:
        field = make_field(p, d)
        for s in (1, 2):
            D = frobenius_minus_identity(field, s)
            roots = [a for a in field.elements() if not ppoly_apply(D, a)]
            import math
            expected = p ** math.gcd(s, d)
            assert len(roots) == expected
            for a in roots:
                for b in roots:
                    assert not ppoly_apply(D, a + b)
