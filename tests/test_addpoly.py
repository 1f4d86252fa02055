"""Additive p-polynomials and Moore determinants."""

import itertools
import random

import pytest

from wildram.addpoly import (
    PPolynomial,
    frobenius_minus_identity,
    moore_det,
    ore_recursion,
    ppoly_apply,
)
from wildram.coeffring import make_artin_algebra, make_field
from wildram.series import LaurentSeries

from conftest import (COVER_GRID, additive_poly_from_character, character_for,
                      laplace_det, moore_rows, moore_swap_identity_check)

ORACLE_GRID = COVER_GRID + [(2, 3, 3), (3, 3, 2)]


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
    assert field.from_raw(out.coeff(1)) == g * g


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


def bordered_cofactors(ring, raws):
    """Oracle: the coefficients of Y^{p^i}, i = 0..k, in the Moore
    determinant of (x_1, ..., x_k, Y), by cofactors along the Y column."""
    k = len(raws)
    rows = moore_rows(ring, raws, k + 1)
    out = []
    for i in range(k + 1):
        d = laplace_det(ring, rows[:i] + rows[i + 1:])
        out.append(ring.raw_neg(d) if (i + k) % 2 else d)
    return out


def oracle_inputs(ch, ring, rng):
    """Tuples of raw elements of ring (GF(q) or F_q[eps]/eps^n), with
    whether each is F_p-dependent: the character values lifted with seeded
    nilpotent parts, seeded tuples of 1 to s+1 elements, and the lifted
    values with a seeded F_p-combination of them (or a repeat) inserted."""
    q = ch.field.q
    n = getattr(ring, "n", 1)

    def lift(c):
        return c if n == 1 else (c,) + tuple(rng.randrange(q) for _ in range(n - 1))

    def combo(raws):
        acc = ring.raw_zero()
        for x in raws:
            acc = ring.raw_add(acc, ring.raw_mul(ring.raw_from_int(rng.randrange(ch.p)), x))
        return acc

    vals = [lift(c.idx) for c in ch.vals]
    out = [(vals, False)]
    for k in range(1, ch.s + 2):
        out += [([lift(rng.randrange(q)) for _ in range(k)], None) for _ in range(3)]
    for extra in (combo(vals), vals[-1]):
        pos = rng.randrange(len(vals) + 1)
        out.append((vals[:pos] + [extra] + vals[pos:], True))
    return out


@pytest.mark.parametrize("p,s,m", ORACLE_GRID)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_ore_recursion_matches_the_moore_oracles(p, s, m, n):
    """Over GF(q), eps^2 and eps^3: moore_det equals the Laplace expansion
    of the Moore matrix, the final Ore polynomial times the determinant is
    the bordered Moore determinant, and dividing by a unit determinant
    gives the kernel polynomial.  Dependent tuples have determinant 0."""
    ch = character_for(p, s, m)
    ring = ch.field if n == 1 else make_artin_algebra(ch.field, n)
    rng = random.Random(1000 * p + 100 * s + 10 * m + n)
    for raws, dependent in oracle_inputs(ch, ring, rng):
        det = laplace_det(ring, moore_rows(ring, raws))
        assert moore_det([ring.from_raw(x) for x in raws]) == ring.from_raw(det)
        if dependent is not None:
            assert ring.raw_is_zero(det) == dependent
            assert ring.raw_is_unit(det) != dependent
        P, ore_det = ore_recursion(ring, raws)
        assert ore_det == det
        cofs = bordered_cofactors(ring, raws)
        assert [ring.raw_mul(P.coeff(i), det) for i in range(len(cofs))] == cofs
        if ring.raw_is_unit(det):
            inv = ring.raw_inv(det)
            assert P.coeffs == tuple((i, ring.raw_mul(c, inv))
                                     for i, c in enumerate(cofs)
                                     if not ring.raw_is_zero(ring.raw_mul(c, inv)))
        assert all(ring.raw_is_zero(P.value_raw(x)) for x in raws)


@pytest.mark.parametrize("p,s,m", ORACLE_GRID)
def test_character_kernel_polynomial_is_the_moore_quotient(p, s, m):
    ch = character_for(p, s, m)
    field = ch.field
    for i in range(1, s + 1):
        raws = [c.idx for j, c in enumerate(ch.vals, 1) if j != i]
        cofs = bordered_cofactors(field, raws)
        inv = field.raw_inv(cofs[-1])
        assert additive_poly_from_character(ch, omit=i).coeffs == tuple(
            (nu, field.raw_mul(c, inv)) for nu, c in enumerate(cofs) if c)
