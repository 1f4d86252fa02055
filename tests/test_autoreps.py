"""The order-p^s automorphism family rho_sigma and its ramification."""

from fractions import Fraction

import pytest

from wildram import autoreps
from wildram.autoreps import (
    InvalidCharacter,
    binom_row_mod_p,
    build_rho,
    character_value,
    default_precision,
    group_mul,
    group_pow,
    make_character,
    peeled,
    ramification_data,
    verify_group_law,
)
from wildram.coeffring import make_field
from wildram.series import LaurentSeries, compose, invert_unit_series, revert

from conftest import binom_mod_p, character_for, small_grid

F5 = make_field(5)


# -- reference constructions of rho, by Newton iteration ----------------------

class RootDegreeDivisibleByP(ValueError):
    pass


def mth_root_unit(a, m):
    """The series x = 1 + higher with x^m = a, for a = 1 + (terms of positive
    valuation) over a field and gcd(m, p) = 1: Newton iteration on X^m - a,
    whose derivative m X^{m-1} is a unit."""
    r = a.ring
    if m % r.p == 0:
        raise RootDegreeDivisibleByP("gcd(m, p) must be 1")
    x = LaurentSeries.one(r, a.prec)
    for _ in range(64):
        err = x.pow(m) - a
        if err.is_zero():
            return x
        corr = err * invert_unit_series(x.pow(m - 1).scale(r.raw_from_int(m)))
        x = (x - corr).with_prec(a.prec)
    raise AssertionError("m-th root iteration did not converge")


def rho_by_mth_root(field, c, m, prec):
    """t / (1 + c t^m)^{1/m} through the m-th root of 1 + c t^m."""
    base = LaurentSeries.make(field, {0: 1, m: c}, prec)
    t = LaurentSeries.t_power(field, 1, prec)
    return (t * invert_unit_series(mth_root_unit(base, m))).with_prec(prec)


def rho_by_direct_hensel(field, c, m, prec):
    """Newton solve of (1 + c t^m) T^m - t^m = 0 with T = t + higher."""
    base = LaurentSeries.make(field, {0: 1, m: c}, prec)
    tm = LaurentSeries.t_power(field, m, prec + m)
    T = LaurentSeries.t_power(field, 1, prec)
    for _ in range(64):
        err = base * T.pow(m) - tm
        if err.is_zero():
            return T
        dF = (base * T.pow(m - 1)).scale(m)
        T = (T - err * invert_unit_series(dF)).with_prec(prec)
    raise AssertionError("direct Hensel construction did not converge")


def test_mth_root_unit():
    a = LaurentSeries.make(F5, {0: 1, 1: 1}, 12).pow(3)
    r = mth_root_unit(a, 3)
    assert r == LaurentSeries.make(F5, {0: 1, 1: 1}, r.prec)
    with pytest.raises(RootDegreeDivisibleByP):
        mth_root_unit(a, 5)


@pytest.mark.parametrize("p,s,m", small_grid())
def test_closed_rho_matches_newton_constructions(p, s, m):
    """The closed binomial series equals both Newton constructions bit for
    bit, coefficients and precision, at the working precisions in use."""
    ch = character_for(p, s, m)
    for prec in (default_precision(p, m), 3 * (m + 2), 16 * (m + 2)):
        for g in ch.group():
            rho = build_rho(ch, g, prec)
            c = character_value(ch, g)
            assert rho == rho_by_mth_root(ch.field, c, m, prec)
            assert rho == rho_by_direct_hensel(ch.field, c, m, prec)


def test_binom_mod_p_matches_fractions():
    """The entry-by-entry oracle binom_mod_p and the Lucas row against
    exact rational binomials binom(num/den, k) mod p, for every den < 25
    prime to p, |num| <= 60 and k < 90."""
    for den in range(1, 25):
        for num in range(-60, 61):
            x = Fraction(num, den)
            want = {p: [] for p in (2, 3, 5, 7) if den % p}
            b = Fraction(1)
            for k in range(90):
                for p, row in want.items():
                    row.append(b.numerator * pow(b.denominator, -1, p) % p)
                    assert binom_mod_p(num, den, k, p) == row[k], (num, den, k, p)
                b = b * (x - k) / (k + 1)
            for p, row in want.items():
                assert binom_row_mod_p(num, den, 90, p) == row, (num, den, p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_binom_row_is_the_lucas_product(p):
    """The Lucas row equals binom_mod_p entry by entry, for every k < p^L
    with L up to 4 (up to 3 at p = 5), and for rows cut at any length, on
    negative and positive numerators and denominators prime to p."""
    top = 4 if p < 5 else 3
    for den in (d for d in range(1, 14) if d % p):
        for num in range(-2 * den - 7, 2 * den + 8):
            for L in range(top + 1):
                row = binom_row_mod_p(num, den, p ** L, p)
                assert row == [binom_mod_p(num, den, k, p) for k in range(p ** L)], \
                    (num, den, L)
            for n in (0, 1, p + 1, 2 * p * p - 1):
                assert binom_row_mod_p(num, den, n, p) == \
                    [binom_mod_p(num, den, k, p) for k in range(n)]


@pytest.mark.parametrize("p,s,m", small_grid())
def test_defining_equation(p, s, m):
    """1/rho_sigma(t)^m = 1/t^m + c(sigma), coefficientwise exact."""
    ch = character_for(p, s, m)
    prec = default_precision(p, m)
    for g in ch.group():
        rho = build_rho(ch, g, prec)
        lhs = invert_unit_series(rho.pow(m))
        rhs = LaurentSeries.t_power(ch.field, -m, lhs.prec) + \
            LaurentSeries.make(ch.field, {0: character_value(ch, g)}, lhs.prec)
        assert lhs.eq_to_prec(rhs)


@pytest.mark.parametrize("p,s,m", small_grid())
def test_inverse_is_rho_of_inverse_element(p, s, m):
    """rho_g^{-1} = rho_{g^(p-1)}, coefficients and precision, against the
    Newton reversion, at the precisions of the tangent window, of the
    extraction and of the default."""
    ch = character_for(p, s, m)
    for prec in (m + 2, 3 * (m + 2), default_precision(p, m)):
        for g in ch.group():
            closed = build_rho(ch, group_pow(ch, g, p - 1), prec)
            reverted = revert(build_rho(ch, g, prec))
            assert (closed.coeffs, closed.prec) == (reverted.coeffs, reverted.prec)


def test_identity_is_identity_series():
    ch = character_for(3, 1, 2)
    rho = build_rho(ch, ch.identity(), 20)
    assert rho.eq_to_prec(LaurentSeries.t_power(ch.field, 1, 20))


@pytest.mark.parametrize("p,s,m", small_grid())
def test_group_law_and_order(p, s, m):
    ch = character_for(p, s, m)
    assert verify_group_law(ch)["ok"]
    g = ch.generator(1)
    prec = default_precision(p, m)
    acc = build_rho(ch, g, prec)
    rho = build_rho(ch, g, prec)
    for _ in range(p - 1):
        acc = compose(rho, acc)
    assert acc.eq_to_prec(LaurentSeries.t_power(ch.field, 1, acc.prec))


def test_group_law_product_count(monkeypatch):
    """Timer-free cost guard: the group law at (5,2,3), N = 80, composes 629
    pairs with 25 distinct inners and makes at most 1 000 series products,
    each power of an inner computed once for all the outers composed with
    it.  Rebuilding every power for each pair took 16 358."""
    ch = character_for(5, 2, 3)
    calls = []
    mul = LaurentSeries.__mul__

    def counted(x, y):
        calls.append(1)
        return mul(x, y)

    monkeypatch.setattr(LaurentSeries, "__mul__", counted)
    assert verify_group_law(ch)["ok"]
    assert len(calls) <= 1000


@pytest.mark.parametrize("planted", [(2, 0), (1, 2)],
                         ids=["generator_square", "general_element"])
def test_group_law_reports_the_first_pair_through_a_wrong_rho(planted):
    """A perturbed rho_g planted in the memo at (3,2,4) fails the law on
    the first pair, generator pairs first, that has g on exactly one side
    of rho_a o rho_b = rho_ab (with the identity as a factor g is on both
    and the law holds): sigma_1 o sigma_1 for g = sigma_1^2, and a pair of
    the second row of V x V for a g that no generator pair reaches.  The
    pair count does not change."""
    ch = character_for(3, 2, 4)
    prec = default_precision(3, 4)
    want_pairs = verify_group_law(character_for(3, 2, 4))["pairs_checked"]
    g = autoreps.GroupElem(planted)
    rho = build_rho(ch, g, prec)
    ch.memo[("rho", g.exps, prec)] = rho + LaurentSeries.t_power(ch.field, 6, prec)
    gens = [ch.generator(i) for i in (1, 2)]
    order = [(a, b) for a in gens for b in gens] + \
        [(a, b) for a in ch.group() for b in ch.group()]
    first = next((a, b) for a, b in order
                 if (g in (a, b)) != (g == group_mul(ch, a, b)))
    res = verify_group_law(ch, prec)
    assert not res["ok"]
    assert res["pairs_checked"] == want_pairs == 4 + 81
    assert res["first_discrepancy"] == first
    assert first == ((gens[0], gens[0]) if planted == (2, 0)
                     else (autoreps.GroupElem((0, 1)), autoreps.GroupElem((1, 1))))


def test_rho_first_coefficients_small_case():
    """p=2, m=1, c=1: 1/rho^1 = 1/t + 1 means rho = t/(1+t) = t + t^2 + ..."""
    ch = character_for(2, 1, 1)
    rho = build_rho(ch, ch.generator(1), 10)
    for e in range(1, 10):
        assert rho.coeff(e) == 1


@pytest.mark.parametrize("p,s,m", small_grid())
def test_ramification_break(p, s, m):
    """v(rho_sigma(t) - t) = m + 1 for every nontrivial sigma: a single
    ramification break at m."""
    ch = character_for(p, s, m)
    data = ramification_data(ch)
    assert data["uniform_break"]
    assert data["equation_ok"]
    assert data["single_jump"] == m
    assert data["ar_identity"] == (ch.order() - 1) * (m + 1)
    t = LaurentSeries.t_power(ch.field, 1, default_precision(p, m))
    for g in ch.group():
        if g.is_identity():
            continue
        diff = build_rho(ch, g, t.prec) - t
        assert diff.reduced_valuation() == m + 1


def test_character_must_be_injective():
    field = make_field(2, 2)
    with pytest.raises(InvalidCharacter):
        make_character(field, [[1, 0], [1, 0]], 3)  # dependent values
    with pytest.raises(InvalidCharacter):
        make_character(field, [[1, 0]], 2)  # m divisible by p


@pytest.mark.parametrize("p,s,m", [(2, 1, 3), (3, 2, 2), (2, 3, 3)])
def test_peeled_visits_each_element_after_its_rest(p, s, m):
    ch = character_for(p, s, m)
    seen = [ch.identity()]
    for g, i, rest in peeled(ch):
        assert rest in seen
        assert group_mul(ch, ch.generator(i + 1), rest) == g
        assert g.exps[:i] == (0,) * i and g.exps[i]
        seen.append(g)
    assert seen == ch.group()


def test_rank_above_the_degree_is_rejected_before_the_moore_determinant(monkeypatch):
    """s values in GF(p^d) with s > d are F_p-dependent; the rejection does
    not wait for a Moore determinant, whose expansion is factorial in s."""
    def boom(xs):
        pytest.fail("moore_det called")

    monkeypatch.setattr(autoreps, "moore_det", boom)
    field = make_field(2, 2)
    with pytest.raises(InvalidCharacter):
        make_character(field, [[1, 0], [0, 1], [1, 1]], 3)


def test_group_algebra_structure():
    ch = character_for(3, 2, 2)
    g, h = ch.generator(1), ch.generator(2)
    assert group_mul(ch, g, h) == group_mul(ch, h, g)
    assert group_pow(ch, g, 3).is_identity()
    assert character_value(ch, group_mul(ch, g, h)) == \
        character_value(ch, g) + character_value(ch, h)
    assert ch.order() == 9 and len(list(ch.group())) == 9
