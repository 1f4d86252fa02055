"""Artin-Schreier cover models: normalization, reduction, conductors,
the quotient-germ expansion and deformed covers."""

import pytest

from wildram.addpoly import ppoly_apply
from wildram.ascover import (
    DependentMu,
    ReductionMismatch,
    build_u,
    class_reduce,
    conductor,
    deformed_u,
    downstairs_model,
    equivalent_covers,
    germ_model,
    normalized_generators,
    reduction_witness_valid,
    subfield_elements,
)
from wildram.coeffring import make_artin_algebra, make_field
from wildram.series import INF, LaurentSeries, invert_unit_series

from conftest import character_for

COVER_GRID = [(2, 1, 1), (2, 1, 3), (3, 1, 2), (2, 2, 3), (3, 2, 2),
              (2, 2, 5), (3, 2, 4), (5, 2, 2)]


def test_subfield_elements_counts():
    f4 = make_field(2, 2)
    assert len(subfield_elements(f4, 1)) == 2
    assert len(subfield_elements(f4, 2)) == 4
    f9 = make_field(3, 2)
    assert len(subfield_elements(f9, 2)) == 9
    assert len(subfield_elements(f9, 1)) == 3


@pytest.mark.parametrize("p,s,m", COVER_GRID)
def test_u1_shifts_by_mu_on_character_values(p, s, m):
    """u1 is the additive polynomial with u1(c(sigma_i)) = mu_i, which is
    what makes y = u1(f) transform by the chosen basis of F_{p^s}."""
    ch = character_for(p, s, m)
    data = build_u(ch)
    for i in range(s):
        assert ppoly_apply(data["u1"], ch.vals[i]) == data["mu"][i]


@pytest.mark.parametrize("p,s,m", COVER_GRID)
def test_u_kills_character_values(p, s, m):
    """u = u1^{p^s} - u1 vanishes on every c(sigma): the right-hand side is
    invariant under the group shift f -> f + c."""
    ch = character_for(p, s, m)
    data = build_u(ch)
    for g in ch.group():
        from wildram.autoreps import character_value
        assert not ppoly_apply(data["u"], character_value(ch, g))


def test_build_u_rejects_dependent_mu():
    ch = character_for(2, 2, 3)
    one = ch.field.one()
    with pytest.raises(DependentMu):
        build_u(ch, mu=[one, one])


@pytest.mark.parametrize("p,s,m", COVER_GRID)
def test_normalized_generators_shift_identities(p, s, m):
    """sigma_j(y_i) = y_i + delta_ij, checked through additivity on the
    character values."""
    ch = character_for(p, s, m)
    for rec in normalized_generators(ch):
        assert all(rec["shift_check"])


def test_class_reduce_trades_deep_poles():
    """a t^{-p^s k} is traded for a^{1/p^s} t^{-k}, with an exact witness."""
    field = make_field(3)
    g = LaurentSeries.make(field, {-9: 1, -1: 1}, INF)  # s=2, q=9
    cls = class_reduce(g, 2)
    assert sorted(cls.rep.coeffs) == [-1]
    assert cls.rep.coeff(-1) == 2  # 1 + 1^{1/9}
    assert reduction_witness_valid(g, cls)


def test_class_reduce_cascades():
    """t^{-q^2} needs two trades: q^2 -> q -> 1."""
    field = make_field(2)
    g = LaurentSeries.make(field, {-16: 1}, INF)  # s=2, q=4
    cls = class_reduce(g, 2)
    assert sorted(cls.rep.coeffs) == [-1]
    assert reduction_witness_valid(g, cls)
    assert conductor(cls) == 1


def test_class_reduce_trivial_class():
    field = make_field(2)
    d = LaurentSeries.make(field, {-1: 1, -3: 1}, INF)
    g = d.frobenius_power(2) - d + LaurentSeries.make(field, {0: 1, 2: 1}, INF)
    cls = class_reduce(g, 2)
    assert cls.is_trivial()
    assert conductor(cls) == 0
    assert reduction_witness_valid(g, cls)


@pytest.mark.parametrize("p,s,m", COVER_GRID)
def test_germ_model_poles(p, s, m):
    """The germ right-hand side has poles only at exponents m p^nu, the
    deepest being m p^k for some k between s and 2s-1."""
    ch = character_for(p, s, m)
    germ = germ_model(ch)
    assert -germ.rhs.lead in [m * p ** k for k in range(s, 2 * s)]
    for e in germ.rhs.coeffs:
        n = -e
        assert n % m == 0 and (n // m) in [p ** nu for nu in range(2 * s)]


@pytest.mark.parametrize("p,s,m", COVER_GRID)
def test_downstairs_conductor_is_m(p, s, m):
    """Pushing the cover down to the quotient coordinate and reducing gives
    a representative of conductor exactly m, with a valid witness."""
    ch = character_for(p, s, m)
    down = downstairs_model(ch)
    cls = class_reduce(down["cover"].rhs, s)
    assert conductor(cls) == m
    assert reduction_witness_valid(down["cover"].rhs, cls)


def test_equivalence_under_subfield_scaling():
    ch = character_for(3, 2, 2)
    germ = germ_model(ch)
    zetas = [z for z in subfield_elements(ch.field, 2) if z]
    for zeta in zetas:
        out = equivalent_covers(germ.rhs, germ.rhs.scale(zeta), 2)
        assert out["equivalent"]
    # a cover with a different conductor is never equivalent
    other = LaurentSeries.make(ch.field, {-5: 1}, INF)
    assert not equivalent_covers(germ.rhs, other, 2)["equivalent"]


def _dual_ftilde(ch, a1):
    """1/(t^m + eps sum a1[mu] t^mu) over the dual numbers."""
    A = make_artin_algebra(ch.field, 2)
    eps = A.eps()
    terms = {ch.m: A.one()}
    for mu, a in enumerate(a1):
        if a:
            terms[mu] = eps * A.from_int(a)
    return invert_unit_series(LaurentSeries.make(A, terms, 8 * (ch.m + 2)))


def test_deformed_u_trivial_deformation():
    ch = character_for(3, 1, 1)
    A = make_artin_algebra(ch.field, 2)
    ftilde = _dual_ftilde(ch, [0])
    out = deformed_u(ch, None, [A.include(ch.vals[0])], ftilde)
    assert not out["splits_branch"]
    # with an undeformed divisor and character the residue relation is exact
    assert out["U"].residue().eq_to_prec(
        ppoly_apply(build_u(ch)["u"], ftilde.residue()))


def test_deformed_u_splitting_flag():
    """Over the dual numbers in characteristic 2: t^3 + eps t is not a cube
    of a linear factor (the branch splits), while t^3 + eps t^2 = (t + eps)^3
    is a single branch that merely moved."""
    ch = character_for(2, 1, 3)
    A = make_artin_algebra(ch.field, 2)
    Cv = [A.include(ch.vals[0])]
    split = deformed_u(ch, None, Cv, _dual_ftilde(ch, [0, 1, 0]))
    assert split["splits_branch"]
    moved = deformed_u(ch, None, Cv, _dual_ftilde(ch, [0, 0, 1]))
    assert not moved["splits_branch"]


def test_deformed_u_rejects_wrong_reduction():
    ch = character_for(3, 1, 2)
    A = make_artin_algebra(ch.field, 2)
    wrong = [A.include(ch.vals[0]) + A.one()]
    with pytest.raises(ReductionMismatch):
        deformed_u(ch, None, wrong, _dual_ftilde(ch, [0, 0]))
