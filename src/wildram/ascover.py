"""Generalized Artin-Schreier models y^{p^s} - y = u of the covers attached
to a character, their class reduction, conductors and deformations.

The symbolic model expresses u as an additive polynomial in a function f
with sigma_i(f) = f + c(sigma_i): u = u1^{p^s} - u1 with u1 = sum_i mu_i y_i,
where the normalized generators y_i shift by delta_ij under sigma_j; one
path builds them over F_q and over F_q[eps]/eps^n.  The germ model
substitutes f = t^{-m}.
Cover classes live in the quotient of Laurent series by holomorphic parts
and the image of D: x -> x^{p^s} - x, up to the scaling action of F_{p^s}^*.
"""

from __future__ import annotations

from math import comb

from .addpoly import (
    PPolynomial,
    frobenius_minus_identity,
    moore_det,
    ore_recursion,
    ppoly_apply,
)
from .autoreps import binom_row_mod_p
from .coeffring import Record
from .series import (
    INF,
    LaurentSeries,
    compose,
    holomorphic_part,
    invert_unit_series,
    pole_part,
    weierstrass_prepare,
)


class DependentMu(ValueError):
    pass


class ReductionMismatch(ValueError):
    pass


class NormalizationBroken(ArithmeticError):
    """u = u1^{p^s} - u1 (or its deformation U) lost its defining shape."""


class UnreducedRepresentative(ArithmeticError):
    """A class representative has a pole exponent divisible by p^s."""


class NotInQuotientField(ArithmeticError):
    """A series expanded downstairs does not lie in k((x))."""


class ExpansionPrecisionExhausted(ArithmeticError):
    """A series is not known to the pole that the downstairs expansion
    peels next."""


class ASCover(Record):
    """A cover y^{p^s} - y = rhs; rhs is an additive polynomial in f for the
    symbolic model, a Laurent series for the germ model."""
    __slots__ = ("s", "field", "rhs")

    def __init__(self, s, field, rhs):
        self.s = s
        self.field = field
        self.rhs = rhs


class CoverClass(Record):
    """Canonical class representative: a pole part with no exponent divisible
    by p^s, together with the witness of the reduction."""
    __slots__ = ("rep", "s", "witness", "holomorphic")  # all but s: LaurentSeries

    def __init__(self, rep, s, witness, holomorphic):
        self.rep = rep
        self.s = s
        self.witness = witness
        self.holomorphic = holomorphic

    def is_trivial(self):
        return self.rep.is_zero()


def subfield_elements(field, s):
    """The elements of the field fixed by the p^s-power map (the copy of
    F_{p^s} when it embeds), in index order."""
    q = field.p ** s
    return [x for x in field.elements() if field.raw_pow(x.raw, q) == x.raw]


def default_mu(field, s):
    """Power basis 1, gamma, ..., gamma^{s-1} of F_{p^s}, with gamma the
    first subfield element (in index order) whose powers are independent."""
    one = field.one()
    if s == 1:
        return [one]
    for gamma in subfield_elements(field, s):
        basis = [one]
        for _ in range(s - 1):
            basis.append(basis[-1] * gamma)
        if moore_det(basis):
            return basis
    raise DependentMu("field does not contain an F_p-basis of F_{p^s}")


def _generators(ring, raws):
    """y_i with y_i(c_j) = delta_ij over a field or an Artin ring: the
    kernel polynomial of the other values divided by its value at c_i."""
    out = []
    for i, c in enumerate(raws):
        ker = ore_recursion(ring, raws[:i] + raws[i + 1:])[0]
        out.append(ker.scale_raw(ring.raw_inv(ker.value_raw(c))))
    return out


def _u1(ring, mu_raws, raws):
    """u1 = sum_i mu_i y_i: the only additive polynomial of p-degree < s
    with u1(c_i) = mu_i, since the Moore determinant of the c_i is a unit."""
    u1 = PPolynomial.zero(ring)
    for mu, y in zip(mu_raws, _generators(ring, raws)):
        u1 = u1 + y.scale_raw(mu)
    return u1


def build_u(ch, mu=None):
    """The normalized right-hand side u with y^{p^s} - y = u.

    u1(f) = sum_nu o_nu f^{p^nu} = sum_i mu_i y_i(f) shifts by mu_i under
    sigma_i; u = D o u1 = u1^{p^s} - u1, whose coefficients satisfy
    a_{nu+s} = -a_nu^{p^s}."""
    field = ch.field
    s = ch.s
    if mu is None:
        mu = default_mu(field, s)
    mu = [field.elem(v) for v in mu]
    if len(mu) != s or not moore_det(mu):
        raise DependentMu("mu must be an F_p-basis of F_{p^s}")
    u1 = _u1(field, [v.raw for v in mu], [c.raw for c in ch.vals])
    o = [field.from_raw(u1.coeff(nu)) for nu in range(s)]
    u = ppoly_apply(frobenius_minus_identity(field, s), u1)
    q = field.p ** s
    for nu in range(s):
        if u.coeff(nu + s) != field.raw_neg(field.raw_pow(u.coeff(nu), q)):
            raise NormalizationBroken("u breaks a_{nu+s} = -a_nu^{p^s} at nu = %d" % nu)
    return {"u1": u1, "u": u, "o": o, "mu": mu}


def normalized_generators(ch):
    """y_i with sigma_j(y_i) = y_i + delta_ij: the additive polynomial
    killing the span of the other character values, normalized at c(sigma_i).
    The shift check evaluates y_i on every c(sigma_j) through additivity."""
    field = ch.field
    out = []
    for i, yi in enumerate(_generators(field, [c.raw for c in ch.vals])):
        shifts = tuple(ppoly_apply(yi, c) == (field.one() if j == i else field.zero())
                       for j, c in enumerate(ch.vals))
        out.append({"yi": yi, "shift_check": shifts})
    return out


def germ_model(ch):
    """Substitute f = t^{-m} into u: the exact Laurent polynomial
    sum_nu a_nu t^{-m p^nu}."""
    data = build_u(ch)
    rhs = ppoly_apply(data["u"], LaurentSeries.t_power(ch.field, -ch.m, INF))
    return ASCover(ch.s, ch.field, rhs)


def class_reduce(g, s):
    """Canonical representative of the cover y^{p^s} - y = g.

    Drops the holomorphic part, then repeatedly trades a t^{-p^s k} for
    a^{1/p^s} t^{-k}; the trades accumulate into the witness d, which
    satisfies g - rep - holomorphic = d^{p^s} - d exactly."""
    field = g.ring
    if g.prec < 0:
        raise ValueError("pole part is not determined at this precision")
    q = field.p ** s
    hol = holomorphic_part(g)
    pp = pole_part(g)
    coeffs = dict(pp.coeffs)
    witness = {}
    while True:
        divisible = sorted(e for e in coeffs if (-e) % q == 0)
        if not divisible:
            break
        e = divisible[0]
        a = coeffs.pop(e)
        k = (-e) // q
        root = field.raw_p_root(a, s)
        for target in (witness, coeffs):
            target[-k] = field.raw_add(target.get(-k, 0), root)
            if field.raw_is_zero(target[-k]):
                del target[-k]
    rep = LaurentSeries(field, coeffs, INF)
    d = LaurentSeries(field, witness, INF)
    return CoverClass(rep, s, d, hol)


def reduction_witness_valid(g, cls):
    """Exact check of g - rep - holomorphic = d^{p^s} - d."""
    lhs = g - cls.rep - cls.holomorphic
    rhs = cls.witness.frobenius_power(cls.s) - cls.witness
    return (lhs - rhs).is_zero()


def conductor(cls):
    """max over pole exponents n = d p^nu of the reduced representative of
    the prime-to-p part d (nu = v_p(n) < s); 0 for the trivial class, which
    is the unramified cover."""
    if cls.rep.is_zero():
        return 0
    p = cls.rep.ring.p
    best = 0
    for e in cls.rep.coeffs:
        n = -e
        nu = 0
        while n % p == 0:
            n //= p
            nu += 1
        if nu >= cls.s:
            raise UnreducedRepresentative("representative is not reduced")
        best = max(best, n)
    return best


def equivalent_covers(g1, g2, s):
    """Search zeta in F_{p^s}^* with g1 - zeta g2 of trivial class."""
    for zeta in subfield_elements(g1.ring, s):
        if not zeta:
            continue
        if class_reduce(g1 - g2.scale(zeta), s).is_trivial():
            return {"equivalent": True, "zeta": zeta}
    return {"equivalent": False, "zeta": None}


# -- the germ expressed downstairs --------------------------------------------

def downstairs_coordinate(ch, prec):
    """x = prod_sigma rho_sigma(t), of valuation q = p^s, to the
    t^(prec + q - 1) that the product of the rho_sigma known to t^prec
    reaches, read off their defining equation 1/rho_sigma^m = 1/t^m +
    c(sigma): x^{-m} = prod_{w in W} (t^{-m} + w) = K(t^{-m}), K the kernel
    polynomial of the span W of the values, monic of p-degree s.  So
    x = t^q (1 + h)^{-1/m}, h = t^{mq} K(t^{-m}) - 1: one binomial row
    composed with h."""
    field, p, m = ch.field, ch.p, ch.m
    q = p ** ch.s
    ker = ore_recursion(field, [c.raw for c in ch.vals])[0]
    h = LaurentSeries(field, {m * (q - p ** nu): c for nu, c in ker.coeffs[:-1]}, INF)
    n = -(-(prec - 1) // h.lead)  # h^n lies beyond t^(prec - 1)
    row = binom_row_mod_p(-1, m, n, p)
    binom = LaurentSeries(field, {k: field.raw_from_int(b) for k, b in enumerate(row)}, n)
    return compose(binom, h).truncate(prec - 1).shift(q)


def expand_downstairs(x, g, s):
    """Rewrite g, a series in t invariant under the group (so lying in
    k((x))), as a Laurent polynomial in x for exponents < 1; greedy peeling
    from the deepest pole, returning {exponent: raw coefficient}."""
    field = g.ring
    q = field.p ** s
    if g.lead >= 0:
        return {}
    if (-g.lead) % q:
        raise NotInQuotientField("series does not lie in k((x))")
    out = {}
    n = g.lead // q
    xpow = invert_unit_series(x).pow(-n)  # x^n for the starting n < 0
    r = g
    while n < 0:
        lead_e = q * n
        if r.prec <= lead_e:
            raise ExpansionPrecisionExhausted(
                "insufficient precision for the expansion")
        if r.lead < lead_e:
            raise NotInQuotientField("series does not lie in k((x))")
        b = r.coeff(lead_e)
        if not field.raw_is_zero(b):
            out[n] = b
            r = r - xpow.scale(field.from_raw(b))
        n += 1
        xpow = xpow * x
    if r.lead < 0:
        raise NotInQuotientField("series does not lie in k((x))")
    return out


def downstairs_model(ch):
    """The cover with its right-hand side pushed down to the quotient
    coordinate x: u = sum_i mu_i sum_{j<s} (y_i(f)^p - y_i(f))^{p^j}, each
    inner factor a downstairs function of pole order m."""
    field = ch.field
    p, s, m = ch.p, ch.s, ch.m
    q = p ** s
    data = build_u(ch)
    prec = (m + 4) * q
    x = downstairs_coordinate(ch, prec)
    f_germ = LaurentSeries.t_power(field, -m, prec)
    u_coeffs = {}
    for i, rec in enumerate(normalized_generators(ch)):
        yi = ppoly_apply(rec["yi"], f_germ)
        ui = yi.frobenius_power(1) - yi
        ui_x = expand_downstairs(x, ui, s)
        mu_i = data["mu"][i].raw
        for j in range(s):
            for e, c in ui_x.items():
                term = field.raw_mul(mu_i, field.raw_pow(c, p ** j))
                ee = e * p ** j
                u_coeffs[ee] = field.raw_add(u_coeffs.get(ee, 0), term)
    rhs = LaurentSeries(field, u_coeffs, 1)
    return {"cover": ASCover(s, field, rhs), "x": x, "u": data["u"], "u1": data["u1"]}


# -- deformed covers -----------------------------------------------------------

def deformed_u(ch, mu, Cvals, ftilde):
    """The deformed normalization U = U1^{p^s} - U1 over the Artin ring of
    the deformed character values, reducing to u, plus the branch-splitting
    flag read off the Weierstrass divisor of 1/ftilde."""
    field = ch.field
    s = ch.s
    if len(Cvals) != s:
        raise ReductionMismatch("need one deformed value per generator")
    A = Cvals[0].ring
    for Cv, cv in zip(Cvals, ch.vals):
        if Cv.residue() != cv:
            raise ReductionMismatch("deformed values do not reduce to c")
    if mu is None:
        mu = default_mu(field, s)
    U1poly = _u1(A, [A.include(field.elem(v)).raw for v in mu],
                 [A.to_raw(Cv) for Cv in Cvals])
    U1 = ppoly_apply(U1poly, ftilde)
    U = U1.frobenius_power(s) - U1

    u_red = ppoly_apply(build_u(ch, mu)["u"], ftilde.residue())
    if not U.residue().eq_to_prec(u_red):
        raise NormalizationBroken("U does not reduce to u")

    gdist, _unit = weierstrass_prepare(invert_unit_series(ftilde))
    return {"U": U, "U1": U1, "O": [U1poly.coeff(nu) for nu in range(s)],
            "splits_branch": not _is_pure_power(gdist),
            "distinguished": gdist}


def _is_pure_power(gdist):
    """Whether the distinguished polynomial equals (t - r)^m; the only
    candidate root is r = -a_{m-1}/m."""
    A = gdist.ring
    m = gdist.degree
    if m == 1:
        return True
    minv = A.raw_inv(A.raw_from_int(m))
    r = A.raw_neg(A.raw_mul(gdist.coeffs[m - 1], minv))
    for i in range(m):
        coeff = A.raw_mul(A.raw_from_int(comb(m, i)), A.raw_pow(r, m - i))
        if (m - i) % 2 == 1:
            coeff = A.raw_neg(coeff)
        if gdist.coeffs[i] != coeff:
            return False
    return True
