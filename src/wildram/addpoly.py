"""Moore determinants and additive (p-)polynomials.

An additive polynomial sum c_nu Y^{p^nu} is stored sparsely by Frobenius
index nu; its root set is an F_p-subspace, and conversely every finite
F_p-subspace W of the field is the root set of prod_{w in W}(Y - w), which
Ore's recursion computes without expanding the product, together with the
Moore determinant of a basis of W.
"""

from __future__ import annotations

from .coeffring import Record, RingElem, RingMismatch
from .series import LaurentSeries


class PPolynomial(Record):
    """Additive polynomial sum_nu c_nu Y^{p^nu}, sparse in the Frobenius index."""
    __slots__ = ("ring", "coeffs")  # coeffs: sorted (nu, raw) pairs, raw nonzero

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = coeffs

    @classmethod
    def make(cls, ring, terms):
        raws = ((nu, ring.to_raw(c)) for nu, c in sorted(terms.items()))
        return cls(ring, tuple((nu, c) for nu, c in raws if not ring.raw_is_zero(c)))

    @classmethod
    def zero(cls, ring):
        return cls(ring, ())

    @classmethod
    def identity(cls, ring):
        return cls.make(ring, {0: ring.raw_one()})

    def terms(self):
        return [(nu, self.ring.from_raw(c)) for nu, c in self.coeffs]

    def coeff(self, nu):
        for n, c in self.coeffs:
            if n == nu:
                return c
        return self.ring.raw_zero()

    def is_zero(self):
        return not self.coeffs

    def value_raw(self, x):
        """The value at the raw ring element x."""
        r = self.ring
        acc = r.raw_zero()
        for nu, c in self.coeffs:
            acc = r.raw_add(acc, r.raw_mul(c, r.raw_pow(x, r.p ** nu)))
        return acc

    def __add__(self, other):
        r = self.ring
        out = dict(self.coeffs)
        for nu, c in other.coeffs:
            out[nu] = r.raw_add(out[nu], c) if nu in out else c
        return PPolynomial(r, tuple((nu, c) for nu, c in sorted(out.items())
                                    if not r.raw_is_zero(c)))

    def __sub__(self, other):
        return self + other.scale_raw(other.ring.raw_neg(other.ring.raw_one()))

    def scale(self, c):
        return self.scale_raw(self.ring.to_raw(c))

    def scale_raw(self, c):
        r = self.ring
        return PPolynomial(r, tuple((nu, r.raw_mul(x, c)) for nu, x in self.coeffs
                                    if not r.raw_is_zero(r.raw_mul(x, c))))

    def to_pairs(self):
        """Serialization: [[nu, coefficient-vector]] sorted by nu, in the
        lists that a JSON round trip gives back."""
        return [[nu, self.ring.raw_to_vector(c)] for nu, c in self.coeffs]

    def __repr__(self):
        return "PPoly[%s]" % ", ".join("%r Y^%d^%d" % (c, self.ring.p, nu)
                                       for nu, c in self.terms())


def ppoly_apply(poly, arg):
    """Substitute arg for Y.  arg may be a ring element, a Laurent series,
    or another PPolynomial (giving the composed p-polynomial)."""
    r = poly.ring
    p = r.p
    if isinstance(arg, RingElem):
        return r.from_raw(poly.value_raw(r.to_raw(arg)))
    if isinstance(arg, (LaurentSeries, PPolynomial)) and arg.ring != r:
        raise RingMismatch("argument ring does not match polynomial ring")
    if isinstance(arg, LaurentSeries):
        acc = LaurentSeries.zero(r)
        for nu, c in poly.coeffs:
            acc = acc + arg.frobenius_power(nu).scale(r.from_raw(c))
        return acc
    if isinstance(arg, PPolynomial):
        out = {}
        for nu, c in poly.coeffs:
            for mu, d in arg.coeffs:
                e = nu + mu
                term = r.raw_mul(c, r.raw_pow(d, p ** nu))
                out[e] = r.raw_add(out[e], term) if e in out else term
        return PPolynomial(r, tuple((e, c) for e, c in sorted(out.items())
                                    if not r.raw_is_zero(c)))
    raise TypeError("cannot apply p-polynomial to %r" % type(arg))


def frobenius_minus_identity(ring, s):
    """The operator D: x -> x^{p^s} - x as a p-polynomial."""
    return PPolynomial.make(ring, {s: ring.raw_one(),
                                   0: ring.raw_neg(ring.raw_one())})


def ore_recursion(ring, raws):
    """Ore's recursion P <- P^p - P(c)^{p-1} P from P = Y over the values c.

    Returns (P, det).  The final P is monic of p-degree len(raws) and
    vanishes on the F_p-span of the values; over a field with independent
    values it is their kernel polynomial prod_{w in span}(Y - w).  det, the
    product of the values P(c) met on the way, is their Moore determinant
    det(c_j^{p^i}).  Both identities hold over F_p[c_1, ...], and the
    recursion divides by nothing, so they hold over Artin rings as well.
    """
    frobenius = PPolynomial.make(ring, {1: ring.raw_one()})
    P = PPolynomial.identity(ring)
    det = ring.raw_one()
    for c in raws:
        v = P.value_raw(c)
        det = ring.raw_mul(det, v)
        P = ppoly_apply(frobenius, P) - P.scale_raw(ring.raw_pow(v, ring.p - 1))
    return P, det


def moore_det(xs):
    """Moore determinant of field (or Artin-ring) elements x_1,...,x_n.

    Nonzero iff the arguments are F_p-linearly independent (over a field).
    """
    xs = list(xs)
    if not xs:
        raise ValueError("empty argument list")
    ring = xs[0].ring
    return ring.from_raw(ore_recursion(ring, [ring.to_raw(x) for x in xs])[1])

