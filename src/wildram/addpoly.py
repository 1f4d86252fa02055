"""Moore determinants and additive (p-)polynomials.

An additive polynomial sum c_nu Y^{p^nu} is stored sparsely by Frobenius
index nu; its root set is an F_p-subspace, and conversely every finite
F_p-subspace W of the field is the root set of prod_{w in W}(Y - w), which
the Moore-determinant quotient computes without expanding the product.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeffring import FieldElem, ArtinElem, ring_is_field
from .series import LaurentSeries


def _det_raw(ring, mat):
    """Laplace-expansion determinant over any coefficient ring (n <= 5)."""
    n = len(mat)
    if n == 0:
        return ring.raw_one()
    if n == 1:
        return mat[0][0]
    acc = ring.raw_zero()
    for j in range(n):
        c = mat[0][j]
        if ring.raw_is_zero(c):
            continue
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = ring.raw_mul(c, _det_raw(ring, minor))
        acc = ring.raw_add(acc, term) if j % 2 == 0 else ring.raw_sub(acc, term)
    return acc


def _moore_matrix_raw(ring, raws):
    n = len(raws)
    p = ring.p
    rows = []
    powed = list(raws)
    for i in range(n):
        if i > 0:
            powed = [ring.raw_pow(x, p) for x in powed]
        rows.append(list(powed))
    return rows


def moore_det(xs):
    """Moore determinant of field (or Artin-ring) elements x_1,...,x_n.

    Nonzero iff the arguments are F_p-linearly independent (over a field).
    """
    xs = list(xs)
    if not xs:
        raise ValueError("empty argument list")
    first = xs[0]
    ring = first.field if isinstance(first, FieldElem) else first.ring
    raws = [x.idx if isinstance(x, FieldElem) else x.raw for x in xs]
    det = _det_raw(ring, _moore_matrix_raw(ring, raws))
    if ring_is_field(ring):
        return FieldElem(ring, det)
    return ArtinElem(ring, det)


@dataclass(frozen=True)
class PPolynomial:
    """Additive polynomial sum_nu c_nu Y^{p^nu}, sparse in the Frobenius index."""
    ring: object
    coeffs: tuple  # sorted tuple of (nu, raw) with raw nonzero

    @classmethod
    def make(cls, ring, terms):
        out = []
        for nu, c in sorted(terms.items()):
            if isinstance(c, (FieldElem, ArtinElem)):
                c = c.idx if isinstance(c, FieldElem) else c.raw
            elif isinstance(c, int):
                c = ring.raw_from_int(c)
            if not ring.raw_is_zero(c):
                out.append((nu, c))
        return cls(ring, tuple(out))

    @classmethod
    def zero(cls, ring):
        return cls(ring, ())

    @classmethod
    def identity(cls, ring):
        return cls.make(ring, {0: ring.raw_one()})

    def terms(self):
        mk = FieldElem if ring_is_field(self.ring) else ArtinElem
        return [(nu, mk(self.ring, c)) for nu, c in self.coeffs]

    def coeff(self, nu):
        for n, c in self.coeffs:
            if n == nu:
                return c
        return self.ring.raw_zero()

    def is_zero(self):
        return not self.coeffs

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
        if isinstance(c, (FieldElem, ArtinElem)):
            c = c.idx if isinstance(c, FieldElem) else c.raw
        return self.scale_raw(c)

    def scale_raw(self, c):
        r = self.ring
        return PPolynomial(r, tuple((nu, r.raw_mul(x, c)) for nu, x in self.coeffs
                                    if not r.raw_is_zero(r.raw_mul(x, c))))

    def to_pairs(self):
        """Serialization: [(nu, coefficient-vector)] sorted by nu."""
        if ring_is_field(self.ring):
            return [(nu, list(self.ring.idx_to_coeffs(c))) for nu, c in self.coeffs]
        return [(nu, [list(self.ring.base.idx_to_coeffs(i)) for i in c])
                for nu, c in self.coeffs]

    def __repr__(self):
        return "PPoly[%s]" % ", ".join("%r Y^%d^%d" % (c, self.ring.p, nu)
                                       for nu, c in self.terms())


def ppoly_apply(poly, arg):
    """Substitute arg for Y.  arg may be a ring element, a Laurent series,
    or another PPolynomial (giving the composed p-polynomial)."""
    r = poly.ring
    p = r.p
    if isinstance(arg, (FieldElem, ArtinElem)):
        raw = arg.idx if isinstance(arg, FieldElem) else arg.raw
        acc = r.raw_zero()
        for nu, c in poly.coeffs:
            acc = r.raw_add(acc, r.raw_mul(c, r.raw_pow(raw, p ** nu)))
        return FieldElem(r, acc) if ring_is_field(r) else ArtinElem(r, acc)
    if isinstance(arg, LaurentSeries):
        if arg.ring != r:
            raise ValueError("series ring does not match polynomial ring")
        acc = LaurentSeries.zero(r)
        mk = FieldElem if ring_is_field(r) else ArtinElem
        for nu, c in poly.coeffs:
            acc = acc + arg.frobenius_power(nu).scale(mk(r, c))
        return acc
    if isinstance(arg, PPolynomial):
        if arg.ring != r:
            raise ValueError("ring mismatch in p-polynomial composition")
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


def _bordered_additive_poly(ring, column_raws):
    """Expand det of the Moore matrix of column_raws bordered by a Y-column
    along that column; returns the cofactor of Y^{p^{i-1}} for each row i."""
    n = len(column_raws)
    # bordered matrix is (n+1)x(n+1): rows i = 0..n carry powers p^i of the
    # columns and Y^{p^i}; cofactor of row i is (-1)^{i + n} det(minor)
    full_rows = _moore_matrix_raw(ring, column_raws + [ring.raw_zero()])
    cofs = []
    for i in range(n + 1):
        minor = [[full_rows[j][k] for k in range(n)] for j in range(n + 1) if j != i]
        d = _det_raw(ring, minor)
        if (i + n) % 2 == 1:
            d = ring.raw_neg(d)
        cofs.append(d)
    return cofs


def additive_poly_from_character(ch, omit):
    """The monic additive polynomial whose roots are the F_p-span of the
    character values with value ``omit`` (1-based) left out."""
    vals = list(ch.vals)
    if not 1 <= omit <= len(vals):
        raise ValueError("omit index out of range")
    del vals[omit - 1]
    ring = ch.field
    raws = [v.idx for v in vals]
    delta = _det_raw(ring, _moore_matrix_raw(ring, raws))
    dinv = ring.raw_inv(delta)
    cofs = _bordered_additive_poly(ring, raws)
    return PPolynomial(ring, tuple((nu, ring.raw_mul(c, dinv))
                                   for nu, c in enumerate(cofs)
                                   if not ring.raw_is_zero(c)))


def moore_swap_identity_check(ch, i):
    """Verify the cyclic-shift sign identity for Moore determinants."""
    if not 1 <= i <= ch.s:
        raise ValueError("index out of range")
    vals = list(ch.vals)
    moved = vals[:i - 1] + vals[i:] + [vals[i - 1]]
    lhs = moore_det(moved)
    rhs = moore_det(vals)
    if (ch.s - i) % 2 == 1:
        rhs = -rhs
    return lhs == rhs
