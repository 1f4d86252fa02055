"""Truncated Laurent series over a coefficient ring from coeffring.

Series are stored sparsely: a dict mapping exponent -> raw coefficient
(nonzero only), together with an absolute truncation exponent ``prec``
(terms of exponent >= prec are unknown).  ``INF`` marks exact polynomials.

Over an Artin ring the interesting valuation is the *reduced* one (the
valuation of the reduction modulo the maximal ideal); terms below it can
exist but carry nilpotent coefficients.

A product sums the pairs of terms below its precision sparsely, in one
exponent -> value dict per eps-component.  Over a field it takes the dense
path instead where that is cheaper: a row over the exponents lo + k g that
it can reach, g the gcd of the factors' exponent offsets.  No workload's
product over F_q[eps]/eps^n is cheaper dense (LaurentSeries.__mul__).  So
a product of sparse or strided series, such as the powers of rho, costs
the terms it touches, not the span of exponents they cover.

Composition sums c_j inner^j over the nonzero terms c_j t^j of the outer
series, reading every power from a table of powers that the inner series
owns and fills on demand, in ascending j, each new power by one product of
two powers already there.  inner^j is cut to the precision that j steps of
dense Horner evaluation reach, so the sum carries the precision a Horner
loop over every exponent of the outer would.  The group law composes
|V|^2 outers with |V| inners: each power is computed once per inner, not
once per pair, and once the table holds the powers an outer needs, each is
one dict read.  LaurentSeries.pow reads and fills the same table.  The sum
is accumulated sparsely, in one exponent -> value dict per eps-component
holding only the exponents the powers carry below the result's precision,
over F_q[eps]/eps^n by the product's kernel; so a composition costs the
terms it reads, not the span of exponents they cover.  The inner keeps its
reduced valuation and lead with its table.  The inner may be a series over
the residue field of the outer's Artin ring, so that every outer over any
F_q[eps]/eps^n shares the field inner's table.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress, repeat
from math import comb, gcd
from operator import attrgetter, itemgetter, sub

from .coeffring import Record, RingMismatch, make_artin_algebra, ring_is_field

INF = 10 ** 9

_second = itemgetter(1)
_prec = attrgetter("prec")

# The measured crossover of a field product's sparse and dense paths (see
# LaurentSeries.__mul__): a pair of terms is worth _ROW_PAIR slots of a row,
# and a row costs _ROW_FIXED slots more.
_ROW_PAIR = 2.0
_ROW_FIXED = 300


class ValuationOfZero(ValueError):
    pass


class NotAUnitSeries(ValueError):
    pass


class CompositionDiverges(ValueError):
    pass


class NotReversible(ValueError):
    pass


class ReductionIsZero(ValueError):
    pass


class NotConverged(ArithmeticError):
    pass


class InverseNotFinite(ValueError):
    """The inverse of an exact series whose reduction has more than one
    term has infinitely many terms."""


class NotDistinguished(ArithmeticError):
    """A Weierstrass factor g has a non-leading coefficient outside the
    maximal ideal."""


def _eps_parts(coeffs):
    """The n field series of coefficients over F_q[eps]/eps^n, one per
    power of eps, each a list of (exponent, nonzero field index)."""
    return [list(filter(_second, zip(coeffs, col)))
            for col in zip(*coeffs.values())]


def _convolve_sparse(acc, a_parts, b_parts, stop_at, add, mul):
    """Add the product of the eps-graded series a_parts and b_parts, lists
    of (exponent, field index) per power of eps, b's sorted, into the
    dicts acc, exponent -> field index, one per power of eps, below
    t^stop_at: part i of a meets part j of b in acc[i + j]."""
    n = len(acc)
    for i, a in enumerate(a_parts):
        for j in range(n - i):
            out, b = acc[i + j], b_parts[j]
            if not b:
                continue
            get = out.get
            for e1, c1 in a:
                row = mul[c1]
                stop = stop_at - e1
                for e2, c2 in b:
                    if e2 >= stop:
                        break
                    e = e1 + e2
                    out[e] = add[get(e, 0)][row[c2]]


def _sparse_product(ring, a_parts, b_parts, prec):
    """The product of eps-graded series below t^prec, summed in one
    exponent -> field index dict per power of eps."""
    if ring_is_field(ring):
        acc = {}
        _convolve_sparse([acc], a_parts, b_parts, prec, *ring.tables()[:2])
        return LaurentSeries._clean(ring, dict(filter(_second, acc.items())), prec)
    acc = [{} for _ in range(ring.n)]
    _convolve_sparse(acc, a_parts, b_parts, prec, *ring.base.tables()[:2])
    return _from_eps_dicts(ring, acc, prec)


def _from_eps_dicts(ring, acc, prec):
    """The series over F_q[eps]/eps^n whose eps^i component is the dict
    acc[i], exponent -> field index."""
    exps = list(set().union(*acc))
    vals = list(zip(*[map(d.get, exps, repeat(0)) for d in acc]))
    nonzero = list(map(any, vals))
    return LaurentSeries._clean(
        ring, dict(zip(compress(exps, nonzero), compress(vals, nonzero))), prec)


def _dense_product(ring, a, b, a_lo, b_lo, step, slots, prec):
    """The product over a field of the terms a and b, (exponent, index)
    pairs, b's sorted, of leads a_lo and b_lo and every exponent in its
    lead + step Z: slot k of one row holds t^(a_lo + b_lo + k step), for
    k < slots.  Each term of a meets the terms of b below slot slots - k1,
    cut by one bisection, not term by term."""
    add, mul = ring.tables()[:2]
    b = [((e - b_lo) // step, c) for e, c in b]
    b_keys = [k for k, _ in b]
    acc = [0] * slots
    for e1, c1 in a:
        k1 = (e1 - a_lo) // step
        row = mul[c1]
        for k2, c2 in b[:bisect_left(b_keys, slots - k1)]:
            k = k1 + k2
            acc[k] = add[acc[k]][row[c2]]
    lo = a_lo + b_lo
    exps = compress(range(lo, lo + slots * step, step), acc)
    return LaurentSeries._clean(ring, dict(zip(exps, compress(acc, acc))), prec)


class LaurentSeries:
    # _powers: the table of powers compose reads when this series is the
    # inner one, and pow, None until the first of them (see _table_powers);
    # _valuations: its reduced valuation and lead, kept by compose;
    # _terms: its exponents and coefficients in the order compose reads
    # them when it is the outer one, kept by the first such compose.
    __slots__ = ("ring", "coeffs", "prec", "_powers", "_valuations", "_terms")

    def __init__(self, ring, coeffs, prec):
        self.ring = ring
        self.prec = prec
        self._powers = self._valuations = self._terms = None
        zero = ring.raw_zero()
        self.coeffs = {e: c for e, c in coeffs.items() if e < prec and c != zero}

    # -- constructors ---------------------------------------------------------

    @classmethod
    def make(cls, ring, terms, prec=INF):
        """terms: dict exponent -> coefficient (ring element, raw, or int)."""
        return cls(ring, {e: ring.to_raw(c) for e, c in terms.items()}, prec)

    @classmethod
    def zero(cls, ring, prec=INF):
        return cls(ring, {}, prec)

    @classmethod
    def one(cls, ring, prec=INF):
        return cls(ring, {0: ring.raw_one()}, prec)

    @classmethod
    def t_power(cls, ring, k, prec=INF):
        return cls(ring, {k: ring.raw_one()}, prec)

    # -- structure ------------------------------------------------------------

    @property
    def lead(self):
        return min(self.coeffs) if self.coeffs else self.prec

    def is_zero(self):
        return not self.coeffs

    def coeff(self, e):
        """Raw coefficient of t^e (zero raw if absent)."""
        return self.coeffs.get(e, self.ring.raw_zero())

    def reduced_valuation(self):
        """Valuation of the reduction modulo the maximal ideal (over a
        field, the valuation)."""
        r, lead = self.ring, self.lead
        if self.coeffs and r.raw_is_unit(self.coeffs[lead]):
            return lead
        exps = [e for e, c in self.coeffs.items() if r.raw_is_unit(c)]
        if not exps:
            raise ValuationOfZero("reduction is zero to working precision")
        return min(exps)

    def truncate(self, prec):
        if prec >= self.prec:
            return self
        return self.with_prec(prec)

    def with_prec(self, prec):
        """Assert-free reinterpretation of precision (internal use)."""
        coeffs = self.coeffs
        if prec < self.prec:
            coeffs = {e: c for e, c in coeffs.items() if e < prec}
        return LaurentSeries._clean(self.ring, coeffs, prec)

    # -- ring operations ------------------------------------------------------

    def _check(self, other):
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatch("incompatible coefficient rings")

    def __add__(self, other):
        self._check(other)
        r = self.ring
        prec = min(self.prec, other.prec)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = r.raw_add(out[e], c) if e in out else c
        return LaurentSeries(r, out, prec)

    def __sub__(self, other):
        self._check(other)
        r = self.ring
        prec = min(self.prec, other.prec)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = r.raw_sub(out[e], c) if e in out else r.raw_neg(c)
        return LaurentSeries(r, out, prec)

    def __neg__(self):
        r = self.ring
        return LaurentSeries._clean(r, {e: r.raw_neg(c) for e, c in self.coeffs.items()},
                                   self.prec)

    def __mul__(self, other):
        """Product graded by eps, to precision min(prec + other.lead,
        other.prec + lead), or INF when both factors are exact.

        Over F_q[eps]/eps^n each factor splits into n field series, one per
        power of eps; part i of one factor meets part j of the other for
        i + j < n, each meeting a convolution over F_q through the base
        field's tables, summed in one exponent -> field index dict per power
        of eps, which costs the pairs it reads and the terms it makes.
        Over a field the pairs of terms below the precision are summed on
        the cheaper of two paths:
        - sparse: the one dict, as over F_q[eps]/eps^n;
        - dense: one row over the slots k of the exponents lo + k g, lo the
          sum of the leads and g the stride, the gcd of the factors'
          exponent offsets from their leads.  A row costs its slots and a
          fixed amount, but each pair costs less than in a dict.
        The product goes dense when slots < pairs _ROW_PAIR - _ROW_FIXED.
        The crossover is measured, not fitted to a workload: k x k products
        of random exponents in a window of W slots, timed on both paths for
        k = 3 to 48 and W = k to 64 k, cost the same at slots = 2.0 pairs -
        300 over F_25.  The stride is computed only when the pairs could
        pay for one slot.  The dense path is field-only because the traffic
        is: on seed-0 rounds of the group law, tangent, H^1 grid and
        selftest workloads a field product took it 98 and 555 times in the
        group law and the selftest, a product over F_q[eps]/eps^n never.
        """
        self._check(other)
        r = self.ring
        a, b = self.coeffs, other.coeffs
        a_lo, b_lo = self.lead, other.lead
        if self.prec >= INF and other.prec >= INF:
            prec = INF
        else:
            prec = min(self.prec + b_lo, other.prec + a_lo)
        if not a or not b:
            return LaurentSeries._clean(r, {}, prec)
        if len(a) > len(b):
            a, b, a_lo, b_lo = b, a, b_lo, a_lo
        if not ring_is_field(r):
            b_parts = _eps_parts(b)
            for x in b_parts:
                x.sort()
            return _sparse_product(r, _eps_parts(a), b_parts, prec)
        b_terms = sorted(b.items())
        limit = len(a) * len(b) * _ROW_PAIR - _ROW_FIXED
        if limit > 1:
            step = gcd(*map(sub, a, repeat(a_lo)), *map(sub, b, repeat(b_lo))) or 1
            span = min(prec, max(a) + max(b) + 1) - a_lo - b_lo
            slots = max(0, (span - 1) // step + 1)
            if slots < limit:
                return _dense_product(r, a.items(), b_terms, a_lo, b_lo, step, slots, prec)
        return _sparse_product(r, [a.items()], [b_terms], prec)

    @classmethod
    def _clean(cls, ring, coeffs, prec):
        """Wrap coefficients already known to be nonzero and below prec."""
        s = cls.__new__(cls)
        s.ring, s.coeffs, s.prec = ring, coeffs, prec
        s._powers = s._valuations = s._terms = None
        return s

    def scale(self, c):
        r = self.ring
        c = r.to_raw(c)
        return LaurentSeries(r, {e: r.raw_mul(x, c) for e, x in self.coeffs.items()}, self.prec)

    def shift(self, k):
        """Multiply by t^k."""
        return LaurentSeries._clean(self.ring, {e + k: c for e, c in self.coeffs.items()},
                                    self.prec + k if self.prec < INF else INF)

    def derivative(self, k=1):
        """The k-th Hasse derivative: t^e -> binom(e, k) t^(e - k), with
        binom(e, k) = (-1)^k binom(k - e - 1, k) for negative e."""
        r = self.ring
        out = {}
        for e, c in self.coeffs.items():
            b = comb(e, k) if e >= 0 else (-1) ** k * comb(k - e - 1, k)
            m = r.raw_mul(c, r.raw_from_int(b))
            if not r.raw_is_zero(m):
                out[e - k] = m
        return LaurentSeries(r, out, self.prec - k if self.prec < INF else INF)

    def pow(self, n):
        """self^n, for n >= 2 read from or added to the table of powers
        that compose keeps on self (_table_powers), so equal to
        compose(t^n, self) where that is defined.  Over a field that is the
        n-fold product; with nilpotent terms below the reduced valuation the
        precision is the reach of Horner evaluation from the lead, which
        can be less than a chain of products claims."""
        if n < 0:
            return invert_unit_series(self.pow(-n))
        if n < 2:
            return self if n else LaurentSeries.one(self.ring)
        if self._powers is None:
            self._powers = {}
        return _table_powers(self._powers, self, self.lead, 1, INF, [n])[0]

    def frobenius_power(self, e=1):
        """The p^e-th power, computed coefficientwise (exact in char p)."""
        r = self.ring
        q = r.p ** e
        prec = self.prec * q if self.prec < INF else INF
        return LaurentSeries(r, {ex * q: r.raw_pow(c, q) for ex, c in self.coeffs.items()}, prec)

    # -- reductions and lifts -------------------------------------------------

    def residue(self):
        """Reduction modulo the maximal ideal, over the residue field."""
        r = self.ring
        if ring_is_field(r):
            return self
        return LaurentSeries(r.base, {e: r.raw_residue(c) for e, c in self.coeffs.items()},
                             self.prec)

    def reduce(self, n):
        """Image under F_q[eps]/eps^N -> F_q[eps]/eps^n, n < N; the residue
        field for n = 1."""
        r = self.ring
        if n == 1:
            return self.residue()
        return LaurentSeries(make_artin_algebra(r.base, n),
                             {e: c[:n] for e, c in self.coeffs.items()}, self.prec)

    def lift_ring(self, target):
        """Zero-padded lift of coefficients into a larger Artin ring (or from the field)."""
        r = self.ring
        if ring_is_field(r):
            out = {e: (c,) + (0,) * (target.n - 1) for e, c in self.coeffs.items()}
        else:
            pad = (0,) * (target.n - r.n)
            out = {e: c + pad for e, c in self.coeffs.items()}
        return LaurentSeries(target, out, self.prec)

    def eps_component(self, j):
        """The coefficient series of eps^j, over the residue field."""
        r = self.ring
        return LaurentSeries(r.base, {e: c[j] for e, c in self.coeffs.items()}, self.prec)

    # -- comparisons / io -----------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, LaurentSeries)
                and (self.ring is other.ring or self.ring == other.ring)
                and self.prec == other.prec and self.coeffs == other.coeffs)

    def eq_to_prec(self, other):
        """Coefficientwise equality up to the shared known precision.  With
        one precision on both sides every term lies below it, and the dicts
        are compared whole."""
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if self.prec == other.prec:
            return a == b
        bound = min(self.prec, other.prec)
        for e, c in a.items():
            if e < bound and b.get(e) != c:
                return False
        for e in b:
            if e < bound and e not in a:
                return False
        return True

    def to_dict(self):
        """Serialization: the precision and the nonzero terms as
        [[exponent, coefficient-vector]] sorted by exponent, in the lists
        that a JSON round trip gives back."""
        vector = self.ring.raw_to_vector
        return {"prec": self.prec,
                "terms": [[e, vector(c)] for e, c in sorted(self.coeffs.items())]}

    @classmethod
    def from_dict(cls, ring, data):
        return cls(ring, {e: ring.raw_from_vector(v) for e, v in data["terms"]}, data["prec"])

    def __repr__(self):
        if not self.coeffs:
            return "O(t^%s)" % (self.prec,)
        terms = ["%r*t^%d" % (self.ring.from_raw(self.coeffs[e]), e)
                 for e in sorted(self.coeffs)]
        return " + ".join(terms) + " + O(t^%s)" % (self.prec,)


# -- inversion ----------------------------------------------------------------

def invert_unit_series(a):
    """Exact inverse of a unit Laurent series (Newton iteration).

    The leading coefficient of the reduction must be nonzero; over an Artin
    ring terms with nilpotent coefficients may sit below the reduced valuation.
    An exact (INF) input must reduce to a monomial: otherwise its inverse has
    infinitely many terms and InverseNotFinite is raised.
    """
    r = a.ring
    try:
        rv = a.reduced_valuation()
    except ValuationOfZero:
        raise NotAUnitSeries("series is zero modulo the maximal ideal")
    if a.prec >= INF and len(a.residue().coeffs) > 1:
        raise InverseNotFinite("exact series whose reduction has more than "
                               "one term")
    nil = r.nilpotency
    slack = 2 * (nil - 1) * max(0, rv - a.lead)
    prec = a.prec - 2 * rv - slack if a.prec < INF else INF
    c = a.coeff(rv)
    if not r.raw_is_unit(c):
        raise NotAUnitSeries("coefficient at the reduced valuation is not a unit")
    x = LaurentSeries(r, {-rv: r.raw_inv(c)}, prec)
    one = LaurentSeries.one(r)
    for _ in range(64):
        e = one - a * x
        if e.is_zero():
            return x.with_prec(prec)
        nxt = (x + x * e).with_prec(prec)
        if nxt == x:
            # The update has reached the precision barrier coming from
            # nilpotent terms below the reduced valuation; certify only
            # the order actually achieved.
            return x.with_prec(min(prec, e.lead - a.lead))
        x = nxt
    raise NotConverged("series inversion did not converge in 64 Newton steps")


def pole_part(a):
    """The strictly negative-exponent part; exact once prec >= 0."""
    out = {e: c for e, c in a.coeffs.items() if e < 0}
    return LaurentSeries(a.ring, out, INF if a.prec >= 0 else a.prec)


def holomorphic_part(a):
    out = {e: c for e, c in a.coeffs.items() if e >= 0}
    return LaurentSeries(a.ring, out, a.prec)


# -- composition and reversion ------------------------------------------------

def compose(outer, inner):
    """outer(inner(t)), exact to the propagated precision.

    inner must have reduced valuation >= 1; negative powers of inner go
    through invert_unit_series (so inner's reduction must be nonzero).
    inner is over outer's ring, or over the residue field of outer's
    Artin ring, which gives what its zero-padded lift would, coefficients
    and precision alike.  The result is the sum of c_j inner^j over the
    terms c_j t^j of outer, each power read from the table of powers that
    inner owns (_table_powers), inner^(-j) as a power of one 1/inner kept
    there too.  Its precision is the least of its powers', and at most
    cap, what the precision of outer allows, with the nilpotency of
    inner's ring.  The sum is accumulated in one exponent -> field index
    dict per eps-component, over the terms of the powers below that
    precision only, over F_q[eps]/eps^n by _convolve_sparse; the
    components' zeros are dropped at the end.
    """
    r, ir = outer.ring, inner.ring
    if ir is not r and ir != r and (ring_is_field(r) or ir != r.base):
        raise RingMismatch("incompatible coefficient rings")
    if inner.is_zero():
        if outer.lead < 0:
            raise CompositionDiverges("inner series is zero")
        return LaurentSeries(r, {0: outer.coeff(0)}, inner.prec)
    if inner._valuations is None:
        try:
            rv = inner.reduced_valuation()
        except ValuationOfZero:
            raise CompositionDiverges("inner reduces to zero")
        if rv < 1:
            raise CompositionDiverges("inner valuation must be >= 1")
        inner._valuations = rv, inner.lead
    rv, lead = inner._valuations

    nil = ir.nilpotency
    if outer.prec >= INF:
        cap = INF
    else:
        cap = (outer.prec - (nil - 1)) * rv + (nil - 1) * min(lead, rv)

    table = inner._powers
    if table is None:
        table = inner._powers = {}
    if outer._terms is None:
        exps = sorted(outer.coeffs)
        neg = [-e for e in reversed(exps) if e < 0]
        outer._terms = (0 in outer.coeffs, [e for e in exps if e > 0], neg,
                        [outer.coeffs[e] for e in exps if e >= 0]
                        + [outer.coeffs[-j] for j in neg])
    zero, pos, neg, coeffs = outer._terms
    # The nonnegative half starts from the precision of zero * inner, as a
    # Horner loop over every exponent does: INF + L below INF for an
    # inexact inner of lead L < 0.
    start = INF if inner.prec >= INF else INF + min(0, lead)
    powers = [LaurentSeries.one(ir, start)] if zero else []
    powers += _table_powers(table, inner, lead, 1, start, pos)
    if neg:
        inv = table.get(-1)
        if inv is None:
            inv = table[-1] = invert_unit_series(inner)
        powers += _table_powers(table, inv, inv.lead, -1, INF, neg)
    prec = min([cap, *map(_prec, powers)])

    if ring_is_field(r):
        add, mul = r.tables()[:2]
        acc = {}
        get = acc.get
        for x, c in zip(powers, coeffs):
            row = mul[c]
            for e, v in x.coeffs.items():
                if e < prec:
                    acc[e] = add[get(e, 0)][row[v]]
        return LaurentSeries._clean(r, dict(filter(_second, acc.items())), prec)

    # each power times its coefficient c, the eps-parts of c as one-term
    # series at t^0; a power over the residue field is its own eps^0 part
    tables = r.base.tables()[:2]
    acc = [{} for _ in range(r.n)]
    for x, c in zip(powers, coeffs):
        parts = [x.coeffs.items()] if ring_is_field(ir) else _eps_parts(x.coeffs)
        _convolve_sparse(acc, parts, [[(0, ci)] if ci else [] for ci in c],
                         prec, *tables)
    return _from_eps_dicts(r, acc, prec)


def _table_powers(table, base, lead, sign, start, js):
    """base^j for each j in js (ascending, >= 1), from the table of powers
    keyed sign * j, with each missing power added to it; lead is base's.

    When the table holds every power asked for, each is one dict read;
    the first miss falls back to filling the table power by power.
    A missing power is the product of the nearest lower power and the power
    of the gap when the table has that, else of base^(j // 2) and
    base^(j - j // 2), found the same way.  base^j is cut to the precision
    that j dense Horner steps of base reach from a constant accumulator of
    precision start: min(start + j L, P + (j - 1) L) for base of lead L and
    precision P, INF for an exact base.  inner^1 is inner itself and stays
    out of its own table, so that no series refers to itself and a table
    dies with its series.  Threads composing with one inner may grow its
    table at once: its keys are read once, as a snapshot, and each new
    power is one dict store.
    """
    bprec = base.prec
    first = base if bprec >= INF else base.truncate(min(start + lead, bprec))
    try:
        return [table[sign * j] if j > 1 else first for j in js]
    except KeyError:
        pass

    def cut(j):
        if bprec >= INF:
            return INF
        return min(start + j * lead, bprec + (j - 1) * lead)

    have = None

    def power(j):
        nonlocal have
        if j == 1:
            return first
        x = table.get(sign * j)
        if x is None:
            if have is None:
                have = {1}.union(sign * k for k in list(table) if sign * k > 0)
            i = max(k for k in have if k < j)
            if j - i not in have:
                i = j // 2
            x = (power(i) * power(j - i)).with_prec(cut(j))
            table[sign * j] = x
            have.add(j)
        return x

    return [power(j) for j in js]


def revert(a):
    """Compositional inverse: compose(a, revert(a)) = t (Newton iteration)."""
    r = a.ring
    try:
        rv = a.reduced_valuation()
    except ValuationOfZero:
        raise NotReversible("series reduces to zero")
    if rv != 1 or not r.raw_is_unit(a.coeff(1)):
        raise NotReversible("series must be a unit multiple of t plus higher terms")
    t = LaurentSeries.t_power(r, 1, a.prec)
    da = a.derivative()
    g = LaurentSeries(r, {1: r.raw_inv(a.coeff(1))}, a.prec)
    for _ in range(64):
        err = compose(a, g) - t
        if err.is_zero():
            break
        g = (g - err * invert_unit_series(compose(da, g))).with_prec(a.prec)
    else:
        raise NotConverged("reversion did not converge in 64 Newton steps")
    return g.with_prec(a.prec)


# -- Weierstrass preparation --------------------------------------------------

class DistinguishedPolynomial(Record):
    """t^m + a_{m-1} t^{m-1} + ... + a_0 with every a_i in the maximal ideal,
    over an Artin ring; coeffs are the raw a_0 ... a_{m-1}."""
    __slots__ = ("ring", "degree", "coeffs")

    def __init__(self, ring, degree, coeffs):
        self.ring = ring
        self.degree = degree
        self.coeffs = coeffs

    def to_series(self, prec=INF):
        terms = {self.degree: self.ring.raw_one()}
        for i, c in enumerate(self.coeffs):
            if not self.ring.raw_is_zero(c):
                terms[i] = c
        return LaurentSeries(self.ring, terms, prec)


def weierstrass_prepare(f):
    """Factor f = g * u with g distinguished of degree m and u a unit.

    f must be holomorphic (lead >= 0) with reduction of finite valuation m.
    Computed by the contraction q -> tau(t^m - A0 q) B0^{-1} along the
    nilpotent filtration, where f = A0 + t^m B0 with A0 of degree < m.
    """
    r = f.ring
    if ring_is_field(r):
        raise RingMismatch("weierstrass_prepare expects an Artin coefficient ring")
    if f.lead < 0:
        raise ValueError("series must be holomorphic")
    try:
        m = f.reduced_valuation()
    except ValuationOfZero:
        raise ReductionIsZero("reduction of f is zero to working precision")
    if m >= f.prec:
        raise ReductionIsZero("reduction of f is zero to working precision")

    def tau(s):
        return LaurentSeries(r, {e - m: c for e, c in s.coeffs.items() if e >= m},
                             s.prec - m if s.prec < INF else INF)

    def alpha(s):
        return LaurentSeries(r, {e: c for e, c in s.coeffs.items() if e < m}, INF)

    A0 = alpha(f)
    B0 = tau(f)
    B0inv = invert_unit_series(B0)
    tm = LaurentSeries.t_power(r, m, f.prec)
    q = B0inv
    for _ in range(r.n + 1):
        q_next = (tau(tm - A0 * q) * B0inv).with_prec(B0inv.prec)
        if q_next.eq_to_prec(q):
            q = q_next
            break
        q = q_next
    rrem = alpha(tm - A0 * q)
    g_coeffs = []
    for i in range(m):
        c = r.raw_neg(rrem.coeff(i))
        if c[0] != 0:
            raise NotDistinguished("distinguished coefficient not in the maximal ideal")
        g_coeffs.append(c)
    g = DistinguishedPolynomial(r, m, tuple(g_coeffs))
    u = invert_unit_series(q)
    return g, u
