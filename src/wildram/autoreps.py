"""The canonical automorphism representation of V = (Z/p)^s on k[[t]].

A character c: V -> k with F_p-independent generator values and a conductor
m coprime to p determine automorphisms rho_sigma with
1/rho_sigma(t)^m = 1/t^m + c(sigma); this module builds them and keeps the
ramification bookkeeping.
"""

from __future__ import annotations

import itertools
import random
from math import comb

from .addpoly import moore_det
from .coeffring import Record
from .series import LaurentSeries, compose


class InvalidCharacter(ValueError):
    pass


def default_precision(p, m):
    return 4 * (m + 1) * p


class Character(Record):
    """The character c: V = (Z/p)^s -> field with values vals = c(sigma_1),
    ..., c(sigma_s) on the generators, and the conductor m."""
    # memo holds what depends on the character alone, each entry built on
    # first use: build_rho's series, keyed ("rho", g.exps, prec), the peel
    # order of V (peeled), the generator complex and the echelon form of
    # its coboundaries (cohomology), and the chords of deform.deformed_rho.
    # It stays outside equality, hash and repr.
    __slots__ = ("field", "s", "vals", "m", "memo")

    def __init__(self, field, s, vals, m):
        self.field = field
        self.s = s
        self.vals = vals
        self.m = m
        self.memo = {}
        p = field.p
        if self.s < 1 or len(self.vals) != self.s:
            raise InvalidCharacter("need exactly s generator values")
        if self.m < 1 or self.m % p == 0:
            raise InvalidCharacter("conductor must be >= 1 and coprime to p")
        if self.s >= 2 and self.m <= 1:
            raise InvalidCharacter("two-dimensionality forces m > 1 when s >= 2")
        if self.s > self.field.d:
            raise InvalidCharacter("s = %d values in GF(%d^%d) are F_p-dependent"
                                   % (self.s, p, self.field.d))
        if not moore_det(list(self.vals)):
            raise InvalidCharacter("character values are F_p-dependent (rho not faithful)")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.field == other.field and self.s == other.s
                and self.vals == other.vals and self.m == other.m)

    def __hash__(self):
        return hash((self.field, self.s, self.vals, self.m))

    def __repr__(self):
        return "Character(field=%r, s=%r, vals=%r, m=%r)" % (
            self.field, self.s, self.vals, self.m)

    @property
    def p(self):
        return self.field.p

    def identity(self):
        return GroupElem((0,) * self.s)

    def generator(self, i):
        """1-based generator sigma_i."""
        return GroupElem(tuple(1 if j == i - 1 else 0 for j in range(self.s)))

    def group(self):
        return [GroupElem(e) for e in itertools.product(range(self.p), repeat=self.s)]

    def order(self):
        return self.p ** self.s


def make_character(field, vals, m):
    vals = tuple(map(field.elem, vals))
    return Character(field, len(vals), vals, m)


class GroupElem(Record):
    """prod sigma_i^exps[i] in V = (Z/p)^s."""
    __slots__ = ("exps",)

    def __init__(self, exps):
        self.exps = exps

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.exps == other.exps

    def __hash__(self):
        return hash((self.exps,))

    def is_identity(self):
        return not any(self.exps)

    def __repr__(self):
        return "g%s" % (list(self.exps),)


def group_mul(ch, g, h):
    p = ch.p
    return GroupElem(tuple((a + b) % p for a, b in zip(g.exps, h.exps)))


def group_pow(ch, g, k):
    p = ch.p
    return GroupElem(tuple((a * k) % p for a in g.exps))


def peeled(ch):
    """Each non-identity g of V as (g, i, rest) with g = sigma_{i+1} rest and
    i the first nonzero exponent of g, in ch.group() order, so that rest
    always comes before g: tables over V fill in one pass.  The peel is
    built once per character and kept in its memo."""
    peel = ch.memo.get("peel")
    if peel is None:
        peel = []
        for g in ch.group():
            i = next((j for j, e in enumerate(g.exps) if e), None)
            if i is not None:
                e = g.exps
                peel.append((g, i, GroupElem(e[:i] + (e[i] - 1,) + e[i + 1:])))
        peel = ch.memo["peel"] = tuple(peel)
    return peel


def additive_value(field, vals, g):
    """The value at g = prod sigma_i^e_i of the additive map V -> field
    with value vals[i] at sigma_i: sum_i e_i vals[i]."""
    acc = field.raw_zero()
    for e, v in zip(g.exps, vals):
        acc = field.raw_add(acc, field.raw_mul(field.raw_from_int(e), v.raw))
    return field.from_raw(acc)


def character_value(ch, g):
    return additive_value(ch.field, ch.vals, g)


def binom_row_mod_p(num, den, n, p):
    """[binom(num/den, k) mod p for k < n], for den prime to p.

    By Lucas's theorem the row for k < p^L is the Kronecker product of the
    digit rows [binom(x_i, 0..p-1) mod p] of x = num/den mod p^L, lowest
    digit innermost, so one modular inverse and L short rows give it."""
    mod = p
    while mod < n:
        mod *= p
    x = num * pow(den, -1, mod) % mod
    row = [1]
    while len(row) < n:
        x, xi = divmod(x, p)
        digit = [comb(xi, k) % p for k in range(p)]
        row = [b * a % p for b in digit for a in row]
    return row[:n]


def build_rho(ch, g, prec=None):
    """rho_g(t) = t (1 + c(g) t^m)^{-1/m}, the closed binomial series
    sum_k binom(-1/m, k) c(g)^k t^{1+km} truncated at the requested
    precision, its binomials one Lucas row, built once per character,
    element and precision."""
    if prec is None:
        prec = default_precision(ch.p, ch.m)
    key = ("rho", g.exps, prec)
    rho = ch.memo.get(key)
    if rho is not None:
        return rho
    field = ch.field
    p, m = ch.p, ch.m
    c = character_value(ch, g).raw
    coeffs = {}
    ck = field.raw_one()
    # the exponents 1 + km below prec
    for k, b in enumerate(binom_row_mod_p(-1, m, (prec - 2) // m + 1, p)):
        coeffs[1 + k * m] = field.raw_mul(field.raw_from_int(b), ck)
        ck = field.raw_mul(ck, c)
    rho = LaurentSeries(field, coeffs, prec)
    ch.memo[key] = rho
    return rho


def verify_group_law(ch, prec=None):
    """Check rho_sigma o rho_tau = rho_{sigma tau} on the generator pairs
    first, then on every pair of ch.group() when |V|^2 <= 625, else on 25
    seeded random pairs; first_discrepancy is the first failing pair in
    that order, and the check stops there."""
    if prec is None:
        prec = default_precision(ch.p, ch.m)
    pairs = []
    gens = [ch.generator(i) for i in range(1, ch.s + 1)]
    for a in gens:
        for b in gens:
            pairs.append((a, b))
    elems = ch.group()
    if ch.order() ** 2 <= 625:
        pairs.extend((a, b) for a in elems for b in elems)
    else:
        rng = random.Random(0)
        for _ in range(25):
            pairs.append((rng.choice(elems), rng.choice(elems)))
    first_failure = None
    for a, b in pairs:
        left = compose(build_rho(ch, a, prec), build_rho(ch, b, prec))
        right = build_rho(ch, group_mul(ch, a, b), prec)
        if not left.eq_to_prec(right):
            first_failure = (a, b)
            break
    return {"ok": first_failure is None,
            "pairs_checked": len(pairs),
            "first_discrepancy": first_failure}


def ramification_data(ch, prec=None):
    """Break data of the filtration: i(sigma) = v(rho_sigma(t) - t) for each
    nontrivial sigma (all equal m+1), the Artin character at 1, the
    single-jump flag, and, on the same elements, the defining equation
    rho_sigma^m (1 + c(sigma) t^m) = t^m to the t^(prec + m - 1) it reaches."""
    if prec is None:
        prec = default_precision(ch.p, ch.m)
    field, m = ch.field, ch.m
    t = LaurentSeries.t_power(field, 1, prec)
    jumps = {}
    equation_ok = True
    for g in ch.group():
        if g.is_identity():
            continue
        rho = build_rho(ch, g, prec)
        jumps[g.exps] = (rho - t).reduced_valuation()
        unit = LaurentSeries.make(field, {0: 1, m: character_value(ch, g)})
        equation_ok = equation_ok and (rho.pow(m) * unit).eq_to_prec(t.pow(m))
    return {
        "i": jumps,
        "ar_identity": sum(jumps.values()),
        "uniform_break": all(v == m + 1 for v in jumps.values()),
        "single_jump": m,
        "equation_ok": equation_ok,
    }
