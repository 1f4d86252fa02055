"""Lower-triangular matrix deformation data, deformed automorphisms of
A[[t]], tangent 1-cocycles (extracted and in closed form), obstruction
2-cocycles across small extensions, and arithmetic lifting predicates.

A matrix datum assigns to each group element a diagonal unit lam(g) = 1 mod
m_A and a lower-left entry C(g) = c(g) mod m_A subject to the twisted
homomorphism rule C(gh) = C(g) + lam(g) C(h); its generator values fix it,
and make_matrix_rep alone builds its tables.  The deformed automorphism is
the unique T = rho_g mod m_A with ftilde(T) = lam(g) ftilde + C(g).
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

from .autoreps import additive_value, build_rho, character_value, peeled
from .coeffring import Record, make_artin_algebra
from .cohomology import OneCochain, PolePartClass, d1_preimage, is_cocycle
from .series import (
    INF,
    LaurentSeries,
    compose,
    invert_unit_series,
)
from .ascover import ReductionMismatch


class NoSolution(ArithmeticError):
    pass


class MatrixRep(Record):
    """Full tables over V of the lower-left entries C and diagonal units
    lam of a lower-triangular two dimensional deformation."""
    __slots__ = ("A", "ch", "C", "lam")  # C, lam: exps tuple -> ArtinElem
    __hash__ = None  # its tables are dicts

    def __init__(self, A, ch, C, lam):
        self.A = A
        self.ch = ch
        self.C = C
        self.lam = lam


def make_matrix_rep(A, ch, Cgens, lamgens):
    """Extend generator values to all of V through C(gh) = C(g) + lam(g)C(h)
    and lam(gh) = lam(g)lam(h), peeling generators in index order."""
    one = ch.identity().exps
    Cs = {one: A.zero()}
    lams = {one: A.one()}
    for g, i, rest in peeled(ch):
        Cs[g.exps] = Cgens[i] + lamgens[i] * Cs[rest.exps]
        lams[g.exps] = lamgens[i] * lams[rest.exps]
    return MatrixRep(A, ch, Cs, lams)


def trivial_rep(A, ch):
    Cgens = [A.include(v) for v in ch.vals]
    lamgens = [A.one() for _ in range(ch.s)]
    return make_matrix_rep(A, ch, Cgens, lamgens)


def rep_validate(rep):
    """Check the matrix datum on the generators sigma_i of V = (Z/p)^s: the
    relations of V, lam_i^p = 1, N_i C_i = 0 with N_i = 1 + lam_i + ... +
    lam_i^(p-1) = (lam_i - 1)^(p-1), and C_i + lam_i C_j = C_j + lam_j C_i;
    then the tables against the peel of the generator values.  Failure tags:
    lam_reduction, C_reduction, lam_order, C_norm (exps of sigma_i),
    commutativity (sigma_i, sigma_j, i < j), table (an entry off the peel)."""
    A, ch = rep.A, rep.ch
    gens = [ch.generator(i).exps for i in range(1, ch.s + 1)]
    Cs, lams = [rep.C[e] for e in gens], [rep.lam[e] for e in gens]
    failures = []
    for e, Cg, lg, c in zip(gens, Cs, lams, ch.vals):
        if lg.residue() != ch.field.one():
            failures.append(("lam_reduction", e))
        if Cg.residue() != c:
            failures.append(("C_reduction", e))
        if lg ** ch.p != A.one():
            failures.append(("lam_order", e))
        if Cg * (lg - A.one()) ** (ch.p - 1) != A.zero():
            failures.append(("C_norm", e))
    for i, j in combinations(range(ch.s), 2):
        if Cs[i] + lams[i] * Cs[j] != Cs[j] + lams[j] * Cs[i]:
            failures.append(("commutativity", gens[i], gens[j]))
    peel = make_matrix_rep(A, ch, Cs, lams)
    failures.extend(("table", e) for e in peel.C
                    if (rep.C.get(e), rep.lam.get(e)) != (peel.C[e], peel.lam[e]))
    return {"valid": not failures, "failures": failures}


def conjugate_rep(rep, mu, lam0):
    """Conjugation by [[1,0],[mu,lam0]] of the generator values, C_i ->
    mu + lam0 C_i - lam_i mu, lam unchanged; the peel commutes with it."""
    gens = [rep.ch.generator(i).exps for i in range(1, rep.ch.s + 1)]
    return make_matrix_rep(rep.A, rep.ch,
                           [mu + lam0 * rep.C[e] - rep.lam[e] * mu for e in gens],
                           [rep.lam[e] for e in gens])


class DeformationDatum(Record):
    """First-order datum over k[eps]/eps^2: lam(sigma_i) = 1 + eps lambda1_i,
    C(sigma_i) = c(sigma_i) + eps delta_i, and the first-order Weierstrass
    coefficients a1 of 1/ftilde = t^m + eps sum a1[mu] t^mu."""
    __slots__ = ("ch", "lambda1", "delta", "a1")

    def __init__(self, ch, lambda1, delta, a1):
        self.ch = ch
        self.lambda1 = lambda1
        self.delta = delta
        self.a1 = a1

    def algebra(self):
        return make_artin_algebra(self.ch.field, 2)

    def matrix_rep(self):
        A = self.algebra()
        eps = A.eps()
        Cgens = [A.include(c) + eps * A.include(d)
                 for c, d in zip(self.ch.vals, self.delta)]
        lamgens = [A.one() + eps * A.include(l) for l in self.lambda1]
        return make_matrix_rep(A, self.ch, Cgens, lamgens)

    def ftilde(self, prec):
        """1/(t^m + eps sum a1[mu] t^mu), known to t^(prec - 2(m - mu)) for
        the least moving mu: inverting loses twice the reach below t^m."""
        A = self.algebra()
        eps = A.eps()
        terms = {self.ch.m: A.one()}
        for mu, a in enumerate(self.a1):
            if a:
                terms[mu] = eps * A.include(a)
        denom = LaurentSeries.make(A, terms, prec + 2 * self.ch.m)
        return invert_unit_series(denom)

    def lambda1_of(self, g):
        """First-order diagonal entry on a general element (additive)."""
        return additive_value(self.ch.field, self.lambda1, g)


def make_datum(ch, lambda1, delta, a1):
    """Each value an element of the field, a coefficient vector or an int
    read as an integer."""
    def fe(x):
        return ch.field.from_int(x) if isinstance(x, int) else ch.field.elem(x)

    return DeformationDatum(ch, *(tuple(map(fe, xs)) for xs in (lambda1, delta, a1)))


def deformed_rho(rep, ftilde, g, prec):
    """The unique T in A[[t]] with T = rho_g mod m_A and
    ftilde(T) = lam(g) ftilde + C(g), as T = rho_g + delta with delta in
    m_A[[t]], by the chord iteration along the nilpotent filtration from
    delta = 0.  ftilde must reduce to t^-m.

    Taylor expansion.  delta^n = 0, so in characteristic p the Taylor
    formula with Hasse derivatives is exact: ftilde(rho_g + delta) =
    sum_{k<n} F_k delta^k with F_k = (D^k ftilde)(rho_g), n compositions
    per call with the field series rho_g.  delta^k lies in eps^k A[[t]],
    so only F_k mod eps^(n-k) counts: F_k is D^k(ftilde mod eps^(n-k))
    composed with rho_g, lifted to A by zero padding.  The eps-parts left
    out would only lower the precision tracked for F_k; over eps^2, F_1 is
    the one-term composition -m rho_g^(-m-1) over the residue field.
    rho_g is memoized per character, element and precision, so its inverse
    and its table of powers serve every datum and every step; no series
    over A is inverted or composed into another.

    Chord step.  Modulo m_A the Jacobian F_1 is -m rho_g^(-m-1), so each
    step adds err rho_g^(m+1) / m to delta, err = sum F_k delta^k - rhs;
    that chord, lifted to A, is kept in the character's memo beside rho_g.
    The Jacobian is off by m_A only, so if err lies in eps^j the next error
    lies in eps^(j+1): over eps^n there are at most n - 1 corrections and a
    final check.  Unless ftilde reduces to t^-m below ftilde.prec, no
    nilpotent delta solves the equation: NoSolution is raised before any
    composition, and again if the residue of err, that of F_0 - rhs
    whatever delta is, does not vanish where err is known.

    Scope.  Over the dual numbers (n = 2) this covers any datum.  Over
    eps^n with n >= 3 the second-order correction can reach t-order 1 - m
    for non-trivial data, so no solution need lie in A[[t]]: the solve
    then raises NoSolution.

    Certificate.  The iteration stops once err vanishes below
    t^(prec - m - 1): the eps-linear part of err is -m rho_g^(-m-1) times
    the error of T, so this fixes T mod t^prec.  T is returned only if the
    series operations track err as known to t^(prec - m - 1) and T as known
    to t^prec, min(T.prec, err.prec + m + 1) >= prec, and T has no pole.

    Working precision.  Let a = -ftilde.lead and gap = max(0, a - m), how
    far the nilpotent terms of ftilde reach below its reduced valuation -m.
    F_0 is known a + 1 below rho_g.prec, so the window needs rho_g known
    to prec + gap.  A correction, err times a series of lead m + 1, can
    reach down to t^(1 - gap), so through F_1 delta each one leaves the
    next error known gap less.  The solve starts at prec + n gap.  A run
    that falls short is repeated with the working precision raised by its
    whole loss, work minus the precision it certified; the solve fails
    when a rerun certifies no more.  Over eps^3 the start has certified on
    every datum tried; over eps^4 some data still need a rerun.
    """
    A, ch = rep.A, rep.ch
    n, m = A.n, ch.m
    gap = max(0, -ftilde.lead - m)
    rhs = ftilde.scale(rep.lam[g.exps]) + \
        LaurentSeries.make(A, {0: rep.C[g.exps]}, INF)
    field = ch.field
    residue = ftilde.residue()
    if not residue.eq_to_prec(LaurentSeries.t_power(field, -m, INF)):
        raise NoSolution("ftilde must reduce to t^-m")
    derivs = [(residue if k == n - 1 else ftilde.reduce(n - k)).derivative(k)
              for k in range(1, n)]
    work = prec + n * gap
    before = -INF
    while True:
        rho = build_rho(ch, g, work)
        key = ("chord", g.exps, work, A)
        chord = ch.memo.get(key)
        if chord is None:
            minv = field.raw_inv(field.raw_from_int(m))
            chord = ch.memo[key] = rho.pow(m + 1).scale(minv).lift_ring(A)
        F = [compose(ftilde, rho) - rhs]
        F += [compose(d, rho).lift_ring(A) for d in derivs]
        if not F[0].residue().is_zero():
            raise NoSolution("the equation does not reduce to the one rho_g "
                             "solves: ftilde must reduce to t^-m")
        delta = LaurentSeries.zero(A)
        for _ in range(n):
            err = F[-1]
            for Fk in reversed(F[:-1]):
                err = Fk + err * delta
            if err.truncate(prec - m - 1).is_zero():
                break
            delta = delta + err * chord
        else:
            raise NoSolution("chord iteration for the deformed automorphism "
                             "did not converge")
        T = rho.lift_ring(A) + delta
        reached = min(T.prec, err.prec + m + 1)
        if reached >= prec:
            if T.lead < 0:
                raise NoSolution("the solution has a pole: no T in A[[t]]")
            return T.truncate(prec)
        if reached <= before:
            raise NoSolution("insufficient working precision: a rerun at "
                             "higher precision certified no more")
        before = reached
        work += work - reached


def tangent_cocycle_extract(rep, ftilde):
    """The 1-cochain sigma -> pole part of h_sigma / t^{m+1} where
    rho~_sigma = (t + eps h_sigma) o rho_sigma; verified to be a cocycle for
    the pole-part module action.

    rho~_sigma comes from deformed_rho.  It equals rho_sigma +
    eps h_sigma(rho_sigma), and h(rho_sigma) = h mod t^{m+1} for h in
    k[[t]] since rho_sigma = t mod t^{m+1}: the pole part reads h mod
    t^{m+1} only, so it is read off the eps part of rho~_sigma.

    rho~_sigma is solved mod t^(m+2), which checks the equation through
    its constant term, where C(sigma) enters.  That certifies once ftilde
    is known to t^(m + 1 - mu), mu the least moving term: the error is read
    below t^1, and its term F_1 delta is known at most m - mu short of
    ftilde.  A shorter ftilde raises NoSolution."""
    A, ch = rep.A, rep.ch
    if A.n != 2:
        raise ValueError("tangent extraction needs the dual numbers")
    prec = ch.m + 2
    vals = []
    for i in range(1, ch.s + 1):
        g = ch.generator(i)
        T = deformed_rho(rep, ftilde, g, prec)
        if not T.residue().eq_to_prec(build_rho(ch, g, prec)):
            raise NoSolution("deformed automorphism does not reduce to rho")
        h1 = T.eps_component(1)
        vals.append(PolePartClass.from_series(ch, h1.shift(-(ch.m + 1))))
    cochain = OneCochain(ch, tuple(vals))
    if not is_cocycle(ch, cochain):
        raise NoSolution("extracted cochain fails the cocycle conditions")
    return cochain


def cocycle_formula(datum, g):
    """Closed form of the tangent cocycle: the pole part of
    -(1/m)(lambda1(g)/t^m + sum_mu ((2m-mu)/m) a1[mu] c(g) / t^{m-mu});
    the constant terms of the displayed formula drop out."""
    ch = datum.ch
    field = ch.field
    m, p = ch.m, ch.p
    minv = field.raw_inv(field.raw_from_int(m))
    c = character_value(ch, g)
    lam1 = datum.lambda1_of(g)
    coeffs = {}

    def bump(e, raw):
        coeffs[e] = field.raw_sub(coeffs.get(e, 0), raw)

    bump(-m, field.raw_mul(lam1.raw, minv))
    for mu, a in enumerate(datum.a1):
        if not a:
            continue
        factor = field.raw_mul(field.raw_from_int(2 * m - mu),
                               field.raw_mul(minv, minv))
        bump(mu - m, field.raw_mul(factor, field.raw_mul(a.raw, c.raw)))
    return PolePartClass.from_series(ch, LaurentSeries(field, coeffs, INF))


def cocycle_formula_cochain(datum):
    return OneCochain(datum.ch,
                      tuple(cocycle_formula(datum, datum.ch.generator(i))
                            for i in range(1, datum.ch.s + 1)))


def obstruction_two_cocycle(rep, lifts):
    """The obstruction to lifting generator lifts across the small extension
    A' -> A with kernel eps^{n-1}, read off the relations of V = (Z/p)^s.

    lifts maps each generator index i (1-based) to a series over A'
    reducing to the deformed automorphism of sigma_i over A.  The relation
    defects lift_j^{o p} - t and lift_j o lift_k - lift_k o lift_j, j < k,
    take s(p-1) + s(s-1) compositions and must vanish below eps^{n-1}.
    Their eps^{n-1} parts h are read as the pole parts of h / t^{m+1}, in
    the order of the blocks 2e_j and e_j + e_k of C^2 of the generator
    complex.  They are exactly the pullback of the bar 2-cocycle f of the
    lifts filled over V by the peel, rho~_g rho~_h = (t + eps^{n-1} f(g, h))
    o rho~_gh: sum_i f(sigma_j^i, sigma_j) telescopes to the power defect
    and f(sigma_j, sigma_k) - f(sigma_k, sigma_j) is the commutator.  Each
    value of f is a sum of translates of defects, so f vanishes when they
    do, and f is a coboundary exactly when they lie in the image of d^1.
    The defects are read mod t^(m+2).  Composing loses n - 1 terms to a
    nilpotent t^0 term of the inner series and none to an inner of lead
    >= 1 (compose's cap), so lifts to t^(m + 2 + (p-1)(n-1)) always serve,
    and of lead 1 to t^(m+2).  Over eps^2 the relations below the kernel
    are those of the residues, rho itself, checked on the whole lifts, so
    longer lifts are cut to that window before composing: the cost follows
    the window, not the lifts' length.  Over eps^n, n >= 3, the lifts are
    composed as given, so that the relations below the kernel are checked
    to their full precision; so are lifts with a nilpotent pole."""
    A, ch = rep.A, rep.ch
    m, top = ch.m, A.n - 1
    for i in range(1, ch.s + 1):
        res = lifts[i].residue()
        if not res.eq_to_prec(build_rho(ch, ch.generator(i), res.prec)):
            raise ReductionMismatch("lift %d does not reduce to rho" % i)
    gens = [lifts[i] for i in range(1, ch.s + 1)]
    lead = min(L.lead for L in gens)
    if top == 1 and lead >= 0:
        window = m + 2 + (ch.p - 1) * top * (lead == 0)
        gens = [L.truncate(window) for L in gens]
    t = LaurentSeries.t_power(A, 1, INF)
    relations = []
    for j, L in enumerate(gens):
        power = L
        for _ in range(ch.p - 1):
            power = compose(power, L)
        relations.append(power - t)
        relations.extend(compose(L, K) - compose(K, L) for K in gens[j + 1:])
    defects = []
    for diff in relations:
        if diff.prec < m + 2:
            raise ReductionMismatch("insufficient precision in the lifts")
        if any(not diff.eps_component(j).is_zero() for j in range(top)):
            raise ReductionMismatch(
                "lifts do not satisfy the relations of V below the kernel level")
        defects.append(PolePartClass.from_series(
            ch, diff.eps_component(top).shift(-(m + 1))))
    return {"defects": defects,
            "identically_zero": all(d.is_zero() for d in defects),
            "vanishes_in_H2": d1_preimage(ch, defects) is not None}


def lifting_predicates(p, s, m):
    """Arithmetic lifting flags for the (p, s, m) configuration."""
    if gcd(m, p) != 1:
        raise ValueError("m must be coprime to p")
    return {
        "char0_lift_necessary_condition": (m + 1) % p ** (s - 1) == 0,
        "invariant_divisor_exists": s == 1 or (m + 1) % p != 0,
        "invariant_divisor_excluded_mixed": s > 2,
        "stichtenoth_two_dim": m < p ** s,
        "two_dim_wellformed": gcd(m, p) == 1 and (s == 1 or m > 1),
    }
