"""Group cohomology of V = (Z/p)^s on the tangent module and its pole parts.

In the coordinate g d/du with u = t^{-m}, the tangent module T = k[[t]] d/dt
is t^{-(m+1)} k[[t]], T_K = k((t)) d/du is K itself with its Galois action
(d/du is invariant, as sigma(u) = u + c(sigma)), and sigma acts on pole
exponents by the one binomial formula

    t^e -> t^e (1 + c(sigma) t^m)^{-e/m}.

Every action matrix is a slice of it, built with the norm 1 + sigma + ... +
sigma^{p-1} in one pass: on M = t^{-(m+1)} k[[t]] / k[[t]], the module of
m+1 pole parts, and on the graded components of T_K/T.  H^1 and H^2 are
computed by exact linear algebra over k in one generator complex
Hom_V(P, -), where P is the tensor product of the periodic resolutions of
the s cyclic factors.  `h1_brute_force` reads H^1(V, T) off the exact
sequence 0 -> T -> T_K -> T_K/T -> 0: the invariant pole parts modulo
those of the invariant fields, one elimination per class of graded
components.  On M only t^{-(m+1)} moves, by kappa c(sigma) t^{-1} with
kappa = (m+1)/m: M = N + k^{m-1}, N = <t^{-1}, t^{-(m+1)}>, and every
differential vanishes on k^{m-1}.  So the complex is built on N, once
per character, and `is_cocycle`, `cocycle_class_vector`, H^2 and the
coboundary tests (`d1_preimage` on the relations of V, such as the
defects of an obstruction; `H2Engine.is_coboundary` on all pairs of
group elements, through the chain map from the periodic resolutions to
the bar resolution) read the coordinates on N.  Alongside sit the closed
formula of H^1(V, T), the cyclic basis, the splitting criterion and the
Krull dimension of the unobstructed locus.
"""

from __future__ import annotations

from itertools import accumulate

from . import linalg
from .autoreps import (binom_row_mod_p, character_value, group_mul, group_pow,
                       peeled)
from .coeffring import Record
from .series import pole_part


class TooLarge(ValueError):
    pass


class CochainLengthMismatch(ValueError):
    """A cochain's value vector does not have m+1 coordinates per block."""


class PolePartClass(Record):
    """Element of the twisted module: coefficients of t^{-1}, ..., t^{-(m+1)}."""
    __slots__ = ("ch", "coeffs")  # coeffs: m+1 FieldElem values

    def __init__(self, ch, coeffs):
        if len(coeffs) != ch.m + 1:
            raise ValueError("need exactly m+1 coefficients")
        self.ch = ch
        self.coeffs = coeffs

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs and self.ch == other.ch

    def __hash__(self):
        return hash((self.ch, self.coeffs))

    @classmethod
    def zero(cls, ch):
        return cls(ch, (ch.field.zero(),) * (ch.m + 1))

    @classmethod
    def from_vector(cls, ch, raws):
        return cls(ch, tuple(map(ch.field.from_raw, raws)))

    @classmethod
    def from_series(cls, ch, s):
        """Read the pole part of a Laurent series over the character's field."""
        pp = pole_part(s)
        if pp.coeffs and pp.lead < -(ch.m + 1):
            raise ValueError("pole of order > m+1 cannot represent a class")
        return cls.from_vector(ch, [pp.coeff(-i) for i in range(1, ch.m + 2)])

    def vector(self):
        return [c.raw for c in self.coeffs]

    def is_zero(self):
        return not any(self.coeffs)

    def __add__(self, other):
        return PolePartClass(self.ch, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return PolePartClass(self.ch, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))


class OneCochain(Record):
    """A 1-cochain on M, given by its values on the generators sigma_i."""
    __slots__ = ("ch", "vals")  # vals: one PolePartClass per generator

    def __init__(self, ch, vals):
        if len(vals) != ch.s:
            raise ValueError("need one value per generator")
        self.ch = ch
        self.vals = vals

    @classmethod
    def zero(cls, ch):
        return cls(ch, (PolePartClass.zero(ch),) * ch.s)

    def vector(self):
        return [x for v in self.vals for x in v.vector()]

    @classmethod
    def from_vector(cls, ch, raws):
        m1 = ch.m + 1
        return cls(ch, tuple(PolePartClass.from_vector(ch, raws[i * m1:(i + 1) * m1])
                             for i in range(ch.s)))

    def is_zero(self):
        return all(v.is_zero() for v in self.vals)


# -- the module action --------------------------------------------------------

def _action(ch, gs, exps):
    """Matrices of each g in gs and of its norm N = 1 + g + ... + g^{p-1}
    acting by t^e -> t^e (1 + c(g) t^m)^{-e/m} on the span of the t^e, e in
    exps, built in one pass.  Entry (i, j) of g is the coefficient of
    t^{exps[i]} in the image of t^{exps[j]}, namely binom(-e/m, d) c(g)^d
    when exps[i] = e + dm with e = exps[j] and d >= 0; the binomials of a
    column are one row, shared by every g: a Lucas row, or, when e is m
    above the previous column's exponent (along a component of T_K/T),
    x = -e/m is one below and binom(x, d) = binom(x + 1, d) - binom(x, d - 1)
    steps the previous row.  Since c(g^k) = k c(g),
    the entry of g^k is k^d times that of g, and sum_{k in F_p} k^d is -1
    when d > 0 and p - 1 divides d, and 0 otherwise: N is -g on those
    entries and 0 elsewhere.  Images only move up in exponent and terms
    outside exps are dropped, so the slice on -1..-(m+1) is the action on
    M = t^{-(m+1)} k[[t]] / k[[t]], and the slice on the exponents
    -B..-(m+2) is the exact action on t^{-B} k[[t]] / T."""
    p, m = ch.p, ch.m
    tables = ch.field.tables()
    mul, neg = tables[1], tables[2]
    pos = {e: i for i, e in enumerate(exps)}
    top = max(exps)
    n = len(exps)
    span = (top - min(exps)) // m
    cpows = [list(accumulate([character_value(ch, g).raw] * span,
                             lambda x, c: mul[x][c], initial=1)) for g in gs]
    pairs = [([[0] * n for _ in range(n)], [[0] * n for _ in range(n)])
             for _ in gs]
    for j, e in enumerate(exps):
        length = (top - e) // m + 1
        if j and e - exps[j - 1] == m:
            binoms = list(accumulate(binoms[1:length],
                                     lambda below, b: (b - below) % p, initial=1))
        else:
            binoms = binom_row_mod_p(-e, m, length, p)
        for d, b in enumerate(binoms):
            i = pos.get(e + d * m)
            if b and i is not None:
                row, in_norm = mul[b], d and d % (p - 1) == 0
                for (mat, norm), cpow in zip(pairs, cpows):
                    mat[i][j] = x = row[cpow[d]]
                    if in_norm:
                        norm[i][j] = neg[x]
    return pairs


def action_matrix(ch, g):
    """Matrix of the action of g on M in the basis t^{-1}, ..., t^{-(m+1)}."""
    return _action(ch, [g], range(-1, -ch.m - 2, -1))[0][0]


def _generator_actions(ch):
    """The generators' (matrix, norm) pairs on N, for _complex."""
    gens = [ch.generator(i) for i in range(1, ch.s + 1)]
    return _action(ch, gens, (-1, -ch.m - 1))


def _generator_complex(ch):
    """d^0, d^1, d^2 of the generator complex on N, built by _complex once
    per character and kept in its memo; callers only read them."""
    d = ch.memo.get("complex")
    if d is None:
        d = ch.memo["complex"] = _complex(ch.field, _generator_actions(ch), 2)
    return d


def _n_coordinates(ch, vec, degree):
    """Positions of the coordinates on N, t^{-1} and t^{-(m+1)}, in the
    value vector of a cochain on M of the given degree, one block of m+1
    per a in N^s with |a| = degree; any other length is refused."""
    nblocks, m1 = len(_multi_indices(ch.s, degree)), ch.m + 1
    if len(vec) != nblocks * m1:
        raise CochainLengthMismatch("expected %d coordinates, got %d"
                                    % (nblocks * m1, len(vec)))
    return [b * m1 + k for b in range(nblocks) for k in (0, ch.m)]


# -- brute-force H^1 ----------------------------------------------------------

def component_action_matrix(ch, r, K):
    """The generators' (matrix, norm) pairs on the degree-(r mod m)
    component of T_K/T, levels -K..-1 in this order: level -l stands for
    the pole exponent r - m - 1 - lm, below the exponents >= -m-1 of T.
    The level gap of entry (i, j) is i - j."""
    m, gens = ch.m, [ch.generator(i) for i in range(1, ch.s + 1)]
    return _action(ch, gens, range(r - m - 1 - K * m, r - m - 1, m))


def _multi_indices(s, n):
    """The a in N^s with |a| = n, in decreasing lexicographic order."""
    if s == 1:
        return [(n,)]
    return [(a,) + rest for a in range(n, -1, -1)
            for rest in _multi_indices(s - 1, n - a)]


def _complex(field, gens, top):
    """Differentials d^0, ..., d^top of Hom_V(P, W), as row matrices.

    P is the tensor product of the periodic resolutions of the cyclic
    factors <sigma_j>, and gens are the generators' (matrix, norm) pairs on
    a module W, as _action builds them.  C^n has one block of size dim W
    for each a in N^s with |a| = n, in decreasing lexicographic order, so
    the blocks of C^1 are the values on sigma_1, ..., sigma_s.  The block
    of d^n from a - e_j to b is (-1)^(b_1 + ... + b_{j-1}) times
    sigma_j - 1 when b_j is odd and N_j = 1 + sigma_j + ... + sigma_j^{p-1}
    when b_j is even.  Z^1 is then cut out by the norm and pairwise
    conditions and B^1 = ((sigma_j - 1) n)_j.
    """
    add, neg = field.tables()[0], field.tables()[2]
    s, n = len(gens), len(gens[0][0])
    minus_one = neg[1]
    minus = [[list(row) for row in A] for A, _ in gens]
    for X in minus:
        for i, row in enumerate(X):
            row[i] = add[row[i]][minus_one]
    norms = [N for _, N in gens]
    out = []
    src = {(0,) * s: 0}
    for deg in range(top + 1):
        tgt = _multi_indices(s, deg + 1)
        ncols = len(src) * n
        rows = []
        for b in tgt:
            block = [[0] * ncols for _ in range(n)]
            sign = 0
            for j in range(s):
                if b[j]:
                    off = src[b[:j] + (b[j] - 1,) + b[j + 1:]] * n
                    X = minus[j] if b[j] % 2 else norms[j]
                    for r in range(n):
                        block[r][off:off + n] = (
                            [neg[x] for x in X[r]] if sign % 2 else X[r])
                sign += b[j]
            rows.extend(block)
        out.append(rows)
        src = {a: k for k, a in enumerate(tgt)}
    return out


def _component_classes(ch, r, B):
    """Class representatives of H^1(V, T) in the degree-(r mod m)
    component, from the pole parts of order at most B.

    The invariants of the component of t^{-B} k[[t]] / T are the common
    kernel of the sigma_i - 1, echelonized with the deepest pole first, so
    each row leads at its pivot exponent.  The invariant fields x^{-j} d/du,
    with x = prod_sigma rho_sigma(t) of valuation p^s, lie in one component
    each and lead at -j p^s, so every pivot that is a multiple of p^s is
    the lead of one of them.  The rows whose pivot exponent is not a
    multiple of p^s are therefore a basis of the quotient by their pole
    parts.  The kernel of d^0, the sigma_i - 1 stacked, comes from
    nullspace in reduced echelon form, each row leading with a 1."""
    m, q = ch.m, ch.p ** ch.s
    K = (B + r - m - 1) // m
    d0 = [row for mat, _ in component_action_matrix(ch, r, K) for row in mat]
    for i, row in enumerate(d0):
        row[i % K] = 0  # the diagonal of each sigma_i is 1
    return [row for row in linalg.nullspace(ch.field, d0, K)
            if (r - m - 1 - (K - row.index(1)) * m) % q]


def h1_brute_force(ch):
    """dim_k H^1(V, T) of the tangent module T = k[[t]] d/dt and a
    deterministic basis of class representatives.

    The exact sequence 0 -> T -> T_K -> T_K/T -> 0 and H^1(V, T_K) = 0 give
    H^1(V, T) = (T_K/T)^V / image(T_K^V), with T_K^V = k((x)) d/du.  Every
    class comes from a pole part of order at most B = p^s (m+1): with d =
    (p^s - 1)(m+1) the different exponent, some a in t^{-d} k[[t]] has
    trace 1, and y = -sum_tau h(tau) tau(a) solves sigma y - y = h(sigma)
    with v(y) >= -(m+1) - d = -B.  The lead of an element of k((x)) below
    -(m+1) is a pole of its class, so the image in t^{-B} k[[t]] / T is
    spanned by the pole parts of the x^{-j} with j p^s <= B.  T_K/T is
    graded by the degree mod m of its vector fields.  The basis holds, in
    order of increasing r, pairs (r, v) of a component r < m and an
    invariant pole part v of that component, in the levels -K..-1 of
    component_action_matrix; "pole_bound" is B.

    Component r has K(r) = floor((B + r - m - 1)/m) levels, at x = -e/m =
    l + (m + 1 - r)/m, and entries binom(x, d) c(sigma)^d with d < K(r).
    By Lucas's theorem binom(x, d) mod p for d < p^L depends only on x mod
    p^L, so with p^L >= K(r), L >= s, the solve of component r, pivot
    filter mod p^s included, depends only on (r mod p^L, K(r)).  L = s
    will do: if m < p^s no two r < m meet mod p^s, and if m >= p^s then
    K(r) = p^s - 1 + floor((p^s - 1 + r)/m) <= p^s.  Each class is solved
    once, at its least r: at most 2 p^s solves, whatever m.
    """
    if ch.order() > 125:
        raise TooLarge("group order above 125 is out of scope")
    m, q = ch.m, ch.order()
    B = q * (m + 1)
    solved = {}
    basis = []
    for r in range(m):
        key = (r % q, (B + r - m - 1) // m)
        if key not in solved:
            solved[key] = _component_classes(ch, r, B)
        basis.extend((r, list(v)) for v in solved[key])
    return {"dim": len(basis), "basis": basis, "pole_bound": B}


def is_cocycle(ch, cochain):
    """Check the 1-cocycle conditions for values given on the generators."""
    vec = cochain.vector()
    x = [vec[i] for i in _n_coordinates(ch, vec, 1)]
    return not any(linalg.mat_vec(ch.field, _generator_complex(ch)[1], x))


def cocycle_class_vector(ch, cochain):
    """Coordinates of the cochain's class in M: the value vector reduced on
    N modulo the coboundaries ((sigma_i - 1) n)_i, the columns of d^0.
    Anything but a whole cochain, one value per generator, is refused: a
    single value would be reduced against truncated coboundaries."""
    vec = cochain.vector()
    pos = _n_coordinates(ch, vec, 1)
    red, pivots = linalg.rref(ch.field, list(zip(*_generator_complex(ch)[0])))
    x = linalg.reduce_against(ch.field, red, pivots, [vec[i] for i in pos])
    for i, y in zip(pos, x):
        vec[i] = y
    return vec


# -- closed formulas ----------------------------------------------------------

def h1_closed_formula(p, s, m):
    """dim_k H^1(V, T) of the tangent module, the dimension h1_brute_force
    computes, via the floor/ceiling summation formula.  It is not the H^1
    of the quotient M: at (2, 1, 1) the generator complex on M gives 2
    against 1 here."""
    if m % p == 0:
        raise ValueError("gcd(m, p) must be 1")
    total = 0
    a = -(m + 1)
    for _ in range(s):
        total += ((m + 1) * (p - 1) + a) // p - -(-a // p)
        a = -(-a // p)  # ceil(a / p)
    return total


def admissible_exponents(p, m, lo, hi):
    """Exponents i in [lo, hi] with binom(i/m, p-1) = 0 in F_p."""
    return [i for i in range(lo, hi + 1)
            if binom_row_mod_p(i, m, p, p)[p - 1] == 0]


def h1_basis_cyclic(ch):
    """The cyclic-case basis: exponents i in [b, m+1] with binom(i/m, p-1) = 0,
    each carrying the cochain sigma -> c(sigma) t^{-i}."""
    p, m = ch.p, ch.m
    if ch.s != 1:
        raise ValueError("the cyclic basis requires s = 1")
    b = 1 if (m + 1) % p == 0 else 2
    out = []
    c = ch.vals[0]
    for i in admissible_exponents(p, m, b, m + 1):
        coeffs = [ch.field.zero()] * (m + 1)
        coeffs[i - 1] = c
        out.append((i, OneCochain(ch, (PolePartClass(ch, tuple(coeffs)),))))
    return out


def split_condition(p, s, m):
    """The digit criterion for H^1(V) = sum of the cyclic H^1's.

    With b the base-p digits of m+1, the i-th summand of the dimension
    formula collapses to (m+1) - sum_{v>=1} b_v p^{v-1} - ceil((b_0 +
    b_{i-1})/p), so the summands all equal the cyclic dimension exactly
    when ceil((b_0 + b_{v-1})/p) = ceil(2 b_0/p) for 2 <= v <= s.  This
    predicate is equivalent to additivity of the closed formula on the
    whole supported range (and fails at (3, 2, 2), where 3 != 2 + 2)."""
    if m % p == 0:
        raise ValueError("gcd(m, p) must be 1")
    digits = []
    x = m + 1
    while x:
        digits.append(x % p)
        x //= p
    b0 = digits[0]
    holds = True
    for nu in range(2, s + 1):
        bn = digits[nu - 1] if nu - 1 < len(digits) else 0
        if -(-(b0 + bn) // p) != -(-2 * b0 // p):
            holds = False
            break
    return {"holds": holds, "digits": digits}


def krull_dimension_sigma(p, m):
    """Sigma = admissible exponents capped at m (the d/dt direction i = m+1
    is obstructed); the hull's Krull dimension is #Sigma."""
    if m % p == 0:
        raise ValueError("gcd(m, p) must be 1")
    b = 1 if (m + 1) % p == 0 else 2
    sigma = admissible_exponents(p, m, b, m)
    return {"sigma": sigma, "dim": len(sigma)}


# -- brute-force H^2 ----------------------------------------------------------

def d1_preimage(ch, blocks):
    """A 1-cochain gamma with d^1 gamma the 2-cochain whose blocks, in the
    order of _multi_indices(s, 2), are the given PolePartClass values;
    None when there is none, as for blocks nonzero off N, where every
    differential vanishes.  Any other number of blocks is refused."""
    vec = [x for b in blocks for x in b.vector()]
    pos = _n_coordinates(ch, vec, 2)
    gamma = linalg.solve(ch.field, _generator_complex(ch)[1], [vec[i] for i in pos])
    if gamma is None or any(x for i, x in enumerate(vec) if 0 < i % (ch.m + 1) < ch.m):
        return None
    zeros = [0] * (ch.m - 1)
    return OneCochain.from_vector(ch, [x for i in range(0, len(gamma), 2)
                                       for x in [gamma[i], *zeros, gamma[i + 1]]])


class H2Engine:
    """H^2 from the generator complex, and the coboundary test for
    2-cochains given on pairs of group elements, decided through the same
    complex."""

    def __init__(self, ch):
        self.ch = ch
        group = ch.group()
        self._mats = {g.exps: mat for g, (mat, _)
                      in zip(group, _action(ch, group, (-1, -ch.m - 1)))}
        self._d = _generator_complex(ch)

    def _act(self, exps, x):
        vec = x.vector()  # N is the first and the last coordinate
        vec[0], vec[-1] = linalg.mat_vec(self.ch.field, self._mats[exps],
                                         (vec[0], vec[-1]))
        return PolePartClass.from_vector(self.ch, vec)

    def is_coboundary(self, table):
        """Whether the table f: (g.exps, h.exps) -> PolePartClass, missing
        pairs read as zero, is d beta for a bar 1-cochain beta; exact
        whether or not f is a cocycle.

        The chain map from the periodic resolutions to the bar resolution
        pulls f back to C^2: sum_i f(sigma_j^i, sigma_j) on block 2e_j and
        f(sigma_j, sigma_k) - f(sigma_k, sigma_j) on e_j + e_k, j < k.  If
        f = d beta', a solution gamma of d^1 gamma = pullback differs from
        beta' on the generators by a 1-cocycle, which extends over V; so
        some beta with d beta = f has beta(sigma_i) = gamma_i, and it is
        forced: beta(1) = f(1, 1) and, along the peel g = sigma_i rest,
        beta(g) = sigma_i beta(rest) + gamma_i - f(sigma_i, rest)."""
        ch = self.ch
        zero = PolePartClass.zero(ch)

        def f(g, h):
            return table.get((g, h), zero)

        gens = [ch.generator(i).exps for i in range(1, ch.s + 1)]
        blocks = []
        for a in _multi_indices(ch.s, 2):
            j, *k = [i for i, x in enumerate(a) if x]
            if k:
                val = f(gens[j], gens[k[0]]) - f(gens[k[0]], gens[j])
            else:
                val = zero
                for i in range(ch.p):
                    val = val + f(group_pow(ch, ch.generator(j + 1), i).exps, gens[j])
            blocks.append(val)
        gamma = d1_preimage(ch, blocks)
        if gamma is None:
            return False
        one = ch.identity().exps
        beta = {one: f(one, one)}
        for g, i, rest in peeled(ch):
            beta[g.exps] = gamma.vals[i] if rest.is_identity() else (
                self._act(gens[i], beta[rest.exps]) + gamma.vals[i]
                - f(gens[i], rest.exps))
        return all(v.vector() == f(*gh).vector()
                   for gh, v in self.d1_of(beta).items())

    def z2_dimension(self):
        """dim Z^2 = dim C^2 - rank d^2, d^2 reading 2 of each block's m+1."""
        d2 = self._d[2]
        return (self.ch.m + 1) * len(d2[0]) // 2 - linalg.rank(self.ch.field, d2)

    def h2_dimension(self):
        """dim Z^2 - dim B^2, with dim B^2 = rank d^1."""
        return self.z2_dimension() - linalg.rank(self.ch.field, self._d[1])

    def d1_of(self, beta_table):
        """The 2-coboundary of a 1-cochain given as dict g.exps -> PolePartClass."""
        ch = self.ch
        out = {}
        for s_ in ch.group():
            for t_ in ch.group():
                st = group_mul(ch, s_, t_)
                out[(s_.exps, t_.exps)] = (self._act(s_.exps, beta_table[t_.exps])
                                           - beta_table[st.exps]
                                           + beta_table[s_.exps])
        return out


def h2_brute_force(ch):
    return {"dim": H2Engine(ch).h2_dimension()}
