"""Shared fixtures and grid helpers for the suite."""

from dataclasses import dataclass
from math import comb

import pytest

from wildram import linalg
from wildram.addpoly import moore_det, ore_recursion
from wildram.ascover import ReductionMismatch
from wildram.autoreps import build_rho, group_mul, make_character, peeled
from wildram.coeffring import _polmod_mul, make_field
from wildram.cohomology import PolePartClass, action_matrix, cocycle_class_vector
from wildram.series import INF, LaurentSeries, compose


def grid_points(max_m=20):
    """(p, s, m) with p in {2,3,5}, s in {1,2}, m <= max_m coprime to p
    (and m > 1 when s >= 2, which two-dimensionality forces)."""
    for p in (2, 3, 5):
        for s in (1, 2):
            for m in range(1, max_m + 1):
                if m % p == 0:
                    continue
                if s >= 2 and m <= 1:
                    continue
                yield p, s, m


def character_for(p, s, m):
    """Character on (Z/p)^s with conductor m over the minimal hosting field
    F_{p^s}, taking the standard basis vectors as generator values."""
    field = make_field(p, s)
    vals = [[0] * i + [1] + [0] * (s - 1 - i) for i in range(s)]
    return make_character(field, vals, m)


def small_grid():
    """The quick subgrid used by the per-module tests."""
    pts = []
    for p in (2, 3, 5):
        for s in (1, 2):
            ms = [m for m in range(1, 8) if m % p and not (s >= 2 and m <= 1)]
            pts.extend((p, s, m) for m in ms[:3 if s == 1 else 2])
    return pts


# Cover points of the ascover and addpoly tests.
COVER_GRID = [(2, 1, 1), (2, 1, 3), (3, 1, 2), (2, 2, 3), (3, 2, 2),
              (2, 2, 5), (3, 2, 4), (5, 2, 2)]


def bar_obstruction_table(rep, lifts):
    """Oracle: the obstruction 2-cocycle on all |V|^2 pairs of group
    elements, as a dict (g.exps, h.exps) -> PolePartClass.

    lifts maps generator index (1-based) to a series over A' reducing to
    the deformed automorphism over A; entries keyed by an exps tuple
    override the lift of that single group element, and the others are
    filled by peeling generators.  With rho~_g rho~_h = (t + eps^{n-1} h) o
    rho~_gh, entry (g, h) is the pole part of h / t^{m+1}, read off the
    eps^{n-1} part of rho~_g rho~_h - rho~_gh = eps^{n-1} h(rho_gh), since
    h(rho_gh) = h mod t^{m+1} for h in k[[t]].  As the library does, it
    composes the lifts at the precision they carry, refuses an entry known
    short of t^(m+2), and refuses lower eps-parts that are nonzero anywhere
    in their known terms."""
    A, ch = rep.A, rep.ch
    top = A.n - 1
    for i in range(1, ch.s + 1):
        res = lifts[i].residue()
        if not res.eq_to_prec(build_rho(ch, ch.generator(i), res.prec)):
            raise ReductionMismatch("lift %d does not reduce to rho" % i)
    one = ch.identity().exps
    lift = {one: lifts.get(one, LaurentSeries.t_power(A, 1, INF))}
    for g, i, rest in peeled(ch):
        lift[g.exps] = (lifts[g.exps] if g.exps in lifts
                        else compose(lifts[i + 1], lift[rest.exps]))
    table = {}
    for g in ch.group():
        for h in ch.group():
            gh = group_mul(ch, g, h)
            diff = compose(lift[g.exps], lift[h.exps]) - lift[gh.exps]
            if diff.prec < ch.m + 2:
                raise ReductionMismatch("insufficient precision in the lifts")
            if any(not diff.eps_component(j).is_zero() for j in range(top)):
                raise ReductionMismatch(
                    "lifts do not agree below the kernel level")
            table[(g.exps, h.exps)] = PolePartClass.from_series(
                ch, diff.eps_component(top).shift(-(ch.m + 1)))
    return table


def module_action(ch, g, x):
    """Helper: sigma . (h(t)/t^{m+1} as a vector field) on M, the pole part
    of rho_g(t)^{m+1} h(rho_g(t)) / (t^{m+1} rho_g'(t))."""
    vec = linalg.mat_vec(ch.field, action_matrix(ch, g), x.vector())
    return PolePartClass.from_vector(ch, vec)


def classes_equal(ch, a, b):
    """Helper: whether two 1-cocycles on M differ by a coboundary."""
    return cocycle_class_vector(ch, a) == cocycle_class_vector(ch, b)


def additive_poly_from_character(ch, omit):
    """Helper: the monic additive polynomial whose roots are the F_p-span
    of the character values with value ``omit`` (1-based) left out."""
    vals = list(ch.vals)
    del vals[omit - 1]
    return ore_recursion(ch.field, [v.raw for v in vals])[0]


def moore_swap_identity_check(ch, i):
    """Helper: the cyclic-shift sign identity for Moore determinants."""
    vals = list(ch.vals)
    moved = vals[:i - 1] + vals[i:] + [vals[i - 1]]
    rhs = moore_det(vals)
    return moore_det(moved) == (-rhs if (ch.s - i) % 2 else rhs)


def laplace_det(ring, mat):
    """Oracle: Laplace-expansion determinant over any coefficient ring, on
    raw elements (n <= 5)."""
    n = len(mat)
    if n == 0:
        return ring.raw_one()
    acc = ring.raw_zero()
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = ring.raw_mul(mat[0][j], laplace_det(ring, minor))
        acc = ring.raw_add(acc, term) if j % 2 == 0 else ring.raw_sub(acc, term)
    return acc


def moore_rows(ring, raws, n=None):
    """The first n (default len(raws)) rows x_j^{p^i} of the Moore matrix."""
    n = len(raws) if n is None else n
    return [[ring.raw_pow(x, ring.p ** i) for x in raws] for i in range(n)]


def binom_mod_p(num, den, k, p):
    """Oracle: binom(num/den, k) reduced mod p, for den prime to p, one
    entry at a time.

    num/den is a p-adic integer x.  By Lucas's theorem binom(x, k) mod p
    is the product of binom(x_i, k_i) over the base-p digits of x and k,
    so only x mod p^L matters, where p^L > k."""
    mod = p
    while mod <= k:
        mod *= p
    x = num * pow(den, -1, mod) % mod
    out = 1
    while k:
        k, ki = divmod(k, p)
        x, xi = divmod(x, p)
        out = out * comb(xi, ki) % p
    return out


@pytest.fixture(scope="session")
def f2():
    return make_field(2)


@pytest.fixture(scope="session")
def f3():
    return make_field(3)


@pytest.fixture(scope="session")
def f5():
    return make_field(5)


@pytest.fixture(scope="session")
def f4():
    return make_field(2, 2)


@pytest.fixture(scope="session")
def f9():
    return make_field(3, 2)


def dense_rref(field, rows):
    """Oracle: reduced row echelon form that rewrites every column of every
    row at each pivot.  Returns (rows, pivot_columns)."""
    add, mul, neg, inv = (field.tables()[0], field.tables()[1],
                          field.tables()[2], field.tables()[3])
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pinv = inv[rows[r][c]]
        rows[r] = [mul[x][pinv] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = neg[rows[i][c]]
                ri, rr = rows[i], rows[r]
                rows[i] = [add[ri[k]][mul[f][rr[k]]] for k in range(ncols)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def mat_mul(field, a, b):
    """Oracle: the matrix product a b over the field."""
    add, mul = field.tables()[0], field.tables()[1]
    n, k = len(a), len(b)
    mcols = len(b[0]) if b else 0
    out = [[0] * mcols for _ in range(n)]
    for i in range(n):
        ai, oi = a[i], out[i]
        for t in range(k):
            x = ai[t]
            if x:
                bt = b[t]
                mx = mul[x]
                for j in range(mcols):
                    if bt[j]:
                        oi[j] = add[oi[j]][mx[bt[j]]]
    return out


# -- oracle: one element class per coefficient ring ----------------------------

def oracle_field_tables(field):
    """Oracle: (add, mul, neg, inv, frob, frob_inv) of the field, every add
    and mul entry from its coefficient vectors, inverses by search."""
    p, q = field.p, field.q
    vecs = [field.idx_to_coeffs(i) for i in range(q)]
    add = [[0] * q for _ in range(q)]
    mul = [[0] * q for _ in range(q)]
    for i in range(q):
        vi = vecs[i]
        for j in range(i, q):
            vj = vecs[j]
            s = field.coeffs_to_idx(tuple((a + b) % p for a, b in zip(vi, vj)))
            add[i][j] = add[j][i] = s
            m = field.coeffs_to_idx(_polmod_mul(vi, vj, field.modulus, p))
            mul[i][j] = mul[j][i] = m
    neg = [field.coeffs_to_idx(tuple((-c) % p for c in vecs[i])) for i in range(q)]
    inv = [0] * q
    for i in range(1, q):
        for j in range(1, q):
            if mul[i][j] == 1:
                inv[i] = j
                break
    frob = [0] * q
    for i in range(q):
        acc = i
        for _ in range(p - 1):
            acc = mul[acc][i]
        frob[i] = acc
    frob_inv = [0] * q
    for i in range(q):
        frob_inv[frob[i]] = i
    return (add, mul, neg, inv, frob, frob_inv)


def field_raw_pow(field, a, n):
    """Oracle: a^n in a field by square-and-multiply on the product table."""
    if n < 0:
        return field_raw_pow(field, field.raw_inv(a), -n)
    mul = field.tables()[1]
    result, base = 1, a
    while n:
        if n & 1:
            result = mul[result][base]
        base = mul[base][base]
        n >>= 1
    return result


def artin_raw_pow(ring, a, n):
    """Oracle: a^n in F_q[eps]/eps^n by square-and-multiply on raw_mul."""
    if n < 0:
        return artin_raw_pow(ring, ring.raw_inv(a), -n)
    result, base = ring.raw_one(), a
    while n:
        if n & 1:
            result = ring.raw_mul(result, base)
        base = ring.raw_mul(base, base)
        n >>= 1
    return result


@dataclass(frozen=True)
class OracleFieldElem:
    """Oracle: a field element with its own arithmetic on the index."""
    field: object
    idx: int

    def __bool__(self):
        return self.idx != 0

    def is_unit(self):
        return self.idx != 0

    def _check(self, other):
        if not isinstance(other, OracleFieldElem) or self.field != other.field:
            raise ValueError("field mismatch")

    def __add__(self, other):
        self._check(other)
        return OracleFieldElem(self.field, self.field.raw_add(self.idx, other.idx))

    def __sub__(self, other):
        self._check(other)
        return OracleFieldElem(self.field, self.field.raw_sub(self.idx, other.idx))

    def __neg__(self):
        return OracleFieldElem(self.field, self.field.raw_neg(self.idx))

    def __mul__(self, other):
        self._check(other)
        return OracleFieldElem(self.field, self.field.raw_mul(self.idx, other.idx))

    def __pow__(self, n):
        return OracleFieldElem(self.field, field_raw_pow(self.field, self.idx, n))


@dataclass(frozen=True)
class OracleArtinElem:
    """Oracle: an element of F_q[eps]/eps^n with its own arithmetic on the
    tuple of component indices."""
    ring: object
    raw: tuple

    def __bool__(self):
        return any(self.raw)

    def is_unit(self):
        return self.raw[0] != 0

    def _check(self, other):
        if not isinstance(other, OracleArtinElem) or self.ring != other.ring:
            raise ValueError("ring mismatch")

    def __add__(self, other):
        self._check(other)
        return OracleArtinElem(self.ring, self.ring.raw_add(self.raw, other.raw))

    def __sub__(self, other):
        self._check(other)
        return OracleArtinElem(self.ring, self.ring.raw_sub(self.raw, other.raw))

    def __neg__(self):
        return OracleArtinElem(self.ring, self.ring.raw_neg(self.raw))

    def __mul__(self, other):
        self._check(other)
        return OracleArtinElem(self.ring, self.ring.raw_mul(self.raw, other.raw))

    def __pow__(self, n):
        return OracleArtinElem(self.ring, artin_raw_pow(self.ring, self.raw, n))


def oracle_elem(ring, raw):
    """The oracle element of the ring with the given raw value."""
    if hasattr(ring, "base"):
        return OracleArtinElem(ring, raw)
    return OracleFieldElem(ring, raw)


def oracle_raw(x):
    return x.raw if isinstance(x, OracleArtinElem) else x.idx


def oracle_constants(ring, k):
    """Oracle: the raw values of from_int(k), zero and one, per class."""
    if hasattr(ring, "base"):
        return ((k % ring.p,) + (0,) * (ring.n - 1), (0,) * ring.n,
                (1,) + (0,) * (ring.n - 1))
    return k % ring.p, 0, 1
