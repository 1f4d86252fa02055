"""Reference computations the benchmark checks the program against.

Nothing here imports wildram.  Field elements are handled in the program's
raw encoding only at the boundary (an index whose base-p digits are the
coefficients of 1, x, x^2, ... modulo the field's monic modulus); all
arithmetic is this module's own.  Every check returns a list of error
strings, empty when the output is correct.
"""

from fractions import Fraction


class GF:
    """GF(p^d) as coefficient tuples reduced by a monic modulus
    (c_0, ..., c_{d-1}, 1)."""

    def __init__(self, p, modulus):
        self.p = p
        self.modulus = tuple(modulus)
        self.d = len(modulus) - 1

    def vec(self, idx):
        out = []
        for _ in range(self.d):
            idx, r = divmod(idx, self.p)
            out.append(r)
        return tuple(out)

    def idx(self, vec):
        return sum(c * self.p ** i for i, c in enumerate(vec))

    def zero(self):
        return (0,) * self.d

    def scalar(self, k):
        return ((k % self.p),) + (0,) * (self.d - 1)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        p, d = self.p, self.d
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        for k in range(2 * d - 2, d - 1, -1):
            top = prod[k] % p
            for i in range(d):
                prod[k - d + i] -= top * self.modulus[i]
        return tuple(c % p for c in prod[:d])


def rank_mod_p(rows, p):
    """Rank over F_p of integer row vectors."""
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def rational_mod_p(x, p):
    """A rational with denominator prime to p, as an element of F_p."""
    if x.denominator % p == 0:
        raise ValueError("denominator divisible by p")
    return x.numerator * pow(x.denominator % p, p - 2, p) % p


# -- group_law ----------------------------------------------------------------

def expected_pairs(p, s):
    """Generator pairs plus all pairs (order^2 <= 625) or 25 sampled ones."""
    order = p ** s
    return s * s + (order * order if order * order <= 625 else 25)


def closed_rho(gf, m, c, prec):
    """rho(t) = t (1 + c t^m)^(-1/m) = t sum_k binom(-1/m, k) c^k t^(km),
    truncated below t^prec, as {exponent: coefficient tuple} (nonzero only)."""
    alpha = Fraction(-1, m)
    binom = Fraction(1)
    cpow = gf.scalar(1)
    out = {}
    k = 0
    while 1 + k * m < prec:
        coeff = gf.mul(gf.scalar(rational_mod_p(binom, gf.p)), cpow)
        if any(coeff):
            out[1 + k * m] = coeff
        binom = binom * (alpha - k) / (k + 1)
        cpow = gf.mul(cpow, c)
        k += 1
    return out


def check_group_law(result, p, s):
    errors = []
    if result.get("ok") is not True:
        errors.append("group law reported not ok")
    if result.get("pairs_checked") != expected_pairs(p, s):
        errors.append("pairs_checked %r != %d" % (result.get("pairs_checked"),
                                                  expected_pairs(p, s)))
    return errors


def check_rho(raw_coeffs, raw_prec, gf, m, c, prec):
    """raw_coeffs: the program's {exponent: raw index} for one generator."""
    errors = []
    if raw_prec != prec:
        errors.append("rho precision %r != %d" % (raw_prec, prec))
    want = closed_rho(gf, m, c, prec)
    got = {e: gf.vec(i) for e, i in raw_coeffs.items() if e < prec and i}
    if got != want:
        bad = sorted(set(got) ^ set(want)
                     | {e for e in set(got) & set(want) if got[e] != want[e]})
        errors.append("rho differs from the closed series at t^%s" % bad[:5])
    return errors


# -- tangent ------------------------------------------------------------------

def closed_tangent(gf, m, lam1, a1, c):
    """Pole part of -(1/m)(lambda1/t^m + sum_mu ((2m-mu)/m) a1[mu] c / t^(m-mu)),
    as the coefficient tuples of t^-1, ..., t^-(m+1)."""
    p = gf.p
    minv = pow(m % p, p - 2, p)
    out = [gf.zero() for _ in range(m + 1)]
    out[m - 1] = gf.add(out[m - 1], gf.mul(gf.scalar(-minv), lam1))
    for mu, a in enumerate(a1):
        factor = gf.scalar(-minv * (2 * m - mu) * minv)
        j = m - mu  # the term sits at t^-j
        out[j - 1] = gf.add(out[j - 1], gf.mul(factor, gf.mul(a, c)))
    return out


def check_tangent(raw_vals, gf, m, lam1s, a1, cs):
    """raw_vals: per generator, the raw indices of t^-1 .. t^-(m+1)."""
    errors = []
    if len(raw_vals) != len(cs):
        return ["cochain has %d values for %d generators" % (len(raw_vals), len(cs))]
    for i, (vals, lam1, c) in enumerate(zip(raw_vals, lam1s, cs)):
        want = closed_tangent(gf, m, lam1, a1, c)
        got = [gf.vec(x) for x in vals]
        if got != want:
            errors.append("generator %d: tangent cocycle differs from the "
                          "closed formula" % (i + 1))
    return errors


# -- h1_grid ------------------------------------------------------------------

def _floor(a, b):
    return a // b


def _ceil(a, b):
    return -((-a) // b)


def h1_dim(p, s, m):
    """sum_{i=1..s} floor(((m+1)(p-1) + a_i)/p) - ceil(a_i/p) with
    a_1 = -(m+1) and a_{i+1} = ceil(a_i/p)."""
    total = 0
    a = -(m + 1)
    for _ in range(s):
        total += _floor((m + 1) * (p - 1) + a, p) - _ceil(a, p)
        a = _ceil(a, p)
    return total


def check_h1(dim, nbasis, p, s, m):
    want = h1_dim(p, s, m)
    errors = []
    if dim != want:
        errors.append("dim H^1 %r != %d at (%d,%d,%d)" % (dim, want, p, s, m))
    if nbasis != dim:
        errors.append("basis size %r != dim %r" % (nbasis, dim))
    return errors


# -- selftest -----------------------------------------------------------------

def check_selftest_point(point):
    """One stripped point report of the selftest sweep."""
    errors = []
    cfg = point.get("config", {})
    p = cfg.get("field", {}).get("p")
    s = cfg.get("character", {}).get("s")
    m = cfg.get("character", {}).get("m")
    if not all(isinstance(x, int) for x in (p, s, m)):
        return ["point without (p, s, m)"]
    tag = "(%d,%d,%d)" % (p, s, m)
    tasks = {t.get("name"): t for t in point.get("tasks", [])}
    want_tasks = {"rho", "cohomology", "ascover", "deform", "predicates"}
    if set(tasks) != want_tasks:
        return ["%s: tasks %s" % (tag, sorted(tasks))]
    for name, t in sorted(tasks.items()):
        if t.get("ok") is not True:
            errors.append("%s: task %s not ok" % (tag, name))
    nontrivial = p ** s - 1
    rho = tasks["rho"].get("results", {})
    if rho.get("breaks") != [m + 1] * nontrivial:
        errors.append("%s: breaks %r" % (tag, rho.get("breaks")))
    if rho.get("artin_identity") != nontrivial * (m + 1):
        errors.append("%s: artin_identity %r" % (tag, rho.get("artin_identity")))
    if tasks["ascover"].get("results", {}).get("conductor") != m:
        errors.append("%s: conductor %r" % (
            tag, tasks["ascover"].get("results", {}).get("conductor")))
    if tasks["cohomology"].get("results", {}).get("h1_dim") != h1_dim(p, s, m):
        errors.append("%s: h1_dim %r != %d" % (
            tag, tasks["cohomology"].get("results", {}).get("h1_dim"), h1_dim(p, s, m)))
    if point.get("summary", {}).get("ok") is not True:
        errors.append("%s: summary not ok" % tag)
    return errors


def check_selftest(report, npoints):
    errors = []
    if report.get("ok") is not True:
        errors.append("selftest reported not ok")
    points = report.get("points", [])
    if len(points) != npoints:
        errors.append("%d points != %d" % (len(points), npoints))
    for point in points:
        errors.extend(check_selftest_point(point))
    return errors
