"""Exact arithmetic in F_{p^d} and in the Artin local algebras F_{p^d}[eps]/(eps^n).

A field element is an index into the lexicographic enumeration of coefficient
vectors over F_p; the descriptor lazily builds full addition/multiplication
tables (fields in scope have q <= 625), so element operations are table
lookups.  Series and linear-algebra code works on the "raw" representation
directly (ints for fields, tuples of ints for Artin rings) through the
raw_* methods shared by both descriptor types.

This module alone decides how a raw value becomes an element and back:
every element is a RingElem holding (ring, raw), wrapped by
ring.from_raw and unwrapped by x.raw, or by ring.to_raw where the input
may also be an integer; an element of another ring raises RingMismatch.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

# Largest field in scope: addition and multiplication tables take q^2 entries.
MAX_FIELD_SIZE = 625


class NonPrimeP(ValueError):
    pass


class ReducibleModulus(ValueError):
    pass


class NoIrreducibleModulus(ArithmeticError):
    """The search for a monic irreducible polynomial of a given degree
    found none, though one exists in every degree."""


class NotAUnit(ZeroDivisionError):
    pass


def _is_prime(n):
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def _polmod_mul(a, b, modulus, p):
    """Multiply coefficient tuples mod (modulus, p); modulus is monic."""
    d = len(modulus) - 1
    if not any(a) or not any(b):
        return (0,) * d
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    for i in range(len(res) - 1, d - 1, -1):
        c = res[i]
        if c:
            res[i] = 0
            for j in range(d):
                res[i - d + j] = (res[i - d + j] - c * modulus[j]) % p
    res = res[:d] + [0] * (d - len(res))
    return tuple(res[:d])


class RingMismatch(ValueError):
    """An element, series or polynomial of another coefficient ring."""


class Record:
    """Base of the library's immutable value classes: a subclass lists its
    fields in __slots__ and sets them in its own __init__; equality (which
    also compares the class), hash and repr are read off the __slots__ of
    the instance's class.  Nothing assigns a field after __init__.  The
    classes on hot paths, RingElem among them, define their own methods."""
    __slots__ = ()

    def _fields(self):
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self.__slots__))


class RingElem(Record):
    """An element of a coefficient ring: its descriptor and its raw value,
    with the arithmetic of the descriptor's raw_* methods.  Equality also
    compares the class, so a field element never equals an Artin element."""
    __slots__ = ("ring", "raw")

    def __init__(self, ring, raw):
        self.ring = ring
        self.raw = raw

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.raw == other.raw
                and (self.ring is other.ring or self.ring == other.ring))

    def __hash__(self):
        return hash((self.ring, self.raw))

    def __bool__(self):
        return not self.ring.raw_is_zero(self.raw)

    def is_unit(self):
        return self.ring.raw_is_unit(self.raw)

    def _check(self, other):
        if not isinstance(other, RingElem) or (
                self.ring is not other.ring and self.ring != other.ring):
            raise RingMismatch("elements of different rings")

    def __add__(self, other):
        self._check(other)
        return type(self)(self.ring, self.ring.raw_add(self.raw, other.raw))

    def __sub__(self, other):
        self._check(other)
        return type(self)(self.ring, self.ring.raw_sub(self.raw, other.raw))

    def __neg__(self):
        return type(self)(self.ring, self.ring.raw_neg(self.raw))

    def __mul__(self, other):
        self._check(other)
        return type(self)(self.ring, self.ring.raw_mul(self.raw, other.raw))

    def __pow__(self, n):
        return type(self)(self.ring, self.ring.raw_pow(self.raw, n))


class FieldElem(RingElem):
    """An element of F_{p^d}; raw is its index."""
    __slots__ = ()

    @property
    def idx(self):
        return self.raw

    @property
    def coeffs(self):
        return self.ring.idx_to_coeffs(self.raw)

    def frobenius(self, e=1):
        return self.ring.from_raw(self.ring.raw_frobenius(self.raw, e))

    def __repr__(self):
        return "Fq%s" % (list(self.coeffs),)


class ArtinElem(RingElem):
    """An element of F_q[eps]/(eps^n); raw is the tuple of the field
    indices of its eps-components."""
    __slots__ = ()

    @property
    def comps(self):
        return tuple(map(self.ring.base.from_raw, self.raw))

    def residue(self):
        return self.ring.base.from_raw(self.raw[0])

    def reduce(self, m=None):
        """Image under A -> F_q[eps]/(eps^m); m defaults to n-1."""
        if m is None:
            m = self.ring.n - 1
        return make_artin_algebra(self.ring.base, m).from_raw(self.raw[:m])

    def lift(self, ring):
        """Zero-padded lift along ring -> self.ring."""
        if ring.base != self.ring.base or ring.n < self.ring.n:
            raise ValueError("not an extension of the ambient ring")
        return ring.from_raw(self.raw + (0,) * (ring.n - self.ring.n))

    def __repr__(self):
        return "Artin%s" % ([list(c.coeffs) for c in self.comps],)


class RingDescriptor:
    """What both descriptors share: the one place where a raw value becomes
    an element (from_raw) and an input becomes a raw value (to_raw), and
    powers built on raw_mul and raw_inv.  A subclass names its element
    class and supplies the rest of the raw_* methods."""

    def from_raw(self, raw):
        return self.element(self, raw)

    def to_raw(self, x):
        """x as a raw value: an element of this ring unwrapped, an int read
        as an integer, a raw value of this ring (is_raw) kept.  Anything
        else, an element of another ring among them, raises RingMismatch."""
        if isinstance(x, RingElem):
            if x.ring is not self and x.ring != self:
                raise RingMismatch("%r is not an element of %r" % (x, self))
            return x.raw
        if isinstance(x, int):
            return self.raw_from_int(x)
        if not self.is_raw(x):
            raise RingMismatch("%r is not a raw value of %r" % (x, self))
        return x

    def from_int(self, k):
        return self.from_raw(self.raw_from_int(k))

    def zero(self):
        return self.from_raw(self.raw_zero())

    def one(self):
        return self.from_raw(self.raw_one())

    def raw_pow(self, a, n):
        if n < 0:
            a, n = self.raw_inv(a), -n
        result = self.raw_one()
        while n:
            if n & 1:
                result = self.raw_mul(result, a)
            a = self.raw_mul(a, a)
            n >>= 1
        return result


class FieldDescriptor(RingDescriptor):
    """The finite field F_{p^d} given by a monic irreducible modulus over F_p."""

    nilpotency = 1
    element = FieldElem

    def __init__(self, p, d, modulus):
        self.p = p
        self.d = d
        self.modulus = tuple(c % p for c in modulus[:-1]) + (1,)
        self.q = p ** d
        self._tables = None

    def __repr__(self):
        return "GF(%d^%d)" % (self.p, self.d)

    def __eq__(self, other):
        return (isinstance(other, FieldDescriptor)
                and (self.p, self.d, self.modulus) == (other.p, other.d, other.modulus))

    def __hash__(self):
        return hash((self.p, self.d, self.modulus))

    # -- index <-> coefficient vector ----------------------------------------

    def idx_to_coeffs(self, i):
        out = []
        for _ in range(self.d):
            i, r = divmod(i, self.p)
            out.append(r)
        return tuple(out)

    def coeffs_to_idx(self, coeffs):
        i = 0
        for c in reversed(coeffs):
            i = i * self.p + (c % self.p)
        return i

    def tables(self):
        """(add, mul, neg, inv, frob, frob_inv) on indices.  mul, inv and
        Frobenius are read off the discrete logarithms to a primitive
        element g, whose q - 1 powers take q - 1 products; add and neg
        work digit by digit in base p, the low digit the constant term."""
        if self._tables is None:
            p, q = self.p, self.q
            exp = self._primitive_powers()
            n = q - 1
            log = [0] * q
            for k, i in enumerate(exp):
                log[i] = k
            logs = log[1:]
            exp2 = exp + exp
            mul = [[0] * q]
            for i in range(1, q):
                row = exp2[log[i]:log[i] + n]
                mul.append([0, *map(row.__getitem__, logs)])
            inv = [0] + [exp[-k % n] for k in logs]
            frob = [0] + [exp[p * k % n] for k in logs]
            frob_inv = [0] * q
            for i in range(q):
                frob_inv[frob[i]] = i
            digit_add = [[(a + b) % p for b in range(p)] for a in range(p)]
            digit_neg = [-a % p for a in range(p)]
            add, neg = digit_add, digit_neg
            for _ in range(self.d - 1):
                # one more low digit: entry (a + p i, b + p j) is
                # digit_add[a][b] + p add[i][j]
                add = [[lo + hi for hi in [p * t for t in row] for lo in digits]
                       for row in add for digits in digit_add]
                neg = [lo + p * hi for hi in neg for lo in digit_neg]
            self._tables = (add, mul, neg, inv, frob, frob_inv)
        return self._tables

    def _primitive_powers(self):
        """[g^0, ..., g^(q-2)] as indices, for the first g in index order
        whose powers reach every unit."""
        p, q, modulus = self.p, self.q, self.modulus
        for g in range(1, q):
            gv = self.idx_to_coeffs(g)
            powers, x = [1], 1
            while True:
                x = self.coeffs_to_idx(_polmod_mul(self.idx_to_coeffs(x), gv, modulus, p))
                if x == 1:
                    break
                powers.append(x)
            if len(powers) == q - 1:
                return powers
        raise ArithmeticError("GF(%d^%d) has no primitive element" % (p, self.d))

    # -- raw interface (ints) -------------------------------------------------

    def is_raw(self, x):
        return isinstance(x, int) and 0 <= x < self.q

    def raw_zero(self):
        return 0

    def raw_one(self):
        return 1

    def raw_from_int(self, k):
        return k % self.p

    def raw_add(self, a, b):
        return self.tables()[0][a][b]

    def raw_sub(self, a, b):
        t = self.tables()
        return t[0][a][t[2][b]]

    def raw_neg(self, a):
        return self.tables()[2][a]

    def raw_mul(self, a, b):
        return self.tables()[1][a][b]

    def raw_inv(self, a):
        if a == 0:
            raise NotAUnit("zero is not invertible")
        return self.tables()[3][a]

    def raw_frobenius(self, a, e=1):
        frob = self.tables()[4]
        for _ in range(e % self.d):
            a = frob[a]
        return a

    def raw_p_root(self, a, e=1):
        frob_inv = self.tables()[5]
        for _ in range(e % self.d):
            a = frob_inv[a]
        return a

    def raw_is_zero(self, a):
        return a == 0

    def raw_is_unit(self, a):
        return a != 0

    def raw_to_vector(self, a):
        """The coefficient vector of a raw element, as a JSON list."""
        return list(self.idx_to_coeffs(a))

    def raw_from_vector(self, v):
        if len(v) > self.d or not all(type(c) is int and 0 <= c < self.p for c in v):
            raise RingMismatch("%r is not a coefficient vector of %r" % (v, self))
        return self.coeffs_to_idx(v)

    # -- public elements ------------------------------------------------------

    def elem(self, coeffs):
        """The element with the given coefficient vector over F_p; an
        element of this field comes back unchanged."""
        if isinstance(coeffs, RingElem):
            return self.from_raw(self.to_raw(coeffs))
        coeffs = list(coeffs)
        if len(coeffs) > self.d:
            raise ValueError("coefficient vector longer than degree %d" % self.d)
        if not all(isinstance(c, int) for c in coeffs):
            raise TypeError("integer coefficients required")
        coeffs = coeffs + [0] * (self.d - len(coeffs))
        return self.from_raw(self.coeffs_to_idx(coeffs))

    def gen(self):
        if self.d == 1:
            return self.from_int(-self.modulus[0])
        return self.from_raw(self.p)  # the class of x

    def elements(self):
        return [self.from_raw(i) for i in range(self.q)]


# -- field construction -------------------------------------------------------

def _poly_trim(a, p):
    a = [c % p for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mod(r, modulus, p):
    r = list(r)
    m = list(modulus)
    while True:
        r = _poly_trim(r, p)
        if len(r) < len(m):
            return r
        lead = r[-1] % p  # modulus is monic
        shift = len(r) - len(m)
        for i, c in enumerate(m):
            r[shift + i] = (r[shift + i] - lead * c) % p


def _is_irreducible(coeffs, p):
    """Whether a monic polynomial over F_p is irreducible, by trial division
    by every monic polynomial of degree 1 to d/2.  Fields in scope have
    d <= 6 and p^d <= 625, so that is at most 30 divisors."""
    d = len(coeffs) - 1
    return d >= 1 and all(_poly_mod(coeffs, low + (1,), p)
                          for k in range(1, d // 2 + 1)
                          for low in itertools.product(range(p), repeat=k))


@lru_cache(maxsize=None)
def _default_modulus(p, d):
    """The first monic irreducible of degree d, its low coefficients in
    lexicographic order."""
    for low in itertools.product(range(p), repeat=d):
        if _is_irreducible(low + (1,), p):
            return low + (1,)
    raise NoIrreducibleModulus("no irreducible of degree %d mod %d" % (d, p))


@lru_cache(maxsize=None)
def _field_cache(p, d, modulus):
    return FieldDescriptor(p, d, modulus)


def make_field(p, d=1, modulus=None):
    if d < 1:
        raise ValueError("d must be >= 1")
    if d > 6:
        raise ValueError("extension degrees above 6 are out of scope")
    if p ** d > MAX_FIELD_SIZE:
        raise ValueError("q = %d^%d is above the supported %d" % (p, d, MAX_FIELD_SIZE))
    if not _is_prime(p):
        raise NonPrimeP("p = %r is not prime" % (p,))
    if modulus is None:
        modulus = _default_modulus(p, d)
    else:
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != d + 1 or modulus[-1] != 1:
            raise ReducibleModulus("modulus must be monic of degree d")
        if not _is_irreducible(modulus, p):
            raise ReducibleModulus("modulus %r is reducible over F_%d" % (modulus, p))
    return _field_cache(p, d, modulus)


# -- Artin local algebras -----------------------------------------------------

class ArtinAlgebraDescriptor(RingDescriptor):
    """A = F_q[eps]/(eps^n).  n = 1 is the field itself (still wrapped).

    Raw elements are length-n tuples of field indices.
    """

    element = ArtinElem

    def __init__(self, base, n):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.base = base
        self.n = n
        self.p = base.p
        self.nilpotency = n
        self._bt = base.tables()

    def __repr__(self):
        return "%r[eps]/(eps^%d)" % (self.base, self.n)

    def __eq__(self, other):
        return (isinstance(other, ArtinAlgebraDescriptor)
                and self.base == other.base and self.n == other.n)

    def __hash__(self):
        return hash((self.base, self.n))

    # -- raw interface (tuples of ints) ---------------------------------------

    def is_raw(self, x):
        return (isinstance(x, tuple) and len(x) == self.n
                and all(map(self.base.is_raw, x)))

    def raw_zero(self):
        return (0,) * self.n

    def raw_one(self):
        return (1,) + (0,) * (self.n - 1)

    def raw_eps(self):
        if self.n < 2:
            return self.raw_zero()
        return (0, 1) + (0,) * (self.n - 2)

    def raw_from_int(self, k):
        return (k % self.p,) + (0,) * (self.n - 1)

    def raw_add(self, a, b):
        add = self._bt[0]
        return tuple(add[x][y] for x, y in zip(a, b))

    def raw_sub(self, a, b):
        t = self._bt
        add, neg = t[0], t[2]
        return tuple(add[x][neg[y]] for x, y in zip(a, b))

    def raw_neg(self, a):
        neg = self._bt[2]
        return tuple(neg[x] for x in a)

    def raw_mul(self, a, b):
        t = self._bt
        add, mul = t[0], t[1]
        n = self.n
        if n == 2:
            a0, a1 = a
            b0, b1 = b
            return (mul[a0][b0], add[mul[a0][b1]][mul[a1][b0]])
        res = [0] * n
        for i, x in enumerate(a):
            if x:
                for j in range(n - i):
                    y = b[j]
                    if y:
                        res[i + j] = add[res[i + j]][mul[x][y]]
        return tuple(res)

    def raw_inv(self, a):
        if a[0] == 0:
            raise NotAUnit("element lies in the maximal ideal")
        c0inv = (self.base.raw_inv(a[0]),) + (0,) * (self.n - 1)
        # a = c0 (1 + nil);  1/a = c0^{-1} sum (-nil)^k
        nil = self.raw_sub(self.raw_mul(a, c0inv), self.raw_one())
        acc = self.raw_one()
        term = self.raw_one()
        for _ in range(self.n - 1):
            term = self.raw_neg(self.raw_mul(term, nil))
            acc = self.raw_add(acc, term)
        return self.raw_mul(c0inv, acc)

    def raw_is_zero(self, a):
        return not any(a)

    def raw_is_unit(self, a):
        return a[0] != 0

    def raw_residue(self, a):
        return a[0]

    def raw_to_vector(self, a):
        """The coefficient vectors of the eps-components, as JSON lists."""
        return [self.base.raw_to_vector(i) for i in a]

    def raw_from_vector(self, v):
        if len(v) > self.n:
            raise RingMismatch("%r has more than %d eps-components" % (v, self.n))
        raw = tuple(map(self.base.raw_from_vector, v))
        return raw + (0,) * (self.n - len(raw))

    # -- public elements ------------------------------------------------------

    def elem(self, comps):
        """The element with the given eps-components, elements of the base
        field, the missing ones zero."""
        comps = list(comps)
        if len(comps) > self.n:
            raise ValueError("too many eps-components")
        raw = tuple(map(self.base.to_raw, comps))
        return self.from_raw(raw + (0,) * (self.n - len(comps)))

    def include(self, x):
        return self.elem([x])

    def eps(self):
        return self.from_raw(self.raw_eps())

    def small_extension(self):
        """A' = F_q[eps]/(eps^{n+1}), the canonical small extension onto A."""
        return make_artin_algebra(self.base, self.n + 1)

    def elements(self):
        return [self.from_raw(raw)
                for raw in itertools.product(range(self.base.q), repeat=self.n)]


@lru_cache(maxsize=None)
def make_artin_algebra(base, n):
    """F_q[eps]/eps^n over the field base, one descriptor per (base, n), as
    make_field keeps one per field."""
    return ArtinAlgebraDescriptor(base, n)


# -- generic helpers ----------------------------------------------------------

def p_power_root(x, e=1):
    """The unique y with y^{p^e} = x, by iterating the inverse Frobenius."""
    if not isinstance(x, FieldElem):
        raise TypeError("p-power roots are only defined over fields")
    return x.ring.from_raw(x.ring.raw_p_root(x.raw, e))


def ring_is_field(ring):
    return isinstance(ring, FieldDescriptor)
