"""Truncated Laurent series: ring operations, inversion, composition,
reversion and Weierstrass preparation."""

import random
import sys
import threading
import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from wildram import series
from wildram.autoreps import build_rho
from wildram.coeffring import (
    RingMismatch,
    make_artin_algebra,
    make_field,
    ring_is_field,
)
from wildram.series import (
    INF,
    CompositionDiverges,
    DistinguishedPolynomial,
    InverseNotFinite,
    LaurentSeries,
    NotAUnitSeries,
    NotConverged,
    NotReversible,
    ValuationOfZero,
    compose,
    holomorphic_part,
    invert_unit_series,
    pole_part,
    revert,
    weierstrass_prepare,
)

from conftest import character_for, small_grid

F5 = make_field(5)
F4 = make_field(2, 2)
F9 = make_field(3, 2)
F4_EPS2 = make_artin_algebra(F4, 2)
F9_EPS3 = make_artin_algebra(F9, 3)


def series_strategy(field, lo=-3, hi=8, prec=10):
    exps = st.lists(st.integers(lo, hi), max_size=6, unique=True)
    return exps.flatmap(
        lambda es: st.tuples(
            st.just(es),
            st.lists(st.integers(1, field.q - 1), min_size=len(es), max_size=len(es)),
        )
    ).map(lambda ec: LaurentSeries(field, dict(zip(*ec)), prec))


@st.composite
def ring_series(draw, ring, lo=-3, hi=8):
    """A series over a field or an Artin ring with reduced valuation v in
    [lo, hi]: a unit at t^v, arbitrary terms above it, nilpotent terms below
    it (Artin rings only), and a finite or INF precision that may cut any of
    these off."""
    field = ring_is_field(ring)
    q = ring.q if field else ring.base.q
    comp = st.integers(0, q - 1)
    unit = st.integers(1, q - 1)
    v = draw(st.integers(lo, hi))
    if field:
        terms = draw(st.dictionaries(st.integers(v + 1, hi + 2), comp, max_size=6))
        terms[v] = draw(unit)
    else:
        rest = [comp] * (ring.n - 1)
        terms = draw(st.dictionaries(st.integers(v + 1, hi + 2),
                                     st.tuples(comp, *rest), max_size=6))
        terms[v] = draw(st.tuples(unit, *rest))
        terms.update(draw(st.dictionaries(st.integers(v - 4, v - 1),
                                          st.tuples(st.just(0), *rest), max_size=3)))
    prec = draw(st.one_of(st.just(INF), st.integers(v - 2, hi + 6)))
    return LaurentSeries(ring, terms, prec)


def schoolbook_mul(a, b):
    """Reference product, one raw_mul/raw_add per pair of terms: the nonzero
    coefficients and the precision min(a.prec + b.lead, b.prec + a.lead),
    or INF when both factors are exact."""
    r = a.ring
    if a.prec >= INF and b.prec >= INF:
        prec = INF
    else:
        prec = min(a.prec + b.lead, b.prec + a.lead)
    out = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            e = e1 + e2
            if e < prec:
                out[e] = r.raw_add(out.get(e, r.raw_zero()), r.raw_mul(c1, c2))
    return {e: c for e, c in out.items() if not r.raw_is_zero(c)}, prec


KERNEL_KINDS = ("wide", "strided", "dense")


def kernel_operand(rng, ring, kind, stride=None, exact=False):
    """An operand for the product's paths: 'wide', 1 to 40 terms spread over
    twenty thousand exponents; 'strided', 2 to 25 terms at a + g k, g the
    given stride or one in 2..7; 'dense', 40 to 60 terms among 70
    exponents.  Over F_q[eps]/eps^n the parts are of unequal sparsity: a
    term has a nonzero eps^0, eps^1, eps^2 component with probability 0.9,
    0.5, 0.25, and some terms are nilpotent.  The precision is INF, and
    unless exact it may cut into the terms."""
    field = ring_is_field(ring)
    q = ring.q if field else ring.base.q
    if kind == "wide":
        exps = rng.sample(range(-40, 20000), rng.randint(1, 40))
    elif kind == "strided":
        g, a = stride or rng.randint(2, 7), rng.randint(-6, 6)
        exps = [a + g * k for k in rng.sample(range(30), rng.randint(2, 25))]
    else:
        lo = rng.randint(-10, 10)
        exps = rng.sample(range(lo, lo + 70), rng.randint(40, 60))

    def coeff():
        if field:
            return rng.randrange(1, q)
        while True:
            c = tuple(rng.randrange(1, q) if rng.random() < (0.9, 0.5, 0.25)[i]
                      else 0 for i in range(ring.n))
            if any(c):
                return c

    prec = INF if exact or rng.random() < 0.5 else \
        rng.randint(min(exps) + 1, max(exps) + 3)
    return LaurentSeries(ring, {e: coeff() for e in exps}, prec)


@pytest.mark.parametrize("ring", [F5, F4, F9, F4_EPS2, F9_EPS3],
                         ids=["F5", "F4", "F9", "F4_eps2", "F9_eps3"])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_mul_matches_schoolbook(ring, data):
    """Random series of every reduced valuation, and operands for each
    path of the product: wide and sparse, strided, and dense."""
    operands = []
    for _ in range(2):
        kind = data.draw(st.sampled_from((None,) + KERNEL_KINDS))
        if kind is None:
            operands.append(data.draw(ring_series(ring)))
        else:
            operands.append(kernel_operand(data.draw(st.randoms()), ring, kind))
    a, b = operands
    prod = a * b
    assert (prod.coeffs, prod.prec) == schoolbook_mul(a, b)


def product_paths(ring, monkeypatch):
    """(kind, stride, paths taken) for six products of exact operands of
    each kind, 20 or more terms a factor; every product equals
    schoolbook_mul.  A path taken is its name and, on the dense path, the
    step of its slots."""
    taken = []
    for name in ("_sparse_product", "_dense_product"):
        def counted(*args, _run=getattr(series, name), _name=name):
            taken.append((_name, args[5] if _name == "_dense_product" else None))
            return _run(*args)
        monkeypatch.setattr(series, name, counted)
    rng = random.Random(21)
    out = []
    for kind in ("wide", "dense", "strided"):
        for _ in range(6):
            g = rng.randint(2, 7)
            a = b = None
            while a is None or min(len(a.coeffs), len(b.coeffs)) < 20:
                a, b = (kernel_operand(rng, ring, kind, g, exact=True)
                        for _ in range(2))
            taken.clear()
            prod = a * b
            assert (prod.coeffs, prod.prec) == schoolbook_mul(a, b)
            out.append((kind, g, list(taken)))
    return out


@pytest.mark.parametrize("ring", [F5, F9], ids=["F5", "F9"])
def test_each_product_path_runs(ring, monkeypatch):
    """Over a field, wide operands, enough pairs to weigh a row but too
    wide for one, take the sparse path; dense ones the dense path; strided
    ones the dense path over slots compressed by their stride."""
    want = {"wide": "_sparse_product", "dense": "_dense_product",
            "strided": "_dense_product"}
    for kind, g, taken in product_paths(ring, monkeypatch):
        assert [t[0] for t in taken] == [want[kind]]
        if kind == "strided":
            assert taken[0][1] % g == 0


@pytest.mark.parametrize("ring", [F4_EPS2, F9_EPS3], ids=["F4_eps2", "F9_eps3"])
def test_eps_graded_products_never_go_dense(ring, monkeypatch):
    """The operands of test_each_product_path_runs over F_q[eps]/eps^n,
    whose dense and strided products a crossover of 3.6 slots a pair sent
    to a dense row per power of eps, all take the sparse path."""
    for _, _, taken in product_paths(ring, monkeypatch):
        assert taken == [("_sparse_product", None)]


@pytest.mark.parametrize("ring", [F5, F9_EPS3], ids=["F5", "F9_eps3"])
def test_a_wide_product_allocates_nothing_over_its_span(ring):
    """(t + t^N)^2 with N = 10^6: a dense row per power of eps over the
    2N exponents of its span would take 8 MB and more; the product's peak
    allocation stays under 1 MB."""
    one = ring.raw_one()
    x = LaurentSeries(ring, {1: one, 10 ** 6: one}, INF)
    tracemalloc.start()
    try:
        prod = x * x
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (prod.coeffs, prod.prec) == schoolbook_mul(x, x)
    assert peak < 10 ** 6


def check_ring_laws(a, b, c):
    assert ((a + b) - b).eq_to_prec(a)
    assert (a * (b + c)).eq_to_prec(a * b + a * c)
    assert ((a * b) * c).eq_to_prec(a * (b * c))


@given(series_strategy(F5), series_strategy(F5), series_strategy(F5))
@settings(max_examples=80, deadline=None)
def test_ring_laws(a, b, c):
    check_ring_laws(a, b, c)


@given(ring_series(F9_EPS3), ring_series(F9_EPS3), ring_series(F9_EPS3))
@settings(max_examples=80, deadline=None)
def test_ring_laws_artin(a, b, c):
    check_ring_laws(a, b, c)


@given(series_strategy(F5))
@settings(max_examples=60, deadline=None)
def test_derivative_leibniz(a):
    b = a.shift(1)
    lhs = (a * b).derivative()
    rhs = a.derivative() * b + a * b.derivative()
    assert lhs == rhs.truncate(lhs.prec)


def test_invert_exact_geometric():
    a = LaurentSeries.make(F5, {0: 1, 1: 4}, 12)  # 1 - t
    inv = invert_unit_series(a)
    for e in range(inv.prec):
        assert inv.coeff(e) == 1  # 1/(1-t) = sum t^e


@given(series_strategy(F5))
@settings(max_examples=60, deadline=None)
def test_invert_roundtrip(a):
    if a.is_zero():
        return
    inv = invert_unit_series(a)
    prod = a * inv
    one = LaurentSeries.one(F5, prod.prec)
    assert prod == one


def test_invert_rejects_nonunit():
    A = make_artin_algebra(F5, 2)
    eps = A.eps()
    s = LaurentSeries.make(A, {0: eps}, 8)
    with pytest.raises(NotAUnitSeries):
        invert_unit_series(s)


def test_invert_refuses_exact_series_with_infinite_inverse(monkeypatch):
    """1/(1 + t) over F5 has infinitely many terms: an exact input is
    refused before any product is formed, instead of growing forever."""
    def no_products(a, b):
        raise RuntimeError("a product was formed before the refusal")
    monkeypatch.setattr(LaurentSeries, "__mul__", no_products)
    for a in (LaurentSeries.make(F5, {0: 1, 1: 1}, INF),
              LaurentSeries.make(F9_EPS3, {-1: (1, 0, 0), 3: (2, 1, 0)}, INF)):
        with pytest.raises(InverseNotFinite):
            invert_unit_series(a)


def test_invert_exact_series_with_finite_inverse():
    """Exact monomials invert, and so do exact inputs whose non-leading
    terms are nilpotent: the inverse is then a finite geometric sum."""
    mono = invert_unit_series(LaurentSeries.make(F5, {2: 3}, INF))
    assert (mono.coeffs, mono.prec) == ({-2: 2}, INF)
    A = make_artin_algebra(F5, 2)
    eps = A.eps()
    a = LaurentSeries.make(A, {0: A.one(), 1: eps}, INF)
    inv = invert_unit_series(a)
    assert inv == LaurentSeries.make(A, {0: A.one(), 1: -eps}, INF)
    b = LaurentSeries.make(F9_EPS3, {-2: (0, 1, 0), 0: (1, 0, 0)}, INF)
    inv = invert_unit_series(b)
    assert inv.prec == INF
    assert (b * inv).coeffs == LaurentSeries.one(F9_EPS3).coeffs


def test_exact_times_exact_is_exact():
    """A product of two exact series is exact: (1 + eps t^-2) times its
    exact inverse over F_9[eps]/eps^3 is the exact one, not a series known
    to INF + lead."""
    b = LaurentSeries.make(F9_EPS3, {-2: (0, 1, 0), 0: (1, 0, 0)}, INF)
    prod = b * invert_unit_series(b)
    assert prod.prec == INF
    assert prod == LaurentSeries.one(F9_EPS3)


def test_invert_with_nilpotent_terms_below_lead():
    """Inverting t^m + eps*(lower terms) must terminate and be correct;
    the certified precision may be a little below the naive bound."""
    for n in (2, 3):
        A = make_artin_algebra(F5, n)
        eps = A.eps()
        for m in (2, 3, 4):
            s = LaurentSeries.make(A, {m: A.one(), 0: eps * A.from_int(3),
                                       1: eps * A.from_int(2)}, 30)
            inv = invert_unit_series(s)
            assert inv.prec >= 30 - 2 * m - 2 * (n - 1) * m
            prod = s * inv
            assert prod == LaurentSeries.one(A, prod.prec)


def test_pole_and_holomorphic_split():
    a = LaurentSeries.make(F5, {-2: 3, -1: 1, 0: 2, 3: 4}, 6)
    assert sorted(pole_part(a).coeffs) == [-2, -1]
    assert sorted(holomorphic_part(a).coeffs) == [0, 3]
    assert (pole_part(a) + holomorphic_part(a)).eq_to_prec(a)


def test_compose_linear_fractional():
    # f(t) = 1/t composed with g(t) = t/(1+t): f(g) = (1+t)/t = 1/t + 1
    f = LaurentSeries.t_power(F5, -1, 10)
    g = LaurentSeries.make(F5, {1: 1}, 12) * invert_unit_series(
        LaurentSeries.make(F5, {0: 1, 1: 1}, 12))
    h = compose(f, g)
    assert h.coeff(-1) == 1 and h.coeff(0) == 1
    assert all(h.coeff(e) == 0 for e in range(1, h.prec))


@given(series_strategy(F5, lo=2, hi=6))
@settings(max_examples=40, deadline=None)
def test_compose_is_substitution_on_powers(inner0):
    inner = LaurentSeries.make(F5, {1: 1}, 10) + inner0
    outer = LaurentSeries.make(F5, {2: 3, 5: 1}, 10)
    direct = inner.pow(2).scale(F5.from_int(3)) + inner.pow(5)
    got = compose(outer, inner)
    assert got == direct.truncate(got.prec)


def dense_compose(outer, inner):
    """Reference composition by dense Horner: one product per exponent of
    outer, from its top exponent down to 0 in powers of inner and from its
    lowest exponent up to -1 in powers of 1/inner.  An accumulator that a
    product has left with no known term is still multiplied, since the
    precision it carries is all that is known of it."""
    r = outer.ring
    if inner.is_zero():
        if outer.lead < 0:
            raise CompositionDiverges("inner series is zero")
        return LaurentSeries(r, {0: outer.coeff(0)}, inner.prec)
    try:
        rv = inner.reduced_valuation()
    except ValuationOfZero:
        raise CompositionDiverges("inner reduces to zero")
    if rv < 1:
        raise CompositionDiverges("inner valuation must be >= 1")
    nil = r.nilpotency
    if outer.prec >= INF:
        cap = INF
    else:
        cap = (outer.prec - (nil - 1)) * rv + (nil - 1) * min(inner.lead, rv)
    hi = min(outer.prec - 1, max(outer.coeffs) if outer.coeffs else -1)
    lo = outer.lead if outer.coeffs else 0
    acc = LaurentSeries.zero(r)
    for k in range(hi, -1, -1):
        acc = acc * inner
        c = outer.coeff(k)
        if not r.raw_is_zero(c):
            acc = acc + LaurentSeries(r, {0: c}, INF)
    result = acc
    if lo < 0:
        inv = invert_unit_series(inner)
        accn = LaurentSeries.zero(r)
        for k in range(lo, 0):
            if k > lo:
                accn = accn * inv
            c = outer.coeff(k)
            if not r.raw_is_zero(c):
                accn = accn + LaurentSeries(r, {0: c}, INF)
        accn = accn * inv
        result = result + accn
    return result.truncate(cap)


@st.composite
def sparse_outer(draw, ring):
    """A sparse outer series: up to six nonzero terms from t^start on, gaps
    of 1 to 6 between them, poles allowed, finite or INF precision."""
    field = ring_is_field(ring)
    q = ring.q if field else ring.base.q
    coeff = st.integers(1, q - 1) if field else st.tuples(
        *[st.integers(0, q - 1)] * ring.n).filter(any)
    exps = [draw(st.integers(-12, 4))]
    for gap in draw(st.lists(st.integers(1, 6), max_size=5)):
        exps.append(exps[-1] + gap)
    terms = {e: draw(coeff) for e in exps}
    prec = draw(st.one_of(st.just(INF), st.integers(exps[0] - 1, exps[-1] + 4)))
    return LaurentSeries(ring, terms, prec)


@pytest.mark.parametrize("ring", [F5, F9, F4_EPS2, F9_EPS3],
                         ids=["F5", "F9", "F4_eps2", "F9_eps3"])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_compose_matches_dense_horner(ring, data):
    outer = data.draw(sparse_outer(ring))
    inner = data.draw(ring_series(ring, lo=1, hi=6))
    if outer.lead < 0 and inner.prec >= INF:
        # 1/inner is exact only for a monomial, so poles meet a finite inner
        inner = inner.truncate(data.draw(st.integers(inner.lead + 1, 14)))
    try:
        want = dense_compose(outer, inner)
    except (CompositionDiverges, NotConverged) as exc:
        with pytest.raises(type(exc)):
            compose(outer, inner)
        return
    got = compose(outer, inner)
    assert (got.coeffs, got.prec) == (want.coeffs, want.prec)


@pytest.mark.parametrize("ring", [F5, F9, F4_EPS2, F9_EPS3],
                         ids=["F5", "F9", "F4_eps2", "F9_eps3"])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_compose_shares_one_inner_across_outers(ring, data):
    """Three outers composed in turn with one inner object: the later ones
    read powers the earlier ones put in its table, and each result equals
    dense Horner's, coefficients and precision alike."""
    outers = [data.draw(sparse_outer(ring)) for _ in range(3)]
    inner = data.draw(ring_series(ring, lo=1, hi=6))
    if inner.prec >= INF and any(o.lead < 0 for o in outers):
        inner = inner.truncate(data.draw(st.integers(inner.lead + 1, 14)))
    for outer in outers:
        try:
            want = dense_compose(outer, inner)
        except (CompositionDiverges, NotConverged) as exc:
            with pytest.raises(type(exc)):
                compose(outer, inner)
            continue
        got = compose(outer, inner)
        assert (got.coeffs, got.prec) == (want.coeffs, want.prec)


def test_constant_outer_keeps_the_precision_of_zero_times_inner():
    """Dense Horner multiplies its zero accumulator by inner once, so over an
    inexact inner with a nilpotent t^-1 term a constant outer is known to
    INF - 1, not INF, also once the inner's table holds powers."""
    A = make_artin_algebra(F5, 2)
    inner = LaurentSeries.make(A, {-1: A.eps(), 1: 1}, 9)
    for outer in [LaurentSeries.make(A, {-1: 1, 2: 1}),
                  LaurentSeries.make(A, {0: 3})]:
        got, want = compose(outer, inner), dense_compose(outer, inner)
        assert (got.coeffs, got.prec) == (want.coeffs, want.prec)
    assert got.prec == INF - 1


@pytest.mark.parametrize("p,s,m", small_grid())
def test_compose_rho_pairs_match_dense_horner(p, s, m):
    ch = character_for(p, s, m)
    rhos = [build_rho(ch, g) for g in ch.group()]
    for a in rhos:
        for b in rhos:
            got, want = compose(a, b), dense_compose(a, b)
            assert (got.coeffs, got.prec) == (want.coeffs, want.prec)


def test_compose_rho_product_count(monkeypatch):
    """rho has 9 nonzero terms below t^400 at (5,2,19), with gaps 19 and 76
    between them: two powers of inner and one product per term, not one
    product per exponent."""
    ch = character_for(5, 2, 19)
    a, b = (build_rho(ch, ch.generator(i), 400) for i in (1, 2))
    calls = []
    mul = LaurentSeries.__mul__

    def counted(x, y):
        calls.append(1)
        return mul(x, y)

    monkeypatch.setattr(LaurentSeries, "__mul__", counted)
    compose(a, b)
    assert len(calls) <= 40


def test_threads_growing_one_table_match_dense_horner():
    """Four threads compose every rho at (5,2,3) with one fresh inner under
    a short switch interval, so that they grow its table of powers at once:
    no thread raises and every result equals dense Horner's."""
    ch = character_for(5, 2, 3)
    rho = build_rho(ch, ch.generator(2), 80)
    inner = LaurentSeries(ch.field, rho.coeffs, rho.prec)
    outers = [build_rho(ch, g, 80) for g in ch.group()]
    want = [dense_compose(o, inner) for o in outers]
    got, errors = [], []

    def work(k):
        try:
            for i in range(len(outers)):
                j = (i + 7 * k) % len(outers)
                got.append((j, compose(outers[j], inner)))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(got) == 4 * len(outers)
    for j, x in got:
        assert (x.coeffs, x.prec) == (want[j].coeffs, want[j].prec)


def test_compose_multiplies_an_accumulator_with_no_known_term():
    """(t + eps + O(t^2))^(-4) = t^-4 - 4 eps t^-5 + ...: 1/inner is known
    only to O(t^-2), so every product of the chain keeps lowering the
    precision, also once nothing of the accumulator is known."""
    A = make_artin_algebra(F5, 2)
    eps = A.eps()
    inner = LaurentSeries.make(A, {1: 1, 0: eps}, 2)
    exact = LaurentSeries.make(A, {-4: 1, -5: eps * A.from_int(-4)})
    got = compose(LaurentSeries.t_power(A, -4), inner)
    assert got.eq_to_prec(exact)


F5_EPS2 = make_artin_algebra(F5, 2)
F5_EPS3 = make_artin_algebra(F5, 3)
F9_EPS2 = make_artin_algebra(F9, 2)
MIXED_RINGS = [F5_EPS2, F5_EPS3, F9_EPS2, F9_EPS3]
MIXED_IDS = ["F5_eps2", "F5_eps3", "F9_eps2", "F9_eps3"]


@pytest.mark.parametrize("ring", MIXED_RINGS, ids=MIXED_IDS)
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_compose_with_a_residue_field_inner_matches_the_lifted_inner(ring, data):
    """An inner over the residue field of the outer's ring gives what its
    zero-padded lift gives, coefficients and precision, over sparse outers
    with poles and finite or INF precision, two outers per inner so that
    the second reads the table the first filled."""
    inner = data.draw(ring_series(ring.base, lo=1, hi=6))
    outers = [data.draw(sparse_outer(ring)) for _ in range(2)]
    if inner.prec >= INF and any(o.lead < 0 for o in outers):
        inner = inner.truncate(data.draw(st.integers(inner.lead + 1, 14)))
    lifted = inner.lift_ring(ring)
    for outer in outers:
        try:
            want = compose(outer, lifted)
        except (CompositionDiverges, NotConverged) as exc:
            with pytest.raises(type(exc)):
                compose(outer, inner)
            continue
        got = compose(outer, inner)
        assert got.ring == ring
        assert (got.coeffs, got.prec) == (want.coeffs, want.prec)


@pytest.mark.parametrize("ring", [F5_EPS3, F9_EPS3, make_artin_algebra(F5, 4)],
                         ids=["F5_eps3", "F9_eps3", "F5_eps4"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_reduce_is_the_ring_map_to_a_lower_eps_order(ring, data):
    """reduce(k) keeps the eps-components below k, over F_q[eps]/eps^k or
    the residue field for k = 1, at the same precision, and is
    multiplicative where both products are known."""
    a, b = (data.draw(ring_series(ring)) for _ in range(2))
    assert a.reduce(1) == a.residue()
    for k in range(1, ring.n):
        red = a.reduce(k)
        assert red.ring is (ring.base if k == 1 else make_artin_algebra(ring.base, k))
        assert red.prec == a.prec
        assert red.lift_ring(ring) == LaurentSeries(
            ring, {e: c[:k] + (0,) * (ring.n - k) for e, c in a.coeffs.items()}, a.prec)
        assert (a * b).reduce(k).eq_to_prec(red * b.reduce(k))


def test_compose_refuses_an_inner_over_another_ring():
    rho = LaurentSeries.make(F5, {1: 1, 3: 2}, 9)
    for outer, inner in [(LaurentSeries.make(F5, {-1: 1}, 9), rho.lift_ring(F5_EPS2)),
                         (LaurentSeries.make(F9_EPS2, {-1: 1}, 9), rho),
                         (LaurentSeries.make(F9_EPS3, {-1: 1}, 9),
                          rho.lift_ring(F5_EPS2))]:
        with pytest.raises(RingMismatch):
            compose(outer, inner)


def assert_clean(s):
    """The series invariant: no zero raw value stored, no term at or above
    the precision."""
    assert not any(s.ring.raw_is_zero(c) for c in s.coeffs.values())
    assert all(e < s.prec for e in s.coeffs)


@pytest.mark.parametrize("prec,want", [(INF, {1: 4, 3: 2, 4: 1}), (3, {1: 4})],
                         ids=["exact", "cut_at_3"])
def test_compose_drops_a_cancelled_exponent(prec, want):
    """(t^2 - t) o (t + t^2) = -t + 2t^3 + t^4 over F_5: the t^2 terms of
    the two powers cancel, and an outer known to O(t^3) keeps no t^3 or
    t^4 term."""
    outer = LaurentSeries.make(F5, {2: 1, 1: -1}, prec)
    inner = LaurentSeries.make(F5, {1: 1, 2: 1})
    got = compose(outer, inner)
    assert_clean(got)
    assert (got.coeffs, got.prec) == (want, prec)
    want = dense_compose(outer, inner)
    assert (got.coeffs, got.prec) == (want.coeffs, want.prec)


@pytest.mark.parametrize("lifted", [False, True], ids=["field_inner", "lifted_inner"])
def test_compose_cancels_one_eps_component(lifted):
    """Over F_9[eps]/eps^3, ((1 + eps) t^2 - t) o (t + t^2) cancels the
    eps^0 component of t^2 and keeps eps t^2; ((1 + eps) t^2 - (1 + eps) t)
    o (t + t^2) cancels every component, and t^2 is absent."""
    neg_one = F9_EPS3.raw_neg(F9_EPS3.raw_one())
    a = (1, 1, 0)
    inner = LaurentSeries.make(F9, {1: 1, 2: 1}, 12)
    if lifted:
        inner = inner.lift_ring(F9_EPS3)
    for terms, t2 in [({2: a, 1: neg_one}, (0, 1, 0)),
                      ({2: a, 1: F9_EPS3.raw_neg(a)}, None)]:
        outer = LaurentSeries(F9_EPS3, terms, 10)
        got = compose(outer, inner)
        assert_clean(got)
        assert got.coeffs.get(2) == t2
        want = dense_compose(outer, inner.lift_ring(F9_EPS3))
        assert (got.coeffs, got.prec) == (want.coeffs, want.prec)


def test_a_warm_table_makes_only_the_missing_products(monkeypatch):
    """A second outer with the exponents of the first reads every power
    from the inner's table and makes no product; an outer with one new
    exponent makes one product per power the table lacks: t^7 is t^4 t^3,
    and then t^10 is t^7 t^3."""
    inner = LaurentSeries.make(F5, {1: 1, 2: 3, 5: 2}, 30)
    outers = [LaurentSeries.make(F5, terms, 30) for terms in [
        {-2: 1, 1: 2, 3: 1, 4: 4}, {-2: 3, 1: 1, 3: 2, 4: 1},
        {-2: 3, 1: 1, 3: 2, 4: 1, 7: 2}, {1: 1, 10: 3}]]
    wants = [dense_compose(o, inner) for o in outers]
    calls = []
    mul = LaurentSeries.__mul__

    def counted(x, y):
        calls.append(1)
        return mul(x, y)

    monkeypatch.setattr(LaurentSeries, "__mul__", counted)
    made = []
    for outer, want in zip(outers, wants):
        before, keys = len(calls), set(inner._powers or ())
        got = compose(outer, inner)
        assert (got.coeffs, got.prec) == (want.coeffs, want.prec)
        made.append((len(calls) - before, sorted(set(inner._powers) - keys)))
    assert made[1:] == [(0, []), (1, [7]), (1, [10])]
    assert made[0][0] > 0


def test_a_warm_composition_rescans_neither_series(monkeypatch):
    """The inner keeps its reduced valuation and lead with its table, and
    the outer its sorted terms: once the table holds the powers, composing
    reads neither valuation again and sorts nothing."""
    ch = character_for(3, 2, 4)
    inner = build_rho(ch, ch.generator(1), 40)
    outers = [build_rho(ch, g, 40) for g in ch.group()]
    wants = [dense_compose(outer, inner) for outer in outers]
    reads = []
    valuation, lead = LaurentSeries.reduced_valuation, LaurentSeries.lead

    def counted_valuation(self):
        reads.append("valuation")
        return valuation(self)

    def counted_lead(self):
        if self is inner:
            reads.append("lead")
        return lead.fget(self)

    def counted_sorted(*args, **kwargs):
        reads.append("sorted")
        return sorted(*args, **kwargs)

    monkeypatch.setattr(LaurentSeries, "reduced_valuation", counted_valuation)
    monkeypatch.setattr(LaurentSeries, "lead", property(counted_lead))
    monkeypatch.setattr(series, "sorted", counted_sorted, raising=False)
    for outer in outers:
        compose(outer, inner)
    assert reads.count("valuation") == 1
    reads.clear()
    for outer, want in zip(outers, wants):
        got = compose(outer, inner)
        assert (got.coeffs, got.prec) == (want.coeffs, want.prec)
    assert reads == []


@pytest.mark.parametrize("ring", [F5, F9, F4_EPS2, F9_EPS3],
                         ids=["F5", "F9", "F4_eps2", "F9_eps3"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_pow_is_the_composition_with_t_to_the_n(ring, data):
    """x.pow(n) equals compose(t^n, x) and dense_compose(t^n, x) on copies
    of x with no table, coefficients and precision, wherever the reduced
    valuation is >= 1; over a field it also equals the product of n
    factors x, at any valuation."""
    field = ring_is_field(ring)
    x = data.draw(ring_series(ring, lo=-3 if field else 1))
    n = data.draw(st.integers(2, 9))
    got = x.pow(n)
    tn = LaurentSeries.t_power(ring, n)
    if x.residue().coeffs and x.reduced_valuation() >= 1:
        for want in (compose(tn, LaurentSeries(ring, x.coeffs, x.prec)),
                     dense_compose(tn, LaurentSeries(ring, x.coeffs, x.prec))):
            assert (got.coeffs, got.prec) == (want.coeffs, want.prec)
    if field:
        want = x
        for _ in range(n - 1):
            want = want * x
        assert (got.coeffs, got.prec) == (want.coeffs, want.prec)


def test_pow_reads_the_power_a_composition_made(monkeypatch):
    """Once a composition has put rho^(m+1) into rho's table, as
    deformed_rho's composition with ftilde's derivatives does before its
    chord, rho.pow(m + 1) makes no product."""
    ch = character_for(3, 2, 4)
    m = ch.m
    rho = build_rho(ch, ch.generator(1), 40)
    want = dense_compose(LaurentSeries.t_power(ch.field, m + 1), rho)
    compose(LaurentSeries.make(ch.field, {1: 1, m + 1: 2}, 40), rho)
    calls = []
    mul = LaurentSeries.__mul__

    def counted(x, y):
        calls.append(1)
        return mul(x, y)

    monkeypatch.setattr(LaurentSeries, "__mul__", counted)
    got = rho.pow(m + 1)
    assert calls == []
    assert (got.coeffs, got.prec) == (want.coeffs, want.prec)


def test_pow_of_a_nilpotent_lead_claims_the_horner_precision():
    """Over F_5[eps]/eps^2, x = eps t^-1 + t + 3 t^2 + O(t^10): x^4 is
    known to t^7 and x^5 to t^6, the reach of Horner evaluation from the
    lead t^-1, where binary powering, through x^2 of lead t^0, claimed t^9
    and t^8.  The coefficients below agree."""
    A = make_artin_algebra(F5, 2)
    x = LaurentSeries.make(A, {-1: A.eps(), 1: 1, 2: 3}, 10)
    x2 = x * x
    x4 = x2 * x2
    for n, chain, prec in [(4, x4, 7), (5, x * x4, 6)]:
        assert chain.prec == prec + 2
        got = x.pow(n)
        assert got.prec == prec
        assert got.coeffs == chain.truncate(prec).coeffs


def test_eq_to_prec_sees_a_term_on_one_side_only():
    a = LaurentSeries.make(F5, {1: 1, 3: 2}, 10)
    b = LaurentSeries.make(F5, {1: 1}, 10)
    assert not a.eq_to_prec(b)
    assert not b.eq_to_prec(a)


def test_eq_to_prec_ignores_terms_from_the_bound_on():
    """The bound is the lesser precision: a difference at it or above it
    is unknown on one side and ignored, one below it is not."""
    a = LaurentSeries.make(F5, {1: 1}, 6)
    for extra in [{6: 3}, {6: 3, 7: 1}, {9: 2}]:
        b = LaurentSeries.make(F5, {1: 1, **extra}, 10)
        assert a.eq_to_prec(b) and b.eq_to_prec(a)
    b = LaurentSeries.make(F5, {1: 1, 5: 4}, 10)
    assert not a.eq_to_prec(b) and not b.eq_to_prec(a)
    b = LaurentSeries.make(F5, {1: 2}, 10)
    assert not a.eq_to_prec(b) and not b.eq_to_prec(a)


def test_eq_to_prec_compares_every_eps_component():
    """Raw values of F_9[eps]/eps^3 that differ in one component only."""
    a = LaurentSeries(F9_EPS3, {2: (1, 2, 0), 4: (0, 0, 5)}, 8)
    assert a.eq_to_prec(LaurentSeries(F9_EPS3, dict(a.coeffs), 9))
    for i in range(3):
        c = [1, 2, 0]
        c[i] = (c[i] + 1) % 9
        b = LaurentSeries(F9_EPS3, {2: tuple(c), 4: (0, 0, 5)}, 8)
        assert not a.eq_to_prec(b) and not b.eq_to_prec(a)
    b = LaurentSeries(F9_EPS3, {2: (1, 2, 0), 4: (0, 0, 5), 7: (0, 0, 1)}, 8)
    assert not a.eq_to_prec(b) and not b.eq_to_prec(a)
    assert a.eq_to_prec(b.truncate(7)) and b.truncate(7).eq_to_prec(a)


def first_derivative(a):
    """Reference: the derivative t^e -> e t^(e-1) as the only derivative
    was computed before the Hasse derivatives."""
    r = a.ring
    out = {}
    for e, c in a.coeffs.items():
        m = r.raw_mul(c, r.raw_from_int(e % r.p))
        if not r.raw_is_zero(m):
            out[e - 1] = m
    return LaurentSeries(r, out, a.prec - 1 if a.prec < INF else INF)


@pytest.mark.parametrize("ring", [F5, F9, F4_EPS2, F9_EPS3],
                         ids=["F5", "F9", "F4_eps2", "F9_eps3"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_hasse_derivatives(ring, data):
    """D^1 is the derivative; D^k D^l = binom(k + l, k) D^(k + l), with
    precision prec - k - l on both sides."""
    a = data.draw(ring_series(ring, lo=-12, hi=12))
    k, l = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
    d1, want = a.derivative(), first_derivative(a)
    assert (d1.coeffs, d1.prec) == (want.coeffs, want.prec)
    assert a.derivative(1) == d1 and a.derivative(0) == a
    lhs = a.derivative(l).derivative(k)
    rhs = a.derivative(k + l).scale(comb(k + l, k))
    assert (lhs.coeffs, lhs.prec) == (rhs.coeffs, rhs.prec)


@pytest.mark.parametrize("ring", MIXED_RINGS, ids=MIXED_IDS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_taylor_sum_matches_direct_composition(ring, data):
    """f(rho + delta) = sum_{k<n} (D^k f)(rho) delta^k for delta in
    eps A[[t]] with no term below the reduced valuation of rho: the sum of
    mixed-ring compositions with the field series rho agrees with a direct
    compose with rho + delta where the latter is known, and knows as much."""
    comp = st.integers(0, ring.base.q - 1)
    v = data.draw(st.integers(1, 4))
    terms = data.draw(st.dictionaries(st.integers(v + 1, 14), comp, max_size=5))
    terms[v] = data.draw(st.integers(1, ring.base.q - 1))
    rho = LaurentSeries(ring.base, terms, data.draw(st.integers(v + 1, 24)))
    nil = st.tuples(st.just(0), *[comp] * (ring.n - 1))
    delta = LaurentSeries(ring, data.draw(st.dictionaries(
        st.integers(rho.lead, 12), nil, max_size=5)), rho.prec)
    outer = data.draw(sparse_outer(ring))
    try:
        want = compose(outer, rho.lift_ring(ring) + delta)
    except NotConverged:
        return
    got, power = LaurentSeries.zero(ring), LaurentSeries.one(ring)
    for k in range(ring.n):
        got = got + compose(outer.derivative(k), rho) * power
        power = power * delta
    assert got.eq_to_prec(want) and got.prec >= want.prec


def test_revert_roundtrip():
    a = LaurentSeries.make(F5, {1: 2, 2: 1, 4: 3}, 14)
    b = revert(a)
    both = compose(a, b)
    ident = LaurentSeries.t_power(F5, 1, both.prec)
    assert both == ident
    other = compose(b, a)
    assert other == LaurentSeries.t_power(F5, 1, other.prec)


def test_revert_needs_unit_linear_term():
    a = LaurentSeries.make(F5, {2: 1}, 8)
    with pytest.raises(NotReversible):
        revert(a)


def test_frobenius_power_on_series():
    a = LaurentSeries.make(F4, {-1: 2, 1: 3}, 6)
    b = a.frobenius_power()
    for e, c in a.coeffs.items():
        assert b.coeff(2 * e) == F4.raw_frobenius(c)


def test_eps_component_and_lift_reduce():
    A = make_artin_algebra(F5, 2)
    base = LaurentSeries.make(F5, {-1: 2, 3: 1}, 9)
    lifted = base.lift_ring(A)
    pert = lifted + LaurentSeries.make(A, {0: A.eps()}, 9)
    assert pert.eps_component(0) == base
    assert pert.eps_component(1) == LaurentSeries.make(F5, {0: 1}, 9)
    assert pert.residue() == base


def test_weierstrass_preparation_exact():
    A = make_artin_algebra(F5, 2)
    eps = A.eps()
    # (t^2 + eps(2t + 3)) * unit
    dist = DistinguishedPolynomial(A, 2, ((eps * A.from_int(3)).raw,
                                          (eps * A.from_int(2)).raw))
    unit = LaurentSeries.make(A, {0: 4, 1: 1, 2: eps}, 18)
    f = dist.to_series(18) * unit
    got_dist, got_unit = weierstrass_prepare(f)
    assert got_dist.degree == 2
    assert got_dist.coeffs == dist.coeffs
    prod = got_dist.to_series(got_unit.prec) * got_unit
    assert prod == f.truncate(prod.prec)


def test_to_dict_from_dict_roundtrip():
    for ring in (F5, make_artin_algebra(F4, 3)):
        s = LaurentSeries.make(ring, {-2: ring.raw_one(), 5: ring.raw_from_int(1)}, 9)
        assert LaurentSeries.from_dict(ring, s.to_dict()) == s
