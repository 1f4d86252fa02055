"""Group cohomology of the pole-part module: brute force, closed formula,
basis, splitting and the H^2 engine."""

import random

import pytest

from wildram import cohomology, linalg
from wildram.cohomology import (
    CochainLengthMismatch,
    H2Engine,
    OneCochain,
    PolePartClass,
    _coboundary_echelon,
    _complex,
    _component_classes,
    _generator_actions,
    _generator_complex,
    _multi_indices,
    action_matrix,
    component_action_matrix,
    cocycle_class_vector,
    d1_preimage,
    h1_basis_cyclic,
    h1_brute_force,
    h1_closed_formula,
    h2_brute_force,
    is_cocycle,
    krull_dimension_sigma,
    split_condition,
)
from wildram.ascover import downstairs_coordinate
from wildram.autoreps import build_rho, character_value, group_mul
from wildram.series import LaurentSeries, invert_unit_series

from conftest import (binom_mod_p, character_for, classes_equal, grid_points,
                      mat_mul, module_action, small_grid)

# Every small_grid() point whose bar complex is small enough to solve, and
# one s = 3 point for the e_i + e_j + e_k blocks of the generator complex.
H2_POINTS = [pt for pt in small_grid() if pt[0] ** pt[1] <= 9] + [(2, 3, 3)]


def tangent_action_matrix(ch, g, K, below=0):
    """Reference action of g on the tangent module cut at depth K and
    extended by `below` pole levels, built from the automorphism series: in
    the basis t^j d/dt, j = -below..K-1 (pole exponents j-m-1), column j is
    the image rho^j / (t^{m+1} rho'(t)) of t^{j-m-1}, with rho^j a power of
    rho^{-1} when j < 0.  Row and column i stand for j = i - below."""
    field = ch.field
    m = ch.m
    prec = K + below + 2 * (m + 2)
    rho = build_rho(ch, g, prec)
    q = invert_unit_series(LaurentSeries.t_power(field, m + 1, prec) * rho.derivative())
    n = below + K
    mat = [[0] * n for _ in range(n)]
    rho_pow = rho.pow(-below)
    for j in range(n):
        img = rho_pow * q
        assert img.prec >= K - m - 1, "insufficient working precision"
        for row in range(n):
            mat[row][j] = img.coeff(row - below - m - 1)
        rho_pow = rho_pow * rho
    return mat


def component_levels(ch, r, B):
    """K and the pole exponents r - m - 1 - lm, l = K..1, of component r of
    t^{-B} k[[t]] / T, in the order of component_action_matrix."""
    m = ch.m
    K = (B + r - m - 1) // m
    return K, [r - m - 1 - (K - i) * m for i in range(K)]


def is_fixed(ch, r, K, v):
    """Whether every generator's component action fixes v."""
    return all(linalg.mat_vec(ch.field, mat, v) == v
               for mat, _ in component_action_matrix(ch, r, K))


def random_pole_class(ch, rng):
    return PolePartClass.from_vector(
        ch, [rng.randrange(ch.field.q) for _ in range(ch.m + 1)])


@pytest.mark.parametrize("p,s,m", [(2, 1, 3), (3, 1, 2), (3, 2, 2), (5, 1, 2)])
def test_module_action_is_a_group_action(p, s, m):
    ch = character_for(p, s, m)
    rng = random.Random(11)
    xs = [random_pole_class(ch, rng) for _ in range(3)]
    e = ch.identity()
    for x in xs:
        assert module_action(ch, e, x).coeffs == x.coeffs
    for g in ch.group():
        for h in ch.group():
            gh = group_mul(ch, g, h)
            for x in xs:
                assert module_action(ch, g, module_action(ch, h, x)).coeffs == \
                    module_action(ch, gh, x).coeffs
        for x in xs:
            for y in xs:
                assert module_action(ch, g, x + y).coeffs == \
                    (module_action(ch, g, x) + module_action(ch, g, y)).coeffs


@pytest.mark.parametrize("p,s,m", [(2, 1, 3), (3, 2, 2), (5, 1, 2)])
def test_coboundaries_are_cocycles_with_zero_class(p, s, m):
    ch = character_for(p, s, m)
    rng = random.Random(5)
    for _ in range(5):
        n = random_pole_class(ch, rng)
        vals = tuple(module_action(ch, ch.generator(i), n) - n
                     for i in range(1, s + 1))
        cob = OneCochain(ch, vals)
        assert is_cocycle(ch, cob)
        assert classes_equal(ch, cob, OneCochain.zero(ch))


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (5, 3)])
def test_class_vector_refuses_a_single_value(p, m):
    """At s = 2 a single value has m+1 coordinates, not s(m+1): reducing it
    against the coboundaries would truncate their rows, so it is refused."""
    ch = character_for(p, 2, m)
    value = random_pole_class(ch, random.Random(7))
    with pytest.raises(CochainLengthMismatch):
        cocycle_class_vector(ch, value)
    whole = OneCochain(ch, (value, value))
    assert len(cocycle_class_vector(ch, whole)) == 2 * (m + 1)


@pytest.mark.parametrize("p,s,m", small_grid())
def test_h1_formula_matches_brute_force(p, s, m):
    ch = character_for(p, s, m)
    assert h1_brute_force(ch)["dim"] == h1_closed_formula(p, s, m)


S3_POINTS = [(3, 3, 2), (3, 3, 4), (3, 3, 20), (5, 3, 2), (5, 3, 9),
             (2, 3, 3), (2, 3, 5), (2, 3, 7)]


@pytest.mark.parametrize("p,s,m", S3_POINTS)
def test_h1_formula_matches_brute_force_at_s3(p, s, m):
    assert h1_brute_force(character_for(p, s, m))["dim"] == h1_closed_formula(p, s, m)


# Points with their number of component classes (r mod p^s, K(r)), K(r) =
# (B + r - m - 1) // m with B = p^s (m+1).  (5,2,6): m < 25, so the 6
# components are 6 classes; (2,2,19): K = 3 for r <= 15 and 4 after, so
# 4 + 3 classes; (3,2,20): K = 8 for r <= 11 and 9 after, so 9 + 8.
CLASS_COUNTS = {(5, 2, 6): 6, (2, 2, 19): 7, (3, 2, 20): 17}


@pytest.mark.parametrize("p,s,m", [(5, 2, 6), (2, 2, 19)])
def test_h1_builds_no_products_and_one_lucas_row_per_class(monkeypatch, p, s, m):
    """Timer-free cost guard: h1_brute_force multiplies no matrices and
    computes no binomial entry by entry.  It builds one component action
    per class of components, whose first column is one Lucas row, shared
    by the s generators, and whose other columns step down from it by
    Pascal's rule.  Building the norms as (sigma - 1)^{p-1} took 3
    products per generator and component, the action one binom_mod_p call
    per entry; one Lucas row per column took K_0 + ... + K_{m-1} rows
    (168 at (5,2,6)), and one solve per r < m took m actions."""
    ch = character_for(p, s, m)
    products, entries, rows, actions = [], [], [], []
    binom_row = cohomology.binom_row_mod_p
    component = cohomology.component_action_matrix

    def counted_row(num, den, n, p):
        rows.append(n)
        return binom_row(num, den, n, p)

    def counted_component(ch, r, K):
        actions.append((r, K))
        return component(ch, r, K)

    monkeypatch.setattr(linalg, "mat_mul", lambda *args: products.append(args),
                        raising=False)
    monkeypatch.setattr(cohomology, "binom_mod_p",
                        lambda *args: entries.append(args), raising=False)
    monkeypatch.setattr(cohomology, "binom_row_mod_p", counted_row)
    monkeypatch.setattr(cohomology, "component_action_matrix", counted_component)
    out = h1_brute_force(ch)
    assert out["dim"] == h1_closed_formula(p, s, m)
    assert not products and not entries
    assert len(actions) == len(rows) == CLASS_COUNTS[p, s, m]
    assert len(set(actions)) == len(actions)


@pytest.mark.parametrize("p,s,m", [(2, 2, 19), (3, 2, 20)])
def test_h1_eliminates_once_per_class(monkeypatch, p, s, m):
    """Timer-free cost guard: one elimination per class of components,
    nullspace's own, and no second rref of the kernel; d^0 of a component
    is stacked from its action rows, never built by _complex."""
    ch = character_for(p, s, m)
    eliminations, complexes = [], []
    rref = linalg.rref

    def counted_rref(field, rows):
        eliminations.append(len(rows))
        return rref(field, rows)

    monkeypatch.setattr(linalg, "rref", counted_rref)
    monkeypatch.setattr(cohomology, "_complex",
                        lambda *args: complexes.append(args))
    assert h1_brute_force(ch)["dim"] == h1_closed_formula(p, s, m)
    assert len(eliminations) == CLASS_COUNTS[p, s, m]
    assert not complexes


def lucas_component_action(ch, r, K):
    """Oracle: the generators' matrices on component r, levels -K..-1, one
    binom_mod_p call per entry: entry (j + d, j) is binom(-e/m, d) c^d for
    the column's exponent e = r - m - 1 - (K - j) m."""
    field, p, m = ch.field, ch.p, ch.m
    mats = []
    for i in range(1, ch.s + 1):
        c = character_value(ch, ch.generator(i))
        mat = [[0] * K for _ in range(K)]
        for j in range(K):
            e = r - m - 1 - (K - j) * m
            for d in range(K - j):
                b = field.from_int(binom_mod_p(-e, m, d, p))
                mat[j + d][j] = (b * c ** d).raw
        mats.append(mat)
    return mats


@pytest.mark.parametrize("p,s,m", [(2, 1, 7), (3, 1, 10), (2, 2, 19), (5, 2, 6),
                                   (3, 2, 20), (7, 1, 30)])
def test_pascal_rows_are_the_lucas_rows(p, s, m):
    """The columns of a component action after the first, stepped down by
    Pascal's rule, are the binomials taken entry by entry, in every
    component, here with K(r) past p^s at (5,2,6) and (7,1,30)."""
    ch = character_for(p, s, m)
    B = p ** s * (m + 1)
    for r in range(m):
        K = component_levels(ch, r, B)[0]
        assert [mat for mat, _ in component_action_matrix(ch, r, K)] == \
            lucas_component_action(ch, r, K)


def per_component_basis(ch):
    """Oracle: h1_brute_force's basis from one solve per component r < m,
    with the binomials taken entry by entry, d^0 from _complex and the
    kernel brought to reduced echelon form by a second rref."""
    m, q = ch.m, ch.p ** ch.s
    B = ch.order() * (m + 1)
    basis = []
    for r in range(m):
        K = component_levels(ch, r, B)[0]
        gens = [(mat, None) for mat in lucas_component_action(ch, r, K)]
        d0 = _complex(ch.field, gens, 0)[0]
        inv, pivots = linalg.rref(ch.field, linalg.nullspace(ch.field, d0, K))
        basis += [(r, row) for row, c in zip(inv, pivots)
                  if (r - m - 1 - (K - c) * m) % q]
    return basis


LARGE_M_POINTS = [(2, 1, 99), (3, 1, 97), (5, 1, 48), (7, 1, 30), (7, 2, 9),
                  (3, 2, 40), (2, 2, 45)]


@pytest.mark.parametrize("p,s,m", list(grid_points()) + S3_POINTS + LARGE_M_POINTS)
def test_h1_basis_is_the_per_component_solve(p, s, m):
    """Solving one component per class (r mod p^s, K(r)) gives the basis
    of one solve per component, element for element."""
    ch = character_for(p, s, m)
    assert h1_brute_force(ch)["basis"] == per_component_basis(ch)


@pytest.mark.parametrize("p,s,m", small_grid() + [(3, 2, 10), (5, 2, 6), (3, 3, 2)])
def test_h1_basis_is_independent_modulo_coboundaries(p, s, m):
    """Each representative is an invariant pole part of its component of
    t^{-B} k[[t]] / T, and the representatives lead at distinct exponents,
    none a multiple of p^s, where the invariant fields x^{-j} lead.  So
    they are independent modulo the pole parts of the invariant fields,
    the pole parts whose cocycles sigma y - y are coboundaries in T."""
    ch = character_for(p, s, m)
    out = h1_brute_force(ch)
    basis, B = out["basis"], out["pole_bound"]
    assert len(basis) == out["dim"] and B == p ** s * (m + 1)
    assert [r for r, _ in basis] == sorted(r for r, _ in basis)
    leads = []
    for r, v in basis:
        K, exps = component_levels(ch, r, B)
        assert len(v) == K and any(v)
        assert is_fixed(ch, r, K, v)
        leads.append(exps[next(i for i, x in enumerate(v) if x)])
    assert len(set(leads)) == len(leads)
    assert all(e % p ** s for e in leads)


@pytest.mark.parametrize("p,s,m", [(2, 1, 3), (3, 1, 2), (5, 1, 3), (2, 2, 3),
                                   (3, 2, 2), (5, 2, 2), (2, 3, 3), (3, 3, 2)])
def test_invariant_fields_are_fixed_pole_parts(p, s, m):
    """Series-side oracle: x = prod_sigma rho_sigma(t) is invariant, so the
    pole part below -(m+1) of each x^{-j} with m+1 < j p^s <= B lies in one
    component, is fixed by every generator's component action, and leads
    at -j p^s."""
    ch = character_for(p, s, m)
    q, B = p ** s, p ** s * (m + 1)
    xinv = invert_unit_series(downstairs_coordinate(ch, B + 2 * q))
    power = xinv.pow((m + 1) // q + 1)
    for j in range((m + 1) // q + 1, B // q + 1):
        assert power.prec >= -m - 1, "insufficient working precision"
        found = []
        for r in range(m):
            K, exps = component_levels(ch, r, B)
            v = [power.coeff(e) for e in exps]
            if any(v):
                assert is_fixed(ch, r, K, v)
                found.append(exps[next(i for i, x in enumerate(v) if x)])
        assert found == [-j * q]
        power = power * xinv


@pytest.mark.parametrize("p,s,m", small_grid() + S3_POINTS)
def test_h1_count_is_stable_past_the_pole_bound(p, s, m):
    """The classes from pole parts of order at most B inject into those at
    any larger bound, so their count does not decrease with B and is at
    most dim H^1.  At B = p^s (m+1) and one period m p^s past it the count
    is the same, the closed formula's value."""
    ch = character_for(p, s, m)
    B = p ** s * (m + 1)

    def count(bound):
        return sum(len(_component_classes(ch, r, bound)) for r in range(m))

    assert count(B + m * p ** s) == count(B) == h1_closed_formula(p, s, m)


def test_h1_formula_known_values():
    # worked instance: p=3, s=2, m=2 gives 2 + 1 = 3
    assert h1_closed_formula(3, 2, 2) == 3
    assert h1_closed_formula(3, 1, 2) == 2
    # cyclic p=2: dimension counts admissible exponents in [b, m+1]
    assert h1_closed_formula(2, 1, 3) == 2
    assert h1_closed_formula(2, 1, 1) == 1


@pytest.mark.parametrize("p,m", [(2, 3), (2, 5), (3, 2), (3, 4), (5, 2), (5, 3)])
def test_cyclic_basis_spans_h1(p, m):
    ch = character_for(p, 1, m)
    basis = h1_basis_cyclic(ch)
    for _, coch in basis:
        assert is_cocycle(ch, coch)
    vecs = [cocycle_class_vector(ch, coch) for _, coch in basis]
    dim = h1_brute_force(ch)["dim"]
    assert len(basis) == dim
    assert linalg.rank(ch.field, vecs) == dim


def test_split_condition_discriminating_case():
    """(3, 2, 2): the digit condition fails and the dimensions disagree,
    3 for the full group against 2 + 2 for the cyclic pieces."""
    cond = split_condition(3, 2, 2)
    assert not cond["holds"]
    full = h1_brute_force(character_for(3, 2, 2))["dim"]
    cyclic = h1_closed_formula(3, 1, 2)
    assert full == 3 and 2 * cyclic == 4


@pytest.mark.parametrize("p,s,m", small_grid())
def test_split_condition_predicts_additivity(p, s, m):
    cond = split_condition(p, s, m)
    full = h1_closed_formula(p, s, m)
    summed = s * h1_closed_formula(p, 1, m)
    if cond["holds"]:
        assert full == summed


def test_krull_dimension_sigma():
    out = krull_dimension_sigma(3, 2)
    assert out["dim"] == len(out["sigma"])
    assert all(1 <= i <= 2 for i in out["sigma"])
    # Sigma excludes the obstructed direction i = m+1
    for p, m in [(2, 3), (3, 2), (5, 2), (3, 4)]:
        out = krull_dimension_sigma(p, m)
        assert m + 1 not in out["sigma"]
        assert out["dim"] <= h1_closed_formula(p, 1, m)


@pytest.mark.parametrize("p,s,m", [(2, 1, 3), (3, 1, 2), (2, 2, 3)])
def test_component_matrices_match_series_action(p, s, m):
    """Each component of t^{-B} k[[t]] / T carries the series action on its
    pole exponents below -(m+1), read through powers of rho^{-1}."""
    ch = character_for(p, s, m)
    B = 3 * m + 3
    below = B - m - 1
    for i in range(1, s + 1):
        g = ch.generator(i)
        full = tangent_action_matrix(ch, g, 1, below)
        for r in range(m):
            K, exps = component_levels(ch, r, B)
            comp = component_action_matrix(ch, r, K)[i - 1][0]
            idx = [e + m + 1 + below for e in exps]
            assert comp == [[full[a][b] for b in idx] for a in idx]


@pytest.mark.parametrize("p,s,m", small_grid())
def test_action_matrix_is_the_pole_block(p, s, m):
    """On M the action is the series action's block on t^j d/dt, j <= m,
    that is on the pole exponents -1, ..., -(m+1)."""
    ch = character_for(p, s, m)
    for g in ch.group():
        full = tangent_action_matrix(ch, g, m + 1)
        mat = action_matrix(ch, g)
        assert mat == [[full[m - i][m - k] for k in range(m + 1)]
                       for i in range(m + 1)]


def bar_d1(ch):
    """Reference bar differential on all of V: the rows of
    (d b)(s, t) = s.b(t) - b(st) + b(s) on 1-cochains stored value by value
    in ch.group() order."""
    field = ch.field
    n = ch.m + 1
    elems = ch.group()
    index = {g.exps: k for k, g in enumerate(elems)}
    rows = []
    for s_ in elems:
        A = action_matrix(ch, s_)
        for t_ in elems:
            st = group_mul(ch, s_, t_)
            for r in range(n):
                row = [0] * (len(elems) * n)
                for c in range(n):
                    k = index[t_.exps] * n + c
                    row[k] = field.raw_add(row[k], A[r][c])
                k = index[st.exps] * n + r
                row[k] = field.raw_sub(row[k], 1)
                k = index[s_.exps] * n + r
                row[k] = field.raw_add(row[k], 1)
                rows.append(row)
    return rows


def bar_differentials(ch):
    """Reference bar complex on all of V: bar_d1 and the rows of
    (d a)(s, t, u) = s.a(t, u) - a(st, u) + a(s, tu) - a(s, t) on
    2-cochains, stored value by value in ch.group() order."""
    field = ch.field
    n = ch.m + 1
    elems = ch.group()
    N = len(elems)
    index = {g.exps: k for k, g in enumerate(elems)}
    mats = {g.exps: action_matrix(ch, g) for g in elems}

    def pair(g, h):
        return (index[g.exps] * N + index[h.exps]) * n

    d2 = []
    for s_ in elems:
        A = mats[s_.exps]
        for t_ in elems:
            st = group_mul(ch, s_, t_)
            for u_ in elems:
                tu = group_mul(ch, t_, u_)
                for r in range(n):
                    row = [0] * (N * N * n)
                    for c in range(n):
                        k = pair(t_, u_) + c
                        row[k] = field.raw_add(row[k], A[r][c])
                    k = pair(st, u_) + r
                    row[k] = field.raw_sub(row[k], 1)
                    k = pair(s_, tu) + r
                    row[k] = field.raw_add(row[k], 1)
                    k = pair(s_, t_) + r
                    row[k] = field.raw_sub(row[k], 1)
                    d2.append(row)
    return bar_d1(ch), d2


def bar_h2_dimension(ch):
    d1, d2 = bar_differentials(ch)
    z2 = len(d2[0]) - linalg.rank(ch.field, d2)
    return z2 - linalg.rank(ch.field, d1)


@pytest.mark.parametrize("p,s,m", H2_POINTS)
def test_h2_dimension_matches_bar_complex(p, s, m):
    """The generator complex and the bar complex give the same H^2."""
    ch = character_for(p, s, m)
    assert h2_brute_force(ch)["dim"] == bar_h2_dimension(ch)


def generator_modules(ch):
    """The generators' (matrix, norm) pairs on M and on each graded
    component of t^{-B} k[[t]] / T at h1_brute_force's B, as _complex takes
    them."""
    B = ch.order() * (ch.m + 1)
    modules = [_generator_actions(ch)]
    modules += [component_action_matrix(ch, r, component_levels(ch, r, B)[0])
                for r in range(ch.m)]
    return modules


@pytest.mark.parametrize("p,s,m", H2_POINTS + [(3, 3, 2)])
def test_complex_squares_to_zero(p, s, m):
    """d^1 d^0 = 0 and d^2 d^1 = 0 on M and on each graded component; the
    signs only show at odd p, hence (3, 3, 2) for s = 3."""
    ch = character_for(p, s, m)
    field = ch.field
    for gens in generator_modules(ch):
        d0, d1, d2 = _complex(field, gens, 2)
        for a, b in ((d1, d0), (d2, d1)):
            assert not any(any(row) for row in mat_mul(field, a, b))


def power_sum_norm(field, A, p):
    """1 + A + ... + A^{p-1}, summed power by power."""
    add = field.tables()[0]
    n = len(A)
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    norm = power
    for _ in range(p - 1):
        power = mat_mul(field, power, A)
        norm = [[add[x][y] for x, y in zip(rn, rp)] for rn, rp in zip(norm, power)]
    return norm


@pytest.mark.parametrize("p,s,m", small_grid() + [(3, 3, 2)])
def test_norm_blocks_are_power_sums(p, s, m):
    """The closed-form norm that _action builds beside each generator, -sigma
    on the entries whose level gap is a positive multiple of p - 1, equals
    1 + sigma + ... + sigma^{p-1}, on M and on each graded component, and
    it is the block N_j of d^1 from e_j to 2 e_j."""
    ch = character_for(p, s, m)
    field = ch.field
    for gens in generator_modules(ch):
        n = len(gens[0][0])
        d1 = _complex(field, gens, 1)[1]
        for j, (A, N) in enumerate(gens):
            assert N == power_sum_norm(field, A, p)
            row = _multi_indices(s, 2).index(tuple(2 * (k == j) for k in range(s)))
            col = _multi_indices(s, 1).index(tuple(int(k == j) for k in range(s)))
            block = [r[col * n:(col + 1) * n] for r in d1[row * n:(row + 1) * n]]
            assert block == N


@pytest.mark.parametrize("p,s,m", [(2, 1, 1), (2, 1, 3), (3, 1, 2), (2, 2, 3), (3, 2, 2)])
def test_h2_engine_coboundaries(p, s, m):
    ch = character_for(p, s, m)
    eng = H2Engine(ch)
    rng = random.Random(17)
    beta = {g.exps: random_pole_class(ch, rng) for g in ch.group()}
    table = eng.d1_of(beta)
    assert eng.is_coboundary(table)
    # bar 2-cocycles all bound exactly when H^2 = 0
    n = ch.m + 1
    pairs = [(g.exps, h.exps) for g in ch.group() for h in ch.group()]
    z2 = linalg.nullspace(ch.field, bar_differentials(ch)[1], len(pairs) * n)
    rejected = any(
        not eng.is_coboundary({gh: PolePartClass.from_vector(ch, v[k * n:(k + 1) * n])
                               for k, gh in enumerate(pairs)})
        for v in z2)
    assert rejected == (eng.h2_dimension() > 0)


def bar_is_coboundary(ch, d1, table):
    """Reference coboundary test: solve d beta = table in the bar complex,
    missing pairs read as zero."""
    zero = PolePartClass.zero(ch)
    target = []
    for g in ch.group():
        for h in ch.group():
            target.extend(table.get((g.exps, h.exps), zero).vector())
    return linalg.solve(ch.field, d1, target) is not None


def oracle_tables(ch, eng, rng):
    """The zero table, coboundaries, coboundaries with one entry moved,
    partial coboundaries and random tables (fewer where the bar solve is
    slow), and, where the bar d^2 is small, a bar Z^2 basis with random
    combinations of it and a coboundary."""
    n = ch.m + 1
    pairs = [(g.exps, h.exps) for g in ch.group() for h in ch.group()]
    tables = [{}]
    for _ in range(3 if ch.order() <= 9 else 1):
        beta = {g.exps: random_pole_class(ch, rng) for g in ch.group()}
        cob = eng.d1_of(beta)
        tables.append(cob)
        bumped = dict(cob)
        gh = rng.choice(pairs)
        bumped[gh] = bumped[gh] + PolePartClass.from_vector(
            ch, [rng.randrange(1, ch.field.q)] + [0] * ch.m)
        tables.append(bumped)
        tables.append({gh: cob[gh] for gh in rng.sample(pairs, len(pairs) // 2)})
        tables.append({gh: random_pole_class(ch, rng) for gh in pairs})
    if ch.order() <= 5:
        z2 = [{gh: PolePartClass.from_vector(ch, v[k * n:(k + 1) * n])
               for k, gh in enumerate(pairs)}
              for v in linalg.nullspace(ch.field, bar_differentials(ch)[1],
                                        len(pairs) * n)]
        tables.extend(z2)
        for _ in range(6):
            comb = tables[1]
            for z in rng.sample(z2, min(3, len(z2))):
                comb = {gh: comb[gh] + z[gh] for gh in pairs}
            tables.append(comb)
    return tables


@pytest.mark.parametrize("p,s,m", H2_POINTS + [(3, 3, 2), (5, 2, 2), (5, 2, 3)])
def test_is_coboundary_matches_bar_solve(p, s, m):
    """The generator-complex test gives the bar solve's answer on every
    kind of table, cocycle or not."""
    ch = character_for(p, s, m)
    eng = H2Engine(ch)
    d1 = bar_d1(ch)
    rng = random.Random(1000 * p + 100 * s + m)
    answers = []
    for table in oracle_tables(ch, eng, rng):
        answer = eng.is_coboundary(table)
        assert answer == bar_is_coboundary(ch, d1, table)
        answers.append(answer)
    assert True in answers and False in answers


def test_is_coboundary_solves_in_the_generator_complex(monkeypatch):
    """Timer-free cost guard: at (5,2,3) the only row reduction is d^1 of
    the generator complex, 3 blocks of m+1 = 4 rows.  The bar solve
    reduced 625 blocks of 4 rows."""
    ch = character_for(5, 2, 3)
    eng = H2Engine(ch)
    rng = random.Random(523)
    beta = {g.exps: random_pole_class(ch, rng) for g in ch.group()}
    tables = [eng.d1_of(beta),
              {(g.exps, h.exps): random_pole_class(ch, rng)
               for g in ch.group() for h in ch.group()}]
    rows = []
    rref = linalg.rref

    def counting_rref(field, mat):
        rows.append(len(mat))
        return rref(field, mat)

    monkeypatch.setattr(linalg, "rref", counting_rref)
    assert [eng.is_coboundary(t) for t in tables] == [True, False]
    assert rows and max(rows) <= 12


@pytest.mark.parametrize("p,s,m", small_grid())
def test_memoized_generator_complex_matches_a_fresh_build(p, s, m):
    """The differentials and the coboundary echelon kept in the character's
    memo equal fresh builds, a lower degree is read from the complex
    already built, and a warm character gives is_cocycle,
    cocycle_class_vector and d1_preimage the answers of a fresh one."""
    ch = character_for(p, s, m)
    fresh = _complex(ch.field, _generator_actions(ch), 2)
    assert _generator_complex(ch, 1) == fresh[:2]
    assert _generator_complex(ch, 2) == fresh
    assert _generator_complex(ch, 0) is _generator_complex(ch, 2)
    assert _coboundary_echelon(ch) == linalg.rref(ch.field, list(zip(*fresh[0])))
    rng = random.Random(900 + 100 * p + 10 * s + m)
    nblocks = len(_multi_indices(s, 2))
    for _ in range(4):
        cochain = OneCochain(ch, tuple(random_pole_class(ch, rng) for _ in range(s)))
        blocks = [random_pole_class(ch, rng) for _ in range(nblocks)]
        for fn, arg in ((is_cocycle, cochain), (cocycle_class_vector, cochain),
                        (d1_preimage, blocks)):
            assert fn(ch, arg) == fn(character_for(p, s, m), arg)
