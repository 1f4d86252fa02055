"""Exact linear algebra against the dense elimination oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from wildram import linalg
from wildram.coeffring import make_field

from conftest import dense_rref, mat_mul

FIELDS = {(p, d): make_field(p, d) for p, d in [(2, 1), (3, 1), (2, 2), (5, 2)]}
KINDS = ["sparse", "dense", "zero", "duplicate", "wide", "tall"]


@st.composite
def matrices(draw):
    """(field, rows, x, v, b): a matrix over GF(2), GF(3), GF(4) or GF(25)
    of one of the KINDS, a vector x to solve for, a vector v to reduce and
    a right-hand side b, often inconsistent."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    q, mul = field.q, field.tables()[1]
    kind = draw(st.sampled_from(KINDS))
    small, large = st.integers(1, 3), st.integers(6, 10)
    nrows = draw({"wide": small, "tall": large}.get(kind, st.integers(1, 7)))
    ncols = draw({"wide": large, "tall": small}.get(kind, st.integers(1, 7)))
    entry = st.integers(0, q - 1)
    rows = [[0] * ncols for _ in range(nrows)]
    if kind == "sparse":
        cells = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1),
                          st.integers(1, q - 1))
        for i, j, x in draw(st.lists(cells, max_size=max(1, nrows * ncols // 4))):
            rows[i][j] = x
    elif kind == "duplicate":
        base = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                             min_size=1, max_size=3))
        for i in range(nrows):
            row = draw(st.sampled_from(base))
            scale = draw(st.sampled_from([1, 1, draw(entry)]))
            rows[i] = [mul[scale][x] for x in row]
    elif kind != "zero":
        rows = [draw(st.lists(entry, min_size=ncols, max_size=ncols))
                for _ in range(nrows)]
    vector = st.lists(entry, min_size=ncols, max_size=ncols)
    rhs = st.lists(entry, min_size=nrows, max_size=nrows)
    return field, rows, draw(vector), draw(vector), draw(rhs)


def column(field, rows, x):
    return [r[0] for r in mat_mul(field, rows, [[v] for v in x])]


def oracle_nullspace(field, rows, ncols):
    red, pivots = dense_rref(field, rows)
    neg = field.tables()[2]
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = 1
        for r, pc in zip(red, pivots):
            v[pc] = neg[r[fc]]
        basis.append(v)
    return basis


def oracle_solve(field, rows, rhs):
    ncols = len(rows[0])
    red, pivots = dense_rref(field, [r + [b] for r, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [0] * ncols
    for r, pc in zip(red, pivots):
        x[pc] = r[ncols]
    return x


def oracle_reduce(field, basis, pivots, v):
    add, mul, neg = field.tables()[0], field.tables()[1], field.tables()[2]
    for row, pc in zip(basis, pivots):
        if v[pc]:
            f = neg[v[pc]]
            v = [add[v[k]][mul[f][row[k]]] for k in range(len(v))]
    return v


def assert_reduced_echelon(rows):
    """Each row leads with a 1, further right than the row before, and the
    other rows vanish at its lead."""
    leads = [next(k for k, x in enumerate(r) if x) for r in rows]
    assert leads == sorted(set(leads))
    for r, c in zip(rows, leads):
        assert r[c] == 1
        assert [other[c] for other in rows if other is not r] == [0] * (len(rows) - 1)


@given(case=matrices())
@settings(max_examples=300, deadline=None)
def test_elimination_matches_the_dense_oracle(case):
    """rref, nullspace, solve and reduce_against give the dense oracle's
    exact rows, pivots and vectors, on sparse, dense, zero, duplicate,
    wide and tall matrices.  nullspace gives the kernel's reduced echelon
    basis, the oracle's kernel basis brought to that unique form."""
    field, rows, x, v, b = case
    ncols = len(rows[0])
    red, pivots = linalg.rref(field, rows)
    assert (red, pivots) == dense_rref(field, rows)
    assert linalg.rank(field, rows) == len(pivots)

    kernel = linalg.nullspace(field, rows)
    assert kernel == dense_rref(field, oracle_nullspace(field, rows, ncols))[0]
    assert len(kernel) == ncols - len(pivots)
    assert all(not any(column(field, rows, k)) for k in kernel)
    assert_reduced_echelon(kernel)

    for rhs in (column(field, rows, x), b):
        sol = linalg.solve(field, rows, rhs)
        assert sol == oracle_solve(field, rows, rhs)
        if sol is not None:
            assert column(field, rows, sol) == rhs
    assert linalg.solve(field, rows, column(field, rows, x)) is not None

    reduced = linalg.reduce_against(field, red, pivots, v)
    assert reduced == oracle_reduce(field, red, pivots, v)
    assert not any(reduced[pc] for pc in pivots)
    assert linalg.rank(field, red + [v]) == linalg.rank(field, red + [reduced])


def test_reduce_against_refuses_a_vector_of_another_length(f5):
    """Rows are never truncated to the vector's length: a short or long
    vector raises a typed ValueError."""
    basis, pivots = linalg.rref(f5, [[1, 2, 0, 3], [0, 0, 1, 4]])
    for v in ([1, 2], [1, 2, 0, 3, 0]):
        with pytest.raises(linalg.VectorLengthMismatch):
            linalg.reduce_against(f5, basis, pivots, v)
    assert issubclass(linalg.VectorLengthMismatch, ValueError)
    assert linalg.reduce_against(f5, basis, pivots, [2, 4, 1, 0]) == [0, 0, 0, 0]
    assert linalg.reduce_against(f5, [], [], [1, 2]) == [1, 2]
