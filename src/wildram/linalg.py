"""Exact linear algebra over a finite field, on raw coefficient indices.

Matrices are lists of row lists of field indices.  Everything is
deterministic: elimination always picks the first nonzero entry in
column order, so echelon bases are reproducible.  An elimination step
touches only the columns where the pivot row is nonzero.
"""

from __future__ import annotations


class VectorLengthMismatch(ValueError):
    """A vector to reduce does not have the length of the basis rows."""


def rref(field, rows):
    """Reduced row echelon form.  Returns (rows, pivot_columns).

    At column c the rows not yet used as pivots vanish on the columns
    before c, so the normalized pivot row is supported on columns >= c,
    and the other rows are updated on that support only."""
    tables = field.tables()
    add, mul, neg, inv = tables[0], tables[1], tables[2], tables[3]
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    nrows, ncols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        scale = mul[inv[prow[c]]]
        support = [(k, scale[prow[k]]) for k in range(c, ncols) if prow[k]]
        for k, x in support:
            prow[k] = x
        for i in range(nrows):
            row = rows[i]
            if row[c] and i != r:
                f = mul[neg[row[c]]]
                for k, x in support:
                    row[k] = add[row[k]][f[x]]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def rank(field, rows):
    return len(rref(field, rows)[0])


def nullspace(field, rows, ncols=None):
    """The right nullspace in its reduced row echelon form, which is unique.
    One elimination over the reversed columns: read back, each of its pivot
    rows has other nonzeros only at free columns before its pivot, so the
    vector of a free column f, 1 at f and minus those entries at f on the
    pivots, vanishes before f and at the other free columns."""
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for empty matrix")
        ncols = len(rows[0])
    red, pivots = rref(field, [r[::-1] for r in rows])
    neg = field.tables()[2]
    last = ncols - 1
    pivot_set = {last - c for c in pivots}
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in zip(red, pivots):
            v[last - pc] = neg[r[last - fc]]
        basis.append(v)
    return basis


def solve(field, rows, rhs):
    """One solution of rows * x = rhs, or None if inconsistent."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    red, pivots = rref(field, aug)
    x = [0] * ncols
    for r, pc in zip(red, pivots):
        if pc == ncols:
            return None
        x[pc] = r[ncols]
    return x


def reduce_against(field, basis_rref, pivots, v):
    """Reduce vector v modulo the row space given in rref form.  A vector
    whose length is not the rows' is refused, not reduced against
    truncated rows."""
    if basis_rref and len(v) != len(basis_rref[0]):
        raise VectorLengthMismatch("expected %d coordinates, got %d"
                                   % (len(basis_rref[0]), len(v)))
    tables = field.tables()
    add, mul, neg = tables[0], tables[1], tables[2]
    v = list(v)
    for row, pc in zip(basis_rref, pivots):
        if v[pc]:
            f = mul[neg[v[pc]]]
            for k in range(pc, len(v)):
                if row[k]:
                    v[k] = add[v[k]][f[row[k]]]
    return v


def mat_vec(field, a, v):
    add, mul = field.tables()[0], field.tables()[1]
    out = []
    for row in a:
        acc = 0
        for x, y in zip(row, v):
            if x and y:
                acc = add[acc][mul[x][y]]
        out.append(acc)
    return out
