"""Dense exact linear algebra over a finite field, on raw coefficient indices.

Matrices are lists of row lists of field indices.  Everything is
deterministic: elimination always picks the first nonzero entry in
column order, so echelon bases are reproducible.
"""

from __future__ import annotations


def rref(field, rows):
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
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


def rank(field, rows):
    return len(rref(field, rows)[0])


def nullspace(field, rows, ncols=None):
    """Deterministic basis of the right nullspace."""
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for empty matrix")
        ncols = len(rows[0])
    red, pivots = rref(field, rows)
    neg = field.tables()[2]
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in zip(red, pivots):
            v[pc] = neg[r[fc]]
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
    """Reduce vector v modulo the row space given in rref form."""
    add, mul, neg = field.tables()[0], field.tables()[1], field.tables()[2]
    v = list(v)
    for row, pc in zip(basis_rref, pivots):
        if v[pc]:
            f = neg[v[pc]]
            v = [add[v[k]][mul[f][row[k]]] for k in range(len(v))]
    return v


def mat_mul(field, a, b):
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
