"""Cohomology of the tangent module, three ways.

H^1(V, T) classifies first-order deformations of the action.  We compute
its dimension by exact linear algebra, as the invariant pole parts of
T_K/T modulo those of the invariant fields, compare with the closed digit
formula, exhibit the cyclic basis for s = 1, and show the one case where
the group does NOT split into cyclic pieces cohomologically.
"""

from wildram import linalg
from wildram.autoreps import make_character
from wildram.coeffring import make_field
from wildram.cohomology import (
    cocycle_class_vector,
    h1_basis_cyclic,
    h1_brute_force,
    h1_closed_formula,
    split_condition,
)

print("brute force vs closed formula")
print("  p  s   m   dim")
for p, s, m in [(2, 1, 3), (2, 1, 7), (3, 1, 4), (5, 1, 2),
                (2, 2, 5), (3, 2, 2), (5, 2, 3)]:
    field = make_field(p, s)
    vals = [[0] * i + [1] + [0] * (s - 1 - i) for i in range(s)]
    ch = make_character(field, vals, m)
    bf = h1_brute_force(ch)["dim"]
    cf = h1_closed_formula(p, s, m)
    mark = "" if bf == cf else "  <-- MISMATCH"
    print("  %d  %d  %2d   %d%s" % (p, s, m, bf, mark))

print("\ncyclic basis for p = 3, m = 4")
field = make_field(3)
ch = make_character(field, [[1]], 4)
basis = h1_basis_cyclic(ch)
vecs = [cocycle_class_vector(ch, c) for _, c in basis]
print("  exponents:", [i for i, _ in basis])
print("  rank of classes:", linalg.rank(field, vecs),
      "== dim:", h1_brute_force(ch)["dim"])

print("\nwhen does H^1(V) split as a sum over cyclic subgroups?")
for p, s, m in [(2, 2, 3), (3, 2, 2), (3, 2, 4), (5, 2, 2)]:
    cond = split_condition(p, s, m)
    full = h1_closed_formula(p, s, m)
    summed = s * h1_closed_formula(p, 1, m)
    verdict = "splits" if cond["holds"] else "does not split"
    print("  (%d,%d,%d): %s  (%d vs %d)" % (p, s, m, verdict, full, summed))
