"""First-order deformations over the dual numbers, start to finish.

A deformation datum perturbs the divisor (a1), the diagonal character
(lambda1) and the translation part (delta) to first order in eps.  The
script solves the deformed functional equation, extracts the tangent
1-cocycle from the solution, and compares it against the closed pole
part formula.  It ends with the obstruction check for lifting one more
infinitesimal order.
"""

from wildram.autoreps import make_character
from wildram.coeffring import make_artin_algebra, make_field
from wildram.deform import (
    deformed_rho,
    cocycle_formula_cochain,
    make_datum,
    obstruction_two_cocycle,
    rep_validate,
    tangent_cocycle_extract,
    trivial_rep,
)
from wildram.series import INF, LaurentSeries

p, s, m = 3, 1, 2
field = make_field(p)
ch = make_character(field, [[1]], m)

# deform only the divisor: t^m + eps
datum = make_datum(ch, [0], [0], [1, 0])
rep = datum.matrix_rep()
print("deformation datum valid:", rep_validate(rep)["valid"])

ftilde = datum.ftilde(60)
T = deformed_rho(rep, ftilde, ch.generator(1), 14)
print("\ndeformed automorphism (eps-part shows the flow):")
print(" ", T)
print("reduces to the undeformed rho:", T.eps_component(0) == T.residue())

# the extraction solves mod t^(m+2); it needs ftilde to t^(m+1-mu) when the
# divisor moves at t^mu, and ftilde(P) is known to t^(P-2(m-mu)), so
# P = 3m+1 serves every datum
extracted = tangent_cocycle_extract(rep, datum.ftilde(3 * m + 1))
closed = cocycle_formula_cochain(datum)
print("\ntangent cocycle, extracted:", extracted.vals[0].vector())
print("tangent cocycle, formula:  ", closed.vals[0].vector())
print("agree:", extracted == closed)

# obstruction to lifting across k[eps]/eps^3 -> k[eps]/eps^2: a straight
# lift of the undeformed family composes on the nose; ftilde = t^-m is
# exact, and the defects are read mod t^(m+2)
A = make_artin_algebra(field, 3)
rep0 = trivial_rep(A, ch)
ft0 = LaurentSeries.t_power(A, -m, INF)
lifts = {1: deformed_rho(rep0, ft0, ch.generator(1), m + 2)}
obs = obstruction_two_cocycle(rep0, lifts)
print("\nobstruction 2-cocycle identically zero:", obs["identically_zero"])
print("vanishes in H^2:", obs["vanishes_in_H2"])
