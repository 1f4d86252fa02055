"""Exact arithmetic for wild automorphisms of k[[t]] and their
infinitesimal deformations: finite fields and Artin local algebras,
truncated Laurent series, the canonical order-p^s automorphism family,
group cohomology of the tangent module (H^1 from invariant pole parts of
T_K/T, classes and obstructions on the pole-part module M), Artin-Schreier
cover models, and matrix deformation data."""

from .coeffring import (
    ArtinAlgebraDescriptor,
    ArtinElem,
    FieldDescriptor,
    FieldElem,
    make_artin_algebra,
    make_field,
)
from .series import (
    INF,
    DistinguishedPolynomial,
    LaurentSeries,
    compose,
    invert_unit_series,
    revert,
    weierstrass_prepare,
)
from .addpoly import PPolynomial, moore_det, ppoly_apply
from .autoreps import (
    Character,
    GroupElem,
    build_rho,
    default_precision,
    make_character,
    ramification_data,
    verify_group_law,
)
from .cohomology import (
    OneCochain,
    PolePartClass,
    h1_basis_cyclic,
    h1_brute_force,
    h1_closed_formula,
    h2_brute_force,
    krull_dimension_sigma,
    split_condition,
)
from .ascover import (
    ASCover,
    CoverClass,
    build_u,
    class_reduce,
    conductor,
    deformed_u,
    equivalent_covers,
    germ_model,
)
from .deform import (
    DeformationDatum,
    MatrixRep,
    cocycle_formula,
    conjugate_rep,
    deformed_rho,
    lifting_predicates,
    make_matrix_rep,
    obstruction_two_cocycle,
    rep_validate,
    tangent_cocycle_extract,
)

__version__ = "0.1.0"
