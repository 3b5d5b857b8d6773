"""Complete classification of two-dimensional subproduct systems and their
dual graded algebras: exact symbolic proof of the determinant identity,
constructive normal forms, and an explicit isomorphism for every instance.
"""

from .exactpoly import (
    NVARS,
    VAR_NAMES,
    Polynomial,
    SymMatrix,
    det_cofactor,
    det_laplace,
    evaluate_batch,
    int_det_bareiss,
    laplace_terms,
)
from .identity import (
    QuadCoeffs,
    d4_polynomial,
    d8_polynomial,
    det8_matrix,
    main_identity_residual,
    quad_coeffs,
    resultant4,
    surviving_laplace_terms,
)
from .tensorlinalg import (
    DEFAULT_EPS,
    Subspace,
    annihilator,
    factor_rank_one,
    intersect,
    kron,
    normalize_projective,
    quad_form_A,
    quad_form_A_bilinear,
    roots_binary_quadratic,
    subspace_sum,
)
from .classify import (
    ChainNormalForm,
    ChainUnclassifiedError,
    Classification,
    NotSubproductTripleError,
    PlaneNormalForm,
    Triple,
    TripleClass,
    TripleIso,
    canonical_triple,
    chain_normal_form,
    classify_triple,
    plane_normal_form,
    product_in_intersection,
    rank_of_plane,
)
from .graded import (
    Algebra2,
    AutomorphismFamily,
    GradedAlgebra,
    GradedMorphism,
    automorphism_description,
    build_graded,
    catalog,
    check_image_condition,
    check_kernel_condition,
    check_surjective_mult,
    extend_morphism,
    is_automorphism,
    is_isomorphism,
    twist,
)
from .systems import (
    AxiomReport,
    SubproductSystem,
    SystemIso,
    SystemLabel,
    canonical_system,
    check_axioms,
    classify_system,
    dualize,
    iso_residuals,
    random_system,
    triple_of_system,
)

__version__ = "0.1.0"

__all__ = [
    "NVARS", "VAR_NAMES", "Polynomial", "SymMatrix", "det_cofactor",
    "det_laplace", "evaluate_batch", "int_det_bareiss", "laplace_terms",
    "QuadCoeffs", "d4_polynomial", "d8_polynomial", "det8_matrix",
    "main_identity_residual", "quad_coeffs", "resultant4",
    "surviving_laplace_terms",
    "DEFAULT_EPS", "Subspace", "annihilator", "factor_rank_one", "intersect",
    "kron", "normalize_projective", "quad_form_A", "quad_form_A_bilinear",
    "roots_binary_quadratic", "subspace_sum",
    "ChainNormalForm", "ChainUnclassifiedError", "Classification",
    "NotSubproductTripleError",
    "PlaneNormalForm", "Triple", "TripleClass", "TripleIso", "canonical_triple",
    "chain_normal_form", "classify_triple", "plane_normal_form",
    "product_in_intersection", "rank_of_plane",
    "Algebra2", "AutomorphismFamily", "GradedAlgebra", "GradedMorphism",
    "automorphism_description", "build_graded", "catalog",
    "check_image_condition", "check_kernel_condition", "check_surjective_mult",
    "extend_morphism", "is_automorphism", "is_isomorphism", "twist",
    "AxiomReport", "SubproductSystem", "SystemIso", "SystemLabel",
    "canonical_system", "check_axioms", "classify_system", "dualize",
    "iso_residuals", "random_system", "triple_of_system",
]
