"""Complete classification of two-dimensional subproduct systems and their
dual graded algebras: exact symbolic proof of the determinant identity,
constructive normal forms, and an explicit isomorphism for every instance.

`import spsys2d` loads no submodule: each public name below is imported from
the submodule that defines it on first use (PEP 562), so the exact half
(`exactpoly`, `identity`) and the numeric half load apart, and a name of the
system path (`plane`, `stacks`, `systems`) loads neither `classify` nor
`graded`.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name, by the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "common": ("DEFAULT_EPS", "QuadCoeffs", "quad_coeffs"),
    "exactpoly": ("NVARS", "VAR_NAMES", "Polynomial", "SymMatrix", "det_cofactor",
                  "evaluate_batch", "int_det_bareiss", "laplace_terms"),
    "identity": ("d4_polynomial", "d8_polynomial", "det8_matrix", "main_identity_residual",
                 "resultant4", "surviving_laplace_terms"),
    "tensorlinalg": ("Subspace", "annihilator", "intersect", "kron"),
    "plane": ("Classification", "NotSubproductTripleError", "TripleClass", "TripleIso",
              "rank_of_plane"),
    "classify": ("Triple", "canonical_triple", "classify_triple", "product_in_intersection"),
    "stacks": ("GradedAlgebra",),
    "graded": ("Algebra2", "AutomorphismFamily", "GradedMorphism",
               "automorphism_description", "build_graded", "catalog",
               "check_image_condition", "check_kernel_condition", "check_surjective_mult",
               "extend_morphism", "is_automorphism", "is_isomorphism", "twist"),
    "systems": ("AxiomReport", "SubproductSystem", "SystemIso", "SystemLabel",
                "canonical_system", "check_axioms", "classify_system", "dualize",
                "iso_residuals", "random_system", "triple_of_system"),
}.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
