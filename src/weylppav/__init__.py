"""Exact toolkit for Weyl-invariant families of principally polarized abelian varieties.

Everything is computed in exact integer and rational arithmetic. The main
entry points:

  rootsys        root-system catalog (Cartan/Gram data, reflections)
  weyl           finite closure of integer matrix groups
  ppav           the families Z_tau = tau * z0 and their invariants
  symplectic     Siegel action, fixed spaces, change-of-basis witnesses
  centralizer    congruence levels and modular-curve reports
  verify         whole-catalog verification harness
  cli            command-line front end (console script: weylppav)
"""

from .centralizer import (CentralizerReport, DeterminantNotOne, LevelViolation,
                          centralizer_element, centralizer_level,
                          modular_curve_report)
from .exactmat import (AffineSolution, Matrix, NotSymmetric, Singular, SnfResult,
                       smith_normal_form, solve_affine)
from .ppav import (DivisorChain, EllipticDecomposition, RiemannFamily,
                   coroot_polarization_degree, divisor_chain,
                   elliptic_decomposition, exponent_level, riemann_family)
from .rootsys import (CartanData, RootSystemId, all_systems, cartan_data,
                      cartan_matrix, coroot_gram_matrix, diagram_automorphisms,
                      gram_matrix, simple_reflections)
from .symplectic import (AffineMatrixSpace, NonUnimodular, NotSymplectic,
                         SingularDenominator, SymplecticMat, UnsupportedGenerator,
                         embed_block_diag, fixed_symmetric_space, is_symplectic,
                         modular_action, standard_form, verify_decomposition_witness,
                         verify_family_isomorphism)
from .weyl import (MatrixGroup, NonUnimodularGenerator, check_invariance,
                   expected_order, generate_group)

__version__ = "0.1.0"

# Always False: there is no compiled backend. Kept importable for existing callers.
USING_COMPILED = False

__all__ = [
    "AffineMatrixSpace", "AffineSolution", "CartanData", "CentralizerReport",
    "DeterminantNotOne", "DivisorChain", "EllipticDecomposition", "LevelViolation",
    "Matrix", "MatrixGroup", "NonUnimodular", "NonUnimodularGenerator",
    "NotSymmetric", "NotSymplectic", "RiemannFamily", "RootSystemId", "Singular",
    "SingularDenominator", "SnfResult", "SymplecticMat", "UnsupportedGenerator",
    "USING_COMPILED", "all_systems", "cartan_data", "cartan_matrix",
    "centralizer_element", "centralizer_level", "check_invariance",
    "coroot_gram_matrix", "coroot_polarization_degree", "diagram_automorphisms",
    "divisor_chain", "elliptic_decomposition", "embed_block_diag",
    "expected_order", "exponent_level", "fixed_symmetric_space", "generate_group",
    "gram_matrix", "is_symplectic", "modular_action", "modular_curve_report",
    "riemann_family", "simple_reflections", "smith_normal_form", "solve_affine",
    "standard_form", "verify_decomposition_witness", "verify_family_isomorphism",
]
