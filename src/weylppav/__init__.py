"""Exact toolkit for Weyl-invariant families of principally polarized abelian varieties.

Everything is computed in exact integer and rational arithmetic. The main
entry points:

  rootsys        root-system catalog (Cartan/Gram data, reflections)
  weyl           finite closure of integer matrix groups
  ppav           the families Z_tau = tau * z0 (Family) and their invariants
  symplectic     Siegel action, fixed spaces, change-of-basis witnesses
  centralizer    centralizer elements, modular curves
  verify         whole-catalog verification harness
  cli            command-line front end (console script: weylppav)

The public names (``__all__``) resolve on first use: ``weylppav.Matrix``
imports ``exactmat`` when it is first read, so importing the package loads
none of these modules.
"""

__version__ = "0.1.0"

# Always False: there is no compiled backend. Kept importable for existing callers.
USING_COMPILED = False

# Each public name, by the module that defines it.
_MODULE_OF = {name: module for module, names in {
    "centralizer": "DeterminantNotOne LevelViolation centralizer_element curve_description",
    "exactmat": "AffineSolution Matrix NonUnimodular NotSymmetric Singular SnfResult "
                "smith_normal_form solve_affine",
    "ppav": "DivisorChain EllipticDecomposition Family coroot_polarization_degree "
            "divisor_chain group_divisors",
    "rootsys": "CartanData RootSystemId all_systems cartan_data cartan_matrix "
               "coroot_gram_matrix diagram_automorphisms gram_matrix simple_reflections",
    "symplectic": "AffineMatrixSpace NotSymplectic SingularDenominator "
                  "SymplecticMat UnsupportedGenerator embed_block_diag fixed_symmetric_space "
                  "is_symplectic modular_action standard_form verify_decomposition_witness "
                  "verify_family_isomorphism",
    "weyl": "MatrixGroup check_invariance expected_order generate_group",
}.items() for name in names.split()}

__all__ = ["USING_COMPILED", *_MODULE_OF]


def __getattr__(name):
    """Import a public name from its module on first use, and keep it here."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
