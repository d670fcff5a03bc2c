"""One-parameter Riemann-matrix families attached to root systems.

For each system the family is Z_tau = tau * Z0 with Z0 the exact inverse
of the Gram matrix of the invariant inner product. tau stays symbolic
throughout: membership of tau in the upper half-plane is a documented
precondition, never a numeric check, since every verifiable claim here is
an identity in exact rational matrices.

The invariant factors of the Gram matrix drive everything else: the
splitting of the associated abelian variety into elliptic curves, and the
congruence level of the family.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactmat import Matrix, smith_normal_form
from .rootsys import RootSystemId, coroot_gram_matrix, gram_matrix


@dataclass(frozen=True)
class RiemannFamily:
    """Base matrix z0 of the family Z_tau = tau * z0, tau in H_1."""

    system: RootSystemId
    z0: Matrix
    description: str


@dataclass(frozen=True)
class DivisorChain:
    """Invariant factors d_1 >= d_2 >= ..., each divisible by the next."""

    divisors: tuple

    def __post_init__(self):
        ds = self.divisors
        if not ds or any(d <= 0 for d in ds):
            raise ValueError("divisors must be positive")
        if any(ds[i] % ds[i + 1] for i in range(len(ds) - 1)):
            raise ValueError("each divisor must be divisible by its successor")


@dataclass(frozen=True)
class EllipticDecomposition:
    """Multiset of elliptic factors: (divisor d, multiplicity m) means E_{tau/d}^m."""

    factors: tuple

    def render(self) -> str:
        parts = []
        for d, m in self.factors:
            base = "E_t" if d == 1 else f"E_{{t/{d}}}"
            parts.append(base if m == 1 else f"{base}^{m}")
        return " x ".join(parts)


def riemann_family(system: RootSystemId) -> RiemannFamily:
    """Exact base matrix z0 = gram_matrix(system)^{-1}."""
    z0 = gram_matrix(system).inverse()
    return RiemannFamily(
        system=system,
        z0=z0,
        description="Z_tau = tau * z0 for tau in the upper half-plane",
    )


def divisor_chain(system: RootSystemId) -> DivisorChain:
    """Invariant factors of the Gram matrix, largest first."""
    diag = smith_normal_form(gram_matrix(system)).diagonal()
    return DivisorChain(divisors=tuple(reversed(diag)))


def group_divisors(chain: DivisorChain) -> EllipticDecomposition:
    """Group a divisor chain into (divisor, multiplicity) factors, smallest divisor first."""
    ds = chain.divisors
    return EllipticDecomposition(factors=tuple((d, ds.count(d)) for d in sorted(set(ds))))


def coroot_polarization_degree(system: RootSystemId) -> int:
    """Determinant of the primitive integral coroot Gram form."""
    deg = coroot_gram_matrix(system).det()
    if deg <= 0:
        raise AssertionError(f"coroot form of {system} is not positive")
    return deg
