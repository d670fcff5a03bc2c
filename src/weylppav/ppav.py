"""One-parameter Riemann-matrix families attached to root systems.

For each system the family is Z_tau = tau * Z0 with Z0 the exact inverse
of the Gram matrix of the invariant inner product, read off its Smith
form. tau stays symbolic throughout: membership of tau in the upper
half-plane is a documented precondition, never a numeric check, since
every verifiable claim here is an identity in exact rational matrices.

A ``Family`` is built from the representation and the form it preserves:
the Gram matrix and the simple reflections. Its invariant factors drive
everything else: the splitting of the associated abelian variety into
elliptic curves, and the congruence level of the family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactmat import Matrix, SnfResult, smith_normal_form
from .rootsys import RootSystemId, coroot_gram_matrix, gram_matrix, simple_reflections


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
class Family:
    """The family Z_tau = tau * z0, tau in H_1, of an integral form.

    ``form`` is the invariant Gram matrix S, ``generators`` the matrices of
    the representation that preserve it, ``z0`` = S^{-1}, ``chain`` the
    invariant factors of S and ``snf`` the Smith form u * S * v = D that
    ``from_system`` takes both from: the chain is D's diagonal and
    z0 = v * D^{-1} * u. The product S * z0 = I, which shares no code with
    the Smith form, is what certifies z0 (verify's riemann-matrices section
    checks it), and verify's torus-decompositions section certifies u and v.
    """

    form: Matrix
    generators: tuple
    z0: Matrix
    chain: DivisorChain
    snf: SnfResult

    @classmethod
    def from_system(cls, system: RootSystemId) -> "Family":
        """The Gram form of a root system and its simple reflections."""
        form = gram_matrix(system)
        snf = smith_normal_form(form)
        diag = snf.diagonal()
        z0 = snf.v * Matrix.diagonal([Fraction(1, d) for d in diag]) * snf.u
        return cls(form, tuple(simple_reflections(system)), z0,
                   DivisorChain(divisors=tuple(reversed(diag))), snf)

    @property
    def level(self) -> int:
        """Least N with N * z0 integral: the largest invariant factor of S.

        S = U * D * V with U, V unimodular, so N * z0 is integral iff
        N * D^{-1} is.
        """
        return self.chain.divisors[0]


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


def divisor_chain(form: Matrix) -> DivisorChain:
    """Invariant factors of an integral form, largest first."""
    diag = smith_normal_form(form).diagonal()
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
