"""Centralizer of the embedded reflection action inside the symplectic group.

Every symplectic matrix commuting with the embedded action has the shape
[[a*I, b*z0], [c*z0^{-1}, d*I]] with ad - bc = 1; integrality pins b to
multiples of the level N, the least integer with N * z0 integral. That
level is what parameterizes the family as a quotient of the upper
half-plane by the congruence group of matrices whose upper-right entry is
divisible by N (written Gamma^0(N); level 1 is the full modular group).

N is the largest invariant factor of the Gram matrix S, because S = U * D * V
with U, V unimodular; ``Family.level`` reads it off the divisor chain.
``centralizer_element`` reads z0 and S off the family, so it takes no
inverse and no Smith form, and checks that b * z0 is integral.

Exhaustiveness of this shape is an assumption recorded here, not something
the toolkit proves; what it checks is that every constructed element is
symplectic and commutes with the embedded generators.
"""

from __future__ import annotations

from .exactmat import Matrix
from .ppav import Family
from .symplectic import SymplecticMat


class DeterminantNotOne(ValueError):
    """The parameters (a, b, c, d) must satisfy ad - bc = 1."""


class LevelViolation(ValueError):
    """b * z0 is not integral: b must be a multiple of the level."""


def centralizer_element(family: Family, a: int, b: int, c: int,
                        d: int) -> SymplecticMat:
    """Build [[a*I, b*z0], [c*z0^{-1}, d*I]] as an integer symplectic matrix."""
    if a * d - b * c != 1:
        raise DeterminantNotOne(f"ad - bc = {a * d - b * c}")
    n = family.form.nrows
    ident = Matrix.identity(n)
    top_right = b * family.z0
    if not top_right.is_integral():
        raise LevelViolation(f"b = {b} is not a multiple of the level {family.level}")
    bottom_left = c * family.form  # z0^{-1} is the Gram matrix, always integral
    return SymplecticMat(n, Matrix.block2(a * ident, top_right,
                                          bottom_left, d * ident))


def curve_description(level: int) -> str:
    """Render H_1 / Gamma^0(level); level 1 collapses to the full modular group."""
    return "H_1/Gamma" if level == 1 else f"H_1/Gamma^0({level})"
