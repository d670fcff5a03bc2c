"""Symplectic embeddings, the Siegel action, and fixed Riemann matrices.

Convention, used consistently everywhere: the standard alternating form is
J = [[0, I], [-I, 0]], a symplectic matrix satisfies m^t J m = J, and a
block matrix [[A, B], [C, D]] acts on a symmetric matrix z by

    z  |->  (A z + B) (C z + D)^{-1}.

For a block-upper-triangular element (C = 0, D = A^{-t}) this is the
affine map z |-> A z A^t + B A^t, which is what makes exact fixed-space
computation a linear problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from .exactmat import Matrix, Singular, solve_affine


class NonUnimodular(ValueError):
    """An integer matrix with |det| = 1 was required."""


class NotSymplectic(ValueError):
    """The symplectic condition m^t J m = J failed."""


class SingularDenominator(ValueError):
    """C z + D is singular, so the action is undefined at z."""


class UnsupportedGenerator(ValueError):
    """Fixed-space solving needs block-upper-triangular (C = 0) generators."""


def standard_form(n: int) -> Matrix:
    """The alternating form J = [[0, I], [-I, 0]] of size 2n."""
    ident = Matrix.identity(n)
    zero = Matrix.zeros(n)
    return Matrix.block2(zero, ident, -ident, zero)


def is_symplectic(m: Matrix) -> bool:
    """True iff m is square of even size and m^t J m = J exactly."""
    if not m.is_square or m.nrows % 2:
        raise ValueError("even-sized square matrix required")
    j = standard_form(m.nrows // 2)
    return m.T * j * m == j


@dataclass(frozen=True)
class SymplecticMat:
    """A 2n x 2n integer matrix satisfying m^t J m = J, checked on construction."""

    n: int
    m: Matrix

    def __post_init__(self):
        if self.m.nrows != 2 * self.n or self.m.ncols != 2 * self.n:
            raise ValueError("matrix size must be 2n x 2n")
        if not self.m.is_integral():
            raise ValueError("integer entries required")
        if not is_symplectic(self.m):
            raise NotSymplectic("m^t J m != J")

    def blocks(self):
        """The four n x n blocks (A, B, C, D)."""
        n = self.n
        m = self.m
        return (m.submatrix(0, n, 0, n), m.submatrix(0, n, n, 2 * n),
                m.submatrix(n, 2 * n, 0, n), m.submatrix(n, 2 * n, n, 2 * n))

    def __mul__(self, other: "SymplecticMat") -> "SymplecticMat":
        if not isinstance(other, SymplecticMat):
            return NotImplemented
        return SymplecticMat(self.n, self.m * other.m)


def embed_block_diag(rho: Matrix) -> SymplecticMat:
    """Embed a unimodular matrix as [[rho, 0], [0, rho^{-t}]]."""
    if not (rho.is_square and rho.is_integral()):
        raise ValueError("square integer matrix required")
    if abs(det := rho.det()) != 1:
        raise NonUnimodular(f"determinant is {det}")
    n = rho.nrows
    contragredient = rho.inverse().T
    zero = Matrix.zeros(n)
    return SymplecticMat(n, Matrix.block2(rho, zero, zero, contragredient))


def modular_action(m: SymplecticMat, z: Matrix) -> Matrix:
    """Apply z |-> (A z + B)(C z + D)^{-1}; the result is again symmetric."""
    if not z.is_symmetric():
        raise ValueError("symmetric matrix required")
    a, b, c, d = m.blocks()
    denom = c * z + d
    try:
        denom_inv = denom.inverse()
    except Singular:
        raise SingularDenominator("C z + D is singular") from None
    result = (a * z + b) * denom_inv
    if not result.is_symmetric():
        raise AssertionError("action of a symplectic matrix must preserve symmetry")
    return result


# -- fixed symmetric matrices ---------------------------------------------------


@dataclass(frozen=True)
class AffineMatrixSpace:
    """Affine set of symmetric matrices: particular + span(basis).

    ``particular`` is None when no solution exists. Basis matrices are
    scaled to primitive integer form with positive leading entry (row-major
    upper-triangle order), so output is canonical.
    """

    n: int
    particular: Optional[Matrix]
    basis: tuple

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _sym_index(n: int):
    """Row-major upper-triangle coordinate order for symmetric matrices."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def sym_to_vec(m: Matrix) -> tuple:
    return tuple(m[i, j] for i, j in _sym_index(m.nrows))


def vec_to_sym(vec: Sequence, n: int) -> Matrix:
    rows = [[0] * n for _ in range(n)]
    for (i, j), x in zip(_sym_index(n), vec):
        rows[i][j] = x
        rows[j][i] = x
    return Matrix(rows)


def _primitive(vec):
    """Scale a rational vector to a primitive integer vector, leading entry > 0."""
    denoms = [x.denominator if isinstance(x, Fraction) else 1 for x in vec]
    scaled = [int(x * lcm(*denoms)) for x in vec]
    g = gcd(*(abs(x) for x in scaled))
    if g > 1:
        scaled = [x // g for x in scaled]
    lead = next((x for x in scaled if x != 0), 1)
    if lead < 0:
        scaled = [-x for x in scaled]
    return tuple(scaled)


def fixed_symmetric_space(generators: Sequence[SymplecticMat]) -> AffineMatrixSpace:
    """Exact set of symmetric rational z fixed by every generator's action.

    Every generator must be block-upper-triangular; for those the fixed
    condition A z A^t + B A^t = z is linear in the n(n+1)/2 upper-triangle
    unknowns of z, and the whole set falls out of one rational solve.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("at least one generator required")
    n = gens[0].n
    coords = _sym_index(n)
    rows = []
    rhs = []
    for gen in gens:
        if gen.n != n:
            raise ValueError("generators must share one size")
        a, b, c, _ = gen.blocks()
        if not c.is_zero():
            raise UnsupportedGenerator(
                "lower-left block must vanish for linear fixed-space solving")
        trans = b * a.T
        # row for output coordinate (i, j): coefficients of each unknown z_kl
        for i, j in coords:
            row = []
            for k, l in coords:
                coef = a[i, k] * a[j, l]
                if k != l:
                    coef += a[i, l] * a[j, k]
                if (i, j) == (k, l):
                    coef -= 1
                row.append(coef)
            rows.append(row)
            rhs.append(-trans[i, j])
    solution = solve_affine(Matrix(rows), rhs)
    if solution.particular is None:
        return AffineMatrixSpace(n=n, particular=None, basis=())
    basis = tuple(vec_to_sym(_primitive(v), n) for v in solution.kernel_basis)
    particular = vec_to_sym(solution.particular, n)
    return AffineMatrixSpace(n=n, particular=particular, basis=basis)


# -- family isomorphism and decomposition witnesses ------------------------------


def verify_family_isomorphism(a: Matrix, z1: Matrix, z2: Matrix) -> bool:
    """Check the unimodular change of basis a: does a z1 a^t = z2 hold exactly?

    For the one-parameter families tau*z1 and tau*z2 this single rational
    identity is equivalent to the block-diagonal symplectic equivalence at
    every parameter value, since tau cancels.
    """
    if not (a.is_square and a.is_integral()):
        raise ValueError("square integer matrix required")
    if abs(det := a.det()) != 1:
        raise NonUnimodular(f"determinant is {det}")
    return a * z1 * a.T == z2


def verify_decomposition_witness(f: Matrix, d: Sequence[int], m: Matrix,
                                 z0: Matrix) -> bool:
    """Check a splitting witness: F z0 = diag(d) M exactly."""
    if not (f.is_square and f.is_integral()):
        raise ValueError("square integer matrix required")
    if abs(det := f.det()) != 1:
        raise NonUnimodular(f"determinant is {det}")
    return f * z0 == Matrix.diagonal(list(d)) * m
