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

from .exactmat import Matrix, Singular, smith_normal_form, solve_affine


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
    """True iff m^t J m = J exactly; m must be square of even size 2n.

    With m = [[A, B], [C, D]] and B = C = 0, m^t J m = [[0, A^t D],
    [-D^t A, 0]], so the test is the n x n product A^t D = I. Otherwise
    J m = [[C, D], [-A, -B]] is m's rows moved and the top half negated, so
    only one 2n x 2n product, m^t (J m), is formed.
    """
    if not m.is_square or m.nrows % 2:
        raise ValueError("even-sized square matrix required")
    n = m.nrows // 2
    rows = m.rows()
    if not any(any(r[n:]) for r in rows[:n]) and not any(any(r[:n]) for r in rows[n:]):
        return m.submatrix(0, n, 0, n).T * m.submatrix(n, 2 * n, n, 2 * n) == \
            Matrix.identity(n)
    half = n * m.ncols
    # Negated canonical entries are canonical, so J m needs no checks.
    jm = Matrix._from_canonical(m.flat[half:] + tuple(-x for x in m.flat[:half]),
                                m.nrows, m.ncols)
    return m.T * jm == standard_form(n)


@dataclass(frozen=True)
class SymplecticMat:
    """A 2n x 2n integer matrix satisfying m^t J m = J, checked on construction."""

    n: int
    m: Matrix

    def __post_init__(self):
        if self.m.nrows != 2 * self.n or self.m.ncols != 2 * self.n:
            raise ValueError(f"matrix size must be {2 * self.n} x {2 * self.n}")
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


def embed_block_diag(rho: Matrix) -> SymplecticMat:
    """Embed a unimodular matrix as [[rho, 0], [0, rho^{-t}]].

    An involution (rho * rho = I, as every reflection is) is its own
    inverse, so its contragredient is rho^t. Any other rho takes one Smith
    form u * rho * v = d, which decides and inverts: rho is unimodular
    exactly when d = I, and then rho^{-1} = v * u, an integer matrix.
    """
    if not (rho.is_square and rho.is_integral()):
        raise ValueError("square integer matrix required")
    n = rho.nrows
    if rho * rho == Matrix.identity(n):
        contragredient = rho.T
    else:
        snf = smith_normal_form(rho)
        if any(x != 1 for x in snf.diagonal()):
            raise NonUnimodular(f"determinant is {rho.det()}")
        contragredient = (snf.v * snf.u).T
    zero = Matrix.zeros(n)
    return SymplecticMat(n, Matrix.block2(rho, zero, zero, contragredient))


def modular_action(m: SymplecticMat, z: Matrix) -> Matrix:
    """Apply z |-> (A z + B)(C z + D)^{-1}; the result is again symmetric.

    When C = 0 the symplectic condition gives D^{-1} = A^t, so the action
    is (A z + B) A^t and needs no inverse.
    """
    if not z.is_symmetric():
        raise ValueError("symmetric matrix required")
    a, b, c, d = m.blocks()
    if c.is_zero():
        denom_inv = a.T
    else:
        try:
            denom_inv = (c * z + d).inverse()
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
    if len(vec) != n * (n + 1) // 2:
        raise ValueError(f"a symmetric {n} x {n} matrix takes {n * (n + 1) // 2} "
                         f"coordinates, got {len(vec)}")
    rows = [[0] * n for _ in range(n)]
    for (i, j), x in zip(_sym_index(n), vec):
        rows[i][j] = x
        rows[j][i] = x
    return Matrix(rows)


def _primitive(vec):
    """Scale a rational vector to a primitive integer vector, leading entry > 0."""
    scale = lcm(*(x.denominator if isinstance(x, Fraction) else 1 for x in vec))
    scaled = [int(x * scale) for x in vec]
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
        a_rows = a.rows()
        trans = (b * a.T).rows()
        # row for output coordinate (i, j): coefficients of each unknown z_kl
        for i, j in coords:
            a_i, a_j = a_rows[i], a_rows[j]
            row = []
            for k, l in coords:
                coef = a_i[k] * a_j[l]
                if k != l:
                    coef += a_i[l] * a_j[k]
                if (i, j) == (k, l):
                    coef -= 1
                row.append(coef)
            rows.append(row)
            rhs.append(-trans[i][j])
    solution = solve_affine(Matrix(rows), rhs)
    if solution.particular is None:
        return AffineMatrixSpace(n=n, particular=None, basis=())
    basis = tuple(vec_to_sym(_primitive(v), n) for v in solution.kernel_basis)
    particular = vec_to_sym(solution.particular, n)
    return AffineMatrixSpace(n=n, particular=particular, basis=basis)


# -- family isomorphism and decomposition witnesses ------------------------------


def _require_unimodular(a: Matrix):
    if not (a.is_square and a.is_integral()):
        raise ValueError("square integer matrix required")
    if abs(det := a.det()) != 1:
        raise NonUnimodular(f"determinant is {det}")


def verify_family_isomorphism(a: Matrix, z1: Matrix, z2: Matrix) -> bool:
    """Check the unimodular change of basis a: does a z1 a^t = z2 hold exactly?

    For the one-parameter families tau*z1 and tau*z2 this single rational
    identity is equivalent to the block-diagonal symplectic equivalence at
    every parameter value, since tau cancels.
    """
    _require_unimodular(a)
    return a * z1 * a.T == z2


def verify_decomposition_witness(f: Matrix, d: Sequence[int], m: Matrix,
                                 z0: Matrix) -> bool:
    """Check a splitting witness: F z0 = diag(d) M exactly."""
    _require_unimodular(f)
    return f * z0 == Matrix.diagonal(list(d)) * m
