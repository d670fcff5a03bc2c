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
from math import gcd
from typing import Optional, Sequence

from .exactmat import (Matrix, NonUnimodular, Singular, _is_involution, _moved_columns,
                       _unimodular_columns, smith_normal_form, solve_affine)


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
    J m = [[C, D], [-A, -B]] is m's rows moved and the top half negated,
    which the product J * m forms as row copies and negations (each row of
    J holds one nonzero), so only one dense 2n x 2n product is formed.
    """
    if not m.is_square or m.nrows % 2:
        raise ValueError("even-sized square matrix required")
    n = m.nrows // 2
    rows = m.rows()
    if not any(any(r[n:]) for r in rows[:n]) and not any(any(r[:n]) for r in rows[n:]):
        return m.submatrix(0, n, 0, n).T * m.submatrix(n, 2 * n, n, 2 * n) == \
            Matrix.identity(n)
    j = standard_form(n)
    return m.T * (j * m) == j


@dataclass(frozen=True)
class SymplecticMat:
    """A 2n x 2n integer matrix satisfying m^t J m = J, checked on construction."""

    n: int
    m: Matrix

    @classmethod
    def _certified(cls, n: int, m: Matrix) -> "SymplecticMat":
        """Trusted constructor, unchecked: an exact identity has shown m symplectic."""
        s = object.__new__(cls)
        s.__dict__.update(n=n, m=m)
        return s

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
    """Embed a unimodular matrix as [[rho, 0], [0, rho^{-t}]], certified by a product.

    [[rho, 0], [0, X^t]] is symplectic exactly when X rho = I. An involution
    (rho * rho = I on the columns rho moves, as for every reflection) is its
    own inverse. Otherwise a Smith form u * rho * v = I decides unimodularity
    (the refusal is ``exactmat._unimodular_columns``'s: NonUnimodular,
    "determinant is <d>"), and rho * (v * u) = I certifies the inverse v * u
    or raises NotSymplectic.
    """
    if not (rho.is_square and rho.is_integral()):
        raise ValueError("square integer matrix required")
    n = rho.nrows
    inverse = rho
    if not _is_involution(_moved_columns(rho)):
        snf = smith_normal_form(rho)
        if any(x != 1 for x in snf.diagonal()):
            raise NonUnimodular(f"determinant is {rho.det()}")
        inverse = snf.v * snf.u
        if _moved_columns(rho * inverse):
            raise NotSymplectic("Smith inverse fails rho * (v * u) = I")
    zero = Matrix.zeros(n)
    return SymplecticMat._certified(n, Matrix.block2(rho, zero, zero, inverse.T))


def modular_action(m: SymplecticMat, z: Matrix) -> Matrix:
    """Apply z |-> (A z + B)(C z + D)^{-1}; the result is again symmetric.

    When C = 0 the symplectic condition gives D^{-1} = A^t and makes B A^t
    symmetric, so the action (A z + B) A^t = A z A^t + B A^t is symmetric
    and equals its transpose A (A z + B)^t: two products on z's integer
    numerators, the sparse A on the left, and no inverse.
    """
    n = m.n
    if (z.nrows, z.ncols) != (n, n):
        raise ValueError(f"{n} x {n} matrix required")
    a, b, c, d = m.blocks()
    if not z.is_symmetric():
        raise ValueError("symmetric matrix required")
    if c.is_zero():
        result = a * (a * z + b).T
    else:
        try:
            result = (a * z + b) * (c * z + d).inverse()
        except Singular:
            raise SingularDenominator("C z + D is singular") from None
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
    num = Matrix([vec]).numerators
    g = gcd(*num) or 1
    if next(filter(None, num), 0) < 0:
        g = -g
    return tuple(x // g for x in num)


def fixed_space_equations(generators: Sequence[SymplecticMat]) -> tuple:
    """The fixed condition of every generator as linear equations (rows, rhs).

    Every generator must be block-upper-triangular; for those the fixed
    condition A z A^t + B A^t = z is linear in the n(n+1)/2 upper-triangle
    unknowns of z (``sym_to_vec`` order): one row of integer coefficients and
    one right-hand side per output coordinate. Coordinate (i, j) of A z A^t
    sums A_ik * A_jl * z_kl over the nonzeros of rows i and j of A, and
    z_kl is the unknown z_(min(k, l), max(k, l)). An equation whose
    coefficients and right-hand side are all zero is dropped; for an
    embedded reflection that is all but n of its n(n+1)/2 equations.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("at least one generator required")
    n = gens[0].n
    coords = _sym_index(n)
    unknown = [[0] * n for _ in range(n)]  # unknown[k][l]: the unknown of z_kl
    for u, (k, l) in enumerate(coords):
        unknown[k][l] = unknown[l][k] = u
    rows = []
    rhs = []
    for gen in gens:
        if gen.n != n:
            raise ValueError("generators must share one size")
        a, b, c, _ = gen.blocks()
        if not c.is_zero():
            raise UnsupportedGenerator(
                "lower-left block must vanish for linear fixed-space solving")
        nonzeros = [[(k, x) for k, x in enumerate(r) if x] for r in a.rows()]
        trans = (b * a.T).rows()
        for u, (i, j) in enumerate(coords):
            row = [0] * len(coords)
            row[u] = -1  # the - z_ij of A z A^t - z
            for k, x in nonzeros[i]:
                for l, y in nonzeros[j]:
                    row[unknown[k][l]] += x * y
            # 0 = 0 constrains nothing; 0 = c != 0 stays and is inconsistent.
            if any(row) or trans[i][j]:
                rows.append(row)
                rhs.append(-trans[i][j])
    return rows, rhs


def fixed_symmetric_space(generators: Sequence[SymplecticMat]) -> AffineMatrixSpace:
    """Exact set of symmetric rational z fixed by every generator's action.

    The equations of ``fixed_space_equations`` are linear for the
    block-upper-triangular generators it accepts, so the whole set falls
    out of one rational solve.
    """
    gens = list(generators)
    rows, rhs = fixed_space_equations(gens)
    n = gens[0].n
    size = n * (n + 1) // 2
    # A matrix needs a row: when every equation was 0 = 0, one stands for all.
    solution = solve_affine(Matrix(rows or [[0] * size]), rhs or [0])
    if solution.particular is None:
        return AffineMatrixSpace(n=n, particular=None, basis=())
    basis = tuple(vec_to_sym(_primitive(v), n) for v in solution.kernel_basis)
    particular = vec_to_sym(solution.particular, n)
    return AffineMatrixSpace(n=n, particular=particular, basis=basis)


# -- family isomorphism and decomposition witnesses ------------------------------


def verify_family_isomorphism(a: Matrix, z1: Matrix, z2: Matrix) -> bool:
    """Check the unimodular change of basis a (else NonUnimodular): does
    a z1 a^t = z2 hold exactly?

    For the one-parameter families tau*z1 and tau*z2 this single rational
    identity is equivalent to the block-diagonal symplectic equivalence at
    every parameter value, since tau cancels.
    """
    _unimodular_columns(a)
    return a * z1 * a.T == z2


def verify_decomposition_witness(f: Matrix, d: Sequence[int], m: Matrix,
                                 z0: Matrix) -> bool:
    """Check a splitting witness: F z0 = diag(d) M exactly, F unimodular
    (else NonUnimodular)."""
    _unimodular_columns(f)
    return f * z0 == Matrix.diagonal(list(d)) * m
