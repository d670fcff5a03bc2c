"""Exact dense matrices over the integers and rationals.

Entries are Python ints or ``fractions.Fraction`` values; floats are
rejected. Fraction keeps numerators and denominators gcd-reduced with a
positive denominator, which is exactly the normalization the rest of the
toolkit relies on. Matrices are immutable (flat row-major tuples), so
every operation below is a pure function and values can be shared freely
across threads.

Algorithms are the classical exact ones. All Fraction elimination is in
two routines: ``_rref`` (Gauss-Jordan, behind ``inverse`` and
``solve_affine``) and ``_pivots`` (the forward pass, behind ``det`` and
``is_positive_definite``). The Smith normal form uses unimodular row/column
reduction. No floating point appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Iterable, Optional, Sequence, Union

from ._kernel import mat_mul_flat

Scalar = Union[int, Fraction]


class Singular(ValueError):
    """Inversion was asked of a matrix with determinant zero."""


class NotSymmetric(ValueError):
    """A symmetric matrix was required."""


def _canon(x) -> Scalar:
    """Normalize one entry: ints stay ints, integral Fractions collapse to int.

    ``bool`` is rejected: it is an ``int`` subclass, but a JSON ``true`` or a
    comparison result in a matrix is a mistake, not the number 1.
    """
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int) and not isinstance(x, bool):
        return int(x)
    raise TypeError(f"exact entry expected (int or Fraction), got {type(x).__name__}")


class Matrix:
    """Immutable dense matrix with exact entries.

    Stored as a flat row-major tuple plus the shape. Hashable, usable as a
    dict key or set member. Arithmetic operators do the obvious exact
    thing; ``*`` is matrix (or scalar) multiplication.
    """

    __slots__ = ("flat", "nrows", "ncols", "_integral")

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        data = []
        ncols = None
        nrows = 0
        for row in rows:
            row = tuple(_canon(x) for x in row)
            if ncols is None:
                ncols = len(row)
            elif len(row) != ncols:
                raise ValueError("ragged rows")
            data.extend(row)
            nrows += 1
        if nrows == 0 or not ncols:
            raise ValueError("matrix must have positive dimensions")
        object.__setattr__(self, "flat", tuple(data))
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "_integral", all(isinstance(x, int) for x in data))

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_flat(cls, flat: Sequence[Scalar], nrows: int, ncols: int) -> "Matrix":
        if len(flat) != nrows * ncols:
            raise ValueError("flat length does not match shape")
        return cls(flat[i * ncols:(i + 1) * ncols] for i in range(nrows))

    @classmethod
    def _from_int_flat(cls, flat: tuple, nrows: int, ncols: int) -> "Matrix":
        """Trusted constructor for a tuple of plain ints of the given shape.

        Skips the per-entry checks of ``__init__``; only for internal callers
        whose entries are exact ints by construction (the group closure and
        integer matrix products).
        """
        m = object.__new__(cls)
        object.__setattr__(m, "flat", flat)
        object.__setattr__(m, "nrows", nrows)
        object.__setattr__(m, "ncols", ncols)
        object.__setattr__(m, "_integral", True)
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, nrows: int, ncols: Optional[int] = None) -> "Matrix":
        ncols = nrows if ncols is None else ncols
        return cls([[0] * ncols for _ in range(nrows)])

    @classmethod
    def diagonal(cls, entries: Sequence[Scalar]) -> "Matrix":
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def block2(cls, a: "Matrix", b: "Matrix", c: "Matrix", d: "Matrix") -> "Matrix":
        """Assemble [[a, b], [c, d]]."""
        if a.nrows != b.nrows or c.nrows != d.nrows:
            raise ValueError("row counts do not match")
        if a.ncols != c.ncols or b.ncols != d.ncols:
            raise ValueError("column counts do not match")
        rows = [a.row(i) + b.row(i) for i in range(a.nrows)]
        rows += [c.row(i) + d.row(i) for i in range(c.nrows)]
        return cls(rows)

    # -- access ----------------------------------------------------------------

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError(ij)
        return self.flat[i * self.ncols + j]

    def row(self, i: int) -> tuple:
        return self.flat[i * self.ncols:(i + 1) * self.ncols]

    def col(self, j: int) -> tuple:
        return self.flat[j::self.ncols]

    def rows(self):
        return [self.row(i) for i in range(self.nrows)]

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        return Matrix(self.row(i)[c0:c1] for i in range(r0, r1))

    # -- predicates -------------------------------------------------------------

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_integral(self) -> bool:
        return self._integral

    def is_symmetric(self) -> bool:
        if not self.is_square:
            return False
        n = self.nrows
        return all(self.flat[i * n + j] == self.flat[j * n + i]
                   for i in range(n) for j in range(i + 1, n))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.flat)

    # -- arithmetic ---------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix)
                and self.nrows == other.nrows
                and self.ncols == other.ncols
                and self.flat == other.flat)

    def __hash__(self) -> int:
        return hash((self.nrows, self.ncols, self.flat))

    def __neg__(self) -> "Matrix":
        return Matrix.from_flat([-x for x in self.flat], self.nrows, self.ncols)

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")
        return Matrix.from_flat([x + y for x, y in zip(self.flat, other.flat)],
                                self.nrows, self.ncols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")
        return Matrix.from_flat([x - y for x, y in zip(self.flat, other.flat)],
                                self.nrows, self.ncols)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch")
            flat = mat_mul_flat(self.flat, other.flat, self.nrows, self.ncols, other.ncols)
            if self._integral and other._integral:
                return Matrix._from_int_flat(flat, self.nrows, other.ncols)
            return Matrix.from_flat(flat, self.nrows, other.ncols)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, s: Scalar) -> "Matrix":
        return Matrix.from_flat([s * x for x in self.flat], self.nrows, self.ncols)

    def apply(self, vec: Sequence[Scalar]) -> tuple:
        """Matrix-vector product, returned as a tuple."""
        if len(vec) != self.ncols:
            raise ValueError("shape mismatch")
        return tuple(sum(a * b for a, b in zip(self.row(i), vec))
                     for i in range(self.nrows))

    @property
    def T(self) -> "Matrix":
        return Matrix(zip(*self.rows()))

    # -- exact linear algebra ----------------------------------------------------

    def det(self) -> Scalar:
        """Exact determinant: (-1)^swaps times the product of the ``_pivots``."""
        if not self.is_square:
            raise ValueError("square matrix required")
        pivots, swaps = _pivots(self)
        if len(pivots) < self.nrows:
            return 0
        return _canon(prod(pivots, start=(-1) ** swaps))

    def inverse(self) -> "Matrix":
        """Exact inverse: ``_rref`` of [self | I]; raises Singular when det = 0."""
        if not self.is_square:
            raise ValueError("square matrix required")
        n = self.nrows
        aug = [[Fraction(x) for x in self.row(i)]
               + [Fraction(1 if i == j else 0) for j in range(n)]
               for i in range(n)]
        if len(_rref(aug, n)) < n:
            raise Singular("matrix is singular")
        return Matrix(row[n:] for row in aug)

    def is_positive_definite(self) -> bool:
        """Sylvester test in one ``_pivots`` pass (exact).

        Without row swaps, leading minor k is the product of the first k
        pivots; a swap means some leading minor is 0.
        """
        if not self.is_square:
            raise ValueError("square matrix required")
        if not self.is_symmetric():
            raise NotSymmetric("symmetric matrix required")
        pivots, swaps = _pivots(self)
        return swaps == 0 and len(pivots) == self.nrows and all(p > 0 for p in pivots)

    def denominator_lcm(self) -> int:
        """Least positive integer N with N * self integral."""
        return lcm(*(x.denominator if isinstance(x, Fraction) else 1
                     for x in self.flat))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self.row(i))
                         for i in range(self.nrows))
        return f"Matrix[{body}]"


# -- exact elimination --------------------------------------------------------


def _pivots(m: Matrix) -> tuple:
    """Forward elimination of a square matrix over Fraction: ``(pivots, swaps)``.

    Pivots are listed in column order and stop at the first column without
    one, so there are fewer than n exactly when m is singular.
    """
    n = m.nrows
    a = [[Fraction(x) for x in m.row(i)] for i in range(n)]
    pivots = []
    swaps = 0
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            break
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            swaps += 1
        pivots.append(a[c][c])
        inv_p = 1 / a[c][c]
        for r in range(c + 1, n):
            if a[r][c] != 0:
                f = a[r][c] * inv_p
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return pivots, swaps


def _rref(aug: list, ncols: int) -> list:
    """Gauss-Jordan over Fraction: reduce the rows of ``aug`` in place.

    Pivots are sought in the first ``ncols`` columns; later columns (a
    right-hand side, or the I of [A | I]) ride along. Returns the
    ``(row, col)`` pivots in echelon order.
    """
    nr = len(aug)
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nr) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv_p = 1 / aug[r][c]
        aug[r] = [x * inv_p for x in aug[r]]
        for i in range(nr):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append((r, c))
        r += 1
        if r == nr:
            break
    return pivots


# -- Smith normal form ---------------------------------------------------------


@dataclass(frozen=True)
class SnfResult:
    """u * input * v == d with u, v unimodular and d diagonal.

    Diagonal entries are non-negative and in ascending divisibility order
    (each divides the next; zeros, if any, sit at the end).
    """

    u: Matrix
    d: Matrix
    v: Matrix

    def diagonal(self) -> tuple:
        return tuple(self.d[i, i] for i in range(min(self.d.nrows, self.d.ncols)))


def smith_normal_form(m: Matrix) -> SnfResult:
    """Diagonalize an integer matrix by unimodular row and column operations.

    The usual Euclidean sweep: bring the absolutely smallest entry of the
    trailing block to the pivot, reduce its row and column with division
    steps (swapping in a strictly smaller pivot whenever a remainder
    survives), then repair divisibility of the trailing block by folding an
    offending row into the pivot row. Termination follows because the pivot
    magnitude strictly decreases on every retry.
    """
    if not m.is_integral():
        raise ValueError("integer matrix required")
    nr, nc = m.nrows, m.ncols
    a = [list(m.row(i)) for i in range(nr)]
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row[dst] += q * row[src]
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(nr, nc):
        # Smallest-magnitude pivot in the trailing block, row-major tie-break.
        piv = None
        piv_abs = 0
        for i in range(t, nr):
            for j in range(t, nc):
                e = a[i][j]
                if e != 0 and (piv is None or abs(e) < piv_abs):
                    piv, piv_abs = (i, j), abs(e)
        if piv is None:
            break
        if piv[0] != t:
            swap_rows(t, piv[0])
        if piv[1] != t:
            swap_cols(t, piv[1])

        while True:
            restart = False
            for i in range(t + 1, nr):
                if a[i][t] == 0:
                    continue
                q = a[i][t] // a[t][t]
                add_row(i, t, -q)
                if a[i][t] != 0:
                    swap_rows(t, i)  # remainder is strictly smaller
                    restart = True
                    break
            if restart:
                continue
            for j in range(t + 1, nc):
                if a[t][j] == 0:
                    continue
                q = a[t][j] // a[t][t]
                add_col(j, t, -q)
                if a[t][j] != 0:
                    swap_cols(t, j)
                    restart = True
                    break
            if restart:
                continue
            # Row and column of the pivot are clear; enforce divisibility of
            # the trailing block by the pivot.
            p = a[t][t]
            bad = None
            for i in range(t + 1, nr):
                if any(x % p for x in a[i][t + 1:]):
                    bad = i
                    break
            if bad is None:
                break
            add_row(t, bad, 1)
        t += 1

    for i in range(min(nr, nc)):
        if a[i][i] < 0:
            negate_row(i)

    d = Matrix([[a[i][j] if i == j else 0 for j in range(nc)] for i in range(nr)])
    return SnfResult(u=Matrix(u), d=d, v=Matrix(v))


# -- affine solving ---------------------------------------------------------------


@dataclass(frozen=True)
class AffineSolution:
    """Exact solution set of a linear system: particular + span(kernel_basis).

    ``particular`` is None exactly when the system is inconsistent. Kernel
    vectors come from the reduced row echelon form (one per free column,
    with a 1 in its free coordinate), so the output is deterministic.
    """

    particular: Optional[tuple]
    kernel_basis: tuple

    @property
    def dimension(self) -> int:
        return len(self.kernel_basis)


def solve_affine(coeff: Matrix, rhs: Sequence[Scalar]) -> AffineSolution:
    """Solve coeff * x = rhs exactly over the rationals."""
    nr, nc = coeff.nrows, coeff.ncols
    if len(rhs) != nr:
        raise ValueError("rhs length does not match row count")
    aug = [[Fraction(x) for x in coeff.row(i)] + [Fraction(rhs[i])]
           for i in range(nr)]

    pivots = _rref(aug, nc)
    if any(aug[i][nc] != 0 for i in range(len(pivots), nr)):
        return AffineSolution(particular=None, kernel_basis=())

    pivot_cols = {c: i for i, c in pivots}
    free_cols = [c for c in range(nc) if c not in pivot_cols]

    particular = [Fraction(0)] * nc
    for c, i in pivot_cols.items():
        particular[c] = aug[i][nc]

    basis = []
    for f in free_cols:
        vec = [Fraction(0)] * nc
        vec[f] = Fraction(1)
        for c, i in pivot_cols.items():
            vec[c] = -aug[i][f]
        basis.append(tuple(_canon(x) for x in vec))

    return AffineSolution(
        particular=tuple(_canon(x) for x in particular),
        kernel_basis=tuple(basis),
    )
