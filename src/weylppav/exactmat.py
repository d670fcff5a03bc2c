"""Exact dense matrices over the integers and rationals.

Entries are Python ints or ``fractions.Fraction`` values; floats are
rejected. Fraction keeps numerators and denominators gcd-reduced with a
positive denominator, which is exactly the normalization the rest of the
toolkit relies on. Matrices are immutable (flat row-major tuples), so
every operation below is a pure function and values can be shared freely
across threads.

There are two constructors: ``Matrix(rows)`` canonicalizes every entry, and
the trusted ``Matrix._from_canonical`` takes entries canonical by
construction. A matrix holds only its entries and shape; whether it is
integral is read off the entries when asked.

Products normalize once, on one path. Each operand is scaled to integer
numerators by its own denominator lcm (1 for an integer matrix), the
numerators are multiplied as integers by ``_kernel.mat_mul_flat``, which
builds each row of the product from the rows of the right factor picked by
the nonzero entries of the left one, and the product is divided once by
the common denominator when that is above 1. Zero entries cost no
arithmetic, so a reflection's unit rows are row copies; keep the sparse
factor on the left where an identity allows it.

Algorithms are the classical exact ones. ``det``, ``rank`` and
``is_positive_definite`` read the pivots of one fraction-free forward loop,
``_echelon`` (Bareiss, Math. Comp. 22, 1968), on integer numerators: a
rational matrix is scaled once by its denominator lcm q, which keeps the
sign of every minor and scales the determinant by q^n. ``inverse`` and
``solve_affine`` keep a Fraction ``_rref``, a forward loop and a back pass,
until the benchmark stores no outputs (ROADMAP items 1 and 2). The Smith
normal form is one integer reduction loop of unimodular row and column
operations. No floating point appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
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

    __slots__ = ("flat", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        rows = [tuple(map(_canon, row)) for row in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows):
            raise ValueError("ragged rows")
        self._fill(tuple(chain.from_iterable(rows)), len(rows), ncols)

    def _fill(self, flat: tuple, nrows: int, ncols: int) -> None:
        """Check the shape and set the slots from canonical entries."""
        if nrows < 1 or ncols < 1:
            raise ValueError("matrix must have positive dimensions")
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", ncols)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_flat(cls, flat: Sequence[Scalar], nrows: int, ncols: int) -> "Matrix":
        if len(flat) != nrows * ncols:
            raise ValueError("flat length does not match shape")
        return cls._from_canonical(tuple(map(_canon, flat)), nrows, ncols)

    @classmethod
    def _from_canonical(cls, flat: tuple, nrows: int, ncols: int) -> "Matrix":
        """Trusted constructor for a tuple of canonical entries of the given shape.

        The second constructor skips the per-entry checks of ``__init__``:
        every entry must already be what ``_canon`` returns (an int, or a
        Fraction with denominator > 1), and ``_fill`` checks only the shape.
        Entries moved or negated out of a ``Matrix`` are canonical, so
        transposes, blocks, submatrices and negations build through it, as do
        products, identities, zeros, Smith factors and ``MatrixGroup.elements``.
        """
        m = object.__new__(cls)
        m._fill(flat, nrows, ncols)
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._from_canonical(tuple(int(i == j) for i in range(n) for j in range(n)), n, n)

    @classmethod
    def zeros(cls, nrows: int, ncols: Optional[int] = None) -> "Matrix":
        ncols = nrows if ncols is None else ncols
        return cls._from_canonical((0,) * (nrows * ncols), nrows, ncols)

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
        return cls._from_canonical(tuple(chain.from_iterable(rows)),
                                   a.nrows + c.nrows, a.ncols + b.ncols)

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
        """Rows r0..r1-1 and columns c0..c1-1; the bounds must lie inside."""
        if not (0 <= r0 < r1 <= self.nrows and 0 <= c0 < c1 <= self.ncols):
            raise ValueError(f"submatrix [{r0}:{r1}, {c0}:{c1}] out of bounds "
                             f"for a {self.nrows} x {self.ncols} matrix")
        flat = tuple(chain.from_iterable(self.row(i)[c0:c1] for i in range(r0, r1)))
        return Matrix._from_canonical(flat, r1 - r0, c1 - c0)

    # -- predicates -------------------------------------------------------------

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_integral(self) -> bool:
        return all(type(x) is int for x in self.flat)

    def is_symmetric(self) -> bool:
        return self.is_square and _symmetric(self.flat, self.nrows)

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
        return Matrix._from_canonical(tuple(-x for x in self.flat), self.nrows, self.ncols)

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")
        return Matrix.from_flat([x + y for x, y in zip(self.flat, other.flat)],
                                self.nrows, self.ncols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")
        return Matrix.from_flat([x - y for x, y in zip(self.flat, other.flat)],
                                self.nrows, self.ncols)

    def __mul__(self, other):
        """Matrix product, or scaling by an int or Fraction.

        A matrix product runs on integer numerators: each operand is scaled
        by its own ``denominator_lcm``, the numerators are multiplied as ints,
        and only when d = da * db is above 1 is each entry built once as p / d.
        Each row of the product sums the rows of ``other`` picked by the
        nonzero entries of the same row of ``self``, so the cost follows the
        nonzeros of the left factor.
        """
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch")
            nrows, ncols = self.nrows, other.ncols
            da = self.denominator_lcm()
            db = other.denominator_lcm()
            flat = mat_mul_flat(_numerators(self.flat, da), _numerators(other.flat, db),
                                nrows, self.ncols, ncols)
            d = da * db
            if d > 1:
                flat = tuple(Fraction(p, d) if p % d else p // d for p in flat)
            return Matrix._from_canonical(flat, nrows, ncols)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, s: Scalar) -> "Matrix":
        s = _canon(s)
        return Matrix.from_flat([s * x for x in self.flat], self.nrows, self.ncols)

    def apply(self, vec: Sequence[Scalar]) -> tuple:
        """Matrix-vector product, returned as a tuple."""
        if len(vec) != self.ncols:
            raise ValueError("shape mismatch")
        vec = tuple(map(_canon, vec))
        return tuple(_canon(sum(a * b for a, b in zip(self.row(i), vec)))
                     for i in range(self.nrows))

    @property
    def T(self) -> "Matrix":
        nc = self.ncols
        return Matrix._from_canonical(
            tuple(chain.from_iterable(self.flat[j::nc] for j in range(nc))),
            nc, self.nrows)

    # -- exact linear algebra ----------------------------------------------------

    def _pivots(self) -> tuple:
        """(q, pivots, swaps) of ``_echelon`` on the integer numerators of q * self.

        q is the denominator lcm, and the pivots are the values in echelon order.
        """
        q = self.denominator_lcm()
        flat, nc = _numerators(self.flat, q), self.ncols
        rows = [list(flat[k:k + nc]) for k in range(0, len(flat), nc)]
        pivots, swaps = _echelon(rows, nc)
        return q, [rows[r][c] for r, c in pivots], swaps

    def det(self) -> Scalar:
        """Exact determinant: (-1)^swaps times the last Bareiss pivot, over q^n."""
        if not self.is_square:
            raise ValueError("square matrix required")
        q, pivots, swaps = self._pivots()
        if len(pivots) < self.nrows:
            return 0
        det = -pivots[-1] if swaps % 2 else pivots[-1]
        return det if q == 1 else _canon(Fraction(det, q ** self.nrows))

    def rank(self) -> int:
        """Exact rank: the number of pivots of the forward ``_echelon`` loop."""
        return len(self._pivots()[1])

    def inverse(self) -> "Matrix":
        """Exact inverse: ``_rref`` on [self | I]; Singular if det = 0."""
        if not self.is_square:
            raise ValueError("square matrix required")
        n = self.nrows
        aug = [[Fraction(x) for x in self.row(i)]
               + [Fraction(1 if i == j else 0) for j in range(n)]
               for i in range(n)]
        if len(_rref(aug, n)) < n:
            raise Singular("matrix is singular")
        return Matrix.from_flat(tuple(chain.from_iterable(row[n:] for row in aug)), n, n)

    def is_positive_definite(self) -> bool:
        """Sylvester test in one forward ``_echelon`` loop (exact).

        Without row swaps, Bareiss pivot k is the leading principal minor of
        size k of q * self, which has the sign of the minor of self; a swap or
        a skipped column means some leading minor is 0.
        """
        if not self.is_square:
            raise ValueError("square matrix required")
        if not self.is_symmetric():
            raise NotSymmetric("symmetric matrix required")
        _, pivots, swaps = self._pivots()
        return swaps == 0 and len(pivots) == self.nrows and all(p > 0 for p in pivots)

    def denominator_lcm(self) -> int:
        """Least positive integer N with N * self integral."""
        return lcm(*{x.denominator for x in self.flat if type(x) is not int})

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self.row(i))
                         for i in range(self.nrows))
        return f"Matrix[{body}]"


def _numerators(flat: tuple, d: int) -> tuple:
    """The entries of ``flat`` times d, which must be a common denominator."""
    if d == 1:
        return flat
    return tuple(x * d if type(x) is int else x.numerator * (d // x.denominator)
                 for x in flat)


def _symmetric(flat: tuple, n: int) -> bool:
    """Is the n x n row-major ``flat`` its own transpose? Each row right of
    the diagonal is compared, as one tuple, with the column below it."""
    return all(flat[j * n + j + 1:(j + 1) * n] == flat[(j + 1) * n + j::n] for j in range(n))


# -- exact elimination --------------------------------------------------------


def _echelon(rows: list, ncols: int) -> tuple:
    """Fraction-free forward elimination (Bareiss) of integer ``rows``, in place.

    Pivots are sought in the first ``ncols`` columns, skipping a column with
    none. Returns the ``(row, col)`` pivots in echelon order and the number
    of row swaps. Each pivot row is left holding the exact Bareiss values:
    with no swap or skipped column, pivot k is the leading principal minor of
    size k, and the last pivot of a square matrix is its determinant.

    A row below the pivot with a zero in the pivot column would only be
    scaled by p_k / p_(k-1), so it is left as it is and ``scale[i]`` records
    the pivot it was last reduced against. Every later division by that
    pivot is exact (each entry it yields is a minor), so the loop touches
    only rows with a nonzero in the pivot column and keeps a sparse matrix's
    cost. Entries left of the pivot column are zero in every row below it.
    """
    nr = len(rows)
    scale = [1] * nr
    pivots = []
    swaps = 0
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, nr) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            scale[r], scale[piv] = scale[piv], scale[r]
            swaps += 1
        top = rows[r]
        if scale[r] != prev:
            top[c:] = [x * prev // scale[r] for x in top[c:]]
        p = top[c]
        tail = top[c:]
        for i in range(r + 1, nr):
            row = rows[i]
            f = row[c]
            if f:
                d = scale[i]
                row[c:] = [(p * x - f * y) // d for x, y in zip(row[c:], tail)]
                scale[i] = p
        prev = p
        pivots.append((r, c))
    return pivots, swaps


def _rref(aug: list, ncols: int) -> list:
    """Reduced row echelon form over Fraction, in place; returns the ``(row, col)``
    pivots. Columns after the first ``ncols`` (a right-hand side, or the I of
    [A | I]) ride along."""
    nr = len(aug)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, nr) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv_p = 1 / aug[r][c]
        for i in range(r + 1, nr):
            if aug[i][c] != 0:
                f = aug[i][c] * inv_p
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append((r, c))
    # Fraction arithmetic and a top-to-bottom back pass keep inverse and
    # solve_affine at their cost. A fraction-free loop, or the back pass
    # bottom to top (the textbook order, about 10x faster on Gram matrices),
    # would speed both up and so raise the benchmark's peak memory, which
    # grows with every output it stores: they move only after ROADMAP item 1
    # fixes that (item 2).
    for r, c in pivots:
        inv_p = 1 / aug[r][c]
        aug[r] = [x * inv_p for x in aug[r]]
        for i in range(r):
            if aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
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

    One working matrix w = [[m, I_nr], [I_nc, 0]]: row operations on its first
    nr rows build u, column operations on its first nc columns build v.

    Each pivot t takes rounds of one reduction loop. A round moves the
    absolutely smallest entry of the trailing block to (t, t) (row-major
    tie-break) and reduces the pivot's column and row once by floor division.
    A remainder left there makes the next pivot strictly smaller. Once row and
    column are clear, a trailing row with an entry the pivot does not divide
    is added to the pivot row, so the pivot shrinks within two rounds;
    otherwise t is done, and its entry divides every later one.
    """
    if not m.is_integral():
        raise ValueError("integer matrix required")
    nr, nc = m.nrows, m.ncols
    w = [list(m.row(i)) + [1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    w += [[1 if i == j else 0 for j in range(nc)] + [0] * nr for i in range(nc)]

    for t in range(min(nr, nc)):
        while True:
            piv = min(((abs(w[i][j]), i, j) for i in range(t, nr)
                       for j in range(t, nc) if w[i][j]), default=None)
            if piv is None:
                break
            _, pi, pj = piv
            w[t], w[pi] = w[pi], w[t]
            if pj != t:
                for row in w:
                    row[t], row[pj] = row[pj], row[t]
            p = w[t][t]
            for i in range(t + 1, nr):
                if w[i][t]:
                    q = w[i][t] // p
                    w[i] = [x - q * y for x, y in zip(w[i], w[t])]
            for j in range(t + 1, nc):
                if w[t][j]:
                    q = w[t][j] // p
                    for row in w:
                        row[j] -= q * row[t]
            if abs(p) == 1:  # a unit leaves no remainder and divides every entry
                break
            if any(w[i][t] for i in range(t + 1, nr)) or any(w[t][t + 1:nc]):
                continue
            bad = next((i for i in range(t + 1, nr)
                        if any(x % p for x in w[i][t + 1:nc])), None)
            if bad is None:
                break
            w[t] = [x + y for x, y in zip(w[t], w[bad])]

    for i in range(min(nr, nc)):
        if w[i][i] < 0:
            w[i] = [-x for x in w[i]]

    u = tuple(chain.from_iterable(row[nc:] for row in w[:nr]))
    d = tuple(w[i][j] if i == j else 0 for i in range(nr) for j in range(nc))
    v = tuple(chain.from_iterable(row[:nc] for row in w[nr:]))
    return SnfResult(u=Matrix._from_canonical(u, nr, nr), d=Matrix._from_canonical(d, nr, nc),
                     v=Matrix._from_canonical(v, nc, nc))


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
    aug = [[Fraction(x) for x in coeff.row(i)] + [Fraction(_canon(rhs[i]))]
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
