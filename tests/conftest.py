"""Shared test helpers: independent oracles for determinants and inverses.

These deliberately avoid the elimination code under test. Determinants are
computed by memoized cofactor expansion, inverses by adjugate over the
cofactor determinant, so a bug in the Gaussian path cannot hide.
"""

from fractions import Fraction
from functools import lru_cache

import pytest

from weylppav import Matrix


def oracle_det(m: Matrix):
    """Determinant by cofactor expansion along columns, memoized on row sets."""
    n = m.nrows
    assert m.ncols == n

    @lru_cache(maxsize=None)
    def rec(rows, col):
        if col == n:
            return Fraction(1)
        total = Fraction(0)
        sign = 1
        for idx, r in enumerate(rows):
            v = m[r, col]
            if v:
                rest = rows[:idx] + rows[idx + 1:]
                total += sign * Fraction(v) * rec(rest, col + 1)
            sign = -sign
        return total

    return rec(tuple(range(n)), 0)


def _delete(m: Matrix, i: int, j: int) -> Matrix:
    rows = [[m[r, c] for c in range(m.ncols) if c != j]
            for r in range(m.nrows) if r != i]
    return Matrix(rows)


def oracle_inverse(m: Matrix) -> Matrix:
    """Inverse via the adjugate, entirely cofactor-based."""
    n = m.nrows
    d = oracle_det(m)
    assert d != 0
    # the cofactor of a 1 x 1 matrix is the determinant of the empty matrix, 1
    adj = [[(-1) ** (i + j) * (oracle_det(_delete(m, j, i)) if n > 1 else 1) / d
            for j in range(n)] for i in range(n)]
    return Matrix(adj)


@pytest.fixture
def rng():
    import random

    return random.Random(987654321)
