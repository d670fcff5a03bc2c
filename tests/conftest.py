"""Shared test helpers: independent oracles for determinants and inverses.

These deliberately avoid the elimination code under test. Determinants are
computed by memoized cofactor expansion, inverses by adjugate over the
cofactor determinant, so a bug in the Gaussian path cannot hide.
``proportional`` compares two matrices cell by cell, the reference for
fixed lines that the verification harness decides by a rank instead. The
``fresh_python`` fixture runs source in a new interpreter, for what only a
first import shows.
"""

import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

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


def proportional(m1: Matrix, m2: Matrix) -> bool:
    """m1 = lambda * m2 for some nonzero rational lambda, checked exactly."""
    pairs = [(x, y) for x, y in zip(m1.flat, m2.flat) if x != 0 or y != 0]
    if not pairs:
        return True
    x0, y0 = pairs[0]
    if x0 == 0 or y0 == 0:
        return False
    return all(x * y0 == y * x0 for x, y in pairs)


@pytest.fixture
def rng():
    import random

    return random.Random(987654321)


@pytest.fixture
def no_group_matrices(monkeypatch):
    """Make the group closure and the form check fail if they build a Matrix.

    ``Matrix._from_numerators`` raises when called from ``weyl`` or
    ``verify``; integer products elsewhere still work.
    """
    original = Matrix._from_numerators

    def guarded(cls, numerators, q, nrows, ncols):
        caller = sys._getframe(1).f_globals["__name__"]
        if caller in ("weylppav.weyl", "weylppav.verify"):
            raise AssertionError(f"{caller} built a Matrix")
        return original(numerators, q, nrows, ncols)

    monkeypatch.setattr(Matrix, "_from_numerators", classmethod(guarded))


@pytest.fixture
def fresh_python():
    """Run Python source in a fresh interpreter that imports weylppav from src/.

    Returns its stdout; the run must exit 0 and write nothing to stderr.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))

    def run(source):
        proc = subprocess.run([sys.executable, "-W", "error", "-c", source], env=env,
                              capture_output=True, text=True, timeout=300)
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
        return proc.stdout

    return run
