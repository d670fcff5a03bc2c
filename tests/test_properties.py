"""Property tests of the exact elimination routines and the Smith form.

Inputs are matrices up to 5 x 5 with int or Fraction entries. Every
expected value comes from the cofactor oracles in conftest or from a
defining identity, never from the elimination code under test. Example
generation is derandomized, so each run draws the same inputs.
"""

from itertools import combinations
from math import gcd, prod

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from weylppav import Matrix, Singular, smith_normal_form, solve_affine  # noqa: E402
from conftest import oracle_det, oracle_inverse  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

small = st.integers(-1, 1)
integers = st.integers(-9, 9)
scalars = st.one_of(integers, st.fractions(-9, 9, max_denominator=6))


@st.composite
def grids(draw, entry_choices, square=False):
    """Lists of rows, 1..5 by 1..5; all entries come from one drawn strategy.

    Offering ``small`` among the choices makes rank deficiency common.
    """
    entries = draw(st.sampled_from(entry_choices))
    nr = draw(st.integers(1, 5))
    nc = nr if square else draw(st.integers(1, 5))
    return [[draw(entries) for _ in range(nc)] for _ in range(nr)]


@st.composite
def square_matrices(draw):
    """Square matrices; a third have a last row combining the others (zero if 1 x 1)."""
    rows = draw(grids((integers, scalars), square=True))
    if draw(st.integers(0, 2)) == 0:
        coeffs = [draw(integers) for _ in rows[:-1]]
        rows[-1] = [sum(c * row[j] for c, row in zip(coeffs, rows))
                    for j in range(len(rows))]
    return Matrix(rows)


@st.composite
def symmetric_matrices(draw):
    """Half mirrored random entries, half b^t b + a 0/1 diagonal (often definite)."""
    rows = draw(grids((small, integers, scalars), square=True))
    n = len(rows)
    if draw(st.booleans()):
        b = Matrix(rows)
        return b.T * b + Matrix.diagonal([draw(st.integers(0, 1)) for _ in range(n)])
    return Matrix([[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])


def oracle_rank(rows, ncols=None):
    """Rank of the first ``ncols`` columns: the size of the largest nonzero minor."""
    nc = len(rows[0]) if ncols is None else ncols
    for k in range(min(len(rows), nc), 0, -1):
        for rs in combinations(range(len(rows)), k):
            for cs in combinations(range(nc), k):
                if oracle_det(Matrix([[rows[i][j] for j in cs] for i in rs])):
                    return k
    return 0


@PROPERTY
@given(square_matrices())
def test_det_matches_cofactor_oracle(m):
    assert m.det() == oracle_det(m)


@PROPERTY
@given(square_matrices())
def test_inverse_matches_adjugate_oracle(m):
    if oracle_det(m) == 0:
        with pytest.raises(Singular):
            m.inverse()
    else:
        assert m.inverse() == oracle_inverse(m)


@PROPERTY
@given(symmetric_matrices())
def test_positive_definite_matches_leading_minors(m):
    minors = [oracle_det(m.submatrix(0, k, 0, k)) for k in range(1, m.nrows + 1)]
    assert m.is_positive_definite() == all(d > 0 for d in minors)


@pytest.mark.parametrize("rhs_from_solution", [True, False])
@PROPERTY
@given(grids((small, integers, scalars)), st.data())
def test_solve_affine_by_substitution(rhs_from_solution, rows, data):
    nr, nc = len(rows), len(rows[0])
    coeff = Matrix(rows)
    if rhs_from_solution:  # consistent by construction
        rhs = coeff.apply([data.draw(scalars) for _ in range(nc)])
    else:  # tall systems are then mostly inconsistent
        rhs = tuple(data.draw(scalars) for _ in range(nr))
    sol = solve_affine(coeff, rhs)

    rank = oracle_rank(rows)
    consistent = oracle_rank([row + [b] for row, b in zip(rows, rhs)]) == rank
    assert (sol.particular is not None) == consistent
    if not consistent:
        assert sol.kernel_basis == ()
        return
    assert coeff.apply(sol.particular) == tuple(rhs)
    # a column is free when it does not raise the rank of the columns before it
    free = [j for j in range(nc) if oracle_rank(rows, j + 1) == oracle_rank(rows, j)]
    assert sol.dimension == nc - rank == len(free)
    for k, vec in enumerate(sol.kernel_basis):
        assert coeff.apply(vec) == (0,) * nr
        assert [vec[j] for j in free] == [int(i == k) for i in range(len(free))]
    assert all(sol.particular[j] == 0 for j in free)


@PROPERTY
@given(grids((small, integers)))
def test_smith_form_invariants(rows):
    m = Matrix(rows)
    snf = smith_normal_form(m)
    assert snf.u * m * snf.v == snf.d
    assert abs(oracle_det(snf.u)) == 1 and abs(oracle_det(snf.v)) == 1
    assert all(snf.d[i, j] == 0 for i in range(m.nrows) for j in range(m.ncols) if i != j)
    diag = snf.diagonal()
    assert all(x >= 0 for x in diag)
    assert all(b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:]))
    # determinantal divisors: gcd of the k x k minors is d_1 ... d_k
    for k in range(1, len(diag) + 1):
        minors = (oracle_det(Matrix([[rows[i][j] for j in cs] for i in rs]))
                  for rs in combinations(range(m.nrows), k)
                  for cs in combinations(range(m.ncols), k))
        assert gcd(*(int(x) for x in minors)) == prod(diag[:k])
