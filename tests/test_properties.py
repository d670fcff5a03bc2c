"""Property tests of exact products and blocks, the elimination routines,
the Smith and Hermite forms, the symplectic test, fixed symmetric spaces, the
catalog's z0 and fixed-point tests and the coset certificate of parabolic
subgroups.

Inputs are matrices up to 5 x 5 with int or Fraction entries, or the
catalog's through rank 16. Every expected value comes from the cofactor
oracles in conftest, from a defining identity or from an independent
route (the Gauss-Jordan inverse, the Siegel action), never from the code
under test. Example generation is derandomized, so each run draws the
same inputs.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from weylppav import (Family, Matrix, RootSystemId, Singular, SymplecticMat,  # noqa: E402
                      all_systems, diagram_automorphisms, embed_block_diag,
                      fixed_symmetric_space, generate_group, gram_matrix, is_symplectic,
                      modular_action, simple_reflections, smith_normal_form, solve_affine,
                      standard_form)
from weylppav import check_invariance  # noqa: E402
from weylppav.exactmat import _is_involution, _moved_columns, hermite_normal_form  # noqa: E402
from weylppav.symplectic import fixed_space_equations, sym_to_vec, vec_to_sym  # noqa: E402
from weylppav.weyl import coset_closure  # noqa: E402
from conftest import oracle_det, oracle_inverse  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

small = st.integers(-1, 1)
integers = st.integers(-9, 9)
scalars = st.one_of(integers, st.fractions(-9, 9, max_denominator=6))
# Fractions over small primes, so two operands often share no denominator.
coprime = st.builds(Fraction, integers, st.sampled_from((1, 2, 3, 5, 7)))
# Mostly zero, as in a reflection: rows are empty, single units or short sums.
sparse = st.sampled_from((0, 0, 0, 0, 1, -1, 2, -3))


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
    """Square matrices of integers, of rationals, or of rationals over coprime
    denominators; a third have a last row combining the others with rational
    coefficients (zero if 1 x 1), so they are singular."""
    rows = draw(grids((integers, scalars, coprime), square=True))
    if draw(st.integers(0, 2)) == 0:
        coeffs = [draw(scalars) for _ in rows[:-1]]
        rows[-1] = [sum(c * row[j] for c, row in zip(coeffs, rows))
                    for j in range(len(rows))]
    return Matrix(rows)


@st.composite
def symmetric_matrices(draw):
    """Half mirrored random entries, half b^t b + a 0/1 diagonal (often definite)."""
    rows = draw(grids((small, integers, scalars, coprime), square=True))
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
    expected = oracle_det(m)
    assert m.det() == expected
    assert (expected == 0) == (m.rank() < m.nrows)


@st.composite
def rank_deficient(draw):
    """Rectangular rows, up to 5 x 6, made rank-deficient on purpose.

    A column may be a combination of the columns before it, so elimination
    finds no pivot there and skips it; a row may combine the rows before it;
    and zero rows may be put anywhere.
    """
    rows = draw(grids((small, integers, scalars, coprime)))
    nc = len(rows[0])
    if nc > 1 and draw(st.booleans()):
        j = draw(st.integers(1, nc - 1))
        coeffs = [draw(small) for _ in range(j)]
        for row in rows:
            row[j] = sum(c * x for c, x in zip(coeffs, row))
    if len(rows) > 1 and draw(st.booleans()):
        coeffs = [draw(integers) for _ in rows[:-1]]
        rows[-1] = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(nc)]
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [0] * nc)
    return rows


@PROPERTY
@given(rank_deficient())
def test_rank_matches_smith_rank(rows):
    m = Matrix(rows)
    q = m.denominator
    expected = sum(1 for x in smith_normal_form(q * m).diagonal() if x)
    assert m.rank() == expected
    assert m.T.rank() == expected


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


@PROPERTY
@given(symmetric_matrices(), st.data())
def test_symmetry_test_finds_any_changed_entry(m, data):
    n = m.nrows
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    flat = list(m.flat)
    flat[i * n + j] += data.draw(st.sampled_from((1, -1, Fraction(1, 3))))
    assert m.is_symmetric()
    assert Matrix(flat[k:k + n] for k in range(0, n * n, n)).is_symmetric() == (i == j)


def times(m, vec) -> tuple:
    """m * vec, vec as a column."""
    return (m * Matrix([[x] for x in vec])).flat


@pytest.mark.parametrize("rhs_from_solution", [True, False])
@PROPERTY
@given(grids((small, integers, scalars)), st.data())
def test_solve_affine_by_substitution(rhs_from_solution, rows, data):
    nr, nc = len(rows), len(rows[0])
    coeff = Matrix(rows)
    if rhs_from_solution:  # consistent by construction
        rhs = times(coeff, [data.draw(scalars) for _ in range(nc)])
    else:  # tall systems are then mostly inconsistent
        rhs = tuple(data.draw(scalars) for _ in range(nr))
    sol = solve_affine(coeff, rhs)

    rank = oracle_rank(rows)
    consistent = oracle_rank([row + [b] for row, b in zip(rows, rhs)]) == rank
    assert (sol.particular is not None) == consistent
    if not consistent:
        assert sol.kernel_basis == ()
        return
    assert times(coeff, sol.particular) == tuple(rhs)
    # a column is free when it does not raise the rank of the columns before it
    free = [j for j in range(nc) if oracle_rank(rows, j + 1) == oracle_rank(rows, j)]
    assert sol.dimension == nc - rank == len(free)
    for k, vec in enumerate(sol.kernel_basis):
        assert times(coeff, vec) == (0,) * nr
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
    for x in (snf.u, snf.d, snf.v, Matrix.identity(m.nrows), Matrix.identity(m.ncols),
              Matrix.zeros(m.nrows, m.ncols)):
        assert integrality_exact(x, True)
    # determinantal divisors: gcd of the k x k minors is d_1 ... d_k
    for k in range(1, len(diag) + 1):
        minors = (oracle_det(Matrix([[rows[i][j] for j in cs] for i in rs]))
                  for rs in combinations(range(m.nrows), k)
                  for cs in combinations(range(m.ncols), k))
        assert gcd(*(int(x) for x in minors)) == prod(diag[:k])


@st.composite
def unimodular_pairs(draw, n):
    """(A, A^{-1}) for A a product of row additions, row swaps and sign flips.

    Each step is applied to A as a row operation and, inverted, to A^{-1}
    as a column operation, so the inverse needs no elimination.
    """
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in a]
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(("add", "swap", "negate")))
        if kind == "add" and i != j:
            q = draw(st.integers(-2, 2))
            a[i] = [x + q * y for x, y in zip(a[i], a[j])]
            for row in inv:
                row[j] -= q * row[i]
        elif kind == "swap":
            a[i], a[j] = a[j], a[i]
            for row in inv:
                row[i], row[j] = row[j], row[i]
        elif kind == "negate":
            a[i] = [-x for x in a[i]]
            for row in inv:
                row[i] = -row[i]
    return Matrix(a), Matrix(inv)


def in_hermite_form(h: Matrix) -> bool:
    """Is h in row Hermite normal form: each nonzero row's first nonzero
    entry positive and right of the one above, the entries above it in
    [0, pivot), and the zero rows last?"""
    leads = [next((j for j, x in enumerate(h.row(i)) if x), None) for i in range(h.nrows)]
    pivots = [j for j in leads if j is not None]
    return (leads[:len(pivots)] == pivots
            and all(a < b for a, b in zip(pivots, pivots[1:]))
            and all(h[i, j] > 0 and all(0 <= h[k, j] < h[i, j] for k in range(i))
                    for i, j in enumerate(pivots)))


@PROPERTY
@given(st.one_of(grids((small, integers, sparse)), grids((small, integers, sparse), square=True)),
       st.data())
def test_hermite_form_invariants(rows, data):
    m = Matrix(rows)
    h, u = hermite_normal_form(m)
    assert u * m == h
    assert abs(u.det()) == 1  # Bareiss
    assert in_hermite_form(h)
    # the Hermite form is unique on the row lattice: any unimodular w keeps it
    w, _ = data.draw(unimodular_pairs(m.nrows))
    assert hermite_normal_form(w * m)[0] == h
    assert smith_normal_form(h).diagonal() == smith_normal_form(m).diagonal()
    if m.is_square and (det := oracle_det(m)):
        assert prod(h[i, i] for i in range(m.nrows)) == abs(det)


@st.composite
def generators_fixing(draw):
    """(z*, generators) with z* integral symmetric and n <= 5.

    Each generator is [[A, S A^{-t}], [0, A^{-t}]] with A unimodular and
    S = z* - A z* A^t, so its action z -> A z A^t + S fixes z*.
    """
    n = draw(st.integers(1, 5))
    upper = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
    zstar = Matrix([[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        a, a_inv = draw(unimodular_pairs(n))
        assert a * a_inv == Matrix.identity(n)
        s = zstar - a * zstar * a.T
        gens.append(SymplecticMat(n, Matrix.block2(a, s * a_inv.T, Matrix.zeros(n),
                                                   a_inv.T)))
    return zstar, gens


def row_rank(vectors):
    """Rank by Fraction row reduction written here, apart from ``exactmat``."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][c] / rows[rank][c]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@PROPERTY
@given(generators_fixing())
def test_fixed_space_by_substitution(case):
    zstar, gens = case
    space = fixed_symmetric_space(gens)
    size = zstar.nrows * (zstar.nrows + 1) // 2
    rows = fixed_space_equations(gens)[0] or [[0] * size]
    rank = sum(1 for x in smith_normal_form(Matrix(rows)).diagonal() if x)
    assert space.dimension == size - rank
    p = space.particular
    assert p is not None and p.is_symmetric()
    for gen in gens:
        a, b, _, _ = gen.blocks()
        assert a * p * a.T + b * a.T == p
    for x in space.basis:
        assert x.is_symmetric() and x.is_integral()
        assert gcd(*x.flat) == 1
        for gen in gens:
            a = gen.blocks()[0]
            assert a * x * a.T == x
    # the basis is independent and z* - particular lies in its span
    vecs = [sym_to_vec(x) for x in space.basis]
    assert row_rank(vecs) == len(vecs)
    assert row_rank(vecs + [sym_to_vec(zstar - p)]) == len(vecs)


@PROPERTY
@given(generators_fixing(), st.data())
def test_fixed_space_equations_match_the_affine_map(case, data):
    # Coordinate u of r(z) = A z A^t + B A^t - z is affine in z's upper
    # triangle: r_u(0) plus the coefficient r_u(E_v) - r_u(0) of each basis
    # matrix E_v. Its equation is dropped iff all of these are zero, and
    # otherwise reads (coefficients) . z = -r_u(0), so at any symmetric z its
    # left side less its right side is r_u(z). Dense generators (B != 0) and
    # the embedded simple reflections of A_n are drawn.
    zstar, gens = case
    n = zstar.nrows
    size = n * (n + 1) // 2
    gens = gens + [embed_block_diag(s) for s in simple_reflections(RootSystemId("A", n))]
    units = [vec_to_sym([int(u == v) for u in range(size)], n) for v in range(size)]
    upper = [[data.draw(scalars) for _ in range(n)] for _ in range(n)]
    z = Matrix([[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])
    zvec = sym_to_vec(z)
    all_rows, all_rhs = [], []
    for gen in gens:
        a, b, _, _ = gen.blocks()

        def r(x):
            return sym_to_vec(a * x * a.T + b * a.T - x)

        at_zero, at_z = r(Matrix.zeros(n)), r(z)
        coefficients = [[y - c for y, c in zip(r(e), at_zero)] for e in units]
        kept = [u for u in range(size)
                if at_zero[u] or any(column[u] for column in coefficients)]
        rows, rhs = fixed_space_equations([gen])
        assert rows == [[column[u] for column in coefficients] for u in kept]
        assert rhs == [-at_zero[u] for u in kept]
        assert [sum(c * x for c, x in zip(row, zvec)) - y for row, y in zip(rows, rhs)] == \
            [at_z[u] for u in kept]
        assert all(at_z[u] == 0 for u in range(size) if u not in kept)
        all_rows += rows
        all_rhs += rhs
    assert fixed_space_equations(gens) == (all_rows, all_rhs)


@PROPERTY
@given(generators_fixing(), st.data())
def test_modular_action_without_lower_left_block(case, data):
    # With C = 0 the action is computed on integer numerators as
    # A (A qz + qB)^t / q, q the denominator lcm of z; the definition is
    # (A z + B) D^{-1}, with D inverted here by elimination. Both B != 0 and
    # B = 0 generators are drawn, and z is drawn three ways: mixed entries,
    # a common denominator q > 1, and zero. The embedded ones (B = 0) need
    # not fix z*.
    zstar, gens = case
    n = zstar.nrows
    upper = [[data.draw(scalars) for _ in range(n)] for _ in range(n)]
    z = Matrix([[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])
    q = data.draw(st.sampled_from((2, 3, 4, 6, 7)))
    nums = [[data.draw(integers) for _ in range(n)] for _ in range(n)]
    nums[0][0] = 1
    z_over_q = Matrix([[Fraction(nums[min(i, j)][max(i, j)], q) for j in range(n)]
                       for i in range(n)])
    assert z_over_q.denominator == q
    embedded = [embed_block_diag(data.draw(unimodular_pairs(n))[0])
                for _ in range(data.draw(st.integers(1, 2)))]
    assert all(gen.blocks()[1].is_zero() for gen in embedded)
    for gen in gens + embedded:
        a, b, c, d = gen.blocks()
        assert c.is_zero()
        for point in (z, z_over_q, Matrix.zeros(n)):
            assert modular_action(gen, point) == (a * point + b) * d.inverse()
    assert all(modular_action(gen, zstar) == zstar for gen in gens)


def test_embedded_reflections_fix_z0_through_rank_8():
    # Every simple reflection, embedded, fixes its system's z0, and the
    # C = 0 action agrees with the definition (A z0 + B) D^{-1} there.
    for system in all_systems(8):
        family = Family.from_system(system)
        for rho in family.generators:
            emb = embed_block_diag(rho)
            a, b, _, d = emb.blocks()
            expected = (a * family.z0 + b) * d.inverse()
            assert modular_action(emb, family.z0) == expected == family.z0, str(system)


def test_smith_form_z0_is_the_inverse_through_rank_16():
    # The catalog reads z0 = v D^{-1} u off the Smith form u S v = D; the
    # Gauss-Jordan inverse of S is the oracle.
    for system in all_systems(16):
        assert Family.from_system(system).z0 == gram_matrix(system).inverse(), str(system)


def changed_cell_pairs(z: Matrix):
    """z, then z with one symmetric cell pair (i, j), (j, i) raised by 1 or
    by 1/11, for every i <= j; 11 divides no level through rank 8, so the
    rational change leaves level * z non-integral."""
    yield z
    n = z.nrows
    for i in range(n):
        for j in range(i, n):
            for change in (1, Fraction(1, 11)):
                rows = [list(r) for r in z.rows()]
                rows[i][j] += change
                if i != j:
                    rows[j][i] += change
                yield Matrix(rows)


def test_one_row_test_matches_the_siegel_action_through_rank_8():
    # verify decides "r fixes z" as check_invariance([r^t], z), on the one
    # column r^t moves; the oracle is the Siegel action of the embedded
    # reflection. Both outcomes occur.
    outcomes = set()
    for system in all_systems(8):
        family = Family.from_system(system)
        embedded = [(r, embed_block_diag(r)) for r in family.generators]
        for z in changed_cell_pairs(family.z0):
            for r, emb in embedded:
                fixed = modular_action(emb, z) == z
                assert check_invariance([r.T], z) == fixed, (str(system), z, r)
                outcomes.add(fixed)
    assert outcomes == {True, False}


def test_permutation_test_matches_the_product_through_rank_8():
    outcomes = set()
    for system in all_systems(8):
        for z in changed_cell_pairs(Family.from_system(system).z0):
            for auto in diagram_automorphisms(system):
                fixed = auto.T * (auto.T * z).T == z
                assert check_invariance([auto], z) == fixed, (str(system), z)
                outcomes.add(fixed)
    assert outcomes == {True, False}


@PROPERTY
@given(symmetric_matrices(), st.data())
def test_row_test_matches_the_product_for_any_unimodular_matrix(w, data):
    # A unimodular s may differ from I in several rows, and a shear
    # I + q e_i e_j^t in a row whose diagonal entry is still 1; an
    # involution s fixes w + s w s^t, so fixed and moved points are drawn.
    n = w.nrows
    s = data.draw(unimodular_pairs(n))[0]
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    shear = [[int(a == b) for b in range(n)] for a in range(n)]
    shear[i][j] += data.draw(st.sampled_from((1, -2))) if i != j else 0
    for m in (s, Matrix(shear)):
        points = [w, Matrix.zeros(n)]
        if m * m == Matrix.identity(n):
            points.append(w + m * w * m.T)
        for z in points:
            assert check_invariance([m.T], z) == (m * z * m.T == z)


@PROPERTY
@given(square_matrices(), st.data())
def test_invariance_of_any_square_form_matches_the_product(w, data):
    # The form need not be symmetric. The involution r = I - e_0 row (row's
    # first entry 2) fixes w + r^t w r. Raising the fixed form in a row r
    # moves and a column it keeps is seen only on the S^t side of the test,
    # and in a kept row and a moved column only on the S side.
    n = w.nrows
    s = data.draw(unimodular_pairs(n))[0]
    row = [2] + [data.draw(sparse) for _ in range(n - 1)]
    r = Matrix.identity(n) - Matrix([row] + [[0] * n] * (n - 1))
    for g in (s, r):
        points = [w, w.T, Matrix.zeros(n)]
        if g * g == Matrix.identity(n):
            fixed = w + g.T * w * g
            moved = {j for j in range(n) if g.col(j) != tuple(int(i == j) for i in range(n))}
            for a in range(n):
                for b in range(n):
                    if (a in moved) != (b in moved):
                        cells = [list(x) for x in fixed.rows()]
                        cells[a][b] += 1
                        points.append(Matrix(cells))
            points.append(fixed)
        for z in points:
            assert check_invariance([g], z) == (g.T * z * g == z), (g, z)


@st.composite
def involution_candidates(draw):
    """Square integer matrices up to 5 x 5: u r u^{-1} for a reflection-like
    r (I less one sparse row, an involution when that row's diagonal entry
    is 2), products of two such, or any matrix of small entries."""
    n = draw(st.integers(1, 5))
    u, u_inv = draw(unimodular_pairs(n))
    i = draw(st.integers(0, n - 1))
    row = [draw(sparse) for _ in range(n)]
    row[i] = draw(st.sampled_from((2, 2, 0, 1, 3)))
    r = Matrix.identity(n) - Matrix([row if a == i else [0] * n for a in range(n)])
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return u * r * u_inv
    if kind == 1:
        return r * u * r * u_inv
    return Matrix([[draw(small) for _ in range(n)] for _ in range(n)])


@PROPERTY
@given(involution_candidates())
def test_moved_columns_decide_identity_and_involution(m):
    n = m.nrows
    ident = Matrix.identity(n)
    moved = _moved_columns(m)
    assert [j for j, _ in moved] == [j for j in range(n) if m.col(j) != ident.col(j)]
    assert all(terms == [(k, x) for k, x in enumerate(m.col(j)) if x] for j, terms in moved)
    assert (not moved) == (m == ident)
    assert _is_involution(moved) == (m * m == ident), m


@PROPERTY
@given(st.sampled_from(list(all_systems(6))), st.data())
def test_coset_closure_of_a_parabolic_subgroup_matches_the_closure(system, data):
    # One or more simple reflections, in any order: the generator sets the
    # certificate's lower levels see, reducible ones such as A2 x A1 among
    # them.
    gens = [g.T for g in simple_reflections(system)]
    size = data.draw(st.integers(1, len(gens)))
    sub = [gens[k] for k in data.draw(st.permutations(range(len(gens))))[:size]]
    group = generate_group(sub, 100_001)
    assert not group.truncated
    assert coset_closure(sub, 100_001) == (group.order, group.levels), (system, sub)


def canonical(x) -> bool:
    """An entry as ``Matrix`` gives it: an int, or a Fraction that is not one."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def reduced(m) -> bool:
    """The stored form: int numerators over an int denominator q >= 1 that
    shares no factor with all of them, and reads back as the entries."""
    q, num = m.denominator, m.numerators
    return (type(q) is int and q >= 1 and all(type(p) is int for p in num)
            and gcd(q, *num) == 1 and m.flat == tuple(Fraction(p, q) for p in num))


def integral_rows(rows) -> bool:
    """Are all the entries of ``rows`` integers? Read off the input, not off
    a ``Matrix``."""
    return all(Fraction(x).denominator == 1 for row in rows for x in row)


def integrality_exact(m, integral: bool) -> bool:
    """The matrix is stored reduced, every entry is given canonically and
    ``is_integral()`` is ``integral``, the value the input fixes."""
    return reduced(m) and all(canonical(x) for x in m.flat) and m.is_integral() is integral


def fraction_at(position):
    """Rows of a 3 x 4 integer matrix with 1/2 at flat ``position``; None
    leaves every entry an int."""
    flat = [3 * k - 5 for k in range(12)]
    if position is not None:
        flat[position] = Fraction(1, 2)
    return [flat[i:i + 4] for i in range(0, 12, 4)]


def bordered(rows):
    """``rows`` inside a border of 1/3 entries, one cell wide."""
    edge = [Fraction(1, 3)] * (len(rows[0]) + 2)
    return [edge, *([Fraction(1, 3), *row, Fraction(1, 3)] for row in rows), edge]


# Every way a Matrix is built, each taking the rows it must equal.
BUILDS = {
    "Matrix": Matrix,
    "from_flat": lambda rows: Matrix.from_flat([x for row in rows for x in row], 3, 4),
    # Over 2, which the constructor divides out when every entry is an int.
    "_from_numerators": lambda rows: Matrix._from_numerators(
        tuple(int(2 * x) for row in rows for x in row), 2, 3, 4),
    "T": lambda rows: Matrix(zip(*rows)).T,
    "submatrix": lambda rows: Matrix(bordered(rows)).submatrix(1, 4, 1, 5),
    "block2": lambda rows: Matrix.block2(*(Matrix([row[c0:c1] for row in rows[r0:r1]])
                                           for r0, r1 in ((0, 2), (2, 3))
                                           for c0, c1 in ((0, 1), (1, 4)))),
    "negation": lambda rows: -Matrix([[-x for x in row] for row in rows]),
    "identity product": lambda rows: Matrix.identity(3) * Matrix(rows) * Matrix.identity(4),
}


@pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS)
def test_integrality_at_every_entry_position(build):
    for position in (None, *range(12)):
        rows = fraction_at(position)
        m = build(rows)
        assert m == Matrix(rows)
        assert integrality_exact(m, position is None), position


@st.composite
def product_operands(draw):
    """Rows of an n x k and a k x m matrix, each with its own entry strategy.

    Sometimes a row of the left factor is forced to zero, and sometimes one
    is forced to hold a single 1, the rows the product loop treats apart.
    """
    n, k, m = (draw(st.integers(1, 5)) for _ in range(3))
    a_entries, b_entries = (draw(st.sampled_from((integers, scalars, coprime, sparse)))
                            for _ in range(2))
    a = [[draw(a_entries) for _ in range(k)] for _ in range(n)]
    b = [[draw(b_entries) for _ in range(m)] for _ in range(k)]
    if draw(st.booleans()):
        a[draw(st.integers(0, n - 1))] = [0] * k
    if draw(st.booleans()):
        unit = draw(st.integers(0, k - 1))
        a[draw(st.integers(0, n - 1))] = [int(t == unit) for t in range(k)]
    return a, b


@PROPERTY
@given(product_operands())
def test_product_matches_entrywise_fractions(operands):
    a, b = operands
    product = Matrix(a) * Matrix(b)
    expected = [[sum((Fraction(a[i][t]) * Fraction(b[t][j]) for t in range(len(b))),
                     Fraction(0)) for j in range(len(b[0]))] for i in range(len(a))]
    assert (product.nrows, product.ncols) == (len(a), len(b[0]))
    assert [list(row) for row in product.rows()] == expected
    assert integrality_exact(product, integral_rows(expected))


@PROPERTY
@given(product_operands(), st.data())
def test_equal_values_by_different_routes_are_one_stored_form(operands, data):
    # A product, from_flat of its Fraction entries, scaling by s and then
    # by 1/s, and p + d - d for a d over coprime denominators all give the
    # product's value, so they must be equal with equal hashes, and reduced.
    a, b = operands
    p = Matrix(a) * Matrix(b)
    n, m = p.nrows, p.ncols
    expected = [[sum((Fraction(a[i][t]) * Fraction(b[t][j]) for t in range(len(b))),
                     Fraction(0)) for j in range(m)] for i in range(n)]
    s = data.draw(st.fractions(-9, 9, max_denominator=6).filter(bool))
    d = Matrix([[data.draw(coprime) for _ in range(m)] for _ in range(n)])
    routes = (p, Matrix(expected), Matrix.from_flat([Fraction(x) for x in p.flat], n, m),
              p.scale(s).scale(1 / s), p + d - d)
    for x in routes:
        assert x == routes[0] and hash(x) == hash(routes[0])
        assert integrality_exact(x, integral_rows(expected))
    assert integrality_exact(p.scale(s), integral_rows([[s * x for x in row]
                                                        for row in expected]))
    assert integrality_exact(p + d, integral_rows([[x + y for x, y in zip(row, d.row(i))]
                                                   for i, row in enumerate(expected)]))


@PROPERTY
@given(square_matrices())
def test_rational_products_that_clear_denominators_are_integral(m):
    n = m.nrows
    d = m.denominator
    for product in (m * Matrix.diagonal([d] * n), Matrix.diagonal([d] * n) * m):
        assert product == Matrix.from_flat([d * x for x in m.flat], n, n)
        assert product.is_integral() and all(type(x) is int for x in product.flat)
    if oracle_det(m) != 0:
        inv = oracle_inverse(m)
        assert m * inv == inv * m == Matrix.identity(n)
        assert (m * inv).is_integral() and (inv * m).is_integral()


@st.composite
def symplectic_matrices(draw):
    """Products of [[A, 0], [0, A^{-t}]] (A unimodular) and the symmetric
    shears [[I, S], [0, I]] and [[I, 0], [S, I]], of size 2n <= 6."""
    n = draw(st.integers(1, 3))
    ident, zero = Matrix.identity(n), Matrix.zeros(n)
    m = Matrix.identity(2 * n)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("embed", "upper", "lower")))
        if kind == "embed":
            a, a_inv = draw(unimodular_pairs(n))
            step = Matrix.block2(a, zero, zero, a_inv.T)
        else:
            upper = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
            s = Matrix([[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])
            step = (Matrix.block2(ident, s, zero, ident) if kind == "upper"
                    else Matrix.block2(ident, zero, s, ident))
        m = m * step
    return m


@PROPERTY
@given(symplectic_matrices(), st.data())
def test_is_symplectic_matches_dense_reference(m, data):
    size = m.nrows
    j = standard_form(size // 2)
    assert m.T * j * m == j
    assert is_symplectic(m)
    flat = list(m.flat)
    cell = data.draw(st.integers(0, size * size - 1))
    flat[cell] += data.draw(st.sampled_from((1, -1, 2, Fraction(1, 2))))
    changed = Matrix.from_flat(flat, size, size)
    assert is_symplectic(changed) == (changed.T * j * changed == j)


@st.composite
def rational_with_integral_block(draw):
    """(rows, r, c): an integral top-left r x c block in a non-integral matrix."""
    nr, nc = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    r, c = draw(st.integers(1, nr - 1)), draw(st.integers(1, nc - 1))
    rows = [[draw(integers) if i < r and j < c else draw(scalars) for j in range(nc)]
            for i in range(nr)]
    rows[nr - 1][nc - 1] = Fraction(2 * draw(integers) + 1, 2)
    return rows, r, c


@PROPERTY
@given(rational_with_integral_block())
def test_blocks_of_rational_matrices_report_integrality(case):
    rows, r, c = case
    nr, nc = len(rows), len(rows[0])
    m = Matrix(rows)
    assert not m.is_integral()
    quads = (m.submatrix(0, r, 0, c), m.submatrix(0, r, c, nc),
             m.submatrix(r, nr, 0, c), m.submatrix(r, nr, c, nc))
    assert quads[0].is_integral()
    assert quads[0] == Matrix([row[:c] for row in rows[:r]])
    assert quads[3] == Matrix([row[c:] for row in rows[r:]])
    assert m.T == Matrix(zip(*rows))
    assert Matrix.block2(*quads) == m
    top_left = Matrix.block2(quads[0], quads[0], quads[0], quads[0])
    assert top_left.is_integral()
    # Each quadrant is integral exactly when its cells of ``rows`` are; the
    # bottom-right one holds the half-integer corner.
    integral = [integral_rows([row[c0:c1] for row in rows[r0:r1]])
                for r0, r1 in ((0, r), (r, nr)) for c0, c1 in ((0, c), (c, nc))]
    assert integral[0] and not integral[3]
    for x, whole in (*zip(quads, integral), *zip((q.T for q in quads), integral),
                     *zip((-q for q in quads), integral), (m.T, False),
                     (Matrix.block2(*quads), False), (top_left, True), (-m, False)):
        assert integrality_exact(x, whole)
