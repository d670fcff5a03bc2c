import hashlib
import random
from fractions import Fraction
from math import gcd, prod

import pytest

from weylppav import (Family, Matrix, NotSymmetric, RootSystemId, Singular, all_systems,
                      cartan_matrix, embed_block_diag, gram_matrix,
                      simple_reflections, smith_normal_form, solve_affine)
from conftest import oracle_det, oracle_inverse

F = Fraction


def random_int_matrix(rng, n):
    return Matrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])


class TestMatrixBasics:
    def test_shape_and_indexing(self):
        m = Matrix([[1, 2, 3], [4, 5, 6]])
        assert (m.nrows, m.ncols) == (2, 3)
        assert m[1, 2] == 6
        assert m.row(0) == (1, 2, 3)
        assert m.col(2) == (3, 6)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Matrix([[1.0, 0], [0, 1]])
        ident = Matrix.identity(2)
        with pytest.raises(TypeError, match="float"):
            solve_affine(ident, [0.5, 1])

    def test_bools_rejected(self):
        with pytest.raises(TypeError, match="bool"):
            Matrix([[True, 0], [0, True]])
        with pytest.raises(TypeError, match="bool"):
            Matrix.from_flat((1, False, 0, 1), 2, 2)
        ident = Matrix.identity(2)
        for call in (lambda: Matrix([[True]]), lambda: ident * True, lambda: True * ident,
                     lambda: solve_affine(ident, [F(1, 2), True])):
            with pytest.raises(TypeError, match="bool"):
                call()

    def test_int_subclass_stored_as_int(self):
        class Tagged(int):
            pass

        m = Matrix([[Tagged(3)]])
        assert m[0, 0] == 3 and type(m[0, 0]) is int and m.is_integral()

    def test_integral_fraction_collapses_to_int(self):
        m = Matrix([[F(4, 2), F(1, 3)]])
        assert m[0, 0] == 2 and isinstance(m[0, 0], int)
        assert m[0, 1] == F(1, 3)

    def test_immutable_and_hashable(self):
        m = Matrix([[1, 0], [0, 1]])
        with pytest.raises(AttributeError):
            m.nrows = 3
        assert m == Matrix.identity(2)
        assert hash(m) == hash(Matrix.identity(2))
        assert len({m, Matrix.identity(2)}) == 1

    def test_block_assembly(self):
        a = Matrix.identity(2)
        z = Matrix.zeros(2)
        m = Matrix.block2(a, z, z, a)
        assert m == Matrix.identity(4)

    def test_product_mixed_entries(self):
        a = Matrix([[F(1, 2), 0], [0, 2]])
        b = Matrix([[2, 0], [0, F(1, 4)]])
        assert a * b == Matrix([[1, 0], [0, F(1, 2)]])

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2], [3]])

    def test_submatrix_bounds_checked(self):
        m = Matrix([[1, 2], [3, 4]])
        assert m.submatrix(0, 2, 1, 2) == Matrix([[2], [4]])
        assert m.submatrix(1, 2, 0, 2) == Matrix([[3, 4]])
        for bounds in ((0, 2, 1, 5), (0, 3, 0, 2), (-1, 2, 0, 2), (0, 2, -1, 2),
                       (1, 1, 0, 2), (0, 2, 2, 1)):
            with pytest.raises(ValueError, match="out of bounds"):
                m.submatrix(*bounds)
        with pytest.raises(ValueError, match="out of bounds"):
            Matrix([[F(1, 2), 2], [3, 4]]).submatrix(0, 2, 1, 5)

    @pytest.mark.parametrize("other", [1, F(1, 2), (1, 0, 0, 1)])
    def test_sum_with_a_non_matrix_is_a_type_error(self, other):
        m = Matrix.identity(2)
        for op in (lambda a, b: a + b, lambda a, b: a - b):
            with pytest.raises(TypeError):
                op(m, other)
            with pytest.raises(TypeError):
                op(other, m)

    def test_canonical_results_skip_init(self, monkeypatch):
        m = Matrix([[2, 1], [1, 1]])
        half = Matrix([[F(1, 2), 0], [1, F(-3, 2)]])

        def refuse(self, rows):
            raise AssertionError("Matrix.__init__ was called")

        monkeypatch.setattr(Matrix, "__init__", refuse)
        assert Matrix.identity(2).flat == (1, 0, 0, 1)
        assert Matrix.zeros(1, 2).flat == (0, 0)
        assert (-half).flat == (F(-1, 2), 0, -1, F(3, 2))
        assert m.T.flat == (2, 1, 1, 1) and half.T.flat == (F(1, 2), 1, 0, F(-3, 2))
        assert half.submatrix(1, 2, 0, 1).flat == (1,)
        assert Matrix.block2(m, half, half, m).flat[:4] == (2, 1, F(1, 2), 0)
        assert (m * m).flat == (5, 3, 3, 2) and (half * m).flat == (1, F(1, 2), F(1, 2), F(-1, 2))
        assert Matrix.from_flat((F(4, 2), 0), 1, 2).flat == (2, 0)
        assert (m + half - m * 2).flat == (F(-3, 2), -1, 0, F(-5, 2))
        assert m.inverse().flat == (1, -1, -1, 2)
        snf = smith_normal_form(m)
        assert snf.u * m * snf.v == snf.d == Matrix.identity(2)

    def test_sum_shape_mismatch_rejected(self):
        for op in (lambda a, b: a + b, lambda a, b: a - b):
            with pytest.raises(ValueError, match="shape"):
                op(Matrix.identity(2), Matrix.identity(3))


def reference_product(a, b):
    """Row-by-column product of two lists of rows."""
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


class TestProducts:
    def assert_product(self, a, b):
        result = Matrix(a) * Matrix(b)
        expected = Matrix(reference_product(a, b))
        assert (result.nrows, result.ncols) == (len(a), len(b[0]))
        assert result == expected
        assert hash(result) == hash(expected)
        assert result.is_integral() == expected.is_integral()
        assert all(type(x) is int or x.denominator != 1 for x in result.flat)
        return result

    def test_integer_2x3_by_3x4(self):
        a = [[1, -2, 3], [0, 4, -5]]
        b = [[2, 0, -1, 7], [1, 3, 0, -2], [-4, 1, 6, 0]]
        result = self.assert_product(a, b)
        assert result.is_integral()
        assert result.rows() == [(-12, -3, 17, 11), (24, 7, -30, -8)]

    def test_row_by_column(self, rng):
        for k in (1, 2, 5, 9):
            row = [[rng.randint(-9, 9) for _ in range(k)]]
            col = [[rng.randint(-9, 9)] for _ in range(k)]
            assert self.assert_product(row, col).is_integral()
            assert self.assert_product(col, row).is_integral()

    def test_mixed_3x2_by_2x3(self):
        a = [[F(1, 2), 1], [2, F(-1, 3)], [0, F(3, 2)]]
        b = [[2, F(1, 4), -1], [F(3, 1), 6, F(2, 3)]]
        result = self.assert_product(a, b)
        assert not result.is_integral()
        assert result.row(0) == (4, F(49, 8), F(1, 6))

    def test_mixed_product_collapses_to_integral(self):
        result = self.assert_product([[F(1, 2), F(3, 2)]], [[2], [F(2, 3)]])
        assert result.is_integral() and result.flat == (2,)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            Matrix([[1, 2, 3], [4, 5, 6]]) * Matrix([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ValueError):
            Matrix([[1, 2]]) * Matrix([[1, 2]])


class TestInverse:
    def test_identity(self):
        assert Matrix.identity(3).inverse() == Matrix.identity(3)

    def test_rank2_table_values(self):
        # the two rank-2 Gram forms and their known inverses
        g2 = Matrix([[2, -3], [-3, 6]])
        assert g2.inverse() == Matrix([[2, 1], [1, F(2, 3)]])
        a2 = Matrix([[2, -1], [-1, 2]])
        assert a2.inverse() == Matrix([[F(2, 3), F(1, 3)], [F(1, 3), F(2, 3)]])

    def test_singular_raises(self):
        # the 3 x 3 cases lack a pivot in the last column (the sum of the
        # first two), in the middle column (twice the first) and in the first
        # column (zero), where elimination goes on to pivot the later columns
        for rows in ([[1, 2], [2, 4]],
                     [[1, 0, 1], [0, 1, 1], [1, 1, 2]],
                     [[1, 2, 3], [2, 4, 5], [3, 6, 7]],
                     [[0, 1, 2], [0, 3, 4], [0, 5, 7]]):
            m = Matrix(rows)
            assert m.det() == oracle_det(m) == 0
            with pytest.raises(Singular):
                m.inverse()

    def test_inverse_times_self_is_identity(self, rng):
        for _ in range(25):
            n = rng.randint(1, 6)
            m = random_int_matrix(rng, n)
            try:
                inv = m.inverse()
            except Singular:
                assert m.det() == 0
                continue
            assert m * inv == Matrix.identity(n)
            assert inv * m == Matrix.identity(n)

    def test_matches_adjugate_oracle(self, rng):
        for _ in range(10):
            n = rng.randint(2, 5)
            m = random_int_matrix(rng, n)
            if m.det() == 0:
                continue
            assert m.inverse() == oracle_inverse(m)

    def test_catalog_grams_match_oracle(self):
        for tag in ("A4", "B5", "C6", "D7", "E6", "E7", "E8", "F4", "G2"):
            gram = gram_matrix(RootSystemId.parse(tag))
            assert gram.inverse() == oracle_inverse(gram)


class TestDeterminant:
    def test_identity(self):
        assert Matrix.identity(5).det() == 1

    def test_cartan_a4(self):
        m = cartan_matrix(RootSystemId.parse("A4"))
        assert oracle_det(m) == 5
        assert m.det() == 5

    def test_gram_g2(self):
        assert Matrix([[2, -3], [-3, 6]]).det() == 3

    def test_matches_oracle(self, rng):
        for _ in range(25):
            n = rng.randint(1, 5)
            m = random_int_matrix(rng, n)
            assert m.det() == oracle_det(m)

    def test_rational_entries(self):
        m = Matrix([[F(1, 2), F(1, 3)], [F(1, 4), F(1, 5)]])
        assert m.det() == F(1, 10) - F(1, 12)
        # the integer determinant of 60 * m is divided by 60^2 and canonicalized
        unit = Matrix([[F(1, 2), 0], [0, 2]]).det()
        assert unit == 1 and type(unit) is int


class TestRank:
    @pytest.mark.parametrize("rows, rank", [
        ([[0]], 0),
        ([[0, 0, 0], [0, 0, 0]], 0),
        ([[1, 2, 3], [2, 4, 7]], 2),  # column 1 has no pivot and is skipped
        ([[0, 1, 2], [0, 2, 4], [0, 0, 0]], 1),  # a zero column, then a zero row
        ([[0, 0], [1, 2], [0, 0], [3, 4]], 2),  # zero rows around the pivots
        ([[F(1, 2), F(1, 3)], [F(3, 2), 1]], 1),  # rational, row 2 is 3 * row 1
        ([[2, -1, 0], [-1, 2, -1], [0, -1, 2], [1, 0, -1]], 3),
    ])
    def test_values(self, rows, rank):
        m = Matrix(rows)
        assert m.rank() == rank
        assert m.T.rank() == rank


class TestFractionFree:
    def test_integer_input_builds_no_fraction(self, monkeypatch):
        from weylppav import exactmat

        grams = [gram_matrix(system) for system in all_systems(8)]
        singular = Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        wide = Matrix([[0, 1, 2, 3], [0, 2, 4, 7]])

        class NoFraction(Fraction):
            def __new__(cls, *args, **kwargs):
                raise AssertionError("integer elimination built a Fraction")

        monkeypatch.setattr(exactmat, "Fraction", NoFraction)
        assert [g.det() for g in grams] == [oracle_det(g) for g in grams]
        assert all(g.is_positive_definite() for g in grams)
        assert not any((-g).is_positive_definite() for g in grams)
        assert [g.rank() for g in grams] == [g.nrows for g in grams]
        assert (singular.det(), singular.rank(), wide.rank()) == (0, 2, 2)


class TestSmithNormalForm:
    @staticmethod
    def assert_valid(m, snf):
        assert snf.u * m * snf.v == snf.d
        assert abs(snf.u.det()) == 1
        assert abs(snf.v.det()) == 1
        diag = snf.diagonal()
        assert all(x >= 0 for x in diag)
        for i in range(len(diag) - 1):
            if diag[i + 1]:
                assert diag[i + 1] % diag[i] == 0
            # zeros only at the end
            if diag[i] == 0:
                assert diag[i + 1] == 0
        off = [snf.d[i, j] for i in range(snf.d.nrows)
               for j in range(snf.d.ncols) if i != j]
        assert all(x == 0 for x in off)

    def test_already_diagonal(self):
        m = Matrix.diagonal([2, 4])
        snf = smith_normal_form(m)
        assert snf.d == m
        assert snf.u == Matrix.identity(2)
        assert snf.v == Matrix.identity(2)

    def test_cartan_a2(self):
        m = cartan_matrix(RootSystemId.parse("A2"))
        snf = smith_normal_form(m)
        self.assert_valid(m, snf)
        assert snf.diagonal() == (1, 3)

    def test_gram_e8_unimodular(self):
        m = gram_matrix(RootSystemId.parse("E8"))
        snf = smith_normal_form(m)
        self.assert_valid(m, snf)
        assert snf.diagonal() == (1,) * 8

    @pytest.mark.parametrize("rows, diag", [
        ([[2, 0], [0, 3]], (1, 6)),
        ([[6, 0], [0, 10]], (2, 30)),
        ([[1, 0, 0], [0, 2, 0], [0, 0, 3]], (1, 1, 6)),
    ])
    def test_divisibility_fold(self, rows, diag):
        # a pivot clears its row and column in one round but does not divide
        # a later diagonal entry, so that row is folded into the pivot row
        m = Matrix(rows)
        snf = smith_normal_form(m)
        self.assert_valid(m, snf)
        assert snf.diagonal() == diag

    def test_random_invariants(self, rng):
        for _ in range(60):
            nr, nc = rng.randint(1, 8), rng.randint(1, 9)
            m = Matrix([[rng.randint(-60, 60) for _ in range(nc)] for _ in range(nr)])
            snf = smith_normal_form(m)
            self.assert_valid(m, snf)
            diag = snf.diagonal()
            assert diag[0] == gcd(*m.flat)
            if nr == nc:
                assert prod(diag) == abs(oracle_det(m))

    def test_embedding_inverts_reflection_words(self, rng):
        systems = list(all_systems(6))
        for _ in range(30):
            refl = simple_reflections(rng.choice(systems))
            w = Matrix.identity(refl[0].nrows)
            for _ in range(rng.randint(1, 8)):
                w = w * rng.choice(refl)
            n = w.nrows
            assert embed_block_diag(w).m.submatrix(n, 2 * n, n, 2 * n) == w.inverse().T

    def test_unit_pivot_ties_go_row_major(self):
        # Units at (0, 2) and (1, 0): the row-major one, in the later column,
        # is the first pivot, so u starts with e_1 and v with e_3.
        m = Matrix([[4, 6, 1], [1, 8, 10], [3, 5, 7]])
        snf = smith_normal_form(m)
        self.assert_valid(m, snf)
        assert snf.diagonal() == (1, 1, 143)
        assert snf.u == Matrix([[1, 0, 0], [3, -1, 1], [29, -12, 13]])
        assert snf.v == Matrix([[0, -1, 15], [0, 1, -14], [1, -2, 24]])

    def test_factors_are_pinned(self):
        # One digest over u, d and v of every Gram matrix through rank 16 and
        # of seeded random matrices: ones with entries in -5..5, most holding
        # several units, and unit-free ones (even entries in -30..30), whose
        # first pivot is the least |x|.
        rng = random.Random(20240601)
        cases = [gram_matrix(s) for s in all_systems(16)]
        for k in range(50):
            nr, nc = rng.randint(1, 6), rng.randint(1, 7)
            cases.append(Matrix([[2 * rng.randint(-15, 15) if k % 2 else rng.randint(-5, 5)
                                  for _ in range(nc)] for _ in range(nr)]))
        units = [sum(abs(x) == 1 for x in m.numerators) for m in cases[-50:]]
        assert sum(n > 1 for n in units[::2]) >= 15 and not any(units[1::2])
        digest = hashlib.sha256()
        for m in cases:
            snf = smith_normal_form(m)
            digest.update(repr((snf.u.numerators, snf.d.numerators,
                                snf.v.numerators)).encode())
        assert digest.hexdigest() == (
            "ec98221cf088f73e3e458404e785970afd3684a2e2366d6c87e1c348df5abb15")

    def test_singular_input(self):
        m = Matrix([[2, 4], [1, 2]])
        snf = smith_normal_form(m)
        self.assert_valid(m, snf)
        assert snf.diagonal() == (1, 0)

    def test_rational_input_rejected(self):
        with pytest.raises(ValueError):
            smith_normal_form(Matrix([[F(1, 2)]]))


class TestSolveAffine:
    def test_unique_solution(self):
        sol = solve_affine(Matrix.identity(2), (1, 2))
        assert sol.particular == (1, 2)
        assert sol.kernel_basis == ()

    def test_underdetermined(self):
        sol = solve_affine(Matrix([[1, 1]]), (0,))
        assert sol.particular == (0, 0)
        assert len(sol.kernel_basis) == 1
        x, y = sol.kernel_basis[0]
        assert x == -y != 0  # spans (1, -1)

    def test_inconsistent(self):
        sol = solve_affine(Matrix([[1], [1]]), (0, 1))
        assert sol.particular is None
        assert sol.kernel_basis == ()

    def test_substitution(self, rng):
        # the first system has a free first column and pivots after it; the
        # second multiplies rationals to integers, which the product returns
        # as ints
        free_first = Matrix([[0, 1, 2], [0, 2, 5]])
        assert solve_affine(free_first, (1, 3)).kernel_basis == ((1, 0, 0),)
        systems = [(free_first, (1, 3)), (Matrix([[F(1, 2)]]), (1,))]
        for _ in range(30):
            nr = rng.randint(1, 5)
            nc = rng.randint(1, 5)
            coeff = Matrix([[rng.randint(-6, 6) for _ in range(nc)]
                            for _ in range(nr)])
            systems.append((coeff, tuple(rng.randint(-6, 6) for _ in range(nr))))
        for coeff, rhs in systems:
            sol = solve_affine(coeff, rhs)
            if sol.particular is None:
                continue
            image = (coeff * Matrix([[x] for x in sol.particular])).flat
            assert image == rhs
            assert all(type(x) is int for x in image)
            for vec in sol.kernel_basis:
                assert (coeff * Matrix([[x] for x in vec])).is_zero()


class TestPositiveDefinite:
    def test_identity(self):
        assert Matrix.identity(4).is_positive_definite()

    def test_gram_g2(self):
        assert Matrix([[2, -3], [-3, 6]]).is_positive_definite()

    def test_indefinite(self):
        assert not Matrix([[1, 2], [2, 1]]).is_positive_definite()

    def test_not_symmetric_raises(self):
        with pytest.raises(NotSymmetric):
            Matrix([[1, 2], [0, 1]]).is_positive_definite()

    def test_zero_leading_minor(self):
        assert not Matrix([[0, 0], [0, 1]]).is_positive_definite()
        assert not Matrix([[0, 1], [1, 0]]).is_positive_definite()
        # [[0, 1], [1, 0]] twice on the diagonal: after two row swaps every
        # pivot is 1 and det is +1, but the first leading minor is 0
        swap2 = Matrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        assert swap2.det() == oracle_det(swap2) == 1
        assert not swap2.is_positive_definite()

    def test_semidefinite_is_not_definite(self):
        assert not Matrix([[1, 1], [1, 1]]).is_positive_definite()
        assert not Matrix([[1, 1, 0], [1, 1, 0], [0, 0, 2]]).is_positive_definite()

    def test_catalog_z0_without_det(self, monkeypatch):
        z0s = [Family.from_system(system).z0 for system in all_systems(8)]

        def no_det(self):
            raise AssertionError("is_positive_definite called det")

        monkeypatch.setattr(Matrix, "det", no_det)
        assert all(z0.is_positive_definite() for z0 in z0s)
        assert not any((-z0).is_positive_definite() for z0 in z0s)

    def test_fraction_entries(self):
        hilbert = Matrix([[F(1, i + j + 1) for j in range(3)] for i in range(3)])
        assert hilbert.is_positive_definite()
        assert not (-hilbert).is_positive_definite()

    def test_matches_leading_minor_oracle(self, rng):
        outcomes = set()
        for trial in range(60):
            n = rng.randint(1, 5)
            if trial % 2:
                b = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
                m = b.T * b + Matrix.diagonal([rng.randint(0, 1) for _ in range(n)])
            else:
                rows = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i, n):
                        rows[i][j] = rows[j][i] = rng.randint(-3, 9)
                m = Matrix(rows)
            expected = all(oracle_det(m.submatrix(0, k, 0, k)) > 0 for k in range(1, n + 1))
            assert m.is_positive_definite() == expected
            outcomes.add(expected)
        assert outcomes == {True, False}
