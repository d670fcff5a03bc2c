import weylppav
from weylppav._kernel import mat_mul_flat, mat_mul_flat_py


def flatten(rows):
    return tuple(x for row in rows for x in row)


class TestPureKernel:
    def test_small_product(self):
        a = flatten([[1, 2], [3, 4]])
        b = flatten([[0, 1], [1, 0]])
        assert mat_mul_flat_py(a, b, 2, 2, 2) == flatten([[2, 1], [4, 3]])

    def test_identity(self):
        ident = flatten([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        a = flatten([[1, -2, 3], [4, 5, -6], [-7, 8, 9]])
        assert mat_mul_flat_py(a, ident, 3, 3, 3) == a

    def test_huge_entries_exact(self):
        big = 10 ** 40
        a = (big, 0, 0, big)
        assert mat_mul_flat_py(a, a, 2, 2, 2) == (big * big, 0, 0, big * big)

    def test_rectangular_zero_unit_and_cancelling_rows(self):
        # A zero row, a row holding one 1 (a copy of row 2 of b) and a row
        # whose sum cancels in one column; every entry comes back an int.
        a = flatten([[0, 0, 0, 0], [0, 0, 1, 0], [2, 0, -1, 3]])
        b = flatten([[5, -1], [6, 0], [7, 4], [8, 2]])
        product = mat_mul_flat_py(a, b, 3, 4, 2)
        assert product == (0, 0, 7, 4, 27, 0)
        assert all(type(x) is int for x in product)


class TestSinglePath:
    def test_one_product_function(self):
        assert mat_mul_flat is mat_mul_flat_py
        assert weylppav.USING_COMPILED is False
