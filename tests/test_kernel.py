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


class TestSinglePath:
    def test_one_product_function(self):
        assert mat_mul_flat is mat_mul_flat_py
        assert weylppav.USING_COMPILED is False
