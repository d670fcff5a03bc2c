from fractions import Fraction
from operator import mul

import pytest

from weylppav import (Matrix, RootSystemId, all_systems, cartan_data, cartan_matrix,
                      coroot_gram_matrix, diagram_automorphisms, generate_group,
                      gram_matrix, simple_reflections)
from weylppav.reference import closed_form_z0

F = Fraction

CATALOG = list(all_systems(8))


class TestRootSystemId:
    def test_parse_round_trip(self):
        for tag in ("A1", "B2", "C5", "D3", "E6", "E7", "E8", "F4", "G2"):
            assert str(RootSystemId.parse(tag)) == tag

    def test_case_insensitive(self):
        assert RootSystemId.parse("g2") == RootSystemId("G", 2)

    @pytest.mark.parametrize("bad", ["A0", "B1", "C1", "D2", "E5", "E9",
                                     "F3", "G3", "H4", "A", "4A", ""])
    def test_invalid_tags(self, bad):
        with pytest.raises(ValueError):
            RootSystemId.parse(bad)

    @pytest.mark.parametrize("bad", ["A\u0663", "A\u00b3", "E\uff18", "D1\u0660"])
    def test_non_ascii_digits_rejected(self, bad):
        # str.isdigit() accepts each of these, and int() would read three of
        # them as A3, E8 and D10.
        with pytest.raises(ValueError, match="cannot parse root system tag"):
            RootSystemId.parse(bad)

    @pytest.mark.parametrize("bad", ["A0003", "A03", "e08", "D00"])
    def test_leading_zeros_rejected(self, bad):
        with pytest.raises(ValueError, match="cannot parse root system tag"):
            RootSystemId.parse(bad)

    def test_max_rank(self):
        assert RootSystemId.parse("A200", max_rank=200) == RootSystemId("A", 200)
        with pytest.raises(ValueError, match="^rank 201 exceeds the limit 200$"):
            RootSystemId.parse("A201", max_rank=200)
        # Far more digits than int() converts by default: refused by length.
        with pytest.raises(ValueError, match="exceeds the limit 200$"):
            RootSystemId.parse("A" + "9" * 5000, max_rank=200)
        # Without a limit the rank is converted, and a nonexistent
        # exceptional rank is still named as such.
        assert RootSystemId.parse("B1000").rank == 1000
        with pytest.raises(ValueError, match="E300 is not a root system"):
            RootSystemId.parse("E300", max_rank=200)

    @pytest.mark.parametrize("rank", [True, 3.0, "3", Fraction(3)])
    def test_rank_must_be_int(self, rank):
        with pytest.raises(TypeError, match="rank must be an int"):
            RootSystemId("A", rank)

    def test_d3_admitted(self):
        # same abstract system as A3, kept for catalog completeness
        assert RootSystemId.parse("D3").rank == 3


class TestCartan:
    def test_a2(self):
        assert cartan_matrix(RootSystemId.parse("A2")) == Matrix([[2, -1], [-1, 2]])

    def test_g2_first_root_short(self):
        assert cartan_matrix(RootSystemId.parse("G2")) == Matrix([[2, -1], [-3, 2]])
        assert cartan_data(RootSystemId.parse("G2")).norm_halves == (1, 3)

    def test_b2(self):
        # the asymmetric entry -2 sits in the row of the long root, which is
        # what S = C * diag(norm_halves) forces given the published inverse
        assert cartan_matrix(RootSystemId.parse("B2")) == Matrix([[2, -2], [-1, 2]])

    def test_diagonal_is_two_offdiag_nonpositive(self):
        for system in CATALOG:
            c = cartan_matrix(system)
            n = system.rank
            assert all(c[i, i] == 2 for i in range(n))
            assert all(c[i, j] <= 0 for i in range(n) for j in range(n) if i != j)


class TestGram:
    def test_g2(self):
        assert gram_matrix(RootSystemId.parse("G2")) == Matrix([[2, -3], [-3, 6]])

    def test_b3(self):
        expected = Matrix([[2, -1, 0], [-1, 2, -1], [0, -1, 1]])
        assert gram_matrix(RootSystemId.parse("B3")) == expected

    def test_a2(self):
        assert gram_matrix(RootSystemId.parse("A2")) == Matrix([[2, -1], [-1, 2]])

    def test_symmetric_integral_positive_definite(self):
        for system in CATALOG:
            s = gram_matrix(system)
            assert s.is_integral()
            assert s.is_symmetric()
            assert s.is_positive_definite()

    def test_equals_dense_product(self):
        systems = [RootSystemId(fam, n) for fam in "ABCD" for n in range(1, 41)
                   if n >= {"A": 1, "B": 2, "C": 2, "D": 3}[fam]]
        systems += [RootSystemId.parse(t) for t in ("E6", "E7", "E8", "F4", "G2")]
        for system in systems:
            data = cartan_data(system)
            n = system.rank
            diag_cols = [[data.norm_halves[j] if k == j else 0 for k in range(n)]
                         for j in range(n)]
            dense = Matrix([[sum(map(mul, data.cartan.row(i), col)) for col in diag_cols]
                            for i in range(n)])
            assert gram_matrix(system) == dense, str(system)

    def test_inverse_matches_closed_forms(self):
        for system in CATALOG:
            closed = closed_form_z0(system)
            if closed is None:  # E7/E8 carry printed misprints, handled elsewhere
                continue
            assert gram_matrix(system).inverse() == closed, str(system)


class TestSimpleReflections:
    def test_a1(self):
        assert simple_reflections(RootSystemId.parse("A1")) == [Matrix([[-1]])]

    def test_a2_first(self):
        assert simple_reflections(RootSystemId.parse("A2"))[0] == \
            Matrix([[-1, 1], [0, 1]])

    def test_g2_second(self):
        assert simple_reflections(RootSystemId.parse("G2"))[1] == \
            Matrix([[1, 0], [1, -1]])

    def test_involutions_preserving_gram(self):
        for system in CATALOG:
            s = gram_matrix(system)
            ident = Matrix.identity(system.rank)
            for refl in simple_reflections(system):
                assert refl * refl == ident
                assert refl.T * s * refl == s


class TestDiagramAutomorphisms:
    def test_b3_empty(self):
        assert diagram_automorphisms(RootSystemId.parse("B3")) == []

    def test_a2_flip(self):
        assert diagram_automorphisms(RootSystemId.parse("A2")) == \
            [Matrix([[0, 1], [1, 0]])]

    def test_d4_generates_sym3(self):
        gens = diagram_automorphisms(RootSystemId.parse("D4"))
        assert len(gens) == 2
        group = generate_group(gens, 100)
        assert group.order == 6

    def test_e6_flip_is_involution(self):
        (p,) = diagram_automorphisms(RootSystemId.parse("E6"))
        assert p * p == Matrix.identity(6)

    def test_preserve_gram_and_permute_reflections(self):
        for system in CATALOG:
            s = gram_matrix(system)
            refls = set(simple_reflections(system))
            for p in diagram_automorphisms(system):
                assert p.T * s * p == s
                conj = {p * r * p.inverse() for r in refls}
                assert conj == refls


class TestCorootGram:
    def test_simply_laced_equals_gram(self):
        for tag in ("A3", "D5", "E6", "E7", "E8"):
            system = RootSystemId.parse(tag)
            assert coroot_gram_matrix(system) == gram_matrix(system)

    def test_g2(self):
        m = coroot_gram_matrix(RootSystemId.parse("G2"))
        assert m == Matrix([[6, -3], [-3, 2]])
        assert m.det() == 3

    def test_b_family_determinant_four(self):
        for n in range(2, 9):
            assert coroot_gram_matrix(RootSystemId("B", n)).det() == 4

    def test_integral_positive_definite(self):
        for system in CATALOG:
            m = coroot_gram_matrix(system)
            assert m.is_integral()
            assert m.is_positive_definite()

    def test_b_and_c_are_dual(self):
        for n in range(2, 9):
            assert coroot_gram_matrix(RootSystemId("B", n)) == \
                gram_matrix(RootSystemId("C", n))
            assert coroot_gram_matrix(RootSystemId("C", n)) == \
                gram_matrix(RootSystemId("B", n))
