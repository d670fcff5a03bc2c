import dataclasses
from fractions import Fraction
from math import prod

import pytest

from weylppav import (DivisorChain, Family, Matrix, RootSystemId, all_systems,
                      coroot_polarization_degree, diagram_automorphisms,
                      divisor_chain, gram_matrix, group_divisors, simple_reflections)
from weylppav.reference import (cyclic5_fixed_span, expected_degree,
                                expected_divisor_chain, expected_level)

F = Fraction

CATALOG = list(all_systems(8))


class TestRiemannFamily:
    def test_g2(self):
        fam = Family.from_system(RootSystemId.parse("G2"))
        assert fam.z0 == Matrix([[2, 1], [1, F(2, 3)]])

    def test_b4_min_pattern(self):
        z0 = Family.from_system(RootSystemId.parse("B4")).z0
        assert z0 == Matrix([[min(i, j) for j in range(1, 5)] for i in range(1, 5)])

    def test_a4(self):
        z0 = Family.from_system(RootSystemId.parse("A4")).z0
        expected = F(1, 5) * Matrix([[4, 3, 2, 1], [3, 6, 4, 2],
                                     [2, 4, 6, 3], [1, 2, 3, 4]])
        assert z0 == expected

    def test_z0_inverts_gram_everywhere(self):
        for system in CATALOG:
            fam = Family.from_system(system)
            assert gram_matrix(system) * fam.z0 == Matrix.identity(system.rank)
            assert fam.z0.is_symmetric()
            assert fam.z0.is_positive_definite()

    def test_diagram_automorphisms_fix_z0(self):
        for system in CATALOG:
            z0 = Family.from_system(system).z0
            for p in diagram_automorphisms(system):
                assert p.T * z0 * p == z0

    def test_family_is_a_hashable_frozen_value(self):
        a2 = RootSystemId.parse("A2")
        fam = Family.from_system(a2)
        assert hash(fam) == hash(Family.from_system(a2))
        assert fam.generators == tuple(simple_reflections(a2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            fam.z0 = Matrix.identity(2)

    def test_a4_matches_first_span_matrix(self):
        z0 = Family.from_system(RootSystemId.parse("A4")).z0
        assert 5 * z0 == cyclic5_fixed_span()[0]


class TestDivisorChain:
    def test_a4(self):
        assert divisor_chain(gram_matrix(RootSystemId.parse("A4"))).divisors == (5, 1, 1, 1)

    def test_d6(self):
        assert divisor_chain(gram_matrix(RootSystemId.parse("D6"))).divisors == (2, 2, 1, 1, 1, 1)

    def test_c5(self):
        assert divisor_chain(gram_matrix(RootSystemId.parse("C5"))).divisors == (4, 1, 1, 1, 1)

    def test_whole_catalog(self):
        for system in CATALOG:
            chain = divisor_chain(gram_matrix(system)).divisors
            assert chain == expected_divisor_chain(system), str(system)
            assert prod(chain) == gram_matrix(system).det()
            for i in range(len(chain) - 1):
                assert chain[i] % chain[i + 1] == 0

    def test_needs_no_determinant(self, monkeypatch):
        # The harness checks prod(divisors) == det(gram); the library does not
        # recompute the determinant.
        def no_det(self):
            raise AssertionError("det called")

        monkeypatch.setattr(Matrix, "det", no_det)
        for system in CATALOG:
            assert divisor_chain(gram_matrix(system)).divisors == expected_divisor_chain(system)


def elliptic_factors(tag):
    """The elliptic decomposition of a system: its grouped divisor chain."""
    return group_divisors(divisor_chain(gram_matrix(RootSystemId.parse(tag))))


class TestEllipticDecomposition:
    def test_e7(self):
        assert elliptic_factors("E7").factors == ((1, 6), (2, 1))

    def test_f4(self):
        assert elliptic_factors("F4").factors == ((1, 2), (2, 2))

    def test_e8(self):
        assert elliptic_factors("E8").factors == ((1, 8),)

    def test_render(self):
        assert elliptic_factors("E7").render() == "E_t^6 x E_{t/2}"
        assert elliptic_factors("A1").render() == "E_{t/2}"
        assert elliptic_factors("C4").render() == "E_t^2 x E_{t/2}^2"

    def test_multiplicities_sum_to_rank(self):
        for system in CATALOG:
            factors = group_divisors(divisor_chain(gram_matrix(system))).factors
            assert sum(m for _, m in factors) == system.rank

    def test_groups_a_given_chain(self):
        assert group_divisors(DivisorChain((4, 2, 2, 1, 1, 1))).factors == \
            ((1, 3), (2, 2), (4, 1))
        for system in CATALOG:
            chain = divisor_chain(gram_matrix(system))
            factors = group_divisors(chain).factors
            assert tuple(sorted((d for d, m in factors for _ in range(m)),
                                reverse=True)) == chain.divisors


class TestExponentLevel:
    # The level is the exponent of Z^n / S Z^n: the largest invariant factor.
    def test_examples(self):
        assert Family.from_system(RootSystemId.parse("A6")).level == 7
        assert Family.from_system(RootSystemId.parse("E6")).level == 3
        assert Family.from_system(RootSystemId.parse("B5")).level == 1

    def test_equals_denominator_lcm_everywhere(self):
        for system in CATALOG:
            family = Family.from_system(system)
            assert family.level == family.z0.denominator
            assert family.level == divisor_chain(gram_matrix(system)).divisors[0]
            assert family.level == expected_level(system)


class TestCorootPolarizationDegree:
    def test_examples(self):
        assert coroot_polarization_degree(RootSystemId.parse("A5")) == 6
        for n in range(2, 9):
            assert coroot_polarization_degree(RootSystemId("C", n)) == 1
        assert coroot_polarization_degree(RootSystemId.parse("F4")) == 4

    def test_whole_catalog(self):
        for system in CATALOG:
            assert coroot_polarization_degree(system) == expected_degree(system)


class TestHigherRanks:
    def test_classical_families_generalize(self):
        # the A-D generators are rank-parametric; spot-check beyond rank 8
        from weylppav.reference import closed_form_z0

        for tag in ("A12", "B11", "C10", "D12", "D13"):
            system = RootSystemId.parse(tag)
            family = Family.from_system(system)
            assert gram_matrix(system) * family.z0 == Matrix.identity(system.rank)
            assert family.z0 == closed_form_z0(system)
            assert family.chain.divisors == expected_divisor_chain(system)
            assert family.level == expected_level(system)
