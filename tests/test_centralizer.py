import json

import pytest

from weylppav import (DeterminantNotOne, Family, LevelViolation, Matrix, RootSystemId,
                      all_systems, centralizer_element, curve_description,
                      diagram_automorphisms, divisor_chain, embed_block_diag,
                      gram_matrix, is_symplectic, simple_reflections)
from weylppav.cli import main
from weylppav.reference import expected_level

CATALOG = list(all_systems(8))
A2 = Family.from_system(RootSystemId.parse("A2"))


class TestLevel:
    @pytest.mark.parametrize("tag,level", [
        ("A4", 5), ("A1", 2), ("D7", 4), ("D6", 2), ("C3", 4), ("C6", 2),
        ("B8", 1), ("E6", 3), ("E7", 2), ("E8", 1), ("F4", 2), ("G2", 3),
    ])
    def test_table_values(self, tag, level):
        assert Family.from_system(RootSystemId.parse(tag)).level == level

    def test_triple_agreement(self):
        for system in CATALOG:
            family = Family.from_system(system)
            assert family.level == expected_level(system)
            assert family.level == family.z0.denominator
            assert family.level == divisor_chain(gram_matrix(system)).divisors[0]

    def test_level_needs_no_inverse(self, monkeypatch, capsys):
        def no_inverse(self):
            raise AssertionError("the level must not invert the Gram matrix")

        monkeypatch.setattr(Matrix, "inverse", no_inverse)
        for system in CATALOG:
            assert divisor_chain(gram_matrix(system)).divisors[0] == expected_level(system)
        assert main(["centralizer", "A56"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"system": "A56", "level": 57, "curve": "H_1/Gamma^0(57)"}

    @pytest.mark.parametrize("family", "ABCD")
    def test_routes_agree_beyond_catalog(self, family):
        # both parities of C and D: level 4 at odd rank, 2 at even rank
        for rank in (9, 16, 23, 30):
            system = RootSystemId(family, rank)
            fam = Family.from_system(system)
            assert fam.level == expected_level(system)
            assert fam.level == fam.z0.denominator


class TestCentralizerElement:
    def test_identity_params(self):
        el = centralizer_element(A2, 1, 0, 0, 1)
        assert el.m == Matrix.identity(4)

    def test_a2_translation(self):
        el = centralizer_element(A2, 1, 3, 0, 1)
        assert el.m.submatrix(0, 2, 2, 4) == Matrix([[2, 1], [1, 2]])
        assert is_symplectic(el.m)
        for refl in A2.generators:
            emb = embed_block_diag(refl)
            assert el.m * emb.m == emb.m * el.m

    def test_zero_top_right_needs_no_inverse(self, monkeypatch):
        # The family holds z0, so neither a zero nor a nonzero top right
        # block inverts the Gram matrix again.
        system = RootSystemId.parse("B3")
        family = Family.from_system(system)
        ident = Matrix.identity(3)
        expected = Matrix.block2(ident, Matrix.zeros(3), gram_matrix(system), ident)

        def refuse(self):
            raise AssertionError("inverse called")

        monkeypatch.setattr(Matrix, "inverse", refuse)
        assert centralizer_element(family, 1, 0, 1, 1).m == expected
        assert centralizer_element(family, 1, family.level, 0, 1).m == Matrix.block2(
            ident, family.level * family.z0, Matrix.zeros(3), ident)

    def test_level_violation(self):
        with pytest.raises(LevelViolation, match="not a multiple of the level 3"):
            centralizer_element(A2, 1, 1, 0, 1)

    def test_determinant_not_one(self):
        with pytest.raises(DeterminantNotOne):
            centralizer_element(A2, 1, 0, 0, 2)

    def test_lower_left_needs_no_level(self):
        # z0^{-1} is the integral Gram matrix, so any c works
        for system in CATALOG:
            assert gram_matrix(system).is_integral()
        el = centralizer_element(A2, 1, 0, 7, 1)
        assert is_symplectic(el.m)

    def test_commutes_with_whole_embedded_action(self):
        for system in [RootSystemId.parse(t) for t in ("A3", "B3", "C3", "D4",
                                                       "F4", "G2")]:
            family = Family.from_system(system)
            level = family.level
            gens = [embed_block_diag(g) for g in
                    simple_reflections(system) + diagram_automorphisms(system)]
            for params in ((1, level, 0, 1), (1, 0, 1, 1),
                           (1 + level, level, 1, 1)):
                a, b, c, d = params
                if a * d - b * c != 1:
                    continue
                el = centralizer_element(family, a, b, c, d)
                assert is_symplectic(el.m)
                for emb in gens:
                    assert el.m * emb.m == emb.m * el.m


class TestModularCurveReport:
    def test_e8_full_modular_group(self):
        level = Family.from_system(RootSystemId.parse("E8")).level
        assert level == 1
        assert curve_description(level) == "H_1/Gamma"

    def test_g2(self):
        level = Family.from_system(RootSystemId.parse("G2")).level
        assert level == 3
        assert curve_description(level) == "H_1/Gamma^0(3)"

    def test_c6(self):
        level = Family.from_system(RootSystemId.parse("C6")).level
        assert level == 2
        assert curve_description(level) == "H_1/Gamma^0(2)"

    def test_level_matches_z0_denominators(self):
        for system in CATALOG:
            family = Family.from_system(system)
            level = family.level
            assert level == family.z0.denominator
            assert curve_description(level) == ("H_1/Gamma" if level == 1
                                                else f"H_1/Gamma^0({level})")
