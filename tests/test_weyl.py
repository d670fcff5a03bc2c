import pytest

from weylppav import (Matrix, NonUnimodularGenerator, RootSystemId, check_invariance,
                      diagram_automorphisms, expected_order, generate_group,
                      gram_matrix, simple_reflections)
from weylppav._kernel import mat_mul_flat_py


def refl(tag):
    return simple_reflections(RootSystemId.parse(tag))


def dense_closure(gens, cap):
    """Breadth-first closure with dense products: the reference semantics."""
    n = gens[0].nrows
    flats = [g.flat for g in gens]
    ident = Matrix.identity(n).flat
    seen, frontier, truncated = {ident}, [ident], False
    while frontier and not truncated:
        nxt = []
        for el in frontier:
            for g in flats:
                prod = mat_mul_flat_py(el, g, n, n, n)
                if prod not in seen:
                    if len(seen) >= cap:
                        truncated = True
                        break
                    seen.add(prod)
                    nxt.append(prod)
            if truncated:
                break
        frontier = nxt
    return sorted(seen), truncated


class TestGenerateGroup:
    def test_order_two(self):
        group = generate_group([Matrix([[-1]])], 10)
        assert group.order == 2
        assert not group.truncated

    def test_g2_order(self):
        assert generate_group(refl("G2"), 10 ** 4).order == 12

    def test_f4_order(self):
        assert generate_group(refl("F4"), 10 ** 4).order == 1152

    @pytest.mark.parametrize("tag,order", [
        ("A1", 2), ("A2", 6), ("A3", 24), ("B2", 8), ("B3", 48),
        ("C3", 48), ("D3", 24), ("D4", 192), ("D5", 1920),
    ])
    def test_small_orders(self, tag, order):
        group = generate_group(refl(tag), 10 ** 4)
        assert group.order == order == expected_order(RootSystemId.parse(tag))

    def test_elements_preserve_gram_and_are_unimodular(self):
        for tag in ("A3", "B3", "C3", "D4", "G2"):
            system = RootSystemId.parse(tag)
            gram = gram_matrix(system)
            group = generate_group(simple_reflections(system), 10 ** 4)
            for g in group.elements:
                assert g.T * gram * g == gram
                assert abs(g.det()) == 1

    def test_identity_is_member(self):
        group = generate_group(refl("A2"), 100)
        assert Matrix.identity(2) in group.elements

    def test_closed_under_product_and_inverse(self):
        group = generate_group(refl("G2"), 100)
        members = set(group.elements)
        for g in group.elements:
            assert g.inverse() in members
            for h in group.elements:
                assert g * h in members

    def test_truncation(self):
        group = generate_group(refl("G2"), 5)
        assert group.truncated
        assert group.order <= 5

    @pytest.mark.parametrize("gens", [
        refl("G2"), refl("B3"), refl("A4"),
        diagram_automorphisms(RootSystemId.parse("D4")),
        [Matrix([[0, -1], [1, 1]])],  # order 6, not an involution
    ], ids=["G2", "B3", "A4", "D4-automorphisms", "order-6"])
    @pytest.mark.parametrize("cap", [1, 5, 37, 10 ** 4])
    def test_truncation_matches_dense_closure(self, gens, cap):
        # The sparse product must leave the breadth-first order, and hence
        # the truncated element set, exactly as a dense closure has it.
        expected, expected_truncated = dense_closure(gens, cap)
        group = generate_group(gens, cap)
        assert [el.flat for el in group.elements] == expected
        assert group.truncated == expected_truncated
        assert all(el.is_integral() for el in group.elements)

    def test_deterministic_canonical_order(self):
        g1 = generate_group(refl("B3"), 10 ** 4)
        g2 = generate_group(list(reversed(refl("B3"))), 10 ** 4)
        assert g1.elements == g2.elements  # same set, same canonical order
        flats = [el.flat for el in g1.elements]
        assert flats == sorted(flats)

    def test_non_unimodular_rejected(self):
        with pytest.raises(NonUnimodularGenerator):
            generate_group([Matrix([[2]])], 10)

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            generate_group([Matrix([[-1]])], 0)


class TestCheckInvariance:
    def test_identity_generator(self):
        assert check_invariance([Matrix.identity(3)], Matrix.diagonal([1, 2, 3]))

    def test_e8_reflections_preserve_gram(self):
        system = RootSystemId.parse("E8")
        assert check_invariance(simple_reflections(system), gram_matrix(system))

    def test_wrong_form_detected(self):
        assert not check_invariance(refl("A2"), Matrix.diagonal([1, 2]))

    def test_requires_symmetric_form(self):
        with pytest.raises(ValueError):
            check_invariance(refl("A2"), Matrix([[1, 1], [0, 1]]))


class TestExpectedOrder:
    @pytest.mark.parametrize("tag,order", [
        ("A3", 24), ("B4", 384), ("C5", 3840), ("D4", 192),
        ("E6", 51840), ("E7", 2903040), ("E8", 696729600),
        ("F4", 1152), ("G2", 12),
    ])
    def test_values(self, tag, order):
        assert expected_order(RootSystemId.parse(tag)) == order

    def test_e7_e8_generator_level(self):
        # too large to enumerate; the generators themselves must already
        # exhibit the group properties
        for tag in ("E7", "E8"):
            system = RootSystemId.parse(tag)
            gram = gram_matrix(system)
            ident = Matrix.identity(system.rank)
            for g in simple_reflections(system):
                assert abs(g.det()) == 1
                assert g * g == ident
            assert check_invariance(simple_reflections(system), gram)
