import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from weylppav import (Matrix, RootSystemId, SymplecticMat, all_systems,
                      expected_order, generate_group, gram_matrix, riemann_family,
                      simple_reflections)
from weylppav import reference
from weylppav import symplectic
from weylppav import verify
from weylppav.verify import (_proportional, _same_span, _spanned_by,
                             run_verification)


class TestHelpers:
    def test_spanned_by(self):
        assert _spanned_by((2, 4), [(1, 2)])
        assert not _spanned_by((2, 5), [(1, 2)])
        assert _spanned_by((0, 0), [])
        assert not _spanned_by((1, 0), [])

    def test_same_span(self):
        a = Matrix([[2, 0], [0, 0]])
        b = Matrix([[0, 0], [0, 3]])
        assert _same_span((a, b), (a + b, a - b))
        assert not _same_span((a,), (b,))
        assert not _same_span((a,), (a, b))

    def test_proportional(self):
        z0 = riemann_family(RootSystemId.parse("A2")).z0
        assert _proportional(3 * z0, z0)
        assert _proportional(Fraction(-1, 7) * z0, z0)
        assert not _proportional(z0 + Matrix.identity(2), z0)
        assert not _proportional(Matrix.zeros(2), Matrix.identity(2))
        assert not _proportional(Matrix.identity(2), Matrix.zeros(2))
        assert _proportional(Matrix.zeros(2), Matrix.zeros(2))


class TestRunVerification:
    def test_small_rank(self):
        report = run_verification(4)
        assert report["status"] == "pass"
        assert report["summary"]["fail"] == 0
        # only the witness sign flip is in range below rank 7
        assert report["summary"]["documented_discrepancy"] == 1

    def test_rejects_rank_below_two(self):
        with pytest.raises(ValueError):
            run_verification(1)

    def test_wrong_expectation_fails_run(self, monkeypatch):
        original = reference.expected_divisor_chain

        def wrong(system):
            if str(system) == "G2":
                return (9, 1)
            return original(system)

        monkeypatch.setattr(reference, "expected_divisor_chain", wrong)
        report = run_verification(2)
        assert report["status"] == "fail"
        assert report["summary"]["fail"] >= 1

    def test_documented_misprint_cannot_mask_new_mismatch(self, monkeypatch):
        # corrupt one more cell of the printed E8 table: the run must fail
        # even though (6,6) stays whitelisted
        rows = [list(reference.PRINTED_Z0_E8.row(i)) for i in range(8)]
        rows[0][1] = 99
        rows[1][0] = 99
        monkeypatch.setattr(reference, "PRINTED_Z0_E8", Matrix(rows))
        sec = verify.check_riemann_matrices(8)
        assert any(c.status == "fail" for c in sec.checks)

    def test_wrong_level_fails_exactly_one_check(self, monkeypatch):
        original = verify.centralizer_level
        monkeypatch.setattr(verify, "centralizer_level",
                            lambda system: 4 if str(system) == "G2" else original(system))
        sec = verify.check_levels(2)
        failed = [c for c in sec.checks if c.status == "fail"]
        assert [c.name for c in failed] == ["G2: level 3 agrees across all three routes"]
        assert failed[0].detail == "chain 4, denominators 3"

    def test_e7_section_documents_not_fails(self):
        sec = verify.check_riemann_matrices(7)
        statuses = {c.name: c.status for c in sec.checks}
        assert statuses["E7: computed z0 vs printed table"] == \
            "documented-discrepancy"
        assert all(s != "fail" for s in statuses.values())


class TestOnePass:
    def test_each_system_gets_its_exact_data_once(self, monkeypatch):
        # One pass inverts each Gram matrix once and embeds no simple
        # reflection through a Smith form; random words that are not
        # involutions still take that route.
        families = Counter()
        original_family = verify.riemann_family

        def counted_family(system):
            families[system] += 1
            return original_family(system)

        smith_inputs = []
        original_smith = symplectic.smith_normal_form

        def recorded_smith(m):
            smith_inputs.append(m)
            return original_smith(m)

        monkeypatch.setattr(verify, "riemann_family", counted_family)
        monkeypatch.setattr(symplectic, "smith_normal_form", recorded_smith)
        report = run_verification(8)
        assert report["status"] == "pass"
        assert set(families) == set(all_systems(8))
        assert max(families.values()) == 1
        reflections = {r for system in all_systems(8)
                       for r in simple_reflections(system)}
        assert smith_inputs
        assert not reflections.intersection(smith_inputs)

    def test_sections_alone_equal_the_pass(self):
        report = run_verification(5)
        alone = [verify.check_riemann_matrices(5), verify.check_levels(5),
                 verify.check_witnesses(5), verify.check_bn_splitting(5),
                 verify.check_cyclic5_fixed_space(5), verify.check_group_orders(5),
                 verify.check_properties(5)]
        by_name = {sec["name"]: sec["checks"] for sec in report["sections"]}
        for sec in alone:
            assert [(c.name, c.status) for c in sec.checks] == \
                [(c["name"], c["status"]) for c in by_name[sec.name]]
        # below rank 2 the witnesses still check G2 -> A2
        assert [c.status for c in verify.check_witnesses(1).checks] == \
            ["documented-discrepancy", "pass", "pass"]


def skewed_gram(system):
    """The Gram form with its (0, 1) and (1, 0) entries raised by one."""
    rows = [list(r) for r in gram_matrix(system).rows()]
    rows[0][1] += 1
    rows[1][0] += 1
    return Matrix(rows)


def transposed_group(system, cap=1000):
    """The closure of the transposed simple reflections, as verify builds it."""
    return generate_group([s.T for s in simple_reflections(system)], cap)


def first_dense_failure(group, form):
    """First (index, (i, j)) with (h form h^t)[i, j] != form[i, j] for h in
    the transposed closure, so h form h^t = g^t form g for g = h^t; upper
    triangle scanned column by column, by dense products."""
    n = form.nrows
    for index, g in enumerate(group.elements):
        image = g * form * g.T
        for j in range(n):
            for i in range(j + 1):
                if image[i, j] != form[i, j]:
                    return index, (i, j), image[i, j], form[i, j]
    return None


class TestFormWitness:
    def test_true_form_passes(self):
        system = RootSystemId.parse("B3")
        group = transposed_group(system)
        assert verify._elements_preserve_form(group, gram_matrix(system)) is None

    @pytest.mark.parametrize("tag", ["G2", "B3", "A4"])
    def test_witness_matches_dense_check(self, tag):
        system = RootSystemId.parse(tag)
        group = transposed_group(system)
        form = skewed_gram(system)
        witness = verify._elements_preserve_form(group, form)
        assert witness is not None
        assert witness == first_dense_failure(group, form)

    @pytest.mark.parametrize("tag", ["B3", "A4"])
    def test_witness_with_a_diagonal_cell_changed(self, tag):
        # Raising the last diagonal entry breaks many cells, on different
        # elements; the witness is still the first one in BFS order.
        system = RootSystemId.parse(tag)
        rows = [list(r) for r in gram_matrix(system).rows()]
        rows[-1][-1] += 1
        form = Matrix(rows)
        group = transposed_group(system)
        witness = verify._elements_preserve_form(group, form)
        assert witness is not None
        assert witness == first_dense_failure(group, form)

    @pytest.mark.parametrize("tag, index", [("B3", 1), ("A4", 1)])
    def test_witness_when_others_fail_an_earlier_cell(self, tag, index):
        # Raising gram[0][0] makes some elements fail at (0, 0) first, while
        # the first failing element in BFS order fails first at
        # (0, 1): the witness must be that element and that cell, not the
        # first failure of cell (0, 0).
        system = RootSystemId.parse(tag)
        rows = [list(r) for r in gram_matrix(system).rows()]
        rows[0][0] += 1
        form = Matrix(rows)
        group = transposed_group(system)
        dense = first_dense_failure(group, form)
        assert dense[:2] == (index, (0, 1))
        assert any((g * form * g.T)[0, 0] != form[0, 0] for g in group.elements)
        assert verify._elements_preserve_form(group, form) == dense

    def test_witness_cell_is_first_column_by_column(self):
        # h permutes the basis cyclically, so cell (i, j) of h * form * h^t
        # is form[h(i), h(j)]: h fails at (1, 1) and (0, 2) only, and
        # (1, 1) comes first column by column (row by row it would not).
        h = Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        form = Matrix([[1, 0, 1], [0, 1, 0], [1, 0, 2]])
        group = generate_group([h], 10)
        assert verify._elements_preserve_form(group, form) == (1, (1, 1), 2, 1)
        assert first_dense_failure(group, form) == (1, (1, 1), 2, 1)

    def test_failing_group_orders_build_no_element_matrices(self, monkeypatch,
                                                            no_group_matrices):
        # The witness is read off the check's own tables and the row ids in
        # ``group.found``, never off element matrices.
        monkeypatch.setattr(verify, "gram_matrix", lambda system: skewed_gram(system)
                            if system.rank > 1 else gram_matrix(system))
        sec = verify.check_group_orders(3)
        failed = [c for c in sec.checks if c.status == "fail"]
        assert [c.name for c in failed] == [
            f"{system}: every element preserves the Gram form"
            for system in all_systems(3) if system.rank > 1]
        assert all(c.detail.startswith("element ") for c in failed)

    def test_group_orders_build_no_element_matrices(self, no_group_matrices):
        # The closure and the form check work on row ids; neither may
        # materialize the group as Matrix objects.
        sec = verify.check_group_orders(6)
        assert sec.checks and all(c.status == "pass" for c in sec.checks)

    def test_group_orders_take_no_inverse(self, monkeypatch):
        # The form check reads the form itself; no inverse of it is taken.
        catalog = verify._catalog(6)

        def refuse(self):
            raise AssertionError("inverse taken")

        monkeypatch.setattr(Matrix, "inverse", refuse)
        sec = verify.check_group_orders(6, catalog)
        assert sec.checks and all(c.status == "pass" for c in sec.checks)

    @pytest.mark.parametrize("tag", ["G2", "B3", "A4"])
    def test_random_forms_match_dense_check(self, tag):
        # The check and the dense products must fail on the same elements,
        # and the witness is the dense one. Half the forms have random
        # entries, singular ones not skipped; the other half are a * gram +
        # c * v v^t for a row v of the group (a root), which the elements
        # with h v = +-v still preserve, so the first failure is not always
        # the first element.
        system = RootSystemId.parse(tag)
        n = system.rank
        gram = gram_matrix(system)
        group = transposed_group(system)
        group_rows = sorted({row for g in group.elements for row in g.rows()})
        rng = random.Random(f"form-{tag}")
        for k in range(30):
            if k % 2:
                rows = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i, n):
                        rows[i][j] = rows[j][i] = rng.randint(-3, 3)
                form = Matrix(rows)
            else:
                v = rng.choice(group_rows)
                form = (rng.choice((1, 2, 3)) * gram
                        + rng.choice((-2, -1, 1, 2)) * Matrix([[x * y for y in v] for x in v]))
            assert verify._elements_preserve_form(group, form) == \
                first_dense_failure(group, form)

    @pytest.mark.parametrize("tag", ["G2", "B3", "A4"])
    def test_multiples_of_the_gram_form_pass(self, tag):
        system = RootSystemId.parse(tag)
        group = transposed_group(system)
        for k in (-3, -1, 2, 5):
            assert verify._elements_preserve_form(group, k * gram_matrix(system)) is None

    def test_singular_form_matches_dense_check(self):
        system = RootSystemId.parse("A2")
        group = transposed_group(system, 100)
        for form in (Matrix([[1, 1], [1, 1]]), Matrix([[1, -1], [-1, 1]]),
                     Matrix.zeros(2)):
            assert form.det() == 0
            assert verify._elements_preserve_form(group, form) == \
                first_dense_failure(group, form)
        assert verify._elements_preserve_form(group, Matrix([[1, 1], [1, 1]])) is not None

    def test_rejects_asymmetric_form(self):
        system = RootSystemId.parse("A2")
        group = transposed_group(system, 100)
        with pytest.raises(ValueError):
            verify._elements_preserve_form(group, Matrix([[2, 0], [-1, 2]]))

    def test_wrong_form_fails_exactly_one_check(self, monkeypatch):
        def wrong(system):
            return skewed_gram(system) if str(system) == "G2" else gram_matrix(system)

        monkeypatch.setattr(verify, "gram_matrix", wrong)
        sec = verify.check_group_orders(3)
        failed = [c for c in sec.checks if c.status == "fail"]
        assert [c.name for c in failed] == ["G2: every element preserves the Gram form"]
        system = RootSystemId.parse("G2")
        index, cell, value, expected = first_dense_failure(
            transposed_group(system), skewed_gram(system))
        assert failed[0].detail == (f"element {index}: entry {cell} of "
                                    f"g^t * gram * g is {value}, expected {expected}")
        assert all(c.detail == "" for c in sec.checks if c.status == "pass")


def root_orbit(reflections):
    """The orbit of the unit vectors under v -> s v, by breadth-first search
    with plain integer dot products."""
    n = reflections[0].nrows
    rows = [s.rows() for s in reflections]
    units = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    seen, frontier = set(units), units
    while frontier:
        images = {tuple(sum(a * b for a, b in zip(row, v)) for row in s)
                  for s in rows for v in frontier}
        frontier = list(images - seen)
        seen.update(frontier)
    return seen


class TestTransposedClosure:
    @pytest.mark.parametrize("system", [s for s in all_systems(6)
                                        if expected_order(s) <= verify.ENUMERATION_LIMIT],
                             ids=str)
    def test_rows_are_the_roots(self, system):
        # Every root is W-conjugate to a simple root, so the rows the
        # transposed closure interns are exactly the roots.
        refl = simple_reflections(system)
        group = generate_group([s.T for s in refl], verify.ENUMERATION_LIMIT + 1)
        assert not group.truncated
        assert set(group.vectors) == root_orbit(refl)


class TestPropertyWitness:
    def test_moved_base_matrix_names_system_and_reflection(self, monkeypatch):
        # z0(B3) with its (0, 0) entry raised by one; the Siegel action of
        # an embedded reflection r is z -> r z r^t, applied here directly.
        original = verify.riemann_family
        system = RootSystemId.parse("B3")
        rows = [list(r) for r in original(system).z0.rows()]
        rows[0][0] += 1
        moved = Matrix(rows)
        monkeypatch.setattr(verify, "riemann_family",
                            lambda s: SimpleNamespace(z0=moved) if s == system
                            else original(s))
        first = next(k for k, r in enumerate(simple_reflections(system))
                     if r * moved * r.T != moved)
        assert first == 1
        sec = verify.check_properties(4)
        failed = {c.name: c.detail for c in sec.checks if c.status == "fail"}
        assert failed == {
            "every simple reflection fixes z0 under the Siegel action":
                f"B3: simple reflection {first} moves z0",
            "full reflection set fixes exactly the line through z0 (rank <= 6)":
                "B3: fixed line is not spanned by z0",
        }

    def test_broken_embedding_names_the_first_word_pair(self, monkeypatch):
        # diag(rho, 2 * I) multiplies to diag(w1 * w2, 4 * I), never the
        # embedding diag(w1 * w2, 2 * I), so the first word pair fails.
        def broken(rho):
            n = rho.nrows
            zero = Matrix.zeros(n)
            mat = object.__new__(SymplecticMat)  # skips the symplectic check
            object.__setattr__(mat, "n", n)
            object.__setattr__(mat, "m", Matrix.block2(rho, zero, zero,
                                                       2 * Matrix.identity(n)))
            return mat

        monkeypatch.setattr(verify, "embed_block_diag", broken)
        # the check draws its first word's system first, from a fixed seed
        system = random.Random(20240601).choice(list(all_systems(3)))
        hom = verify.check_properties(3).checks[0]
        assert hom.name == "embedding is a homomorphism on 100 random words"
        assert hom.status == "fail"
        assert hom.detail == f"word pair 0 ({system}): embedding of w1 * w2 differs"

    def test_non_commuting_element_names_the_first_generator(self, monkeypatch):
        # A reflection r squares to I, so it embeds as diag(r, r^t).
        original = verify.centralizer_element
        system = RootSystemId.parse("A2")
        shear = Matrix.block2(Matrix.identity(2), Matrix.zeros(2),
                              Matrix([[1, 0], [0, 0]]), Matrix.identity(2))

        def element(s, *params):
            if s == system and params == (1, 0, 1, 1):
                return SimpleNamespace(m=shear)
            return original(s, *params)

        monkeypatch.setattr(verify, "centralizer_element", element)
        embedded = [Matrix.block2(r, Matrix.zeros(2), Matrix.zeros(2), r.T)
                    for r in simple_reflections(system)]
        first = next(k for k, emb in enumerate(embedded) if shear * emb != emb * shear)
        sec = verify.check_properties(3)
        failed = [c for c in sec.checks if c.status == "fail"]
        assert [c.name for c in failed] == [
            "centralizer elements commute with the embedded action (rank <= 4)"]
        assert failed[0].detail == (f"A2: centralizer element (1, 0, 1, 1) does not "
                                    f"commute with simple reflection {first}")
