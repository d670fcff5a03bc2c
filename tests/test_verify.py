import dataclasses
import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from weylppav import (DivisorChain, Family, LevelViolation, Matrix, RootSystemId,
                      SymplecticMat, all_systems, centralizer_element, embed_block_diag,
                      expected_order, fixed_symmetric_space, generate_group, gram_matrix,
                      simple_reflections)
from weylppav import exactmat, ppav, reference, rootsys
from weylppav.exactmat import SnfResult
from weylppav.ppav import EllipticDecomposition
from weylppav import symplectic
from weylppav import verify, weyl
from weylppav.cli import main
from weylppav.verify import run_verification
from weylppav.weyl import poincare_polynomial
from conftest import proportional


class TestHelpers:
    def test_proportional(self):
        z0 = Family.from_system(RootSystemId.parse("A2")).z0
        assert proportional(3 * z0, z0)
        assert proportional(Fraction(-1, 7) * z0, z0)
        assert not proportional(z0 + Matrix.identity(2), z0)
        assert not proportional(Matrix.zeros(2), Matrix.identity(2))
        assert not proportional(Matrix.identity(2), Matrix.zeros(2))
        assert proportional(Matrix.zeros(2), Matrix.zeros(2))


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
        sec = verify.check_riemann_matrices(8, verify._catalog(8))
        assert any(c.status == "fail" for c in sec.checks)

    def test_wrong_level_fails_exactly_one_check(self):
        catalog = verify._catalog(2)
        g2 = RootSystemId.parse("G2")
        catalog[g2] = dataclasses.replace(catalog[g2], chain=DivisorChain((4, 1)))
        sec = verify.check_levels(2, catalog)
        failed = [c for c in sec.checks if c.status == "fail"]
        assert [c.name for c in failed] == ["G2: level 3 agrees across all three routes"]
        assert failed[0].detail == "chain 4, denominators 3"

    def test_e7_section_documents_not_fails(self):
        sec = verify.check_riemann_matrices(7, verify._catalog(7))
        statuses = {c.name: c.status for c in sec.checks}
        assert statuses["E7: computed z0 vs printed table"] == \
            "documented-discrepancy"
        assert all(s != "fail" for s in statuses.values())


class TestOnePass:
    def test_a_passing_pass_solves_no_fixed_space(self, monkeypatch):
        # The reference generators are literal matrices, and both worked
        # fixed-space examples are proven by substitution and one integer
        # elimination: a pass runs no Fraction elimination, and verify holds
        # no solver to fall back on.
        calls = rref_calls(monkeypatch)
        assert run_verification(8)["status"] == "pass"
        assert calls == []
        assert not hasattr(verify, "fixed_symmetric_space")
        assert not hasattr(verify, "AffineMatrixSpace")

    def test_each_system_gets_its_exact_data_once(self, monkeypatch):
        # The catalog takes exactly one Smith form per Gram matrix, which
        # gives both the divisor chain and z0, and no other; a pass inverts
        # no Gram matrix. No simple reflection is embedded through a Hermite
        # form; random words that are not involutions take that route.
        grams = Counter(gram_matrix(system) for system in all_systems(8))
        inverted = []
        original_inverse = Matrix.inverse

        def counted_inverse(m):
            if m in grams:
                inverted.append(m)
            return original_inverse(m)

        inside = []
        original_catalog = verify._catalog

        def catalog(max_rank):
            inside.append(True)
            try:
                return original_catalog(max_rank)
            finally:
                inside.pop()

        in_catalog = Counter()
        embedded = []
        original_smith = ppav.smith_normal_form

        def recorded_smith(m):
            if inside:
                in_catalog[m] += 1
            return original_smith(m)

        original_hermite = symplectic.hermite_normal_form

        def embedding_hermite(m):
            embedded.append(m)
            if inside:
                in_catalog[m] += 1
            return original_hermite(m)

        monkeypatch.setattr(Matrix, "inverse", counted_inverse)
        monkeypatch.setattr(verify, "_catalog", catalog)
        monkeypatch.setattr(ppav, "smith_normal_form", recorded_smith)
        monkeypatch.setattr(symplectic, "hermite_normal_form", embedding_hermite)
        report = run_verification(8)
        assert report["status"] == "pass"
        assert not inverted
        assert in_catalog == grams
        reflections = {r for system in all_systems(8)
                       for r in simple_reflections(system)}
        assert embedded
        assert not reflections.intersection(embedded)

    def test_embeddings_are_not_rechecked(self, monkeypatch):
        # Embeddings are symplectic by the product that builds them, and the
        # sym5 generators by their own report lines, so a pass tests
        # m^t J m = J only where it means to: 100 word-pair products, 7 B_n
        # splitting blocks (B2..B8), 2 sym5 generators and the 42 matrices
        # that SymplecticMat(n, m) checks (3 centralizer elements per system
        # of rank <= 4).
        calls = []
        original = symplectic.is_symplectic

        def counted(m):
            calls.append(m)
            return original(m)

        monkeypatch.setattr(symplectic, "is_symplectic", counted)
        monkeypatch.setattr(verify, "is_symplectic", counted)
        assert run_verification(8)["status"] == "pass"
        assert len(calls) == 151

    def test_sections_alone_equal_the_pass(self):
        report = run_verification(5)
        catalog = verify._catalog(5)
        alone = [section(5, catalog) for section in (
            verify.check_riemann_matrices, verify.check_divisor_chains,
            verify.check_levels, verify.check_witnesses, verify.check_bn_splitting,
            verify.check_cyclic5_fixed_space, verify.check_group_orders,
            verify.check_properties)]
        by_name = {sec["name"]: sec["checks"] for sec in report["sections"]}
        for sec in alone:
            assert [(c.name, c.status) for c in sec.checks] == \
                [(c["name"], c["status"]) for c in by_name[sec.name]]

    def test_each_system_takes_its_smith_form_once(self, monkeypatch):
        # The catalog's, which gives the divisor chain and z0 and whose u and
        # v the u * gram * v = d check certifies; the level, the curve and
        # the centralizer read the chain. No Gram matrix is embedded, so
        # none takes the embedding's Hermite form either.
        grams = {gram_matrix(system): system for system in all_systems(8)}
        per_system = Counter()

        def counted(original):
            def form(m):
                if m in grams:
                    per_system[grams[m]] += 1
                return original(m)
            return form

        monkeypatch.setattr(ppav, "smith_normal_form", counted(ppav.smith_normal_form))
        monkeypatch.setattr(symplectic, "hermite_normal_form",
                            counted(symplectic.hermite_normal_form))
        assert run_verification(8)["status"] == "pass"
        assert set(per_system) == set(grams.values())
        assert set(per_system.values()) == {1}

    def test_torus_decompositions_take_one_det_per_system(self, monkeypatch):
        inside, dets = [], []
        original_det = Matrix.det
        original_section = verify.check_divisor_chains

        def counted_det(self):
            if inside:
                dets.append(self)
            return original_det(self)

        def section(*args):
            inside.append(True)
            try:
                return original_section(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(Matrix, "det", counted_det)
        monkeypatch.setattr(verify, "check_divisor_chains", section)
        assert run_verification(8)["status"] == "pass"
        assert dets == [gram_matrix(system) for system in all_systems(8)]

    def test_centralizer_elements_take_no_smith_form(self, monkeypatch):
        def refuse(m):
            raise AssertionError("Smith form taken")

        a8 = Family.from_system(RootSystemId.parse("A8"))

        original = verify.centralizer_element

        def element(*args):
            with monkeypatch.context() as patch:
                patch.setattr(ppav, "smith_normal_form", refuse)
                return original(*args)

        monkeypatch.setattr(verify, "centralizer_element", element)
        assert run_verification(8)["status"] == "pass"
        monkeypatch.setattr(ppav, "smith_normal_form", refuse)
        with pytest.raises(LevelViolation, match="the level 9"):
            centralizer_element(a8, 1, 3, 0, 1)


def skewed_gram(system):
    """The Gram form with its (0, 1) and (1, 0) entries raised by one."""
    rows = [list(r) for r in gram_matrix(system).rows()]
    rows[0][1] += 1
    rows[1][0] += 1
    return Matrix(rows)


def with_form(catalog, system, form):
    """``catalog`` with the Gram form of ``system`` replaced by ``form``."""
    catalog[system] = dataclasses.replace(catalog[system], form=form)
    return catalog


def transposed(system):
    return [s.T for s in simple_reflections(system)]


def transposed_group(system, cap=1000):
    """The closure of the transposed simple reflections, as verify builds it."""
    return generate_group(transposed(system), cap)


class TestFormWitness:
    def test_failing_group_orders_build_no_element_matrices(self,
                                                            no_group_matrices):
        # The form is checked on the simple reflections, and the witness is
        # read off their products, never off element matrices.
        catalog = verify._catalog(3)
        for system in catalog:
            if system.rank > 1:
                with_form(catalog, system, skewed_gram(system))
        sec = verify.check_group_orders(3, catalog)
        failed = [c for c in sec.checks if c.status == "fail"]
        assert [c.name for c in failed] == [
            f"{system}: every element preserves the Gram form"
            for system in all_systems(3) if system.rank > 1]
        assert all(c.detail.startswith("simple reflection ") for c in failed)

    def test_group_orders_build_no_element_matrices(self, no_group_matrices):
        # The closure and the form check work on row ids; neither may
        # materialize the group as Matrix objects.
        sec = verify.check_group_orders(6, verify._catalog(6))
        assert sec.checks and all(c.status == "pass" for c in sec.checks)

    def test_group_orders_take_no_inverse(self, monkeypatch):
        # The form check reads the form itself; no inverse of it is taken.
        catalog = verify._catalog(6)

        def refuse(self):
            raise AssertionError("inverse taken")

        monkeypatch.setattr(Matrix, "inverse", refuse)
        sec = verify.check_group_orders(6, catalog)
        assert sec.checks and all(c.status == "pass" for c in sec.checks)

    def test_a_passing_system_takes_one_form_check(self, monkeypatch):
        # All of a system's simple reflections go to check_invariance at
        # once; one at a time only to name a failure.
        catalog = verify._catalog(8)
        calls = []
        original = verify.check_invariance
        monkeypatch.setattr(verify, "check_invariance",
                            lambda gens, form: calls.append(form) or original(gens, form))
        sec = verify.check_group_orders(8, catalog)
        assert all(c.status == "pass" for c in sec.checks)
        assert calls == [family.form for family in catalog.values()]

    def test_wrong_form_fails_exactly_one_check(self):
        system = RootSystemId.parse("G2")
        form = skewed_gram(system)
        sec = verify.check_group_orders(3, with_form(verify._catalog(3), system, form))
        failed = [c for c in sec.checks if c.status == "fail"]
        assert [c.name for c in failed] == ["G2: every element preserves the Gram form"]
        # The witness is the first simple reflection s with s^t S s != S and
        # its first wrong cell, row by row.
        k, image = next((k, s.T * form * s) for k, s in enumerate(simple_reflections(system))
                        if s.T * form * s != form)
        cell = next((i, j) for i in range(2) for j in range(2) if image[i, j] != form[i, j])
        assert failed[0].detail == (f"simple reflection {k}: entry {cell} of g^t * gram * g "
                                    f"is {image[cell]}, expected {form[cell]}")
        assert all(c.detail == "" for c in sec.checks if c.status == "pass")

    def test_a_form_that_is_not_symmetric_gets_the_dense_witness(self):
        # The row test assumes a symmetric form. With one off-diagonal cell
        # raised it still fails the line, but may blame a later reflection
        # (A3, cell (2, 0): reflection 2 instead of 0), so such a form is
        # checked by the dense product g^t S g = S.
        for system in all_systems(4):
            family = Family.from_system(system)
            n = system.rank
            for i, j in ((i, j) for i in range(n) for j in range(n) if i != j):
                rows = [list(r) for r in family.form.rows()]
                rows[i][j] += 1
                form = Matrix(rows)
                sec = verify.check_group_orders(4, {system: dataclasses.replace(family,
                                                                                form=form)})
                k, image = next((k, s.T * form * s) for k, s in enumerate(family.generators)
                                if s.T * form * s != form)
                cell = next(divmod(c, n) for c in range(n * n)
                            if image.flat[c] != form.flat[c])
                assert [(c.status, c.detail) for c in sec.checks][-1] == (
                    "fail", f"simple reflection {k}: entry {cell} of g^t * gram * g "
                            f"is {image[cell]}, expected {form[cell]}"), (str(system), i, j)

    def test_generator_level_line_names_the_wrong_form_cell(self):
        # E7 is not enumerated; its one generator-level line names the same
        # witness as an enumerated form line: s0 moves the raised (0, 1)
        # entry of the skewed form from 1 to -1.
        e7 = RootSystemId.parse("E7")
        sec = verify.check_group_orders(8, with_form(verify._catalog(8), e7, skewed_gram(e7)))
        failed = [(c.name, c.detail) for c in sec.checks if c.status == "fail"]
        assert failed == [("E7: generator-level checks (order 2903040 not enumerated)",
                           "simple reflection 0: entry (0, 1) of g^t * gram * g is -1, "
                           "expected 1")]

    def test_generator_level_line_names_a_generator_that_is_no_involution(self):
        # s0 * s2 preserves the form but has order 3 (nodes 0 and 2 of E7
        # are joined; s0 and s1 commute, so s0 * s1 would be an involution).
        e7 = RootSystemId.parse("E7")
        catalog = verify._catalog(8)
        refl = catalog[e7].generators
        rotation = refl[0] * refl[2]
        assert rotation.T * gram_matrix(e7) * rotation == gram_matrix(e7)
        catalog[e7] = dataclasses.replace(catalog[e7], generators=(rotation, *refl[1:]))
        sec = verify.check_group_orders(8, catalog)
        failed = [(c.name, c.detail) for c in sec.checks if c.status == "fail"]
        assert failed == [("E7: generator-level checks (order 2903040 not enumerated)",
                           "simple reflection 0: g * g != I")]


class TestRefusedGenerator:
    """A simple reflection that is not unimodular fails each line that needs
    it, naming the system and the reflection; the pass does not raise."""

    def test_wrong_cartan_diagonal_fails_the_closure_and_embedding_lines(self, monkeypatch):
        # With C[0][0] = 3, G2's s0 = [[-2, 3], [0, 1]] has determinant -2.
        original = rootsys.cartan_data

        def cartan_data(system):
            data = original(system)
            if str(system) != "G2":
                return data
            rows = [list(r) for r in data.cartan.rows()]
            rows[0][0] = 3
            return dataclasses.replace(data, cartan=Matrix(rows))

        monkeypatch.setattr(rootsys, "cartan_data", cartan_data)
        report = run_verification(3)
        assert report["status"] == "fail"
        failed = {sec["name"]: [(c["name"], c.get("detail")) for c in sec["checks"]
                                if c["status"] == "fail"] for sec in report["sections"]}
        assert failed["reflection-group-orders"] == [
            ("G2: enumerated order = expected 12",
             "G2: simple reflection 0: determinant is -2"),
            ("G2: every element preserves the Gram form",
             "simple reflection 0: entry (0, 0) of g^t * gram * g is 12, expected 3")]
        refused = "G2: simple reflection 0: determinant is -2"
        assert failed["structural-properties"] == [
            ("embedding is a homomorphism on 100 random words",
             "word pair 9: G2: simple reflection 0: determinant is -2"),
            ("every simple reflection fixes z0 under the Siegel action",
             "G2: simple reflection 0 moves z0"),
            ("full reflection set fixes exactly the line through z0 (rank <= 6)", refused),
            ("centralizer elements commute with the embedded action (rank <= 4)", refused)]

    def test_doubled_reflection_fails_the_embedding_lines(self):
        g2 = RootSystemId.parse("G2")
        catalog = verify._catalog(3)
        s0, s1 = catalog[g2].generators
        catalog[g2] = dataclasses.replace(catalog[g2], generators=(2 * s0, s1))
        refused = "G2: simple reflection 0: determinant is -4"
        assert [(c.name, c.status, c.detail)
                for c in verify.check_properties(3, catalog).checks] == [
            ("embedding is a homomorphism on 100 random words", "fail",
             "word pair 9: G2: simple reflection 0: determinant is -4"),
            ("every simple reflection fixes z0 under the Siegel action", "fail",
             "G2: simple reflection 0 moves z0"),
            ("full reflection set fixes exactly the line through z0 (rank <= 6)", "fail",
             refused),
            ("centralizer elements commute with the embedded action (rank <= 4)", "fail",
             refused)]
        failed = [(c.name, c.detail) for c in verify.check_group_orders(3, catalog).checks
                  if c.status == "fail"]
        assert failed == [
            ("G2: enumerated order = expected 12",
             "G2: simple reflection 0: determinant is -4"),
            ("G2: every element preserves the Gram form",
             "simple reflection 0: entry (0, 0) of g^t * gram * g is 8, expected 2")]

    def test_one_refusal_carries_one_detail_on_every_line_that_needs_it(self):
        # B3's s1 times diag(1, 1, 3) has determinant -3 and is no
        # involution, so the closure refuses it by its determinant and the
        # embedding by its Smith form; both lines name it the same way.
        b3 = RootSystemId.parse("B3")
        catalog = verify._catalog(3)
        s0, s1, s2 = catalog[b3].generators
        catalog[b3] = dataclasses.replace(
            catalog[b3], generators=(s0, s1 * Matrix.diagonal([1, 1, 3]), s2))
        refused = "B3: simple reflection 1: determinant is -3"
        details = {c.name: c.detail for c in verify.check_group_orders(3, catalog).checks
                   + verify.check_properties(3, catalog).checks if c.status == "fail"}
        word = details.pop("embedding is a homomorphism on 100 random words")
        assert word.startswith("word pair ") and word.endswith(f": {refused}")
        assert details.pop("every simple reflection fixes z0 under the Siegel action") == \
            "B3: simple reflection 1 moves z0"
        assert details.pop("B3: every element preserves the Gram form").startswith(
            "simple reflection 1: entry ")
        assert details == {
            "B3: enumerated order = expected 48": refused,
            "full reflection set fixes exactly the line through z0 (rank <= 6)": refused,
            "centralizer elements commute with the embedded action (rank <= 4)": refused}


ENUMERATED = [s for s in all_systems(8) if expected_order(s) <= verify.ENUMERATION_LIMIT]


class TestLengthGrading:
    def test_twenty_four_systems_are_enumerated(self):
        assert len(ENUMERATED) == 24

    @pytest.mark.parametrize("system", ENUMERATED, ids=str)
    def test_degrees_count_the_roots(self, system):
        # sum(d_i - 1) is the number of reflections, one per positive root,
        # and the rows of the transposed closure are all the roots.
        group = transposed_group(system, verify.ENUMERATION_LIMIT + 1)
        assert not group.truncated
        degrees = reference.invariant_degrees(system)
        assert 2 * sum(d - 1 for d in degrees) == len(group.vectors)
        assert group.levels == poincare_polynomial(degrees)

    def test_cyclic_group_of_the_same_order_fails(self):
        # -(s1 s2) generates a cyclic group of isometries of A2's form with
        # A2's order 6, but one element of each length 0..5 instead of A2's
        # grading 1 + 2q + 2q^2 + q^3. It is the catalog's one generator of
        # A2 and no involution, so the certificate declines it, and the
        # order line names that check.
        a2 = RootSystemId.parse("A2")
        s0, s1 = transposed(a2)
        rotation = -(s0 * s1)
        catalog = verify._catalog(2)
        catalog[a2] = dataclasses.replace(catalog[a2], generators=(rotation.T,))
        assert generate_group([rotation], 10).levels == (1, 1, 1, 1, 1, 1)
        sec = verify.check_group_orders(2, catalog)
        failed = [c for c in sec.checks if c.status == "fail"]
        assert [c.name for c in failed] == ["A2: enumerated order = expected 6"]
        assert failed[0].detail == "A2: generator 0: g * g != I"
        assert all(c.detail == "" for c in sec.checks if c.status == "pass")


def recorded_closures(monkeypatch):
    """The generator lists ``verify`` hands to ``coset_closure``, the one
    route of every enumerated order line, recorded as it hands them."""
    calls = []
    coset = verify.coset_closure
    monkeypatch.setattr(verify, "coset_closure",
                        lambda gens, cap: calls.append(gens) or coset(gens, cap))
    return calls


def order_line(system):
    """The enumerated-order line that ``system``'s own reflections pass."""
    order = expected_order(system)
    return f"{system}: enumerated order {order} = expected {order}"


class TestSharedClosure:
    """Every enumerated order line comes from its own system's coset
    certificate, C_n's and A1's included, and a declined certificate names
    its own failed check; no group is closed breadth first."""

    def test_rank8_pass_certifies_every_group(self, monkeypatch):
        assert not hasattr(verify, "generate_group")
        assert not hasattr(verify, "NonUnimodular")
        calls = recorded_closures(monkeypatch)
        assert run_verification(8)["status"] == "pass"
        assert calls == [transposed(system) for system in ENUMERATED]

    def test_rank8_closures_take_one_smith_form_per_generator(self, monkeypatch):
        # The 24 enumerated groups (A1-A7, B2-B6, C2-C6, D3-D6, E6, F4, G2)
        # have 98 simple reflections between them: one omega_k for each but
        # the last of each group, whose level {I, g} needs none.
        calls = []
        original = weyl.smith_normal_form
        monkeypatch.setattr(weyl, "smith_normal_form",
                            lambda m: calls.append(m) or original(m))
        verify.check_group_orders(8, verify._catalog(8))
        assert len(calls) == 98 - 24 == 74

    def test_rank8_closures_list_no_element(self):
        # The certificates hold orbits and row tables only: 0.1-0.3 MB at
        # the peak, where E6's 51,840 listed elements alone took about 4 MB.
        catalog = verify._catalog(8)
        tracemalloc.start()
        try:
            verify.check_group_orders(8, catalog)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("tag", ["B3", "C3"])
    def test_refused_reflection_fails_its_own_line(self, tag):
        # s1 * diag(1, 1, 3) has determinant -3; the other of B3 and C3
        # still passes by its own certificate.
        catalog = verify._catalog(3)
        system = RootSystemId.parse(tag)
        s0, s1, s2 = catalog[system].generators
        catalog[system] = dataclasses.replace(
            catalog[system], generators=(s0, s1 * Matrix.diagonal([1, 1, 3]), s2))
        failed = [(c.name, c.detail) for c in verify.check_group_orders(3, catalog).checks
                  if c.status == "fail"]
        assert failed[0] == (f"{tag}: enumerated order = expected 48",
                             f"{tag}: simple reflection 1: determinant is -3")
        assert [name for name, _ in failed[1:]] == [f"{tag}: every element preserves the Gram form"]

    @pytest.mark.parametrize("tag", ["B4", "C4"])
    def test_regenerated_reflection_set_fails_its_own_line(self, tag):
        # s0 is replaced by s0 * s1, which preserves the form and generates
        # the same group with other lengths: it is no involution, so the
        # perturbed system fails its order line with that check, and the
        # other passes.
        catalog = verify._catalog(4)
        system = RootSystemId.parse(tag)
        refl = catalog[system].generators
        perturbed = (refl[0] * refl[1], *refl[1:])
        catalog[system] = dataclasses.replace(catalog[system], generators=perturbed)
        checks = [(c.name, c.status, c.detail)
                  for c in verify.check_group_orders(4, catalog).checks]
        assert [c for c in checks if c[1] == "fail"] == [
            (f"{tag}: enumerated order = expected 384", "fail", f"{tag}: generator 0: g * g != I")]
        other = RootSystemId.parse("C4" if tag == "B4" else "B4")
        assert (order_line(other), "pass", "") in checks

    @pytest.mark.parametrize("replace, reason", [
        # -I fixes no nonzero vector, so the level that removes s1 finds no
        # omega fixed by -I and s2: v's last column, which s2 moves.
        (0, "B3: removing generator 1: omega * g_2 != omega"),
        # s0 given twice: every vector fixed by the first is fixed by the
        # second, so the level that removes it finds a one-point orbit, and
        # t_0 * s0 = s0 is no element of W_J = <s2>.
        (1, "B3: removing generator 1: g_1 fixes orbit point 0, but t_0 * g_1 is no g_l * t_0")],
        ids=["s0-is-minus-identity", "s1-is-s0"])
    def test_a_declined_involution_fails_only_its_order_line(self, replace, reason):
        # Both sets are involutions that preserve the form, so the
        # certificate declines at a check of its own, and the order line
        # names it; every other line passes.
        catalog = verify._catalog(3)
        b3 = RootSystemId.parse("B3")
        refl = list(catalog[b3].generators)
        refl[replace] = -Matrix.identity(3) if replace == 0 else refl[0]
        catalog[b3] = dataclasses.replace(catalog[b3], generators=tuple(refl))
        checks = [(c.name, c.status, c.detail)
                  for c in verify.check_group_orders(3, catalog).checks]
        assert [c for c in checks if c[1] == "fail"] == [
            ("B3: enumerated order = expected 48", "fail", reason)]
        assert ("B3: every element preserves the Gram form", "pass", "") in checks

    def test_c_without_b_is_closed(self, monkeypatch):
        catalog = {system: family for system, family in verify._catalog(5).items()
                   if system.family == "C"}
        calls = recorded_closures(monkeypatch)
        sec = verify.check_group_orders(5, catalog)
        assert all(c.status == "pass" for c in sec.checks)
        assert calls == [transposed(RootSystemId("C", n)) for n in range(2, 6)]


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
    def test_moved_base_matrix_names_system_and_reflection(self):
        # z0(B3) with its (0, 0) entry raised by one; the Siegel action of
        # an embedded reflection r is z -> r z r^t, applied here directly.
        # The centralizer element [[I, z0], [0, I]] (B3 has level 1) commutes
        # with diag(r, r^t) iff r z0 r^t = z0, so it fails on the same r.
        catalog = verify._catalog(4)
        system = RootSystemId.parse("B3")
        rows = [list(r) for r in catalog[system].z0.rows()]
        rows[0][0] += 1
        moved = Matrix(rows)
        catalog[system] = dataclasses.replace(catalog[system], z0=moved)
        first = next(k for k, r in enumerate(simple_reflections(system))
                     if r * moved * r.T != moved)
        assert first == 1
        sec = verify.check_properties(4, catalog)
        failed = {c.name: c.detail for c in sec.checks if c.status == "fail"}
        assert failed == {
            "every simple reflection fixes z0 under the Siegel action":
                f"B3: simple reflection {first} moves z0",
            "full reflection set fixes exactly the line through z0 (rank <= 6)":
                "B3: fixed line is not spanned by z0",
            "centralizer elements commute with the embedded action (rank <= 4)":
                f"B3: centralizer element (1, 1, 0, 1) does not commute with "
                f"simple reflection {first}",
        }

    def test_missing_reflection_names_the_fixed_space_dimension(self):
        # Without its last simple reflection, B3's reflections generate an A2
        # that fixes more than the line through z0.
        catalog = verify._catalog(4)
        system = RootSystemId.parse("B3")
        kept = catalog[system].generators[:-1]
        catalog[system] = dataclasses.replace(catalog[system], generators=kept)
        dimension = fixed_symmetric_space([embed_block_diag(r) for r in kept]).dimension
        assert dimension > 1
        sec = verify.check_properties(4, catalog)
        assert {c.name: c.detail for c in sec.checks if c.status == "fail"} == {
            "full reflection set fixes exactly the line through z0 (rank <= 6)":
                f"B3: fixed space has dimension {dimension}",
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
        hom = verify.check_properties(3, verify._catalog(3)).checks[0]
        assert hom.name == "embedding is a homomorphism on 100 random words"
        assert hom.status == "fail"
        assert hom.detail == f"word pair 0 ({system}): embedding of w1 * w2 differs"

    def test_non_commuting_element_names_the_first_generator(self, monkeypatch):
        # A reflection r squares to I, so it embeds as diag(r, r^t).
        original = verify.centralizer_element
        catalog = verify._catalog(3)
        system = RootSystemId.parse("A2")
        shear = Matrix.block2(Matrix.identity(2), Matrix.zeros(2),
                              Matrix([[1, 0], [0, 0]]), Matrix.identity(2))

        def element(family, *params):
            if family is catalog[system] and params == (1, 0, 1, 1):
                return SimpleNamespace(m=shear)
            return original(family, *params)

        monkeypatch.setattr(verify, "centralizer_element", element)
        embedded = [Matrix.block2(r, Matrix.zeros(2), Matrix.zeros(2), r.T)
                    for r in simple_reflections(system)]
        first = next(k for k, emb in enumerate(embedded) if shear * emb != emb * shear)
        sec = verify.check_properties(3, catalog)
        failed = [c for c in sec.checks if c.status == "fail"]
        assert [c.name for c in failed] == [
            "centralizer elements commute with the embedded action (rank <= 4)"]
        assert failed[0].detail == (f"A2: centralizer element (1, 0, 1, 1) does not "
                                    f"commute with simple reflection {first}")


class TestRiemannWitness:
    def test_wrong_z0_names_the_first_wrong_cell(self):
        # z0(B3) is min(i, j); raising its (2, 2) entry to 4 keeps it
        # positive definite, and column 2 of gram * z0 gains column 2 of
        # gram, whose first nonzero entry is gram[1][2] = -1.
        catalog = verify._catalog(3)
        system = RootSystemId.parse("B3")
        moved = Matrix([[1, 1, 1], [1, 2, 2], [1, 2, 4]])
        catalog[system] = dataclasses.replace(catalog[system], z0=moved)
        assert gram_matrix(system).col(2) == (0, -1, 1)
        sec = verify.check_riemann_matrices(3, catalog)
        failed = {c.name: c.detail for c in sec.checks if c.status == "fail"}
        assert failed == {
            "B3: gram * z0 = identity": "entry (1, 2) of gram * z0 is -1, expected 0",
            "B3: z0 equals published closed form": "entry (2, 2) of z0 is 4, expected 3",
        }

    @pytest.mark.parametrize("moved, detail", [
        # (0, 2) and (1, 2) of z0(B3) = min(i, j) + 1 swapped
        ([[1, 1, 2], [1, 2, 1], [1, 2, 3]], "entry (0, 2) of z0 is 2, expected 1"),
        ([[1, 1, 1], [1, 2, 2], [1, 2, -1]], "leading principal minor 3 of z0 is -3"),
    ], ids=["asymmetric", "negative-diagonal"])
    def test_indefinite_z0_names_its_witness(self, moved, detail):
        catalog = verify._catalog(3)
        system = RootSystemId.parse("B3")
        catalog[system] = dataclasses.replace(catalog[system], z0=Matrix(moved))
        sec = verify.check_riemann_matrices(3, catalog)
        failed = {c.name: c.detail for c in sec.checks if c.status == "fail"}
        assert failed["B3: z0 symmetric positive definite"] == detail

    def test_wrong_closed_form_names_the_first_wrong_cell(self, monkeypatch):
        original = reference.closed_form_z0

        def wrong(system):
            if str(system) != "A3":
                return original(system)
            rows = [list(r) for r in original(system).rows()]
            rows[2][1] += Fraction(1, 3)
            return Matrix(rows)

        monkeypatch.setattr(reference, "closed_form_z0", wrong)
        sec = verify.check_riemann_matrices(3, verify._catalog(3))
        failed = [c for c in sec.checks if c.status == "fail"]
        assert [(c.name, c.detail) for c in failed] == [
            ("A3: z0 equals published closed form", "entry (2, 1) of z0 is 1/2, expected 5/6")]


def verify_all_failures(capsys, max_rank):
    """Run verify-all through the CLI; the exit code, stderr and the report's
    failing checks."""
    code = main(["verify-all", "--max-rank", str(max_rank)])
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["status"] == "fail"
    return code, err, [c for sec in report["sections"] for c in sec["checks"]
                       if c["status"] == "fail"]


class TestBrokenReferenceGenerators:
    def test_non_unimodular_order5_generator(self, monkeypatch, capsys):
        monkeypatch.setattr(reference, "cyclic5_generator",
                            lambda: Matrix.diagonal([2, 1, 1, 1]))
        code, err, failed = verify_all_failures(capsys, 4)
        assert (code, err) == (1, "")
        assert failed == [{"name": "order-5 generator embeds symplectically",
                           "status": "fail",
                           "detail": "reference.cyclic5_generator(): determinant is 2"}]

    def test_wrong_sized_order5_span(self, monkeypatch, capsys):
        monkeypatch.setattr(reference, "cyclic5_fixed_span",
                            lambda: (Matrix.identity(5), Matrix.identity(5)))
        code, err, failed = verify_all_failures(capsys, 4)
        assert (code, err) == (1, "")
        assert failed == [
            {"name": "fixed space equals the published span (both inclusions)",
             "status": "fail", "detail": "basis matrix 0 is 5 x 5, expected 4 x 4"},
            {"name": "5 * z0(A4) equals the first published span matrix",
             "status": "fail", "detail": "5 * z0(A4) is 4 x 4, expected 5 x 5"},
        ]

    def test_non_symplectic_sym5_generator(self, monkeypatch, capsys):
        g1, g2 = reference.sym5_degree6_generators()
        monkeypatch.setattr(reference, "sym5_degree6_generators", lambda: (2 * g1, g2))
        code, err, failed = verify_all_failures(capsys, 6)
        assert (code, err) == (1, "")
        assert failed == [{"name": "first generator is symplectic", "status": "fail",
                           "detail": "reference.sym5_degree6_generators()[0]: m^t J m != J"}]


def non_unimodular(n):
    return Matrix.diagonal([2] + [1] * (n - 1))


class TestBrokenReferenceWitnesses:
    def test_non_unimodular_family_witness(self, monkeypatch, capsys):
        monkeypatch.setattr(reference, "dn_to_cn_witness", non_unimodular)
        code, err, failed = verify_all_failures(capsys, 4)
        assert (code, err) == (1, "")
        assert failed == [{"name": "D4 -> C4 witness", "status": "fail",
                           "detail": "reference.dn_to_cn_witness(4): determinant is 2"}]

    def test_wrong_family_witness_names_the_first_wrong_cell(self, monkeypatch, capsys):
        # With a = I the check compares z0(D4) with z0(C4), which first
        # differ, row by row, at (0, 2).
        z_d4, z_c4 = (Family.from_system(RootSystemId.parse(tag)).z0 for tag in ("D4", "C4"))
        assert z_d4.rows()[0][:2] == z_c4.rows()[0][:2]
        assert (z_d4[0, 2], z_c4[0, 2]) == (Fraction(1, 2), 1)
        monkeypatch.setattr(reference, "dn_to_cn_witness", Matrix.identity)
        code, err, failed = verify_all_failures(capsys, 4)
        assert (code, err) == (1, "")
        assert failed == [{"name": "D4 -> C4 witness", "status": "fail",
                           "detail": "entry (0, 2) of a * z1 * a^t is 1/2, expected 1"}]

    def test_non_unimodular_splitting_witness(self, monkeypatch, capsys):
        # F = diag(2, 1) is refused by the splitting check; the M = F^{-t},
        # symplectic and Gram lines name their first wrong cell.
        original = reference.bn_split_witness

        def wrong(n):
            _, d, m = original(n)
            return non_unimodular(n), d, m

        monkeypatch.setattr(reference, "bn_split_witness", wrong)
        code, err, failed = verify_all_failures(capsys, 2)
        assert (code, err) == (1, "")
        assert failed == [
            {"name": "B2: F z0 = diag(d) M", "status": "fail",
             "detail": "reference.bn_split_witness(2): determinant is 2"},
            {"name": "B2: M = F^{-t}", "status": "fail",
             "detail": "entry (0, 0) of F * M^t is 2, expected 1"},
            {"name": "B2: diag-block(F, M) symplectic", "status": "fail",
             "detail": "entry (0, 0) of F^t * M is 2, expected 1"},
            {"name": "B2: F^t F equals the Gram matrix", "status": "fail",
             "detail": "entry (0, 0) of F^t F is 4, expected 2"},
        ]

    def test_wrong_splitting_matrix_names_the_first_wrong_cell(self, monkeypatch, capsys):
        # M(B2) = [[1, 1], [0, 1]] with its (0, 1) cell raised to 2; F is the
        # bidiagonal [[1, 0], [-1, 1]], so F^t * M = [[1, 1], [0, 1]].
        original = reference.bn_split_witness

        def wrong(n):
            f, d, m = original(n)
            rows = [list(r) for r in m.rows()]
            rows[0][1] += 1
            return f, d, Matrix(rows)

        monkeypatch.setattr(reference, "bn_split_witness", wrong)
        code, err, failed = verify_all_failures(capsys, 2)
        assert (code, err) == (1, "")
        assert failed == [
            {"name": "B2: F z0 = diag(d) M", "status": "fail",
             "detail": "entry (0, 1) of F z0 is 1, expected 2"},
            {"name": "B2: M = F^{-t}", "status": "fail",
             "detail": "entry (1, 0) of F * M^t is 1, expected 0"},
            {"name": "B2: diag-block(F, M) symplectic", "status": "fail",
             "detail": "entry (0, 1) of F^t * M is 1, expected 0"},
        ]


def g2_torus_failures(change):
    """The failing torus-decomposition lines, as {name: detail}, with the
    Smith form of the G2 family replaced by ``change(original)``."""
    catalog = verify._catalog(2)
    g2 = RootSystemId.parse("G2")
    catalog[g2] = dataclasses.replace(catalog[g2], snf=change(catalog[g2].snf))
    sec = verify.check_divisor_chains(2, catalog)
    return {c.name: c.detail for c in sec.checks if c.status == "fail"}


SHEAR = Matrix([[1, 1], [0, 1]])


class TestTorusWitness:
    # The Smith form of the G2 Gram matrix [[2, -3], [-3, 6]] is
    # u = diag(1, -1), d = diag(1, 3), v = [[2, -3], [1, -2]].

    @pytest.mark.parametrize("change, detail", [
        (lambda s: SnfResult(u=s.u + Matrix([[1, 0], [0, 0]]), d=s.d, v=s.v),
         "entry (0, 0) of u * gram * v is 2, expected 1"),
        (lambda s: SnfResult(u=SHEAR * s.u, d=SHEAR * s.d, v=s.v),
         "entry (0, 1) of d is 3, expected 0"),
        (lambda s: SnfResult(u=Fraction(1, 2) * s.u, d=Fraction(1, 2) * s.d, v=s.v),
         "u is not integral"),
        (lambda s: SnfResult(u=s.u, d=Fraction(1, 2) * s.d, v=Fraction(1, 2) * s.v),
         "v is not integral"),
        (lambda s: SnfResult(u=2 * s.u, d=2 * s.d, v=s.v),
         "product of d is 12, det(gram) is 3"),
    ], ids=["u-cell", "off-diagonal-d", "u-rational", "v-rational", "product"])
    def test_wrong_smith_form_names_its_first_failure(self, change, detail):
        assert g2_torus_failures(change) == {
            "G2: u * gram * v = d with unimodular u, v": detail}

    def test_wrong_chain_gives_both_numbers(self):
        catalog = verify._catalog(2)
        g2 = RootSystemId.parse("G2")
        catalog[g2] = dataclasses.replace(catalog[g2], chain=DivisorChain((4, 1)))
        sec = verify.check_divisor_chains(2, catalog)
        failed = {c.name: c.detail for c in sec.checks if c.status == "fail"}
        assert failed == {
            "G2: divisor chain equals published value": "computed (4, 1)",
            "G2: product of divisors equals det(gram)":
                "product of divisors is 4, det(gram) is 3",
        }

    def test_dropped_factor_gives_the_regrouped_chain(self, monkeypatch):
        # G2 regroups (3, 1) as ((1, 1), (3, 1)); dropping the first factor
        # leaves (3,).
        original = verify.group_divisors
        monkeypatch.setattr(verify, "group_divisors", lambda chain: EllipticDecomposition(
            original(chain).factors[1:]) if chain.divisors == (3, 1) else original(chain))
        sec = verify.check_divisor_chains(2, verify._catalog(2))
        failed = {c.name: c.detail for c in sec.checks if c.status == "fail"}
        assert failed == {"A2: elliptic factors regroup the chain": "regrouped chain (3,)",
                          "G2: elliptic factors regroup the chain": "regrouped chain (3,)"}


def changed_cell(mats, which, i, j, delta):
    """``mats`` with entry (i, j) of matrix ``which`` moved by delta."""
    rows = [[list(r) for r in m.rows()] for m in mats]
    rows[which][i][j] += delta
    return tuple(Matrix(r) for r in rows)


def rref_calls(monkeypatch):
    """The column counts of every ``exactmat._rref`` run from here on."""
    calls = []
    original = exactmat._rref
    monkeypatch.setattr(exactmat, "_rref",
                        lambda aug, ncols: calls.append(ncols) or original(aug, ncols))
    return calls


def fixed_space_failures(monkeypatch, name, mutate):
    """The failing lines (name -> detail) of the worked example that reads
    ``reference.<name>``, with that function returning ``mutate`` of its own
    value, and the ``_rref`` runs of the section."""
    original = getattr(reference, name)()
    monkeypatch.setattr(reference, name, lambda: mutate(original))
    calls = rref_calls(monkeypatch)
    sec = (verify.check_sym5_fixed_family(6) if name.startswith("sym5")
           else verify.check_cyclic5_fixed_space(4, verify._catalog(4)))
    return {c.name: c.detail for c in sec.checks if c.status == "fail"}, calls


class TestFixedSpaceWitness:
    def test_changed_span_matrix(self, monkeypatch):
        failed, calls = fixed_space_failures(monkeypatch, "cyclic5_fixed_span",
                                             lambda span: changed_cell(span, 0, 0, 0, 1))
        assert failed == {
            "fixed space equals the published span (both inclusions)":
                "basis matrix 0 fails equation 0",
            "5 * z0(A4) equals the first published span matrix":
                "entry (0, 0) of 5 * z0(A4) is 4, expected 5",
        }
        assert calls == []

    @pytest.mark.parametrize("which, name, detail", [
        (0, "particular part equals the published constant part",
         "particular part fails equation 1"),
        (1, "basis matrix equals the published linear part", "basis matrix 0 fails equation 1"),
    ], ids=["constant", "linear"])
    def test_changed_sym5_family(self, monkeypatch, which, name, detail):
        failed, calls = fixed_space_failures(monkeypatch, "sym5_fixed_family",
                                             lambda pair: changed_cell(pair, which, 0, 0, 1))
        assert (failed, calls) == ({name: detail}, [])

    def test_wrong_sized_sym5_family_names_both_shapes(self, monkeypatch):
        failed, calls = fixed_space_failures(monkeypatch, "sym5_fixed_family", lambda pair: (
            pair[0], pair[1].submatrix(0, 5, 0, 5)))
        assert (failed, calls) == ({"basis matrix equals the published linear part":
                                    "basis matrix 0 is 5 x 5, expected 6 x 6"}, [])

    def test_identity_generator_fixes_every_form(self, monkeypatch):
        failed, calls = fixed_space_failures(monkeypatch, "cyclic5_generator",
                                             lambda gen: Matrix.identity(4))
        assert failed == {
            "fixed space is 2-dimensional": "dimension 10",
            "fixed space equals the published span (both inclusions)":
                "fixed space has dimension 10, not 2",
        }
        assert calls == []


class TestFixedSpaceCertificate:
    """A worked fixed-space example is proven by substitution and one
    integer elimination; a published answer that is not the fixed set, or
    not the solver's normal form of it, fails the lines that name its first
    failed check, with no solver run."""

    @pytest.mark.parametrize("name, mutate, failed", [
        ("cyclic5_fixed_span", lambda span: changed_cell(span, 1, 3, 0, 1),
         {"fixed space equals the published span (both inclusions)":
          "basis matrix 1 is not symmetric"}),
        ("cyclic5_fixed_span", lambda span: (span[0], span[0]),
         {"fixed space equals the published span (both inclusions)":
          "the basis matrices are dependent"}),
        ("cyclic5_fixed_span", lambda span: (span[0], Fraction(1, 2) * span[1]), {}),
        ("sym5_fixed_family", lambda pair: (pair[0].submatrix(0, 5, 0, 5), pair[1]),
         {"particular part equals the published constant part":
          "particular part is 5 x 5, expected 6 x 6"}),
        ("sym5_fixed_family", lambda pair: changed_cell(pair, 0, 5, 0, 1),
         {"particular part equals the published constant part":
          "particular part is not symmetric"}),
        ("sym5_fixed_family", lambda pair: (pair[0] + pair[1], pair[1]),
         {"particular part equals the published constant part":
          "particular part is 3 at free coordinate (5, 5)"}),
        ("sym5_fixed_family", lambda pair: (pair[0], -pair[1]),
         {"basis matrix equals the published linear part":
          "basis matrix 0 is -1 times the primitive kernel vector"}),
        ("sym5_fixed_family", lambda pair: (pair[0], 2 * pair[1]),
         {"basis matrix equals the published linear part":
          "basis matrix 0 is 2 times the primitive kernel vector"}),
        ("sym5_fixed_family", lambda pair: (pair[0], Fraction(1, 3) * pair[1]),
         {"basis matrix equals the published linear part":
          "basis matrix 0 is 1/3 times the primitive kernel vector"}),
        ("sym5_fixed_family", lambda pair: (pair[0], 0 * pair[1]),
         {"basis matrix equals the published linear part": "the basis matrices are dependent"}),
        ("sym5_fixed_family", lambda pair: changed_cell(pair, 1, 1, 0, 1),
         {"basis matrix equals the published linear part": "basis matrix 0 is not symmetric"}),
        ("sym5_fixed_family", lambda pair: (pair[0], pair[1].submatrix(0, 5, 0, 5)),
         {"basis matrix equals the published linear part":
          "basis matrix 0 is 5 x 5, expected 6 x 6"}),
        ("sym5_degree6_generators", lambda gens: (gens[0], gens[0]),
         {"fixed family is a line (one basis matrix)": "dimension 5",
          "basis matrix equals the published linear part": "fixed space has dimension 5, not 1",
          "particular part equals the published constant part":
              "particular part is -1/2 at free coordinate (2, 3)"}),
    ], ids=["m2-not-symmetric", "m1-twice", "m2-halved", "constant-5x5", "constant-not-symmetric",
            "constant-shifted-by-L", "L-negated", "2L", "L-over-3", "L-zero", "L-not-symmetric",
            "L-5x5", "g1-twice"])
    def test_a_mutant_fails_exactly_its_lines(self, monkeypatch, name, mutate, failed):
        # m2 with cell (3, 0) raised is not symmetric, though its upper
        # triangle is m2's; m2 / 2 spans the same plane as m2, so it passes.
        # The shifted constant solves the equations but is not 0 at the free
        # coordinate; -L, 2L and L/3 span the line but are not its primitive
        # integral vector with a positive leading entry; 0 spans nothing;
        # g1 alone fixes a five-dimensional space.
        assert fixed_space_failures(monkeypatch, name, mutate) == (failed, [])

    def test_another_basis_of_the_span_is_certified(self, monkeypatch):
        # (m1 + m2, m2) spans the same space, so only the line that compares
        # the first published matrix with 5 * z0(A4) fails.
        failed, calls = fixed_space_failures(monkeypatch, "cyclic5_fixed_span",
                                             lambda span: (span[0] + span[1], span[1]))
        assert (failed, calls) == ({"5 * z0(A4) equals the first published span matrix":
                                    "entry (0, 0) of 5 * z0(A4) is 4, expected 6"}, [])
