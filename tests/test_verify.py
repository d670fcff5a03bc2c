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
from weylppav.symplectic import AffineMatrixSpace
from weylppav import symplectic
from weylppav import verify, weyl
from weylppav.cli import main
from weylppav.verify import _span_witness, _spanned_by, run_verification
from weylppav.weyl import poincare_polynomial
from conftest import proportional


class TestHelpers:
    def test_spanned_by(self):
        assert _spanned_by((2, 4), [(1, 2)])
        assert not _spanned_by((2, 5), [(1, 2)])
        assert _spanned_by((0, 0), [])
        assert not _spanned_by((1, 0), [])

    def test_same_span(self):
        a = Matrix([[2, 0], [0, 0]])
        b = Matrix([[0, 0], [0, 3]])
        assert _span_witness((a, b), (a + b, a - b), 2) == ""
        assert _span_witness((a,), (b,), 2) == \
            "computed basis matrix 0 lies outside the published span"
        assert _span_witness((a,), (a, b), 2) == \
            "published span matrix 1 lies outside the computed span"
        assert _span_witness((a, b), (a, b, a + b), 2) == "2 computed matrices, 3 published"
        # A published matrix of another size is named before any span is
        # solved, also against an empty computed side.
        assert _span_witness((a,), (a, Matrix.identity(3)), 2) == \
            "published span matrix 1 is 3 x 3, expected 2 x 2"
        assert _span_witness((), (Matrix([[1, 0, 0], [0, 1, 0]]),), 2) == \
            "published span matrix 0 is 2 x 3, expected 2 x 2"

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
        # The reference generators are literal matrices, span membership is
        # decided by rank, and both worked fixed-space examples are proven
        # by substitution and Bareiss ranks: a passing pass runs no Fraction
        # elimination, and the solver only names a failing example.
        calls, solves = [], []
        original = exactmat._rref
        monkeypatch.setattr(exactmat, "_rref",
                            lambda aug, ncols: calls.append(ncols) or original(aug, ncols))
        solver = verify.fixed_symmetric_space
        monkeypatch.setattr(verify, "fixed_symmetric_space",
                            lambda gens: solves.append(gens) or solver(gens))
        assert run_verification(8)["status"] == "pass"
        assert (calls, solves) == ([], [])

    def test_each_system_gets_its_exact_data_once(self, monkeypatch):
        # The catalog takes exactly one Smith form per Gram matrix, which
        # gives both the divisor chain and z0, and no other; a pass inverts
        # no Gram matrix. No simple reflection is embedded through a Smith
        # form; random words that are not involutions still take that route.
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

        def embedding_smith(m):
            embedded.append(m)
            return recorded_smith(m)

        monkeypatch.setattr(Matrix, "inverse", counted_inverse)
        monkeypatch.setattr(verify, "_catalog", catalog)
        monkeypatch.setattr(ppav, "smith_normal_form", recorded_smith)
        monkeypatch.setattr(symplectic, "smith_normal_form", embedding_smith)
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
        # the centralizer read the chain.
        grams = {gram_matrix(system): system for system in all_systems(8)}
        per_system = Counter()
        original = ppav.smith_normal_form

        def counted(m):
            if m in grams:
                per_system[grams[m]] += 1
            return original(m)

        for module in (ppav, symplectic):
            monkeypatch.setattr(module, "smith_normal_form", counted)
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
        # A2, so the coset route declines it and the closure decides.
        a2 = RootSystemId.parse("A2")
        s0, s1 = transposed(a2)
        rotation = -(s0 * s1)
        catalog = verify._catalog(2)
        catalog[a2] = dataclasses.replace(catalog[a2], generators=(rotation.T,))
        assert weyl.coset_closure([rotation], verify.ENUMERATION_LIMIT + 1) is None
        sec = verify.check_group_orders(2, catalog)
        failed = [c for c in sec.checks if c.status == "fail"]
        assert [c.name for c in failed] == ["A2: enumerated order 6 = expected 6"]
        assert failed[0].detail == "levels (1, 1, 1, 1, 1, 1), expected (1, 2, 2, 1)"
        assert all(c.detail == "" for c in sec.checks if c.status == "pass")


def recorded_closures(monkeypatch):
    """The generator lists ``verify`` closes, recorded as it closes them:
    ``calls`` gets each list handed to ``coset_closure``, the first route of
    every closure, and ``fallbacks`` each list handed to ``generate_group``
    after the coset route declined it."""
    calls, fallbacks = [], []
    coset, closure = verify.coset_closure, verify.generate_group
    monkeypatch.setattr(verify, "coset_closure",
                        lambda gens, cap: calls.append(gens) or coset(gens, cap))
    monkeypatch.setattr(verify, "generate_group",
                        lambda gens, cap: fallbacks.append(gens) or closure(gens, cap))
    return calls, fallbacks


def closure_line(system, refl):
    """The enumerated-order line of ``system`` closed from ``refl`` itself:
    the line a pass gives when it closes the group on its own."""
    order = expected_order(system)
    group = generate_group([g.T for g in refl], verify.ENUMERATION_LIMIT + 1)
    levels = poincare_polynomial(reference.invariant_degrees(system))
    ok = not group.truncated and group.order == order and group.levels == levels
    return (f"{system}: enumerated order {group.order} = expected {order}",
            "pass" if ok else "fail", "" if ok else f"levels {group.levels}, expected {levels}")


class TestSharedClosure:
    """Every enumerated order line comes from its own system's coset
    certificate, C_n's and A1's included; a passing pass closes no group
    breadth first."""

    def test_rank8_pass_certifies_every_group(self, monkeypatch):
        calls, fallbacks = recorded_closures(monkeypatch)
        assert run_verification(8)["status"] == "pass"
        assert calls == [transposed(system) for system in ENUMERATED]
        assert fallbacks == []

    def test_rank8_closures_take_one_smith_form_per_generator(self, monkeypatch):
        # The 24 enumerated groups (A1-A7, B2-B6, C2-C6, D3-D6, E6, F4, G2)
        # have 98 simple reflections between them: one omega_k each.
        calls = []
        original = weyl.smith_normal_form
        monkeypatch.setattr(weyl, "smith_normal_form",
                            lambda m: calls.append(m) or original(m))
        verify.check_group_orders(8, verify._catalog(8))
        assert len(calls) == 98

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
        # the same group with other lengths: the perturbed system fails its
        # order line with its own closure's levels, and the other passes.
        catalog = verify._catalog(4)
        system = RootSystemId.parse(tag)
        refl = catalog[system].generators
        perturbed = (refl[0] * refl[1], *refl[1:])
        catalog[system] = dataclasses.replace(catalog[system], generators=perturbed)
        checks = {c.name: (c.name, c.status, c.detail)
                  for c in verify.check_group_orders(4, catalog).checks}
        name, status, detail = closure_line(system, perturbed)
        assert status == "fail" and checks[name] == (name, status, detail)
        assert [c for c in checks.values() if c[1] == "fail"] == [(name, status, detail)]
        other = RootSystemId.parse("C4" if tag == "B4" else "B4")
        assert checks[closure_line(other, simple_reflections(other))[0]][1] == "pass"

    def test_c_without_b_is_closed(self, monkeypatch):
        catalog = {system: family for system, family in verify._catalog(5).items()
                   if system.family == "C"}
        calls, fallbacks = recorded_closures(monkeypatch)
        sec = verify.check_group_orders(5, catalog)
        assert all(c.status == "pass" for c in sec.checks)
        assert calls == [transposed(RootSystemId("C", n)) for n in range(2, 6)]
        assert fallbacks == []


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
             "status": "fail", "detail": "published span matrix 0 is 5 x 5, expected 4 x 4"},
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


class TestFixedSpaceWitness:
    def test_changed_span_matrix(self, monkeypatch):
        original = reference.cyclic5_fixed_span
        monkeypatch.setattr(reference, "cyclic5_fixed_span",
                            lambda: changed_cell(original(), 0, 0, 0, 1))
        sec = verify.check_cyclic5_fixed_space(4, verify._catalog(4))
        failed = {c.name: c.detail for c in sec.checks if c.status == "fail"}
        assert failed == {
            "fixed space equals the published span (both inclusions)":
                "computed basis matrix 0 lies outside the published span",
            "5 * z0(A4) equals the first published span matrix":
                "entry (0, 0) of 5 * z0(A4) is 4, expected 5",
        }

    @pytest.mark.parametrize("which, name, detail", [
        (0, "particular part equals the published constant part",
         "entry (0, 0) of particular part is 0, expected 1"),
        (1, "basis matrix equals the published linear part",
         "entry (0, 0) of basis matrix is 3, expected 4"),
    ], ids=["constant", "linear"])
    def test_changed_sym5_family(self, monkeypatch, which, name, detail):
        original = reference.sym5_fixed_family
        monkeypatch.setattr(reference, "sym5_fixed_family",
                            lambda: changed_cell(original(), which, 0, 0, 1))
        sec = verify.check_sym5_fixed_family(6)
        assert {c.name: c.detail for c in sec.checks if c.status == "fail"} == {name: detail}

    def test_wrong_sized_sym5_family_names_both_shapes(self, monkeypatch):
        original = reference.sym5_fixed_family
        monkeypatch.setattr(reference, "sym5_fixed_family", lambda: (
            original()[0], original()[1].submatrix(0, 5, 0, 5)))
        sec = verify.check_sym5_fixed_family(6)
        assert {c.name: c.detail for c in sec.checks if c.status == "fail"} == {
            "basis matrix equals the published linear part":
                "basis matrix is 6 x 6, expected 5 x 5"}

    def test_empty_space_gives_dimension_and_no_solution(self, monkeypatch):
        # The certificate declines first, so the injected solver is read.
        monkeypatch.setattr(verify, "_certified_fixed_space", lambda *args: False)
        monkeypatch.setattr(verify, "fixed_symmetric_space", lambda gens: AffineMatrixSpace(
            n=gens[0].n, particular=None, basis=()))
        sections = (verify.check_cyclic5_fixed_space(4, verify._catalog(4)),
                    verify.check_sym5_fixed_family(6))
        assert [{c.name: c.detail for c in sec.checks if c.status == "fail"}
                for sec in sections] == [{
                    "fixed space is 2-dimensional": "dimension 0",
                    "fixed space is homogeneous (particular = 0)": "no solution",
                    "fixed space equals the published span (both inclusions)":
                        "published span matrix 0 lies outside the computed span",
                }, {
                    "fixed family is a line (one basis matrix)": "dimension 0",
                    "basis matrix equals the published linear part": "dimension 0",
                    "particular part equals the published constant part": "no solution",
                }]

    def test_nonzero_particular_names_its_first_nonzero_cell(self, monkeypatch):
        original = verify.fixed_symmetric_space

        def shifted(gens):
            space = original(gens)
            return AffineMatrixSpace(n=4, particular=Matrix.diagonal([0, 0, 1, 0]),
                                     basis=space.basis)

        monkeypatch.setattr(verify, "_certified_fixed_space", lambda *args: False)
        monkeypatch.setattr(verify, "fixed_symmetric_space", shifted)
        sec = verify.check_cyclic5_fixed_space(4, verify._catalog(4))
        assert {c.name: c.detail for c in sec.checks if c.status == "fail"} == {
            "fixed space is homogeneous (particular = 0)":
                "entry (2, 2) of particular is 1, expected 0"}

    def test_identity_generator_fixes_every_form(self, monkeypatch):
        monkeypatch.setattr(reference, "cyclic5_generator", lambda: Matrix.identity(4))
        sec = verify.check_cyclic5_fixed_space(4, verify._catalog(4))
        assert {c.name: c.detail for c in sec.checks if c.status == "fail"} == {
            "fixed space is 2-dimensional": "dimension 10",
            "fixed space equals the published span (both inclusions)":
                "computed basis matrix 0 lies outside the published span",
        }


def solver_calls(monkeypatch):
    """The generator lists ``verify`` hands to ``fixed_symmetric_space``."""
    calls = []
    original = verify.fixed_symmetric_space
    monkeypatch.setattr(verify, "fixed_symmetric_space",
                        lambda gens: calls.append(gens) or original(gens))
    return calls


class TestFixedSpaceCertificate:
    """A worked fixed-space example that substitution and integer ranks
    prove runs no solver; any other falls back to the solver, whose answer
    names the failure exactly as it does without the certificate."""

    def test_a_declined_certificate_gives_the_same_report(self, monkeypatch):
        report = json.dumps(run_verification(8))
        calls = solver_calls(monkeypatch)
        monkeypatch.setattr(verify, "_certified_fixed_space", lambda *args: False)
        assert json.dumps(run_verification(8)) == report
        assert len(calls) == 2

    @pytest.mark.parametrize("publish, name, detail", [
        (lambda c, lin: (c + lin, lin), "particular part equals the published constant part",
         "entry (0, 0) of particular part is 0, expected 3"),
        (lambda c, lin: (c, -lin), "basis matrix equals the published linear part",
         "entry (0, 0) of basis matrix is 3, expected -3"),
        (lambda c, lin: (c, 2 * lin), "basis matrix equals the published linear part",
         "entry (0, 0) of basis matrix is 3, expected 6"),
        (lambda c, lin: changed_cell((c, lin), 1, 1, 0, 1),
         "basis matrix equals the published linear part",
         "entry (1, 0) of basis matrix is -1, expected 0"),
        (lambda c, lin: (c, lin.submatrix(0, 5, 0, 5)),
         "basis matrix equals the published linear part",
         "basis matrix is 6 x 6, expected 5 x 5"),
    ], ids=["constant-shifted-by-L", "L-negated", "2L", "L-not-symmetric", "L-5x5"])
    def test_a_family_off_the_solver_basis_falls_back(self, monkeypatch, publish, name,
                                                      detail):
        # The shifted constant is a solution, but not 0 at L's last nonzero
        # coordinate; -L and 2L span the line, but are not its primitive
        # vector with a positive leading entry.
        original = reference.sym5_fixed_family
        monkeypatch.setattr(reference, "sym5_fixed_family", lambda: publish(*original()))
        calls = solver_calls(monkeypatch)
        sec = verify.check_sym5_fixed_family(6)
        assert {c.name: c.detail for c in sec.checks if c.status == "fail"} == {name: detail}
        assert len(calls) == 1

    def test_a_repeated_generator_widens_the_kernel_and_falls_back(self, monkeypatch):
        # The published family is fixed by g1 alone too, but so is a
        # five-dimensional space: the rank test declines.
        g1, _ = reference.sym5_degree6_generators()
        monkeypatch.setattr(reference, "sym5_degree6_generators", lambda: (g1, g1))
        calls = solver_calls(monkeypatch)
        sec = verify.check_sym5_fixed_family(6)
        assert {c.name: c.detail for c in sec.checks if c.status == "fail"} == {
            "fixed family is a line (one basis matrix)": "dimension 5",
            "basis matrix equals the published linear part": "dimension 5",
            "particular part equals the published constant part":
                "entry (0, 5) of particular part is 0, expected -1/2",
        }
        assert len(calls) == 1

    def test_a_dependent_span_falls_back(self, monkeypatch):
        # m1 twice solves the equations, and the kernel has dimension 2,
        # but the two published matrices do not span it.
        m1, _ = reference.cyclic5_fixed_span()
        monkeypatch.setattr(reference, "cyclic5_fixed_span", lambda: (m1, m1))
        calls = solver_calls(monkeypatch)
        sec = verify.check_cyclic5_fixed_space(4, verify._catalog(4))
        assert {c.name: c.detail for c in sec.checks if c.status == "fail"} == {
            "fixed space equals the published span (both inclusions)":
                "computed basis matrix 0 lies outside the published span"}
        assert len(calls) == 1

    def test_another_basis_of_the_span_is_certified(self, monkeypatch):
        # (m1 + m2, m2) spans the same space, so no solver runs; only the
        # line that compares the first published matrix with 5 * z0(A4)
        # fails.
        m1, m2 = reference.cyclic5_fixed_span()
        monkeypatch.setattr(reference, "cyclic5_fixed_span", lambda: (m1 + m2, m2))
        calls = solver_calls(monkeypatch)
        sec = verify.check_cyclic5_fixed_space(4, verify._catalog(4))
        assert {c.name: c.detail for c in sec.checks if c.status == "fail"} == {
            "5 * z0(A4) equals the first published span matrix":
                "entry (0, 0) of 5 * z0(A4) is 4, expected 6"}
        assert calls == []
