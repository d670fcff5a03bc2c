"""Acceptance suite: one test and one printed pass/fail line per criterion.

Every check here is exact (tolerance zero); the only numeric budget is the
30-second wall-clock allowance on the largest group enumeration. Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines as they print.
"""

import random
import time
from fractions import Fraction
from math import prod

from weylppav import (Family, Matrix, RootSystemId, SymplecticMat, all_systems,
                      coroot_polarization_degree, check_invariance, divisor_chain,
                      embed_block_diag, fixed_symmetric_space, gram_matrix,
                      is_symplectic, modular_action,
                      simple_reflections, verify_decomposition_witness,
                      verify_family_isomorphism)
from weylppav import reference
from weylppav.weyl import expected_order, generate_group
from conftest import proportional

F = Fraction
MAX_RANK = 8
CATALOG = list(all_systems(MAX_RANK))


def report(ok: bool, label: str):
    print(f"{'PASS' if ok else 'FAIL'}  {label}")
    assert ok, label


def test_criterion_1_riemann_matrix_closed_forms():
    ok = True
    for system in CATALOG:
        z0 = Family.from_system(system).z0
        ok &= gram_matrix(system) * z0 == Matrix.identity(system.rank)
        tag = str(system)
        if tag == "E7":
            # printed value is the Gram form itself: a documented discrepancy,
            # every cell of which must be explained by that single misprint
            ok &= z0 != reference.PRINTED_Z0_E7
            ok &= reference.PRINTED_Z0_E7 == gram_matrix(system)
        elif tag == "E8":
            diffs = {(i, j) for i in range(8) for j in range(8)
                     if z0[i, j] != reference.PRINTED_Z0_E8[i, j]}
            ok &= diffs == {(5, 5)}
            ok &= z0[5, 5] == 12 and reference.PRINTED_Z0_E8[5, 5] == 22
        else:
            ok &= z0 == reference.closed_form_z0(system)
    report(ok, "criterion 1: base Riemann matrices match the published closed "
               "forms (E7 and E8(6,6) as documented discrepancies)")


def test_criterion_2_divisor_chains():
    ok = True
    for system in CATALOG:
        chain = divisor_chain(gram_matrix(system)).divisors
        ok &= chain == reference.expected_divisor_chain(system)
        ok &= prod(chain) == gram_matrix(system).det()
    report(ok, "criterion 2: invariant-factor chains match the published "
               "decompositions for every system of rank <= 8")


def test_criterion_3_congruence_levels():
    ok = True
    for system in CATALOG:
        published = reference.expected_level(system)
        family = Family.from_system(system)
        ok &= published == family.level
        ok &= published == divisor_chain(gram_matrix(system)).divisors[0]
        ok &= published == family.z0.denominator
    report(ok, "criterion 3: congruence levels agree across the published "
               "table, the largest invariant factor, and the z0 denominators")


def test_criterion_4_family_witnesses():
    ok = True
    for n in range(4, MAX_RANK + 1):
        ok &= verify_family_isomorphism(
            reference.dn_to_cn_witness(n),
            Family.from_system(RootSystemId("D", n)).z0,
            Family.from_system(RootSystemId("C", n)).z0)
    ok &= verify_family_isomorphism(
        reference.d4_to_f4_witness(),
        Family.from_system(RootSystemId("D", 4)).z0,
        Family.from_system(RootSystemId("F", 4)).z0)
    # G2 -> A2: printed witness only works after composing with diag(1, -1);
    # the failure of the raw form is the documented discrepancy.
    z_g2 = Family.from_system(RootSystemId("G", 2)).z0
    z_a2 = Family.from_system(RootSystemId("A", 2)).z0
    printed = reference.g2_to_a2_witness_printed()
    ok &= not verify_family_isomorphism(printed, z_g2, z_a2)
    ok &= verify_family_isomorphism(reference.g2_to_a2_sign_fix() * printed,
                                    z_g2, z_a2)
    # Alternate A_n family: exact under the tau |-> tau/(n+1) rescale of the
    # published base matrix.
    for n in range(1, MAX_RANK + 1):
        ok &= verify_family_isomorphism(
            reference.an_alternate_witness(n),
            Family.from_system(RootSystemId("A", n)).z0,
            F(1, n + 1) * reference.an_alternate_base_printed(n))
    report(ok, "criterion 4: explicit change-of-basis witnesses verify "
               "(G2 -> A2 after the documented sign composition)")


def test_criterion_5_bn_principal_splitting():
    ok = True
    for n in range(2, MAX_RANK + 1):
        system = RootSystemId("B", n)
        z0 = Family.from_system(system).z0
        f, d, m = reference.bn_split_witness(n)
        ok &= verify_decomposition_witness(f, d, m, z0)
        ok &= m == f.inverse().T
        ok &= is_symplectic(Matrix.block2(f, Matrix.zeros(n), Matrix.zeros(n), m))
        ok &= f.T * f == gram_matrix(system)
    report(ok, "criterion 5: the B-family splitting witness satisfies "
               "F z0 = M = F^{-t} with diag-block(F, M) symplectic and F^t F = gram")


def test_criterion_6_order5_fixed_space():
    space = fixed_symmetric_space([embed_block_diag(reference.cyclic5_generator())])
    m1, m2 = reference.cyclic5_fixed_span()
    ok = space.dimension == 2 and (m1.nrows, m1.ncols) == (m2.nrows, m2.ncols) == (4, 4)
    # One span: the solver's pair, the published pair and all four matrices
    # have rank 2, each matrix read whole as a row of 16 entries.

    def rank(mats):
        return Matrix([m.flat for m in mats]).rank()

    ok &= rank(space.basis) == rank((m1, m2)) == rank((*space.basis, m1, m2)) == 2
    ok &= 5 * Family.from_system(RootSystemId("A", 4)).z0 == m1
    report(ok, "criterion 6: the order-5 action fixes exactly the published "
               "2-dimensional span, whose first matrix is 5 * z0(A4)")


def test_criterion_7_sym5_fixed_family():
    g1, g2 = reference.sym5_degree6_generators()
    ok = is_symplectic(g1) and is_symplectic(g2)
    space = fixed_symmetric_space([SymplecticMat(6, g1), SymplecticMat(6, g2)])
    constant, linear = reference.sym5_fixed_family()
    ok &= space.dimension == 1
    ok &= space.basis[0] == linear
    ok &= space.particular == constant
    report(ok, "criterion 7: the degree-6 symmetric-group action fixes exactly "
               "the published one-parameter affine family")


def test_criterion_8_group_orders_within_budget():
    enumerable = (["A" + str(n) for n in range(1, 7)]
                  + ["B" + str(n) for n in range(2, 6)]
                  + ["C" + str(n) for n in range(2, 6)]
                  + ["D" + str(n) for n in range(3, 6)]
                  + ["F4", "G2", "E6"])
    start = time.monotonic()
    ok = True
    for tag in enumerable:
        system = RootSystemId.parse(tag)
        group = generate_group(simple_reflections(system), 10 ** 5 + 1)
        ok &= not group.truncated and group.order == expected_order(system)
    elapsed = time.monotonic() - start
    ok &= elapsed < 30.0
    for tag in ("E7", "E8"):
        system = RootSystemId.parse(tag)
        refl = simple_reflections(system)
        ok &= check_invariance(refl, gram_matrix(system))
        ok &= all(abs(g.det()) == 1 for g in refl)
    report(ok, f"criterion 8: enumerated group orders match "
               f"(largest 51840, {elapsed:.1f}s < 30s); "
               f"E7/E8 checked at generator level")


def test_criterion_9_coroot_degrees():
    ok = True
    for system in CATALOG:
        ok &= coroot_polarization_degree(system) == reference.expected_degree(system)
    e7_flagged = reference.DEGREE_LIST_NOTE != ""
    ok &= e7_flagged
    report(ok, "criterion 9: coroot polarization degrees equal "
               "(n+1, 4, 1, 4, 3, 2, 1, 4, 3); the positional E7 reading is flagged")


def test_criterion_10_property_suites():
    rng = random.Random(424242)
    ok = True
    for _ in range(100):
        system = rng.choice(CATALOG)
        refl = simple_reflections(system)
        w1 = Matrix.identity(system.rank)
        w2 = Matrix.identity(system.rank)
        for _ in range(rng.randrange(1, 5)):
            w1 = w1 * rng.choice(refl)
        for _ in range(rng.randrange(1, 5)):
            w2 = w2 * rng.choice(refl)
        ok &= embed_block_diag(w1).m * embed_block_diag(w2).m == \
            embed_block_diag(w1 * w2).m
    for system in CATALOG:
        z0 = Family.from_system(system).z0
        for refl in simple_reflections(system):
            ok &= modular_action(embed_block_diag(refl), z0) == z0
    for system in CATALOG:
        if system.rank > 6:
            continue
        gens = [embed_block_diag(r) for r in simple_reflections(system)]
        space = fixed_symmetric_space(gens)
        ok &= space.dimension == 1
        ok &= proportional(space.basis[0], Family.from_system(system).z0)
    report(ok, "criterion 10: embedding homomorphism on 100 random words; "
               "every reflection fixes z0; full reflection sets pin the "
               "one-dimensional family (rank <= 6)")
