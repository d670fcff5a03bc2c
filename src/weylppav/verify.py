"""Whole-catalog verification harness.

Recomputes every published claim from scratch and classifies each check as
pass, fail, or documented-discrepancy. The last category covers the known
misprints recorded in ``reference`` (printed E7/E8 base matrices, the sign
of the G2 -> A2 witness); those never fail a run, and anything outside
them does. Output is deterministic byte for byte: fixed orderings, fixed
random seed, no timestamps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from operator import mul

from . import reference
from .centralizer import centralizer_element, centralizer_level, modular_curve_report
from .exactmat import Matrix, smith_normal_form, solve_affine
from .ppav import (coroot_polarization_degree, divisor_chain,
                   elliptic_decomposition, riemann_family)
from .rootsys import (RootSystemId, all_systems, diagram_automorphisms,
                      gram_matrix, simple_reflections)
from .symplectic import (SymplecticMat, embed_block_diag, fixed_symmetric_space,
                         is_symplectic, modular_action, sym_to_vec,
                         verify_decomposition_witness, verify_family_isomorphism)
from .weyl import check_invariance, expected_order, generate_group

PASS = "pass"
FAIL = "fail"
DOCUMENTED = "documented-discrepancy"

# Largest groups enumerated element by element; bigger ones get
# generator-level checks only.
ENUMERATION_LIMIT = 100_000


@dataclass
class Check:
    name: str
    status: str
    detail: str = ""


@dataclass
class Section:
    name: str
    checks: list = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = ""):
        self.checks.append(Check(name, PASS if ok else FAIL, detail))

    def add_documented(self, name: str, detail: str):
        self.checks.append(Check(name, DOCUMENTED, detail))


def _spanned_by(vec, basis_vecs) -> bool:
    """Is vec a rational combination of basis_vecs? (exact)"""
    if not basis_vecs:
        return all(x == 0 for x in vec)
    coeff = Matrix(list(zip(*basis_vecs)))
    return solve_affine(coeff, list(vec)).particular is not None


def _same_span(mats_a, mats_b) -> bool:
    vecs_a = [sym_to_vec(m) for m in mats_a]
    vecs_b = [sym_to_vec(m) for m in mats_b]
    return (len(vecs_a) == len(vecs_b)
            and all(_spanned_by(v, vecs_b) for v in vecs_a)
            and all(_spanned_by(v, vecs_a) for v in vecs_b))


@dataclass(frozen=True)
class _SystemData:
    """One system's exact data, shared by every section of a pass."""

    gram: Matrix
    reflections: list
    z0: Matrix


def _catalog(max_rank: int) -> dict:
    """Every system through max_rank -> its ``_SystemData``, in catalog order.

    ``run_verification`` builds this once and hands it to each section, so
    each system's Gram matrix is inverted once per pass; a section called
    alone builds its own. It goes through this module's names
    ``gram_matrix``, ``simple_reflections`` and ``riemann_family``.
    """
    return {system: _SystemData(gram_matrix(system), simple_reflections(system),
                                riemann_family(system).z0)
            for system in all_systems(max_rank)}


def _proportional(m1: Matrix, m2: Matrix) -> bool:
    """m1 = lambda * m2 for some nonzero rational lambda, checked exactly."""
    pairs = [(x, y) for x, y in zip(m1.flat, m2.flat) if x != 0 or y != 0]
    if not pairs:
        return True
    x0, y0 = pairs[0]
    if x0 == 0 or y0 == 0:
        return False
    return all(x * y0 == y * x0 for x, y in pairs)


# -- sections ------------------------------------------------------------------


def check_riemann_matrices(max_rank: int, catalog: dict | None = None) -> Section:
    """z0 = gram^{-1}, compared entrywise with the published closed forms."""
    sec = Section("riemann-matrices")
    for system, data in (catalog or _catalog(max_rank)).items():
        z0, gram = data.z0, data.gram
        sec.add(f"{system}: gram * z0 = identity",
                gram * z0 == Matrix.identity(system.rank))
        sec.add(f"{system}: z0 symmetric positive definite",
                z0.is_symmetric() and z0.is_positive_definite())
        tag = str(system)
        if tag == "E7":
            same = z0 == reference.PRINTED_Z0_E7
            sec.add_documented(
                "E7: computed z0 vs printed table",
                "printed entry is the Gram matrix itself; computed inverse kept"
                if not same else "printed entry unexpectedly matches")
        elif tag == "E8":
            bad = {(i, j) for i in range(8) for j in range(8)
                   if z0[i, j] != reference.PRINTED_Z0_E8[i, j]}
            documented = {(i, j) for i in range(8) for j in range(8)
                          if (min(i, j), max(i, j)) in reference.E8_MISPRINT_CELLS}
            undocumented = bad - documented
            sec.add("E8: printed table matches outside the known misprint",
                    not undocumented,
                    f"unexpected cells: {sorted(undocumented)}" if undocumented else "")
            sec.add_documented(
                "E8: printed (6,6) entry",
                f"printed 22, computed {z0[5, 5]}" if bad & documented
                else "printed entry unexpectedly matches")
        else:
            closed = reference.closed_form_z0(system)
            sec.add(f"{system}: z0 equals published closed form", z0 == closed)
    return sec


def check_divisor_chains(max_rank: int) -> Section:
    sec = Section("torus-decompositions")
    for system in all_systems(max_rank):
        gram = gram_matrix(system)
        snf = smith_normal_form(gram)
        sec.add(f"{system}: u * gram * v = d with unimodular u, v",
                snf.u * gram * snf.v == snf.d
                and abs(snf.u.det()) == 1 and abs(snf.v.det()) == 1)
        chain = divisor_chain(system)
        sec.add(f"{system}: divisor chain equals published value",
                chain.divisors == reference.expected_divisor_chain(system),
                f"computed {chain.divisors}")
        sec.add(f"{system}: product of divisors equals det(gram)",
                prod(chain.divisors) == gram.det())
        factors = elliptic_decomposition(system).factors
        expanded = sorted((d for d, m in factors for _ in range(m)), reverse=True)
        sec.add(f"{system}: elliptic factors regroup the chain",
                tuple(expanded) == chain.divisors
                and sum(m for _, m in factors) == system.rank)
    return sec


def check_levels(max_rank: int, catalog: dict | None = None) -> Section:
    """Triple agreement: published level, largest invariant factor, z0 denominators.

    The z0 route reads the pass's z0, the one Gram inverse per system that
    riemann-matrices checks against the Gram matrix; it shares no code with
    the Smith form behind the chain route.
    """
    sec = Section("congruence-levels")
    for system, data in (catalog or _catalog(max_rank)).items():
        published = reference.expected_level(system)
        via_chain = centralizer_level(system)
        via_denoms = data.z0.denominator_lcm()
        sec.add(f"{system}: level {published} agrees across all three routes",
                published == via_chain == via_denoms,
                f"chain {via_chain}, denominators {via_denoms}")
        report = modular_curve_report(system)
        expected_curve = ("H_1/Gamma" if published == 1
                          else f"H_1/Gamma^0({published})")
        sec.add(f"{system}: curve rendered as {expected_curve}",
                report.curve == expected_curve)
    return sec


def check_witnesses(max_rank: int, catalog: dict | None = None) -> Section:
    sec = Section("family-witnesses")
    catalog = catalog or _catalog(max(max_rank, 2))  # G2 -> A2 runs at every rank

    def z0(family, n):
        return catalog[RootSystemId(family, n)].z0

    for n in range(4, max_rank + 1):
        a = reference.dn_to_cn_witness(n)
        ok = verify_family_isomorphism(a, z0("D", n), z0("C", n))
        sec.add(f"D{n} -> C{n} witness", ok)
    if max_rank >= 4:
        ok = verify_family_isomorphism(reference.d4_to_f4_witness(),
                                       z0("D", 4), z0("F", 4))
        sec.add("D4 -> F4 witness", ok)
    # G2 -> A2: the printed witness needs composition with diag(1, -1).
    printed = reference.g2_to_a2_witness_printed()
    z_g2 = z0("G", 2)
    z_a2 = z0("A", 2)
    raw = verify_family_isomorphism(printed, z_g2, z_a2)
    fixed = verify_family_isomorphism(reference.g2_to_a2_sign_fix() * printed,
                                      z_g2, z_a2)
    sec.add_documented(
        "G2 -> A2 witness as printed",
        "fails without a sign flip" if not raw else "printed form unexpectedly exact")
    sec.add("G2 -> A2 witness composed with diag(1, -1)", fixed)
    # Alternate An family: exact after the tau |-> tau/(n+1) rescale.
    for n in range(1, max_rank + 1):
        a = reference.an_alternate_witness(n)
        base = reference.an_alternate_base_printed(n)
        ok = verify_family_isomorphism(a, z0("A", n), Fraction(1, n + 1) * base)
        sec.add(f"A{n} alternate-family witness (base rescaled by 1/{n + 1})", ok)
    return sec


def check_bn_splitting(max_rank: int, catalog: dict | None = None) -> Section:
    sec = Section("principal-splittings")
    catalog = catalog or _catalog(max_rank)
    for n in range(2, max_rank + 1):
        data = catalog[RootSystemId("B", n)]
        f, d, m = reference.bn_split_witness(n)
        sec.add(f"B{n}: F z0 = diag(d) M", verify_decomposition_witness(f, d, m, data.z0))
        sec.add(f"B{n}: M = F^{{-t}}", m == f.inverse().T)
        block = Matrix.block2(f, Matrix.zeros(n), Matrix.zeros(n), m)
        sec.add(f"B{n}: diag-block(F, M) symplectic", is_symplectic(block))
        sec.add(f"B{n}: F^t F equals the Gram matrix", f.T * f == data.gram)
    return sec


def check_cyclic5_fixed_space(max_rank: int, catalog: dict | None = None) -> Section:
    sec = Section("fixed-space-rank4-order5")
    if max_rank < 4:
        return sec
    gen = embed_block_diag(reference.cyclic5_generator())
    space = fixed_symmetric_space([gen])
    m1, m2 = reference.cyclic5_fixed_span()
    sec.add("fixed space is 2-dimensional", space.dimension == 2)
    sec.add("fixed space is homogeneous (particular = 0)",
            space.particular is not None and space.particular.is_zero())
    sec.add("fixed space equals the published span (both inclusions)",
            _same_span(space.basis, (m1, m2)))
    z0_a4 = (catalog or _catalog(max_rank))[RootSystemId("A", 4)].z0
    sec.add("5 * z0(A4) equals the first published span matrix", 5 * z0_a4 == m1)
    return sec


def check_sym5_fixed_family(max_rank: int) -> Section:
    sec = Section("fixed-family-rank6-sym5")
    if max_rank < 6:
        return sec
    g1, g2 = reference.sym5_degree6_generators()
    sec.add("first generator is symplectic", is_symplectic(g1))
    sec.add("second generator is symplectic", is_symplectic(g2))
    space = fixed_symmetric_space([SymplecticMat(6, g1), SymplecticMat(6, g2)])
    constant, linear = reference.sym5_fixed_family()
    sec.add("fixed family is a line (one basis matrix)", space.dimension == 1)
    sec.add("basis matrix equals the published linear part",
            space.dimension == 1 and space.basis[0] == linear)
    sec.add("particular part equals the published constant part",
            space.particular == constant)
    return sec


def _elements_preserve_form(group, gram):
    """Exhaustive g^t * gram * g == gram, read on the rows of h = g^t.

    ``group`` is the closure of the transposed reflections. Returns None
    when every element passes, else the first failure as (element index,
    (i, j), computed, expected): the first h in BFS order (``group.found``,
    so g = ``group.elements[index].T``) that fails, and its first wrong
    cell of g^t * gram * g column by column.

    Row i of h is the root g(alpha_i), so the rows are interned roots, and
    cell (i, j) of g^t * gram * g is row_i . (gram * row_j): it depends
    only on the ids of rows i and j, which ``group.found`` already stores.
    Only the upper triangle is compared, one cell at a time: a value is
    computed once per distinct pair of row ids, each cell keeps its wrong
    pairs, and the witness is read off those tables.
    """
    if not gram.is_symmetric():
        raise ValueError("symmetric form required")
    n = group.dimension
    vectors = group.vectors
    s_rows = gram.rows()
    s_flat = gram.flat
    s_vecs = [tuple(sum(map(mul, row, vec)) for row in s_rows) for vec in vectors]
    # by_row[r][e] is the row id of row r of element e.
    by_row = list(zip(*group.found))
    values = {}  # (a, b) -> vectors[a] . s_vecs[b]
    wrong = []  # (i, j, the pairs wrong in cell (i, j)), column by column
    for j in range(n):
        for i in range(j + 1):
            expected = s_flat[i * n + j]
            bad = set()
            for pair in set(zip(by_row[i], by_row[j])):
                value = values.get(pair)
                if value is None:
                    a, b = pair
                    value = values[pair] = sum(map(mul, vectors[a], s_vecs[b]))
                if value != expected:
                    bad.add(pair)
            if bad:
                wrong.append((i, j, bad))
    return next(((index, (i, j), values[r[i], r[j]], s_flat[i * n + j])
                 for index, r in enumerate(group.found)
                 for i, j, bad in wrong if (r[i], r[j]) in bad), None)


def check_group_orders(max_rank: int, catalog: dict | None = None) -> Section:
    """Orders by closure of the transposed simple reflections (transposing
    keeps the order), each element checked against the Gram form; groups
    over ``ENUMERATION_LIMIT`` get generator-level checks only."""
    sec = Section("reflection-group-orders")
    for system, data in (catalog or _catalog(max_rank)).items():
        refl, gram = data.reflections, data.gram
        order = expected_order(system)
        if order <= ENUMERATION_LIMIT:
            group = generate_group([g.T for g in refl], ENUMERATION_LIMIT + 1)
            sec.add(f"{system}: enumerated order {group.order} = expected {order}",
                    not group.truncated and group.order == order)
            witness = _elements_preserve_form(group, gram)
            detail = ""
            if witness is not None:
                index, cell, value, expected = witness
                detail = (f"element {index}: entry {cell} of g^t * gram * g "
                          f"is {value}, expected {expected}")
            sec.add(f"{system}: every element preserves the Gram form",
                    witness is None, detail)
        else:
            # g * g == I forces det(g) = +-1, so no determinant is taken.
            ok = (check_invariance(refl, gram)
                  and all(g * g == Matrix.identity(system.rank) for g in refl))
            sec.add(f"{system}: generator-level checks (order {order} not enumerated)",
                    ok)
    return sec


def check_degrees(max_rank: int) -> Section:
    sec = Section("coroot-polarization-degrees")
    for system in all_systems(max_rank):
        computed = coroot_polarization_degree(system)
        expected = reference.expected_degree(system)
        note = reference.DEGREE_LIST_NOTE if str(system) == "E7" else ""
        sec.add(f"{system}: degree {computed} = expected {expected}",
                computed == expected, note)
    return sec


def check_properties(max_rank: int, catalog: dict | None = None) -> Section:
    """Structural properties: homomorphism, fixed points, fixed space, centralizer.

    Each system's embedded simple reflections are computed once and shared,
    with the pass's z0, by the last three checks. The homomorphism check
    embeds its own random words, since it is the check of
    ``embed_block_diag``. A failing check names its first failing system and
    generator (or word) in detail.
    """
    sec = Section("structural-properties")
    rng = random.Random(20240601)
    catalog = catalog or _catalog(max_rank)
    systems = list(catalog)

    failure = ""
    for index in range(100):
        system = rng.choice(systems)
        refl = catalog[system].reflections
        w1 = Matrix.identity(system.rank)
        w2 = Matrix.identity(system.rank)
        for _ in range(rng.randrange(1, 6)):
            w1 = w1 * rng.choice(refl)
        for _ in range(rng.randrange(1, 6)):
            w2 = w2 * rng.choice(refl)
        lhs = embed_block_diag(w1).m * embed_block_diag(w2).m
        if lhs != embed_block_diag(w1 * w2).m:
            failure = f"word pair {index} ({system}): embedding of w1 * w2 differs"
        elif not is_symplectic(lhs):
            failure = f"word pair {index} ({system}): product is not symplectic"
        if failure:
            break
    sec.add("embedding is a homomorphism on 100 random words", not failure, failure)

    embedded = {system: [embed_block_diag(r) for r in data.reflections]
                for system, data in catalog.items()}

    failure = ""
    for system in systems:
        z0 = catalog[system].z0
        moved = next((k for k, emb in enumerate(embedded[system])
                      if modular_action(emb, z0) != z0), None)
        if moved is not None:
            failure = f"{system}: simple reflection {moved} moves z0"
            break
        moved = next((k for k, auto in enumerate(diagram_automorphisms(system))
                      if auto.T * z0 * auto != z0), None)
        if moved is not None:
            failure = f"{system}: diagram automorphism {moved} moves z0"
            break
    sec.add("every simple reflection fixes z0 under the Siegel action",
            not failure, failure)

    failure = ""
    for system in systems:
        if system.rank > 6:
            continue
        space = fixed_symmetric_space(embedded[system])
        if space.dimension != 1:
            failure = f"{system}: fixed space has dimension {space.dimension}"
        elif not _proportional(space.basis[0], catalog[system].z0):
            failure = f"{system}: fixed line is not spanned by z0"
        if failure:
            break
    sec.add("full reflection set fixes exactly the line through z0 (rank <= 6)",
            not failure, failure)

    failure = ""
    for system in systems:
        if system.rank > 4:
            continue
        level = centralizer_level(system)
        elements = [(params, centralizer_element(system, *params).m)
                    for params in ((1, level, 0, 1), (1, 0, 1, 1), (1, 0, 0, 1))]
        gens = (("simple reflection", embedded[system]),
                ("diagram automorphism",
                 [embed_block_diag(auto) for auto in diagram_automorphisms(system)]))
        hit = next(((params, kind, k) for params, el in elements
                    for kind, embs in gens for k, emb in enumerate(embs)
                    if el * emb.m != emb.m * el), None)
        if hit is not None:
            params, kind, k = hit
            failure = (f"{system}: centralizer element {params} does not "
                       f"commute with {kind} {k}")
            break
    sec.add("centralizer elements commute with the embedded action (rank <= 4)",
            not failure, failure)
    return sec


# -- assembly ------------------------------------------------------------------


def run_verification(max_rank: int) -> dict:
    """Run every section and return a JSON-ready report."""
    if max_rank < 2:
        raise ValueError("max rank must be at least 2")
    catalog = _catalog(max_rank)
    sections = [
        check_riemann_matrices(max_rank, catalog),
        check_divisor_chains(max_rank),
        check_levels(max_rank, catalog),
        check_witnesses(max_rank, catalog),
        check_bn_splitting(max_rank, catalog),
        check_cyclic5_fixed_space(max_rank, catalog),
        check_sym5_fixed_family(max_rank),
        check_group_orders(max_rank, catalog),
        check_degrees(max_rank),
        check_properties(max_rank, catalog),
    ]
    counts = {PASS: 0, DOCUMENTED: 0, FAIL: 0}
    out_sections = []
    for sec in sections:
        checks = []
        for check in sec.checks:
            counts[check.status] += 1
            entry = {"name": check.name, "status": check.status}
            if check.detail:
                entry["detail"] = check.detail
            checks.append(entry)
        out_sections.append({"name": sec.name, "checks": checks})
    return {
        "max_rank": max_rank,
        "sections": out_sections,
        "summary": {
            "pass": counts[PASS],
            "documented_discrepancy": counts[DOCUMENTED],
            "fail": counts[FAIL],
        },
        "status": PASS if counts[FAIL] == 0 else FAIL,
    }
