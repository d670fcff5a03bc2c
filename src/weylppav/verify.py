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
from functools import reduce
from math import prod
from operator import mul

from . import reference
from .centralizer import centralizer_element, curve_description
from .exactmat import Matrix, _echelon, _is_involution, _moved_columns
from .ppav import Family, coroot_polarization_degree, group_divisors
from .rootsys import RootSystemId, all_systems, diagram_automorphisms
from .symplectic import (SymplecticMat, _primitive, _sym_index, embed_block_diag,
                         fixed_space_equations, is_symplectic, sym_to_vec,
                         verify_decomposition_witness, verify_family_isomorphism)
from .weyl import check_invariance, coset_closure, expected_order, poincare_polynomial

PASS = "pass"
FAIL = "fail"
DOCUMENTED = "documented-discrepancy"

# Largest groups checked whole, by their coset certificates; bigger ones
# get generator-level checks only.
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


def _fixed_space(gens, particular: Matrix, basis) -> tuple:
    """(dimension, free coordinates, failure of the particular part, failure
    of the basis) of the symmetric matrices fixed by ``gens``, against the
    published answer particular + span(basis).

    One ``_echelon`` pass over ``fixed_space_equations`` gives the kernel;
    its free coordinates (i, j) are the columns without a pivot, as in the
    reduced row echelon form: those that combine the columns before them.
    Each published matrix, read by its numerators, must be symmetric n x n,
    the particular part a solution, each basis matrix a homogeneous one, and
    the basis independent and as large as the dimension. A failure is the
    first check of its part that fails: "<matrix> is r x c, expected n x n",
    "<matrix> is not symmetric", "<matrix> fails equation k", "the basis
    matrices are dependent" or "fixed space has dimension d, not k"; empty
    if none does.
    """
    n = gens[0].n
    coords = _sym_index(n)
    rows, rhs = fixed_space_equations(gens)

    def failure(label, m, target):
        if (m.nrows, m.ncols) != (n, n):
            return f"{label} is {m.nrows} x {m.ncols}, expected {n} x {n}"
        if not m.is_symmetric():
            return f"{label} is not symmetric"
        num, q = m.numerators, m.denominator
        terms = [(u, x) for u, (i, j) in enumerate(coords) if (x := num[i * n + j])]
        return next((f"{label} fails equation {k}" for k, (row, r) in enumerate(zip(rows, target))
                     if sum(row[u] * x for u, x in terms) != q * r), "")

    wrong_particular = failure("particular part", particular, rhs)
    wrong_basis = next(filter(None, (failure(f"basis matrix {k}", m, [0] * len(rows))
                                     for k, m in enumerate(basis))), "")
    size = len(coords)
    pivots, _ = _echelon(rows, size)  # in place: the substitutions are done
    dimension = size - len(pivots)
    if not wrong_basis:
        vecs = [[m.numerators[i * n + j] for i, j in coords] for m in basis]
        if len(_echelon(vecs, size)[0]) < len(vecs):
            wrong_basis = "the basis matrices are dependent"
        elif len(vecs) != dimension:
            wrong_basis = f"fixed space has dimension {dimension}, not {len(vecs)}"
    free = sorted(set(coords).difference(coords[c] for _, c in pivots))
    return dimension, free, wrong_particular, wrong_basis


def _catalog(max_rank: int) -> dict:
    """Every system through max_rank -> its ``Family``, in catalog order.

    ``run_verification`` builds this once and hands it to every section that
    reads it: one Smith form per system per pass, which gives both the
    divisor chain and z0. No Gram matrix is inverted.
    """
    return {system: Family.from_system(system) for system in all_systems(max_rank)}


def _embedded(system, reflections) -> tuple:
    """(the ``embed_block_diag`` of each simple reflection, ""), or (None,
    "<system>: simple reflection <k>: <error>") for the first it refuses.
    Every line that a refused reflection fails carries this detail, the
    order line too when the coset certificate declines."""
    out = []
    for k, r in enumerate(reflections):
        try:
            out.append(embed_block_diag(r))
        except ValueError as exc:  # NonUnimodular, or not a square integer matrix
            return None, f"{system}: simple reflection {k}: {exc}"
    return out, ""


def _first_wrong_cell(label: str, computed: Matrix, expected: Matrix) -> str:
    """The first cell, row by row, in which the matrices differ, as "entry
    (i, j) of <label> is <computed>, expected <expected>"; the two shapes if
    they differ; empty if the matrices are equal."""
    if (computed.nrows, computed.ncols) != (expected.nrows, expected.ncols):
        return (f"{label} is {computed.nrows} x {computed.ncols}, "
                f"expected {expected.nrows} x {expected.ncols}")
    if computed == expected:
        return ""
    n = expected.ncols
    return next((f"entry {divmod(k, n)} of {label} is {x}, expected {y}"
                 for k, (x, y) in enumerate(zip(computed.flat, expected.flat)) if x != y), "")


def _definiteness_witness(z0: Matrix) -> str:
    """Why z0 is not symmetric positive definite: its first cell, row by row,
    that differs from z0^t (always above the diagonal), else its first
    leading principal minor that is <= 0, taken only then; empty if it is."""
    wrong = _first_wrong_cell("z0", z0, z0.T)
    if wrong or z0.is_positive_definite():
        return wrong
    return next(f"leading principal minor {k} of z0 is {minor}" for k in range(1, z0.nrows + 1)
                if (minor := z0.submatrix(0, k, 0, k).det()) <= 0)


def _isomorphism_witness(source: str, a: Matrix, z1: Matrix, z2: Matrix) -> str:
    """Why the family witness a, named by ``source``, fails a z1 a^t = z2:
    "<source>: <error>" for a matrix refused as not unimodular, else the
    first wrong cell of a z1 a^t; empty if it holds."""
    try:
        if verify_family_isomorphism(a, z1, z2):
            return ""
    except ValueError as exc:  # NonUnimodular, or not a square integer matrix
        return f"{source}: {exc}"
    return _first_wrong_cell("a * z1 * a^t", a * z1 * a.T, z2)


# -- sections ------------------------------------------------------------------


def check_riemann_matrices(max_rank: int, catalog: dict) -> Section:
    """z0 = gram^{-1}, compared entrywise with the published closed forms.

    A failing identity or closed-form check names its first wrong cell.
    """
    sec = Section("riemann-matrices")
    for system, family in catalog.items():
        z0, gram = family.z0, family.form
        wrong = _first_wrong_cell("gram * z0", gram * z0, Matrix.identity(system.rank))
        sec.add(f"{system}: gram * z0 = identity", not wrong, wrong)
        wrong = _definiteness_witness(z0)
        sec.add(f"{system}: z0 symmetric positive definite", not wrong, wrong)
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
            wrong = _first_wrong_cell("z0", z0, reference.closed_form_z0(system))
            sec.add(f"{system}: z0 equals published closed form", not wrong, wrong)
    return sec


def check_divisor_chains(max_rank: int, catalog: dict) -> Section:
    """The Smith form each family's chain and z0 were read from, and the
    divisor chain of each Gram matrix. A failing line names its witness:
    the first wrong cell, the non-integral factor, the two numbers that
    differ or the regrouped chain."""
    sec = Section("torus-decompositions")
    for system, family in catalog.items():
        gram, chain, snf = family.form, family.chain, family.snf
        det = gram.det()
        diag = snf.diagonal()
        # det(u) * det(gram) * det(v) = prod(d); with prod(d) = det(gram) != 0
        # that leaves det(u) * det(v) = 1, so integral u and v are unimodular.
        wrong = (_first_wrong_cell("u * gram * v", snf.u * gram * snf.v, snf.d)
                 or _first_wrong_cell("d", snf.d, Matrix.diagonal(diag))
                 or ("" if snf.u.is_integral() else "u is not integral")
                 or ("" if snf.v.is_integral() else "v is not integral")
                 or ("" if prod(diag) == det != 0
                     else f"product of d is {prod(diag)}, det(gram) is {det}"))
        sec.add(f"{system}: u * gram * v = d with unimodular u, v", not wrong, wrong)
        sec.add(f"{system}: divisor chain equals published value",
                chain.divisors == reference.expected_divisor_chain(system),
                f"computed {chain.divisors}")
        ok = prod(chain.divisors) == det
        sec.add(f"{system}: product of divisors equals det(gram)", ok,
                "" if ok else f"product of divisors is {prod(chain.divisors)}, "
                              f"det(gram) is {det}")
        factors = group_divisors(chain).factors
        expanded = tuple(sorted((d for d, m in factors for _ in range(m)), reverse=True))
        ok = expanded == chain.divisors and sum(m for _, m in factors) == system.rank
        sec.add(f"{system}: elliptic factors regroup the chain", ok,
                "" if ok else f"regrouped chain {expanded}")
    return sec


def check_levels(max_rank: int, catalog: dict) -> Section:
    """Triple agreement: published level, largest invariant factor, z0 denominators.

    The chain route reads ``Family.level`` off the pass's divisor chain; the
    z0 route reads the denominators of the pass's z0. Both come from one
    Smith form, but riemann-matrices certifies z0 by the product
    gram * z0 = identity, which shares no code with it, and the inverse is
    unique, so the z0 route is a check of its own.
    """
    sec = Section("congruence-levels")
    for system, family in catalog.items():
        published = reference.expected_level(system)
        via_chain = family.level
        via_denoms = family.z0.denominator
        sec.add(f"{system}: level {published} agrees across all three routes",
                published == via_chain == via_denoms,
                f"chain {via_chain}, denominators {via_denoms}")
        expected_curve = "H_1/Gamma" if published == 1 else f"H_1/Gamma^0({published})"
        sec.add(f"{system}: curve rendered as {expected_curve}",
                curve_description(published) == expected_curve)
    return sec


def check_witnesses(max_rank: int, catalog: dict) -> Section:
    """Each family witness a, checked by a z1 a^t = z2. A failing line names
    the reference function whose witness is refused as not unimodular, or
    the first wrong cell of a z1 a^t."""
    sec = Section("family-witnesses")

    def z0(family, n):
        return catalog[RootSystemId(family, n)].z0

    for n in range(4, max_rank + 1):
        wrong = _isomorphism_witness(f"reference.dn_to_cn_witness({n})",
                                     reference.dn_to_cn_witness(n), z0("D", n), z0("C", n))
        sec.add(f"D{n} -> C{n} witness", not wrong, wrong)
    if max_rank >= 4:
        wrong = _isomorphism_witness("reference.d4_to_f4_witness()",
                                     reference.d4_to_f4_witness(), z0("D", 4), z0("F", 4))
        sec.add("D4 -> F4 witness", not wrong, wrong)
    # G2 -> A2: the printed witness needs composition with diag(1, -1).
    printed = reference.g2_to_a2_witness_printed()
    z_g2 = z0("G", 2)
    z_a2 = z0("A", 2)
    raw = _isomorphism_witness("reference.g2_to_a2_witness_printed()", printed, z_g2, z_a2)
    sec.add_documented(
        "G2 -> A2 witness as printed",
        "fails without a sign flip" if raw else "printed form unexpectedly exact")
    wrong = _isomorphism_witness(
        "reference.g2_to_a2_sign_fix() * reference.g2_to_a2_witness_printed()",
        reference.g2_to_a2_sign_fix() * printed, z_g2, z_a2)
    sec.add("G2 -> A2 witness composed with diag(1, -1)", not wrong, wrong)
    # Alternate An family: exact after the tau |-> tau/(n+1) rescale.
    for n in range(1, max_rank + 1):
        base = reference.an_alternate_base_printed(n)
        wrong = _isomorphism_witness(f"reference.an_alternate_witness({n})",
                                     reference.an_alternate_witness(n), z0("A", n),
                                     Fraction(1, n + 1) * base)
        sec.add(f"A{n} alternate-family witness (base rescaled by 1/{n + 1})", not wrong, wrong)
    return sec


def check_bn_splitting(max_rank: int, catalog: dict) -> Section:
    """The B_n splitting witness (F, d, M). A failing line names the
    reference function if F is refused as not unimodular, and each line
    that compares two matrices names its first wrong cell."""
    sec = Section("principal-splittings")
    for n in range(2, max_rank + 1):
        family = catalog[RootSystemId("B", n)]
        f, d, m = reference.bn_split_witness(n)
        try:
            ok = verify_decomposition_witness(f, d, m, family.z0)
            wrong = "" if ok else _first_wrong_cell("F z0", f * family.z0,
                                                    Matrix.diagonal(list(d)) * m)
        except ValueError as exc:  # NonUnimodular, or not a square integer matrix
            wrong = f"reference.bn_split_witness({n}): {exc}"
        sec.add(f"B{n}: F z0 = diag(d) M", not wrong, wrong)
        wrong = _first_wrong_cell("F * M^t", f * m.T, Matrix.identity(n))  # for square F
        sec.add(f"B{n}: M = F^{{-t}}", not wrong, wrong)
        block = Matrix.block2(f, Matrix.zeros(n), Matrix.zeros(n), m)
        # For a block-diagonal matrix, is_symplectic tests F^t * M = I.
        wrong = "" if is_symplectic(block) else _first_wrong_cell(
            "F^t * M", f.T * m, Matrix.identity(n))
        sec.add(f"B{n}: diag-block(F, M) symplectic", not wrong, wrong)
        wrong = _first_wrong_cell("F^t F", f.T * f, family.form)
        sec.add(f"B{n}: F^t F equals the Gram matrix", not wrong, wrong)
    return sec


def check_cyclic5_fixed_space(max_rank: int, catalog: dict) -> Section:
    """The forms fixed by the order-5 generator, against the published
    answer 0 + span(m1, m2), by ``_fixed_space``. An embedded generator has
    B = 0, so 0 solves its equations, and the span is the fixed space when
    m1 and m2 are independent solutions and the kernel has dimension 2. A
    failing line names the dimension found, the first failed check of the
    particular part or of the span, or the first wrong cell.
    """
    sec = Section("fixed-space-rank4-order5")
    if max_rank < 4:
        return sec
    m1, m2 = reference.cyclic5_fixed_span()
    try:
        gen = embed_block_diag(reference.cyclic5_generator())
    except ValueError as exc:  # NonUnimodular, or not a square integer matrix
        sec.add("order-5 generator embeds symplectically", False,
                f"reference.cyclic5_generator(): {exc}")
    else:
        dimension, _, wrong_zero, wrong_span = _fixed_space([gen], Matrix.zeros(gen.n), (m1, m2))
        sec.add("fixed space is 2-dimensional", dimension == 2,
                "" if dimension == 2 else f"dimension {dimension}")
        sec.add("fixed space is homogeneous (particular = 0)", not wrong_zero, wrong_zero)
        sec.add("fixed space equals the published span (both inclusions)", not wrong_span,
                wrong_span)
    wrong = _first_wrong_cell("5 * z0(A4)", 5 * catalog[RootSystemId("A", 4)].z0, m1)
    sec.add("5 * z0(A4) equals the first published span matrix", not wrong, wrong)
    return sec


def check_sym5_fixed_family(max_rank: int) -> Section:
    """The family fixed by the degree-6 generators, against the published
    answer constant + span(L), by ``_fixed_space``. The lines compare it
    with the normal form of ``fixed_symmetric_space``, read off the free
    coordinates: its particular part is the solution that is 0 at each of
    them, and on a line its basis matrix is the kernel vector made
    primitive and integral with a positive leading entry. A failing line
    names the generator, the dimension found, or the first failed check.
    """
    sec = Section("fixed-family-rank6-sym5")
    if max_rank < 6:
        return sec
    gens = reference.sym5_degree6_generators()
    for k, (word, g) in enumerate(zip(("first", "second"), gens)):
        ok = is_symplectic(g)
        sec.add(f"{word} generator is symplectic", ok,
                "" if ok else f"reference.sym5_degree6_generators()[{k}]: m^t J m != J")
    if any(c.status == FAIL for c in sec.checks):
        return sec  # a fixed family needs symplectic generators
    gens = [SymplecticMat._certified(g.nrows // 2, g) for g in gens]  # symplectic, above
    constant, linear = reference.sym5_fixed_family()
    dimension, free, wrong_constant, wrong_linear = _fixed_space(gens, constant, (linear,))
    sec.add("fixed family is a line (one basis matrix)", dimension == 1,
            "" if dimension == 1 else f"dimension {dimension}")
    if not wrong_linear and (lv := sym_to_vec(linear)) != (p := _primitive(lv)):
        ratio = next(Fraction(x) / y for x, y in zip(lv, p) if y)  # L != 0 lies on the line
        wrong_linear = f"basis matrix 0 is {ratio} times the primitive kernel vector"
    sec.add("basis matrix equals the published linear part", not wrong_linear, wrong_linear)
    if not wrong_constant:
        wrong_constant = next((f"particular part is {x} at free coordinate {ij}"
                               for ij in free if (x := constant[ij])), "")
    sec.add("particular part equals the published constant part", not wrong_constant,
            wrong_constant)
    return sec


def check_group_orders(max_rank: int, catalog: dict) -> Section:
    """Orders and length grading by coset certificate; the Gram form by generators.

    A group of at most ``ENUMERATION_LIMIT`` elements is certified from the
    transposed simple reflections, which keeps each element's length. It
    must have the classical order, and level sizes equal to the Poincare
    polynomial of the invariant degrees (a failure gives both). Every
    system's own ``weyl.coset_closure`` gives them, as W_J * T for the
    orbit T of a vector fixed by all reflections but the first, checked
    exactly to be the group with distinct products and the breadth-first
    grading, W_J by the same certificate. When the certificate declines,
    the order line fails with "<system>: simple reflection <k>: <error>"
    for a reflection ``_embedded`` refuses, else with "<system>: <reason>",
    the check that ``coset_closure`` names.
    Every element preserves the Gram form iff the simple reflections do: one
    ``check_invariance`` call per system, and one per reflection only to name
    the first that fails, with its first wrong cell. Larger groups get that
    check and g * g == I in one generator-level check.
    """
    sec = Section("reflection-group-orders")
    for system, family in catalog.items():
        refl, gram = family.generators, family.form
        order = expected_order(system)
        # The dense image is formed only to name the failing cell.
        wrong = "" if check_invariance(refl, gram) else next(
            f"simple reflection {k}: "
            + _first_wrong_cell("g^t * gram * g", g.T * gram * g, gram)
            for k, g in enumerate(refl) if not check_invariance([g], gram))
        if order > ENUMERATION_LIMIT:
            # g * g == I forces det(g) = +-1, so no determinant is taken.
            wrong = wrong or next((f"simple reflection {k}: g * g != I"
                                   for k, g in enumerate(refl)
                                   if not _is_involution(_moved_columns(g))), "")
            sec.add(f"{system}: generator-level checks (order {order} not enumerated)",
                    not wrong, wrong)
            continue
        closure = coset_closure([g.T for g in refl], ENUMERATION_LIMIT)
        if isinstance(closure, str):
            sec.add(f"{system}: enumerated order = expected {order}", False,
                    _embedded(system, refl)[1] or f"{system}: {closure}")
        else:
            found, grading = closure
            levels = poincare_polynomial(reference.invariant_degrees(system))
            ok = found == order and grading == levels
            sec.add(f"{system}: enumerated order {found} = expected {order}", ok,
                    "" if ok else f"levels {grading}, expected {levels}")
        sec.add(f"{system}: every element preserves the Gram form", not wrong, wrong)
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


def check_properties(max_rank: int, catalog: dict) -> Section:
    """Structural properties: homomorphism, fixed points, fixed space, centralizer.

    The fixed-point check tests each simple reflection s and diagram
    automorphism against the pass's z0 without embedding either: for
    diag(s, s^{-t}) the Siegel action is z -> s z s^t, and an automorphism
    p acts as z -> p^t z p, both decided by ``check_invariance``. The
    embedded simple reflections are computed once, only for the systems of
    rank <= 6 that the fixed-space and centralizer checks read; the
    centralizer check reads the level, z0 and the form off the pass's
    family. The homomorphism check embeds its own random words, since it is
    the check of ``embed_block_diag``. A failing check names its first
    failing system and generator (or word) in detail, and a reflection
    ``embed_block_diag`` refuses fails each check that embeds it.
    """
    sec = Section("structural-properties")
    rng = random.Random(20240601)
    systems = list(catalog)

    failure = ""
    for index in range(100):
        system = rng.choice(systems)
        refl = catalog[system].generators
        w1 = reduce(mul, [rng.choice(refl) for _ in range(rng.randrange(1, 6))])
        w2 = reduce(mul, [rng.choice(refl) for _ in range(rng.randrange(1, 6))])
        try:
            lhs = embed_block_diag(w1).m * embed_block_diag(w2).m
            rhs = embed_block_diag(w1 * w2).m
        except ValueError as exc:  # a word is refused only if a reflection is
            failure = f"word pair {index}: {_embedded(system, refl)[1] or exc}"
            break
        if lhs != rhs:
            failure = f"word pair {index} ({system}): embedding of w1 * w2 differs"
        elif not is_symplectic(lhs):
            failure = f"word pair {index} ({system}): product is not symplectic"
        if failure:
            break
    sec.add("embedding is a homomorphism on 100 random words", not failure, failure)

    failure = ""
    for system in systems:
        z0 = catalog[system].z0
        # s z0 s^t = z0 is g^t z0 g = z0 for g = s^t.
        for kind, gens in (("simple reflection", [r.T for r in catalog[system].generators]),
                           ("diagram automorphism", diagram_automorphisms(system))):
            if not check_invariance(gens, z0):
                moved = next(k for k, g in enumerate(gens) if not check_invariance([g], z0))
                failure = f"{system}: {kind} {moved} moves z0"
                break
        if failure:
            break
    sec.add("every simple reflection fixes z0 under the Siegel action",
            not failure, failure)

    embedded = {system: _embedded(system, family.generators)
                for system, family in catalog.items() if system.rank <= 6}

    failure = ""
    for system in systems:
        if system.rank > 6:
            continue
        embs, failure = embedded[system]
        if failure:
            break
        # An embedded reflection has B = 0, so the fixed space is a kernel, and
        # a nonzero solution z0 spans it when it has dimension 1.
        dimension, _, _, wrong = _fixed_space(embs, Matrix.zeros(system.rank),
                                              (catalog[system].z0,))
        if dimension != 1:
            failure = f"{system}: fixed space has dimension {dimension}"
        elif wrong:
            failure = f"{system}: fixed line is not spanned by z0"
        if failure:
            break
    sec.add("full reflection set fixes exactly the line through z0 (rank <= 6)",
            not failure, failure)

    failure = ""
    for system in systems:
        if system.rank > 4:
            continue
        embs, failure = embedded[system]
        if failure:
            break
        family = catalog[system]
        elements = [(params, centralizer_element(family, *params).m)
                    for params in ((1, family.level, 0, 1), (1, 0, 1, 1), (1, 0, 0, 1))]
        gens = (("simple reflection", embs),
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
        check_divisor_chains(max_rank, catalog),
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
