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
from math import gcd, prod
from operator import mul

from . import reference
from .centralizer import centralizer_element, curve_description
from .exactmat import Matrix, NonUnimodular, _is_involution, _moved_columns
from .ppav import Family, coroot_polarization_degree, group_divisors
from .rootsys import RootSystemId, all_systems, diagram_automorphisms
from .symplectic import (AffineMatrixSpace, SymplecticMat, _sym_index, embed_block_diag,
                         fixed_space_equations, fixed_symmetric_space, is_symplectic,
                         sym_to_vec, verify_decomposition_witness, verify_family_isomorphism)
from .weyl import (check_invariance, coset_closure, expected_order, generate_group,
                   poincare_polynomial)

PASS = "pass"
FAIL = "fail"
DOCUMENTED = "documented-discrepancy"

# Largest groups checked whole, by coset certificate or closure; bigger
# ones get generator-level checks only.
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
    """Is vec a rational combination of basis_vecs? Exactly when adding it
    leaves the rank unchanged."""
    if not basis_vecs:
        return all(x == 0 for x in vec)
    return Matrix([*basis_vecs, vec]).rank() == Matrix(list(basis_vecs)).rank()


def _span_witness(computed, published, n: int) -> str:
    """Why two lists of symmetric n x n matrices do not span one space with
    equally many matrices: the first published matrix of another size, else
    the first matrix, computed side first, outside the other side's span,
    else the two counts; empty if they do."""
    wrong_size = next((f"published span matrix {k} is {m.nrows} x {m.ncols}, "
                       f"expected {n} x {n}" for k, m in enumerate(published)
                       if (m.nrows, m.ncols) != (n, n)), "")
    if wrong_size:
        return wrong_size
    vecs_a = [sym_to_vec(m) for m in computed]
    vecs_b = [sym_to_vec(m) for m in published]
    return (next((f"computed basis matrix {k} lies outside the published span"
                  for k, v in enumerate(vecs_a) if not _spanned_by(v, vecs_b)), "")
            or next((f"published span matrix {k} lies outside the computed span"
                     for k, v in enumerate(vecs_b) if not _spanned_by(v, vecs_a)), "")
            or ("" if len(vecs_a) == len(vecs_b)
                else f"{len(vecs_a)} computed matrices, {len(vecs_b)} published"))


def _certified_fixed_space(gens, particular: Matrix, basis) -> bool:
    """Do substitution and two integer ranks prove that the symmetric
    matrices fixed by ``gens`` are exactly particular + span(basis), with
    independent basis matrices?

    Every published matrix must be a symmetric n x n matrix. In the
    coordinates of ``sym_to_vec``, the particular part must satisfy the
    integer equations of ``fixed_space_equations`` and each basis matrix
    their homogeneous part, so particular + span(basis) lies in the
    solution set. The equations' Bareiss rank must be n(n+1)/2 less the
    number of basis matrices, and one Bareiss rank must find those matrices
    independent; then they span the whole kernel, and the two sets are one.
    """
    n = gens[0].n
    size = n * (n + 1) // 2
    if not all(m.nrows == n and m.is_symmetric() for m in (particular, *basis)):
        return False
    rows, rhs = fixed_space_equations(gens)
    p, vecs = sym_to_vec(particular), [sym_to_vec(m) for m in basis]

    def dot(row, vec):
        return sum(c * x for c, x in zip(row, vec) if c)

    return (all(dot(row, p) == r and not any(dot(row, v) for v in vecs)
                for row, r in zip(rows, rhs))
            and Matrix(rows or [[0] * size]).rank() == size - len(vecs)
            and (not vecs or Matrix(vecs).rank() == len(vecs)))


def _solver_line(constant: Matrix, linear: Matrix) -> bool:
    """Are ``linear`` and ``constant``, a certified line and a point on it,
    the kernel vector and particular part that ``fixed_symmetric_space``
    gives: L integral and primitive with a positive leading entry, and the
    constant 0 at f, the last nonzero coordinate of L (its free column)?"""
    lv = sym_to_vec(linear)
    f = max(k for k, x in enumerate(lv) if x)  # L != 0, as it is certified independent
    return (linear.is_integral() and gcd(*lv) == 1 and next(filter(None, lv)) > 0
            and sym_to_vec(constant)[f] == 0)


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
    Every line that a refused reflection fails carries this detail; the
    closure line builds it from ``generate_group``'s refusal."""
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
    """The forms fixed by the order-5 generator. A failing line names the
    dimension found, the first nonzero cell of the particular part, the
    first matrix outside the other span, or the first wrong cell.

    The published answer is 0 + span(m1, m2). ``_certified_fixed_space``
    proves it by substitution and two Bareiss ranks: the right-hand side is
    0, m1 and m2 are independent solutions, and the kernel has dimension 2.
    The solver's particular part is then 0 and its basis spans the same
    two-dimensional space, so every line below reads the same on the
    published answer as on the solver's. Only when the certificate declines
    does ``fixed_symmetric_space`` run, so that each failing line names its
    witness.
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
        zero = Matrix.zeros(gen.n)
        space = (AffineMatrixSpace(n=gen.n, particular=zero, basis=(m1, m2))
                 if _certified_fixed_space([gen], zero, (m1, m2))
                 else fixed_symmetric_space([gen]))
        ok = space.dimension == 2
        sec.add("fixed space is 2-dimensional", ok,
                "" if ok else f"dimension {space.dimension}")
        wrong = ("no solution" if space.particular is None
                 else _first_wrong_cell("particular", space.particular, Matrix.zeros(space.n)))
        sec.add("fixed space is homogeneous (particular = 0)", not wrong, wrong)
        wrong = _span_witness(space.basis, (m1, m2), space.n)
        sec.add("fixed space equals the published span (both inclusions)", not wrong, wrong)
    wrong = _first_wrong_cell("5 * z0(A4)", 5 * catalog[RootSystemId("A", 4)].z0, m1)
    sec.add("5 * z0(A4) equals the first published span matrix", not wrong, wrong)
    return sec


def check_sym5_fixed_family(max_rank: int) -> Section:
    """The family fixed by the degree-6 generators. A failing line names the
    generator, the dimension found, "no solution" or the first wrong cell.

    The published answer is constant + span(L), which the lines compare
    with the solver's particular part and its one basis matrix.
    ``_certified_fixed_space`` proves that it is the fixed set, with L
    spanning the kernel. That fixes what the solver returns. Its reduced
    row echelon form leaves column c free exactly when column c of the
    equations is a combination of the columns before it, that is, when
    some kernel vector has its last nonzero coordinate at c. The kernel is
    the line through L, so the one free column is f, the last nonzero
    coordinate of L. The solver's kernel vector is the one with a 1 at f,
    L / L_f, scaled to the primitive integer vector with a positive leading
    entry: L itself, when L is integral and primitive with a positive
    leading entry. Its particular part is the solution that is 0 at f:
    the constant part, when that is 0 at f. So when all of this holds,
    the solver would return exactly the published answer, and it is not
    run. Otherwise ``fixed_symmetric_space`` runs, so that each failing
    line names its witness.
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
    space = (AffineMatrixSpace(n=gens[0].n, particular=constant, basis=(linear,))
             if _certified_fixed_space(gens, constant, (linear,))
             and _solver_line(constant, linear) else fixed_symmetric_space(gens))
    line = space.dimension == 1
    sec.add("fixed family is a line (one basis matrix)", line,
            "" if line else f"dimension {space.dimension}")
    wrong = (_first_wrong_cell("basis matrix", space.basis[0], linear) if line
             else f"dimension {space.dimension}")
    sec.add("basis matrix equals the published linear part", not wrong, wrong)
    wrong = ("no solution" if space.particular is None
             else _first_wrong_cell("particular part", space.particular, constant))
    sec.add("particular part equals the published constant part", not wrong, wrong)
    return sec


def check_group_orders(max_rank: int, catalog: dict) -> Section:
    """Orders and length grading by closure; the Gram form by generators.

    A group of at most ``ENUMERATION_LIMIT`` elements is closed from the
    transposed simple reflections, which keeps each element's length. It
    must have the classical order, and level sizes equal to the Poincare
    polynomial of the invariant degrees (a failure gives both; a refused
    reflection fails it with "<system>: simple reflection <k>: <error>").
    Every system's own ``weyl.coset_closure`` gives them, as W_J * T for
    the orbit T of a vector fixed by all reflections but the first, checked
    exactly to be the group with distinct products and the breadth-first
    grading, W_J by the same certificate. ``generate_group`` runs only when
    the certificate declines (no involution, a failed check), to name the
    failing line.
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
        gens = [g.T for g in refl]
        try:
            if not (closure := coset_closure(gens, ENUMERATION_LIMIT + 1)):
                group = generate_group(gens, ENUMERATION_LIMIT + 1)
                closure = group.order, group.truncated, group.levels
        except NonUnimodular as exc:
            sec.add(f"{system}: enumerated order = expected {order}", False,
                    f"{system}: simple reflection {exc.generator}: {exc}")
        else:
            found, truncated, grading = closure
            levels = poincare_polynomial(reference.invariant_degrees(system))
            ok = not truncated and found == order and grading == levels
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
        # The fixed space is the kernel of the integer equations (an embedded
        # reflection has B = 0), its dimension the unknowns less their rank.
        # A nonzero z0 in a one-dimensional kernel spans it.
        size = system.rank * (system.rank + 1) // 2
        rows, _ = fixed_space_equations(embs)
        dimension = size - Matrix(rows or [[0] * size]).rank()
        qz = catalog[system].z0.numerators
        z0 = [qz[i * system.rank + j] for i, j in _sym_index(system.rank)]
        if dimension != 1:
            failure = f"{system}: fixed space has dimension {dimension}"
        elif not any(z0) or any(sum(c * x for c, x in zip(row, z0)) for row in rows):
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
