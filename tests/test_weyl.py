import hashlib
import random
from fractions import Fraction
from itertools import accumulate, combinations, product
from math import factorial, prod

import pytest

from weylppav import (Matrix, NonUnimodular, RootSystemId, all_systems,
                      check_invariance, diagram_automorphisms, expected_order,
                      generate_group, gram_matrix, reference, simple_reflections)
from weylppav import weyl
from weylppav._kernel import mat_mul_flat_py
from weylppav.weyl import coset_closure, poincare_polynomial


def refl(tag):
    return simple_reflections(RootSystemId.parse(tag))


def dense_closure(gens, cap):
    """Breadth-first closure with dense products: the reference semantics.
    Returns the elements in the order they are accepted."""
    n = gens[0].nrows
    flats = [g.flat for g in gens]
    ident = Matrix.identity(n).flat
    seen, frontier, truncated = {ident}, [ident], False
    found = [ident]
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
                    found.append(prod)
                    nxt.append(prod)
            if truncated:
                break
        frontier = nxt
    return found, truncated


def level_totals(gens, limit):
    """Group size after each breadth-first level, by dense products, until
    the closure is complete or holds at least ``limit`` elements."""
    n = gens[0].nrows
    flats = [g.flat for g in gens]
    ident = Matrix.identity(n).flat
    seen, frontier, totals = {ident}, [ident], []
    while frontier and len(seen) < limit:
        nxt = []
        for el in frontier:
            for g in flats:
                prod = mat_mul_flat_py(el, g, n, n, n)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
        totals.append(len(seen))
    return totals


HEISENBERG = [Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
              Matrix([[1, 0, 0], [0, 1, 1], [0, 0, 1]])]

# D4's reflections written in the basis of U = I + 2 * superdiagonal: the
# group keeps its 192 elements, but their rows spread over 328 vectors.
_U = Matrix([[1, 2, 0, 0], [0, 1, 2, 0], [0, 0, 1, 2], [0, 0, 0, 1]])
D4_CONJUGATED = [_U.inverse() * g * _U for g in refl("D4")]


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
        # Infinite groups: the row tables must not grow past the cap.
        [Matrix([[1, 1], [0, 1]])],
        [Matrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]])],
        [Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
         Matrix([[1, 0, 0], [0, 1, 1], [0, 0, 1]])],  # Heisenberg group
    ], ids=["G2", "B3", "A4", "D4-automorphisms", "order-6",
            "unipotent-2", "unipotent-3", "heisenberg"])
    @pytest.mark.parametrize("cap", [1, 5, 37, 1000, 10 ** 4])
    def test_truncation_matches_dense_closure(self, gens, cap):
        # Products on row ids must leave the breadth-first order, and hence
        # the truncated element sequence, exactly as a dense closure has it.
        expected, expected_truncated = dense_closure(gens, cap)
        group = generate_group(gens, cap)
        assert [el.flat for el in group.elements] == expected
        assert group.truncated == expected_truncated
        assert all(el.is_integral() for el in group.elements)

    @pytest.mark.parametrize("gens", [refl("B3"), refl("A4"), HEISENBERG],
                             ids=["B3", "A4", "heisenberg"])
    def test_truncation_at_level_boundaries(self, gens):
        # A cap one below, at or one above a level's total stops the
        # closure inside, at the end of, or just past that level. Some
        # level is wider than the one before, so it holds the products of
        # more than one generator and the cut falls inside them.
        totals = level_totals(gens, 300)
        widths = [b - a for a, b in zip([0] + totals, totals)]
        assert any(w > v for v, w in zip(widths, widths[1:]))
        for total in totals:
            for cap in (total - 1, total, total + 1):
                if cap < 1:
                    continue
                expected, expected_truncated = dense_closure(gens, cap)
                group = generate_group(gens, cap)
                assert [el.flat for el in group.elements] == expected, cap
                assert group.truncated == expected_truncated, cap

    @pytest.mark.parametrize("gens", [
        [*refl("A3"), refl("A3")[0]],  # one generator twice: equal products per element
        [reference.cyclic5_generator()],  # one generator, of order 5
        [reference.cyclic5_generator(), refl("A4")[0]],  # order 5 and an involution: S5
    ], ids=["repeated", "order-5", "order-5-and-involution"])
    def test_uncommon_generator_lists_at_level_boundaries(self, gens):
        # A level's products interleave the generators per element, so a
        # single generator, a repeated one or one that is not an involution
        # must still leave the breadth-first order, the cut and the level
        # sizes as a dense closure has them, at, one below and one above
        # each level's total.
        totals = [1] + level_totals(gens, 300)
        for cap in sorted({c for t in totals for c in (t - 1, t, t + 1) if c >= 1}):
            expected, expected_truncated = dense_closure(gens, cap)
            group = generate_group(gens, cap)
            assert [el.flat for el in group.elements] == expected, cap
            assert group.truncated == expected_truncated, cap
            assert list(accumulate(group.levels)) == sorted({min(t, cap) for t in totals}), cap

    @pytest.mark.parametrize("gens", [refl("B3"), refl("A4"), HEISENBERG],
                             ids=["B3", "A4", "heisenberg"])
    def test_levels_match_dense_closure(self, gens):
        # The level sizes are those of a dense closure, the last one cut
        # short when the cap falls inside it.
        totals = [1] + level_totals(gens, 300)
        for cap in {c for t in totals for c in (t - 1, t) if c >= 1}:
            group = generate_group(gens, cap)
            assert list(accumulate(group.levels)) == sorted({min(t, cap) for t in totals}), cap

    @pytest.mark.parametrize("gens, cap, truncated", [
        (refl("E6"), 10 ** 5, False),
        (refl("E7"), 20_000, True),
        ([g.T for g in refl("A100")], 500, True),  # the row table passes 256 rows
    ], ids=["E6-closed", "E7-truncated", "A100-wide"])
    def test_levels_sum_to_the_order(self, gens, cap, truncated):
        group = generate_group(gens, cap)
        assert group.truncated == truncated
        assert sum(group.levels) == group.order and all(group.levels)

    @pytest.mark.parametrize("gens, cap, rows", [
        ([g.T for g in refl("A100")], 500, 496),
        (refl("E7"), 20_000, 1154),
        (refl("E6"), 3000, 313),
        ([Matrix([[1, 1], [0, 1]])], 400, 402),
    ], ids=["A100-transposed", "E7", "E6", "unipotent-2"])
    def test_row_table_of_truncated_closures(self, gens, cap, rows):
        # Each level fills the tables once, for the rows of its elements,
        # and does not chase the rows that fill interns; a fill that did
        # would hold 10,100 rows for A100 transposed and 17,642 for E7. The
        # memory bound of the group-order command counts on this size.
        group = generate_group(gens, cap)
        assert group.truncated and len(group.vectors) == rows

    def test_large_truncated_closure_is_pinned(self):
        # The dense reference closure reaches only small caps; a cut deep
        # inside a wide E7 level is pinned instead by the digest of the
        # element set in a fixed form, recorded before products were formed
        # per row position: the sorted distinct rows, and each element as
        # the indices of its rows in that list, sorted.
        group = generate_group(refl("E7"), 20_000)
        assert group.truncated and group.order == 20_000
        rows = sorted({row for el in group.elements for row in el.rows()})
        index = {row: pos for pos, row in enumerate(rows)}
        codes = sorted(tuple(index[row] for row in el.rows()) for el in group.elements)
        digest = hashlib.sha256(repr((tuple(rows), tuple(codes))).encode()).hexdigest()
        assert digest == "ef1d9c435e08af771ae89bb29613cabb97fc0c2e81f824dbf67f6121e4e43982"

    def test_deterministic_order(self):
        group = generate_group(refl("B3"), 10 ** 4)
        again = generate_group(refl("B3"), 10 ** 4)
        assert (group.found, group.vectors) == (again.found, again.vectors)
        assert group.elements == again.elements
        assert group == again and hash(group) == hash(again)
        assert type(group.found) is tuple and len(set(group.found)) == group.order == 48
        assert all(type(el) is bytes for el in group.found)  # 48 rows: one byte per id
        assert group.elements[0] == Matrix.identity(3)
        for ids, el in zip(group.found, group.elements, strict=True):
            assert el.rows() == [group.vectors[rid] for rid in ids]
        assert group.elements is group.elements  # built once
        # Reversed generators meet the same elements in another order.
        other = generate_group(list(reversed(refl("B3"))), 10 ** 4)
        assert set(other.elements) == set(group.elements)
        assert other.elements != group.elements
        assert other != group  # the generators are part of the value

    @pytest.mark.parametrize("gens, cap", [
        (D4_CONJUGATED, 10 ** 4),            # closed, 328 rows
        ([Matrix([[1, 1], [0, 1]])], 400),  # truncated, 402 rows
        (refl("E6"), 3000),                  # truncated, 313 rows
    ], ids=["D4-conjugated", "unipotent-2", "E6"])
    def test_wide_row_table_matches_dense_closure(self, gens, cap):
        # The row table passes 256 rows mid-run: the elements, one byte per
        # row id until then, are re-encoded as tuples and the breadth-first
        # order and the cut go on exactly as a dense closure has them.
        expected, expected_truncated = dense_closure(gens, cap)
        group = generate_group(gens, cap)
        assert len(group.vectors) > 256
        assert all(type(el) is tuple for el in group.found)
        assert [el.flat for el in group.elements] == expected
        assert group.truncated == expected_truncated
        n = group.dimension
        assert list(group.vectors[:n]) == Matrix.identity(n).rows()
        assert len(set(group.vectors)) == len(group.vectors)
        rows = {row for el in group.elements for row in el.rows()}
        assert rows <= set(group.vectors)
        assert (rows == set(group.vectors)) == (not group.truncated)

    def test_dimension_over_256_starts_with_tuples(self):
        # The identity alone needs 257 row ids.
        g = Matrix.diagonal([-1] + [1] * 256)
        group = generate_group([g], 10)
        assert all(type(el) is tuple for el in group.found)
        assert group.elements == (Matrix.identity(257), g)
        assert not group.truncated

    def test_non_unimodular_rejected(self):
        with pytest.raises(NonUnimodular):
            generate_group([Matrix([[2]])], 10)
        for rows in ([[1, 1], [1, -1]], [[0, 2], [1, 0]], [[-1, 0], [0, 2]]):
            with pytest.raises(NonUnimodular):
                generate_group([Matrix(rows)], 10)

    def test_refusal_names_the_first_refused_generator(self):
        # The message carries the first refused generator's determinant.
        gens = [Matrix([[0, 1], [1, 0]]), Matrix([[1, 1], [0, 3]]), Matrix([[2, 0], [0, 1]])]
        with pytest.raises(NonUnimodular, match="^determinant is 3$"):
            generate_group(gens, 10)

    def test_determinant_minus_one_is_accepted(self):
        # -P for the 3-cycle P has order 6 and det -1, and is no involution,
        # so only |det| = 1 (not det = 1) admits it.
        g = -Matrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        assert g.det() == -1 and g * g != Matrix.identity(3)
        group = generate_group([g], 10)
        assert (group.order, group.levels, group.truncated) == (6, (1,) * 6, False)

    def test_involutions_take_no_determinant(self, monkeypatch):
        # g * g == I settles |det g| = 1; any other generator still takes det.
        calls = []
        original = Matrix.det
        monkeypatch.setattr(Matrix, "det", lambda self: calls.append(self) or original(self))
        for gens in (refl("E6"), [g.T for g in refl("G2")], [Matrix([[1, 1], [0, -1]])]):
            generate_group(gens, 10)
        assert calls == []
        order6 = Matrix([[0, -1], [1, 1]])
        generate_group([order6], 10)
        assert calls == [order6]

    def test_involution_test_matches_the_product(self, monkeypatch):
        # Over every 2x2 matrix with entries in -1..2: det is taken exactly
        # when g * g != I, and the generator is refused exactly when
        # |det| != 1.
        ident = Matrix.identity(2)
        calls = []
        original = Matrix.det
        monkeypatch.setattr(Matrix, "det", lambda self: calls.append(self) or original(self))
        for entries in product((-1, 0, 1, 2), repeat=4):
            g = Matrix([entries[:2], entries[2:]])
            calls.clear()
            try:
                generate_group([g], 3)
                refused = False
            except NonUnimodular:
                refused = True
            assert (calls == []) == (g * g == ident), g
            assert refused == (abs(original(g)) != 1), g

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            generate_group([Matrix([[-1]])], 0)


def block_diagonal(a, b):
    """The square matrix with blocks a and b on its diagonal."""
    na, nb = a.nrows, b.nrows
    return Matrix([[*a.row(i), *[0] * nb] for i in range(na)]
                  + [[*[0] * na, *b.row(i)] for i in range(nb)])


def closure_figures(gens, cap):
    """``(order, levels)`` of the breadth-first closure, or None when it is
    truncated at ``cap``: the figures ``coset_closure`` must give or decline."""
    group = generate_group(gens, cap)
    return None if group.truncated else (group.order, group.levels)


def signed_transposition(n, rng):
    """A random involution that swaps two coordinates or negates one, each
    with a random sign."""
    i, j = rng.randrange(n), rng.randrange(n)
    rows = [[int(r == c) for c in range(n)] for r in range(n)]
    sign = rng.choice((1, -1))
    if i == j:
        rows[i][i] = -1
    else:
        rows[i][i] = rows[j][j] = 0
        rows[i][j] = rows[j][i] = sign
    return Matrix(rows)


def fuzz_generators(rng):
    """One of four kinds of involution generator sets, drawn from ``rng``."""
    system = rng.choice([s for s in all_systems(4) if s.rank >= 2])
    gens = [g.T for g in simple_reflections(system)]
    kind = rng.randrange(4)
    i, j = rng.sample(range(len(gens)), 2)
    if kind == 0:  # one generator conjugated by another
        gens[i] = gens[j] * gens[i] * gens[j]
    elif kind == 1:  # an added conjugate reflection
        gens.insert(rng.randrange(len(gens) + 1), gens[j] * gens[i] * gens[j])
    elif kind == 2:
        n = rng.randrange(2, 5)
        gens = [signed_transposition(n, rng) for _ in range(rng.randrange(2, 4))]
    else:
        rng.shuffle(gens)
    return gens


class TestCosetClosure:
    """The coset table gives the closure's order and levels, or declines
    with the reason of the check that failed; it never gives other figures."""

    @pytest.mark.parametrize("system", [s for s in all_systems(8)
                                        if expected_order(s) <= 100_000],
                             ids=str)
    def test_enumerated_systems_match_the_closure(self, system, monkeypatch):
        gens = [g.T for g in simple_reflections(system)]
        figures = closure_figures(gens, 100_001)

        def listed(*args):
            raise AssertionError("an element was listed")

        # The certificate reaches the figures at every level without
        # closing or holding a group.
        monkeypatch.setattr(weyl, "generate_group", listed)
        monkeypatch.setattr(weyl, "MatrixGroup", listed)
        assert coset_closure(gens, 100_001) == figures

    @pytest.mark.parametrize("tag", ["B4", "F4", "D5", "E6", "A7"])
    def test_cap_at_and_below_the_order(self, tag):
        gens = [g.T for g in refl(tag)]
        order = expected_order(RootSystemId.parse(tag))
        assert coset_closure(gens, order) == closure_figures(gens, order)
        # Each level before the last keeps at most half the order.
        assert closure_figures(gens, order - 1) is None
        assert coset_closure(gens, order - 1) == (
            f"removing generator {len(gens) - 1}: the order passes {order - 1}")

    def test_an_orbit_past_the_cap_stops_growing(self, monkeypatch):
        # E8's first orbit has 2,160 points; at cap 100 it stops once it
        # holds more than 100, before the order test could decline. Row
        # products: 240 roots x 8 reflections for the row table, one test
        # of the first level's omega, then 8 per orbit point grown.
        calls = []
        original = weyl._row_times
        monkeypatch.setattr(weyl, "_row_times",
                            lambda vec, cols: calls.append(vec) or original(vec, cols))
        assert coset_closure([g.T for g in refl("E8")], 100) == (
            "removing generator 0: the orbit of omega passes 100 points")
        assert len(calls) <= 240 * 8 + 1 + 100 * 8

    @pytest.mark.parametrize("tag", ["E7", "E8"])
    def test_e7_and_e8_are_certified_past_enumeration(self, tag):
        # At E7's W_J = <s1..s4> and E8's <s0..s5> the kernel of all but
        # one reflection's equations has dimension >= 2, so a vector read
        # off it could be fixed by the remaining reflection too: a one-point
        # orbit, which fails the certificate. Each omega_k comes from all
        # the other reflections of the group, which fix only its line, and
        # g_k moves it.
        system = RootSystemId.parse(tag)
        order = expected_order(system)
        assert coset_closure([g.T for g in refl(tag)], order) == (
            order, poincare_polynomial(reference.invariant_degrees(system)))

    @pytest.mark.parametrize("tag", ["B4", "E6", "E8"])
    def test_one_smith_form_per_generator(self, tag, monkeypatch):
        # One per level that grows an orbit; the last level, {I, g}, takes none.
        calls = []
        original = weyl.smith_normal_form
        monkeypatch.setattr(weyl, "smith_normal_form",
                            lambda m: calls.append(m) or original(m))
        gens = [g.T for g in refl(tag)]
        assert coset_closure(gens, expected_order(RootSystemId.parse(tag)))
        assert len(calls) == len(gens) - 1

    def test_an_identity_generator_is_a_group_of_one(self):
        # W_J = <I> is the last level's group, of order 1; s = (-1) moves
        # omega = (1) to -1, so |T| = 2 and the group is {I, s}.
        s, ident = Matrix([[-1]]), Matrix.identity(1)
        assert closure_figures([s, ident], 10) == (2, (1, 1))
        assert coset_closure([s, ident], 10) == (2, (1, 1))

    def test_every_parabolic_subset_through_rank_6_is_certified(self):
        # The 464 sets of two or more simple reflections of the systems
        # through rank 6, each in its Bourbaki order. A proper subset fixes
        # a common nonzero vector, so a kernel of dimension >= 2 is common.
        sets = [subset for system in all_systems(6)
                for size in range(2, system.rank + 1)
                for subset in combinations([g.T for g in simple_reflections(system)], size)]
        assert len(sets) == 464
        for gens in sets:
            assert coset_closure(gens, 100_001) == closure_figures(gens, 100_001), gens

    def test_a_row_table_past_256_rows_declines(self):
        # The transposed reflections intern the roots as rows: A15's 240
        # fit one byte per row id, and the certificate gives the order and
        # grading of a group far past enumeration; A16's 272 do not.
        a15, a16 = ([g.T for g in refl(tag)] for tag in ("A15", "A16"))
        assert coset_closure(a15, factorial(16)) == (
            factorial(16), poincare_polynomial(range(2, 17)))
        assert coset_closure(a16, factorial(17)) == "the row table passes 256 rows"

    def test_a_generator_fixing_omega_outside_w_j_declines(self):
        # g1 fixes only the line through omega = (0, 1, 2), which g0 fixes
        # too, so T is one point and g0 is no element of W_J = <g1>: mu g0
        # == mu finds no g_j * t_mu. The group has 4 elements, not
        # |W_J| * |T| = 2.
        gens = [Matrix.diagonal([-1, 1, 1]), Matrix([[-1, 0, 0], [0, -1, 0], [0, 1, 1]])]
        assert closure_figures(gens, 100) == (4, (1, 2, 1))
        assert coset_closure(gens, 100) == (
            "removing generator 0: g_0 fixes orbit point 0, but t_0 * g_0 is no g_l * t_0")
        # The second sign change fixes e_0 and e_2. omega is the last of
        # those kernel vectors that the first one moves, e_0, so its orbit
        # has two points and the table is certified.
        gens = [Matrix.diagonal([-1, 1, 1]), Matrix.diagonal([1, -1, 1])]
        assert coset_closure(gens, 100) == closure_figures(gens, 100) == (4, (1, 2, 1))

    def test_a_duplicated_generator_declines(self):
        # With f0 given twice the other two generators fix only 0, so the
        # last column of v is no fixed vector and omega * g_j == omega fails.
        f0, f1 = Matrix.diagonal([-1, 1]), Matrix.diagonal([1, -1])
        gens = [f0, f1, f0]
        assert closure_figures(gens, 100) == (4, (1, 2, 1))
        assert coset_closure(gens, 100) == "removing generator 0: omega * g_2 != omega"

    def test_a_non_tree_edge_outside_w_j_declines(self):
        # A2's t0, t1 in two blocks: the generators diag(t0, t1),
        # diag(t1, t0) and diag(t1, I) give S3 x S3. omega = (2, 1, 0, 0)
        # lies in the first block, where both g_j act as t1, so T has 3
        # points and omega's stabilizer <t1> x S3 has 12 elements against
        # W_J's 4. The extra ones are t_mu * g * t_(mu g)^-1 for orbit edges
        # mu -> mu g that are no tree edges; without that comparison the
        # table would give 12 elements.
        t0, t1 = [g.T for g in refl("A2")]
        gens = [block_diagonal(a, b) for a, b in ((t0, t1), (t1, t0), (t1, Matrix.identity(2)))]
        assert closure_figures(gens, 100) == (36, (1, 3, 5, 7, 9, 8, 3))
        assert coset_closure(gens, 100) == "removing generator 0: t_1 * g_2 != t_2"
        # A3's s0, s1, s2 beside A2's t1, t0, t1, the A2 block being S4's
        # image in S3: omega lies in the A3 block, where W_J = <s1, s2> is
        # its whole stabilizer, and the table gives A3's figures.
        gens = [block_diagonal(a, b) for a, b in zip([g.T for g in refl("A3")], (t1, t0, t1))]
        assert coset_closure(gens, 100) == closure_figures(gens, 100) == (
            24, (1, 3, 5, 6, 5, 3, 1))

    def test_fuzzed_involutions_agree_or_decline(self):
        rng = random.Random(37)
        outcomes = {"agree": 0, "decline": 0}
        for case in range(400):
            gens = fuzz_generators(rng)
            cap = (60, 500, 100_001)[case % 3]
            got = coset_closure(gens, cap)
            if isinstance(got, str):
                outcomes["decline"] += 1
            else:
                assert got == closure_figures(gens, cap), (case, gens, cap)
                outcomes["agree"] += 1
        assert min(outcomes.values()) >= 100, outcomes

    def test_refused_sets_decline_and_the_closure_raises(self):
        a2 = [g.T for g in refl("A2")]
        shape = "generators must be one or more square integer matrices of equal size"
        assert coset_closure([], 10) == shape
        assert coset_closure([Matrix([[-1]]), a2[0]], 10) == shape
        # One reflection is no refused set: it is the base case {I, g}.
        assert coset_closure(a2[:1], 10) == (2, (1, 1))
        assert coset_closure([-(a2[0] * a2[1])], 10) == "generator 0: g * g != I"
        assert coset_closure([a2[0], -(a2[0] * a2[1])], 10) == "generator 1: g * g != I"
        # s1 * diag(1, 1, 3) has determinant -3 and is no involution.
        s0, s1, s2 = [g.T for g in refl("B3")]
        gens = [s0, s1 * Matrix.diagonal([1, 1, 3]), s2]
        assert coset_closure(gens, 100) == "generator 1: g * g != I"
        with pytest.raises(NonUnimodular, match="^determinant is -3$"):
            generate_group(gens, 100)


class TestCheckInvariance:
    def test_identity_generator(self):
        assert check_invariance([Matrix.identity(3)], Matrix.diagonal([1, 2, 3]))

    def test_e8_reflections_preserve_gram(self):
        system = RootSystemId.parse("E8")
        assert check_invariance(simple_reflections(system), gram_matrix(system))

    def test_wrong_form_detected(self):
        assert not check_invariance(refl("A2"), Matrix.diagonal([1, 2]))

    def test_form_that_is_not_symmetric_agrees_with_the_product(self):
        # s0 of A3 moves columns 0 and 1 and fixes w + s0^t w s0 for any w.
        # Raising that form at (0, 2) is seen only in the rows s0 moves, at
        # (2, 0) only in the columns.
        s0, s1, s2 = refl("A3")
        w = Matrix([[0, 1, 0], [0, 0, 2], [0, 0, 0]])
        fixed = w + s0.T * w * s0
        assert not fixed.is_symmetric()
        outcomes = set()
        for form in (w, fixed, Fraction(1, 3) * fixed,
                     *(fixed + Matrix([[int((a, b) == cell) for b in range(3)]
                                       for a in range(3)]) for cell in ((0, 2), (2, 0)))):
            for g in (s0, s1, s2, -Matrix.identity(3)):
                holds = g.T * form * g == form
                assert check_invariance([g], form) == holds, (g, form)
                outcomes.add(holds)
        assert outcomes == {True, False}

    def test_rejects_a_form_or_generator_of_the_wrong_kind(self):
        form = Matrix.diagonal([1, 2])
        for gens in ([Matrix.identity(3)], [Matrix([[1, 0]])],
                     [Matrix.identity(2), Fraction(1, 2) * Matrix.identity(2)]):
            with pytest.raises(ValueError):
                check_invariance(gens, form)
        with pytest.raises(ValueError):
            check_invariance([Matrix.identity(2)], Matrix([[1, 0]]))


class TestPoincarePolynomial:
    def test_values(self):
        assert poincare_polynomial(()) == (1,)
        assert poincare_polynomial((1, 1)) == (1,)
        assert poincare_polynomial((2, 3)) == (1, 2, 2, 1)
        assert poincare_polynomial((2, 6)) == (1, 2, 2, 2, 2, 2, 1)
        assert poincare_polynomial((3, 2)) == poincare_polynomial((2, 3))

    def test_degrees_multiply_to_the_order(self):
        # At q = 1 each [d]_q is d, so the coefficients sum to prod(d_i).
        for system in all_systems(16):
            degrees = reference.invariant_degrees(system)
            assert len(degrees) == system.rank
            assert prod(degrees) == sum(poincare_polynomial(degrees)) == \
                expected_order(system), system


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
