import random
from fractions import Fraction

import pytest

from weylppav import (Matrix, NonUnimodular, NotSymplectic, RootSystemId,
                      SingularDenominator, SymplecticMat, UnsupportedGenerator,
                      all_systems, diagram_automorphisms, embed_block_diag, fixed_symmetric_space,
                      gram_matrix, is_symplectic, modular_action, riemann_family,
                      simple_reflections, standard_form,
                      verify_decomposition_witness, verify_family_isomorphism)
from weylppav import symplectic
from weylppav.exactmat import smith_normal_form
from weylppav.reference import (an_alternate_base_printed, an_alternate_witness,
                                bn_split_witness, cyclic5_fixed_span,
                                cyclic5_generator, d4_to_f4_witness,
                                dn_to_cn_witness, g2_to_a2_sign_fix,
                                g2_to_a2_witness_printed, sym5_degree6_generators,
                                sym5_fixed_family)
from weylppav.symplectic import sym_to_vec, vec_to_sym

F = Fraction


def z0(tag):
    return riemann_family(RootSystemId.parse(tag)).z0


class TestEmbedBlockDiag:
    def test_identity(self):
        assert embed_block_diag(Matrix.identity(2)).m == Matrix.identity(4)

    def test_sign(self):
        assert embed_block_diag(Matrix([[-1]])).m == Matrix.diagonal([-1, -1])

    def test_cyclic5_generator(self):
        emb = embed_block_diag(cyclic5_generator())
        assert emb.m.nrows == 8
        assert is_symplectic(emb.m)

    def test_non_unimodular_rejected(self):
        with pytest.raises(NonUnimodular):
            embed_block_diag(Matrix([[2]]))

    def test_catalog_embeds_without_fraction_inverse(self, monkeypatch):
        def no_inverse(self):
            raise AssertionError("inverse called")

        monkeypatch.setattr(Matrix, "inverse", no_inverse)
        for system in all_systems(8):
            n = system.rank
            for rho in simple_reflections(system) + diagram_automorphisms(system):
                emb = embed_block_diag(rho)
                assert emb.blocks()[0] == rho
                assert rho.T * emb.blocks()[3] == Matrix.identity(n), str(system)
        for rho, det in ((Matrix([[1, 2], [3, 4]]), -2), (Matrix([[2, 1], [0, 1]]), 2),
                         (Matrix([[1, 2], [2, 4]]), 0), (Matrix([[0, 1], [0, 0]]), 0),
                         (Matrix([[0, 2], [2, 0]]), -4), (Matrix([[-1, 0], [0, 3]]), -3)):
            with pytest.raises(NonUnimodular) as exc:
                embed_block_diag(rho)
            assert str(exc.value) == f"determinant is {det}"

    def test_homomorphism_on_random_words(self):
        rng = random.Random(1357)
        systems = [RootSystemId.parse(t) for t in ("A3", "B3", "C4", "G2")]
        for _ in range(120):
            system = rng.choice(systems)
            refl = simple_reflections(system)
            w1 = Matrix.identity(system.rank)
            w2 = Matrix.identity(system.rank)
            for _ in range(rng.randrange(1, 5)):
                w1 = w1 * rng.choice(refl)
            for _ in range(rng.randrange(1, 5)):
                w2 = w2 * rng.choice(refl)
            assert embed_block_diag(w1).m * embed_block_diag(w2).m == \
                embed_block_diag(w1 * w2).m


def smith_embedding(rho):
    """[[rho, 0], [0, rho^{-t}]] with rho^{-1} = v * u read off the Smith form."""
    snf = smith_normal_form(rho)
    zero = Matrix.zeros(rho.nrows)
    return Matrix.block2(rho, zero, zero, (snf.v * snf.u).T)


def random_word(rng, refl, n, lo=1, hi=6):
    """A random product of simple reflections and its reversed product, the inverse."""
    w = w_inv = Matrix.identity(n)
    for _ in range(rng.randrange(lo, hi)):
        s = rng.choice(refl)
        w, w_inv = w * s, s * w_inv
    return w, w_inv


class TestInvolutionEmbedding:
    """Involutions embed as [[rho, 0], [0, rho^t]] without a Smith form."""

    def involutions(self):
        rng = random.Random(8642)
        out = []
        for system in all_systems(8):
            refl = simple_reflections(system)
            ident = Matrix.identity(system.rank)
            out += refl + [a for a in diagram_automorphisms(system) if a * a == ident]
            for _ in range(3):
                w, w_inv = random_word(rng, refl, system.rank)
                out.append(w * rng.choice(refl) * w_inv)
        return out

    def test_matches_smith_route(self, monkeypatch):
        cases = self.involutions()
        expected = [smith_embedding(rho) for rho in cases]

        def refuse(m):
            raise AssertionError("smith_normal_form called")

        monkeypatch.setattr(symplectic, "smith_normal_form", refuse)
        for rho, block in zip(cases, expected):
            assert rho * rho == Matrix.identity(rho.nrows)
            assert embed_block_diag(rho).m == block

    def test_other_words_take_the_smith_route(self, monkeypatch):
        rng = random.Random(9753)
        calls = []
        original = symplectic.smith_normal_form

        def counted(m):
            calls.append(m)
            return original(m)

        monkeypatch.setattr(symplectic, "smith_normal_form", counted)
        words = []
        for system in all_systems(8):
            refl = simple_reflections(system)
            # D4's triality generator has order 3
            words += diagram_automorphisms(system)
            for _ in range(3):
                words.append(random_word(rng, refl, system.rank, 2, 7)[0])
        words = [w for w in words if w * w != Matrix.identity(w.nrows)]
        assert len(words) > 30
        for w in words:
            assert embed_block_diag(w).m == smith_embedding(w)
            assert calls[-1] is w


class TestIsSymplectic:
    def test_standard_form(self):
        assert is_symplectic(standard_form(3))

    def test_sym5_generators(self):
        g1, g2 = sym5_degree6_generators()
        assert is_symplectic(g1)
        assert is_symplectic(g2)

    def test_diagonal_scaling_fails(self):
        assert not is_symplectic(Matrix.diagonal([2, 2, 1, 1]))

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            is_symplectic(Matrix.identity(3))

    def test_symplecticmat_validates(self):
        with pytest.raises(NotSymplectic):
            SymplecticMat(2, Matrix.diagonal([2, 2, 1, 1]))

    def test_symplecticmat_product(self):
        # SymplecticMat has no product of its own; the product of two
        # embeddings' matrices is symplectic and is accepted as one.
        refl = simple_reflections(RootSystemId.parse("A2"))
        m = embed_block_diag(refl[0]).m * embed_block_diag(refl[1]).m
        assert is_symplectic(m)
        assert SymplecticMat(2, m).m == m


def dense_symplectic(m):
    form = standard_form(m.nrows // 2)
    return m.T * form * m == form


def random_invertible(rng, n, rational):
    while True:
        entries = [[F(rng.randint(-3, 3), rng.randint(1, 3)) if rational
                    else rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        a = Matrix(entries)
        if a.det() != 0:
            return a


class TestBlockDiagonalShortcut:
    """With B = C = 0, m^t J m = J is the n x n condition A^t D = I."""

    def cases(self):
        rng = random.Random(24680)
        for trial in range(60):
            n = rng.randint(1, 4)
            a = random_invertible(rng, n, rational=trial % 2 == 1)
            d = a.inverse().T
            zero = Matrix.zeros(n)
            good = Matrix.block2(a, zero, zero, d)
            rows = [list(r) for r in d.rows()]
            i, j = rng.randrange(n), rng.randrange(n)
            rows[i][j] += rng.choice((-1, 1, F(1, 2)))
            bad = Matrix.block2(a, zero, zero, Matrix(rows))
            yield good, bad, True
            # one nonzero entry in B or C, symplectic or not
            for block in good, bad:
                rows = [list(r) for r in block.rows()]
                i, j = rng.randrange(n), rng.randrange(n)
                if rng.random() < 0.5:
                    rows[i][n + j] = rng.choice((1, -2, F(1, 3)))
                else:
                    rows[n + i][j] = rng.choice((1, -2, F(1, 3)))
                yield Matrix(rows), None, False

    def test_agrees_with_dense_product(self, monkeypatch):
        dense_calls = []
        original = symplectic.standard_form

        def counted(n):
            dense_calls.append(n)
            return original(n)

        monkeypatch.setattr(symplectic, "standard_form", counted)
        outcomes = set()
        for m, other, block_diagonal in self.cases():
            for mat in (m, other) if other is not None else (m,):
                before = len(dense_calls)
                got = is_symplectic(mat)
                took_dense = len(dense_calls) > before
                assert took_dense != block_diagonal
                assert got == dense_symplectic(mat)
                outcomes.add((block_diagonal, got))
        assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


class TestModularAction:
    def test_identity(self):
        m = SymplecticMat(2, Matrix.identity(4))
        z = z0("A2")
        assert modular_action(m, z) == z

    def test_reflection_fixes_z0(self):
        for refl in simple_reflections(RootSystemId.parse("A2")):
            assert modular_action(embed_block_diag(refl), z0("A2")) == z0("A2")

    def test_translation_block(self):
        b = Matrix([[1, 2], [2, 3]])
        m = SymplecticMat(2, Matrix.block2(Matrix.identity(2), b,
                                           Matrix.zeros(2), Matrix.identity(2)))
        z = z0("A2")
        assert modular_action(m, z) == z + b

    def test_inversion_block(self):
        # J sends z to -z^{-1}
        m = SymplecticMat(2, standard_form(2))
        z = z0("A2")
        assert modular_action(m, z) == -gram_matrix(RootSystemId.parse("A2"))

    def test_singular_denominator(self):
        m = SymplecticMat(2, standard_form(2))
        with pytest.raises(SingularDenominator):
            modular_action(m, Matrix.diagonal([1, 0]))

    def test_requires_symmetric(self):
        m = SymplecticMat(2, Matrix.identity(4))
        with pytest.raises(ValueError):
            modular_action(m, Matrix([[1, 1], [0, 1]]))


class TestSymCoordinates:
    def test_round_trip(self):
        m = Matrix([[1, 2, 3], [2, 4, 5], [3, 5, 6]])
        assert sym_to_vec(m) == (1, 2, 3, 4, 5, 6)
        assert vec_to_sym(sym_to_vec(m), 3) == m

    @pytest.mark.parametrize("vec, n", [(tuple(range(1, 9)), 2), ((1,), 2),
                                        ((), 1), ((1, 2, 3), 3)])
    def test_wrong_length_rejected(self, vec, n):
        with pytest.raises(ValueError, match="coordinates"):
            vec_to_sym(vec, n)


class TestFixedSymmetricSpace:
    def test_identity_gives_everything(self):
        space = fixed_symmetric_space([SymplecticMat(3, Matrix.identity(6))])
        assert space.dimension == 6  # 3*(3+1)/2
        assert space.particular is not None and space.particular.is_zero()

    def test_cyclic5(self):
        space = fixed_symmetric_space([embed_block_diag(cyclic5_generator())])
        assert space.dimension == 2
        m1, m2 = cyclic5_fixed_span()
        # both printed matrices must be fixed and inside the computed span
        for printed in (m1, m2):
            vecs = [b for b in space.basis]
            # solve printed = sum c_i b_i exactly via a 2-unknown system
            from weylppav import solve_affine
            from weylppav.symplectic import sym_to_vec
            coeff = Matrix(list(zip(*[sym_to_vec(b) for b in vecs])))
            sol = solve_affine(coeff, sym_to_vec(printed))
            assert sol.particular is not None

    def test_sym5_family(self):
        g1, g2 = sym5_degree6_generators()
        space = fixed_symmetric_space([SymplecticMat(6, g1), SymplecticMat(6, g2)])
        constant, linear = sym5_fixed_family()
        assert space.dimension == 1
        assert space.basis[0] == linear
        assert space.particular == constant

    def test_reflection_set_fixes_only_z0_line(self):
        for tag in ("A2", "B3", "G2", "D4"):
            system = RootSystemId.parse(tag)
            gens = [embed_block_diag(r) for r in simple_reflections(system)]
            space = fixed_symmetric_space(gens)
            assert space.dimension == 1
            from weylppav.verify import _proportional

            assert _proportional(space.basis[0], riemann_family(system).z0)

    def test_lower_block_rejected(self):
        with pytest.raises(UnsupportedGenerator):
            fixed_symmetric_space([SymplecticMat(2, standard_form(2))])

    def test_pure_translation_has_no_fixed_matrix(self):
        # z + 2 = z is inconsistent: the set is empty, not an error
        gen = SymplecticMat(1, Matrix([[1, 2], [0, 1]]))
        space = fixed_symmetric_space([gen])
        assert space.particular is None
        assert space.dimension == 0


class TestFamilyIsomorphism:
    def test_identity(self):
        assert verify_family_isomorphism(Matrix.identity(2), z0("A2"), z0("A2"))

    def test_dn_to_cn(self):
        for n in range(4, 9):
            a = dn_to_cn_witness(n)
            assert verify_family_isomorphism(a, z0(f"D{n}"), z0(f"C{n}"))

    def test_d4_to_f4(self):
        assert verify_family_isomorphism(d4_to_f4_witness(), z0("D4"), z0("F4"))

    def test_g2_to_a2_needs_sign_fix(self):
        printed = g2_to_a2_witness_printed()
        assert not verify_family_isomorphism(printed, z0("G2"), z0("A2"))
        assert verify_family_isomorphism(g2_to_a2_sign_fix() * printed,
                                         z0("G2"), z0("A2"))
        # the printed witness lands on the off-diagonal sign flip of z0(A2)
        flipped = Matrix([[F(2, 3), F(-1, 3)], [F(-1, 3), F(2, 3)]])
        assert verify_family_isomorphism(printed, z0("G2"), flipped)

    def test_an_alternate_family(self):
        # exact once the published base is rescaled by 1/(n+1); the printed
        # identity omits that parameter change
        for n in range(1, 9):
            a = an_alternate_witness(n)
            base = an_alternate_base_printed(n)
            assert verify_family_isomorphism(a, z0(f"A{n}"),
                                             F(1, n + 1) * base)
            assert not (n >= 1 and verify_family_isomorphism(a, z0(f"A{n}"), base))

    def test_non_unimodular_rejected(self):
        with pytest.raises(NonUnimodular):
            verify_family_isomorphism(Matrix.diagonal([2, 1]), z0("A2"), z0("A2"))


class TestDecompositionWitness:
    def test_trivial(self):
        z = Matrix.diagonal([1, 2])
        assert verify_decomposition_witness(Matrix.identity(2), (1, 2),
                                            Matrix.identity(2), z)

    def test_bn_witness(self):
        for n in range(2, 9):
            system = RootSystemId("B", n)
            f, d, m = bn_split_witness(n)
            assert verify_decomposition_witness(f, d, m, riemann_family(system).z0)
            assert m == f.inverse().T
            assert m == f * riemann_family(system).z0
            block = Matrix.block2(f, Matrix.zeros(n), Matrix.zeros(n), m)
            assert is_symplectic(block)
            assert f.T * f == gram_matrix(system)

    def test_non_unimodular_rejected(self):
        with pytest.raises(NonUnimodular):
            verify_decomposition_witness(Matrix.diagonal([2, 1]), (1, 1),
                                         Matrix.identity(2), Matrix.identity(2))
