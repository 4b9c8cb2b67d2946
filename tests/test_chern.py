import math
import random
from fractions import Fraction

import pytest

from mfchern import (
    AtiyahClass,
    Connection,
    Form,
    FormMatrix,
    InternalConsistencyError,
    Poly,
    PolyMatrix,
    RingMap,
    atiyah,
    atiyah_power,
    chern_character,
    classical_chern,
    cone,
    cone_additivity_check,
    connection_default,
    direct_sum,
    exterior_derivative,
    fm_exterior_derivative,
    fm_mul,
    form_normal_form,
    functoriality_check,
    identity_morphism,
    kclass,
    kclass_add,
    kclass_chern,
    kclass_product,
    mf_unit,
    parse_form,
    parse_poly,
    phi_strictness_check,
    phi_tilde_n,
    phi_tower_oracle,
    pushforward,
    random_connection,
    supertrace,
    tensor,
    tensor_multiplicativity_check,
    zero_morphism,
)
from mfchern import chern
from mfchern.mf import StrictMorphism

from conftest import mf_1x1, rand_poly, ring


class TestAtiyah:
    def test_free_module_formula_gamma_zero(self, corpus):
        for M in corpus:
            at = atiyah(M, connection_default(M))
            dA = fm_exterior_derivative(
                FormMatrix.from_poly_rows(M.ctx, M.r0, M.r1, M.A.entries)
            )
            dB = fm_exterior_derivative(
                FormMatrix.from_poly_rows(M.ctx, M.r1, M.r0, M.B.entries)
            )
            assert at.block01 == dA
            assert at.block10 == dB
            # block diagonal vanishes
            for i in range(M.r0):
                for j in range(M.r0):
                    assert at.matrix.entries[i][j].is_zero()

    def test_power_range_checked(self, koszul_xy):
        at = atiyah(koszul_xy, connection_default(koszul_xy))
        with pytest.raises(Exception):
            atiyah_power(at, 3)

    def test_entries_are_one_forms(self, threevar_example):
        rng = random.Random(1)
        at = atiyah(threevar_example, random_connection(threevar_example, rng))
        for row in at.matrix.entries:
            for e in row:
                assert e.is_zero() or e.degree() == 1


class TestStrictness:
    def test_corpus_default_connection(self, corpus):
        for M in corpus:
            ok, why = phi_strictness_check(M)
            assert ok, why

    def test_corpus_random_connections(self, corpus):
        rng = random.Random(3)
        for M in corpus:
            conn = random_connection(M, rng)
            ok, why = phi_strictness_check(M, conn)
            assert ok, why

    def test_gamma_dropped_negative_control(self, koszul_xy):
        # dropping the Gamma correction from one block must break the squares
        M = koszul_xy
        ctx = M.ctx
        gamma0 = FormMatrix(ctx, 1, 1, [[parse_form("x*dy", ctx)]])
        gamma1 = FormMatrix(ctx, 1, 1, [[parse_form("0", ctx)]])
        conn = Connection(M, gamma0, gamma1)
        good = atiyah(M, conn)
        bare = atiyah(M, connection_default(M))
        mangled = AtiyahClass(
            M, conn,
            FormMatrix(
                ctx, 2, 2,
                [
                    [good.matrix.entries[0][0], bare.matrix.entries[0][1]],
                    [good.matrix.entries[1][0], good.matrix.entries[1][1]],
                ],
            ),
        )
        ok, _ = phi_strictness_check(M, conn, at=mangled)
        assert not ok


class TestSupertrace:
    def test_odd_powers_vanish(self, corpus):
        for M in corpus:
            at = atiyah(M, connection_default(M))
            for i in range(1, M.ctx.nvars + 1, 2):
                assert supertrace(atiyah_power(at, i), M.r0, M.r1).is_zero()

    def test_cycle_condition(self, corpus):
        from mfchern import df_form, wedge

        for M in corpus:
            at = atiyah(M, connection_default(M))
            df = df_form(M.f)
            for i in range(M.ctx.nvars + 1):
                s = supertrace(atiyah_power(at, i), M.r0, M.r1)
                assert wedge(df, s).is_zero()

    def test_threevar_with_random_connection(self, threevar_example):
        from mfchern import df_form, wedge

        M = threevar_example
        rng = random.Random(17)
        conn = random_connection(M, rng)
        at = atiyah(M, conn)
        df = df_form(M.f)
        for i in (1, 3):
            assert supertrace(atiyah_power(at, i), M.r0, M.r1).is_zero()
        for i in (0, 2):
            s = supertrace(atiyah_power(at, i), M.r0, M.r1)
            assert wedge(df, s).is_zero()


class TestChernCharacter:
    def test_worked_value_koszul_xy(self, koszul_xy):
        ch = chern_character(koszul_xy)
        ctx = koszul_xy.ctx
        assert ch.component(0).is_zero()
        assert ch.component(2) == parse_form("dx^dy", ctx)

    def test_connection_independence(self, corpus):
        rng = random.Random(23)
        for M in corpus:
            base = chern_character(M)
            for _ in range(3):
                assert chern_character(M, random_connection(M, rng)) == base

    def test_discrepancy_form_reduces(self, ctx_xy):
        # for f = x*y the degree-2 discrepancy is (g*x + h*y) dx^dy
        f = parse_poly("x*y", ctx_xy)
        rng = random.Random(31)
        for _ in range(10):
            g = rand_poly(rng, ctx_xy, 2, 3)
            h = rand_poly(rng, ctx_xy, 2, 3)
            x = Poly.variable(ctx_xy, 0)
            y = Poly.variable(ctx_xy, 1)
            w = Form(ctx_xy, {(0, 1): g * x + h * y})
            assert form_normal_form(w, f).is_zero()

    def test_contractible_vanishes(self, ctx_xy):
        triv = mf_1x1(ctx_xy, "1", "x*y")
        assert chern_character(triv).is_zero()

    def test_stabilization_invariance(self, corpus):
        from mfchern import print_poly

        for M in corpus:
            one = Poly.one(M.ctx)
            triv = mf_1x1(M.ctx, "1", print_poly(M.f)) if not M.f.is_zero() else None
            if triv is None:
                continue
            assert chern_character(direct_sum(M, triv)) == chern_character(M)

    def test_cone_of_identity_vanishes(self, corpus):
        for M in corpus:
            C = cone(identity_morphism(M)).cone
            assert chern_character(C).is_zero()


def _dense_chern(M, conn):
    """ch through the dense path: full powers of At and their supertraces.

    Odd supertraces are asserted to vanish on the way.
    """
    at = atiyah(M, conn)
    out = []
    for i in range(M.ctx.nvars + 1):
        s = supertrace(atiyah_power(at, i), M.r0, M.r1)
        if i % 2:
            assert s.is_zero(), f"str(At^{i}) != 0"
            continue
        out.append((i, form_normal_form(s.scale(Fraction(1, math.factorial(i))), M.f)))
    return tuple(out)


def _koszul_tower(m):
    """(x_i + 2*x_(i+1 mod m) | y_i) tensored over i < m: 2m variables,
    ranks 2^(m-1) + 2^(m-1)."""
    names = [f"x{i}" for i in range(m)] + [f"y{i}" for i in range(m)]
    ctx = ring(*names)
    out = None
    for i in range(m):
        K = mf_1x1(ctx, f"x{i} + 2*x{(i + 1) % m}", f"y{i}")
        out = K if out is None else tensor(out, K)
    return out


class TestDenseOracle:
    """The block kernel of chern_character against the dense At^i path."""

    def _check(self, M, seeds=(5, 6)):
        conns = [connection_default(M)]
        conns += [random_connection(M, random.Random(s)) for s in seeds]
        for conn in conns:
            assert chern_character(M, conn).entries == _dense_chern(M, conn)

    @pytest.mark.parametrize("m", [1, 2])
    def test_koszul_towers(self, m):
        self._check(_koszul_tower(m))

    def test_koszul_tower_n6_default_connection(self):
        # random connections at n=6 make the normal forms too slow for a
        # unit test; n <= 4 covers them
        self._check(_koszul_tower(3), seeds=())

    def test_threevar_example(self, threevar_example):
        self._check(threevar_example)

    def test_direct_sum(self, ctx_xy):
        M = direct_sum(mf_1x1(ctx_xy, "x", "y"), mf_1x1(ctx_xy, "y", "x"))
        self._check(direct_sum(M, mf_1x1(ctx_xy, "1", "x*y")))

    def test_cones(self, ctx_x, threevar_example):
        src = mf_1x1(ctx_x, "x^2", "x")
        tgt = mf_1x1(ctx_x, "x", "x^2")
        P = lambda s: parse_poly(s, ctx_x)
        theta = StrictMorphism(
            src, tgt,
            PolyMatrix(ctx_x, 1, 1, [[P("1")]]),
            PolyMatrix(ctx_x, 1, 1, [[P("x")]]),
        )
        self._check(cone(theta).cone)
        self._check(cone(identity_morphism(threevar_example)).cone, seeds=(7,))

    def test_unequal_ranks(self, ctx_xyz):
        # the tensor unit has r0 = 1, r1 = 0: At01 is 1x0 and At10 is 0x1
        U = mf_unit(ctx_xyz)
        assert (U.r0, U.r1) == (1, 0)
        self._check(U)
        assert chern_character(U).component(0) == Form.from_poly(Poly.one(ctx_xyz))

    def test_trace_identity_check_fires(self, koszul_xy, monkeypatch):
        # skew the E1 chain only: tr(Y) = -tr(X) must then fail loudly
        M = koszul_xy
        b = atiyah(M, connection_default(M)).block10
        real = chern.fm_mul

        def skewed(S, T):
            P = real(S, T)
            return P.scale(2) if S == b else P

        monkeypatch.setattr(chern, "fm_mul", skewed)
        with pytest.raises(InternalConsistencyError, match="tr\\(Y"):
            chern_character(M)


class TestAdditivity:
    def test_zero_and_identity(self, koszul_xy, threevar_example):
        for M in (koszul_xy, threevar_example):
            assert cone_additivity_check(identity_morphism(M))
            assert cone_additivity_check(zero_morphism(M, M))

    def test_multiplication_morphism(self, ctx_x):
        P = lambda s: parse_poly(s, ctx_x)
        src = mf_1x1(ctx_x, "x^2", "x")
        tgt = mf_1x1(ctx_x, "x", "x^2")
        theta = StrictMorphism(
            src, tgt,
            PolyMatrix(ctx_x, 1, 1, [[P("1")]]),
            PolyMatrix(ctx_x, 1, 1, [[P("x")]]),
        )
        assert cone_additivity_check(theta)

    def test_random_connections_on_pieces(self, koszul_xy):
        rng = random.Random(41)
        M = koszul_xy
        theta = identity_morphism(M)
        assert cone_additivity_check(
            theta, random_connection(M, rng), random_connection(M, rng)
        )


class TestMultiplicativity:
    def test_knoerrer(self):
        ctx = ring("x", "y", "u", "v")
        E = mf_1x1(ctx, "x", "y")
        F = mf_1x1(ctx, "u", "v")
        assert tensor_multiplicativity_check(E, F)
        from mfchern import tensor

        ch = chern_character(tensor(E, F))
        assert ch.component(4) == parse_form("dx^dy^du^dv", ctx)

    def test_unit_factor(self, corpus):
        for M in corpus:
            assert tensor_multiplicativity_check(M, mf_unit(M.ctx))


class TestFunctoriality:
    def test_shear(self, ctx_xy):
        E = mf_1x1(ctx_xy, "x", "y")
        phi = RingMap(
            ctx_xy, ctx_xy,
            (parse_poly("x + y", ctx_xy), parse_poly("y", ctx_xy)),
        )
        assert functoriality_check(E, phi)
        N = pushforward(E, phi)
        assert N.f == parse_poly("x*y + y^2", ctx_xy)

    def test_random_linear_change(self, threevar_example):
        rng = random.Random(19)
        ctx = threevar_example.ctx
        xs = [Poly.variable(ctx, i) for i in range(3)]
        images = list(xs)
        for i in range(3):
            for j in range(i + 1, 3):
                images[i] = images[i] + rng.randint(-2, 2) * xs[j]
        for i in range(2, -1, -1):
            for j in range(i):
                images[i] = images[i] + rng.randint(-2, 2) * images[j]
        phi = RingMap(ctx, ctx, tuple(images))
        assert functoriality_check(threevar_example, phi)

    def test_push_form_chain_rule(self, ctx_xy):
        phi = RingMap(
            ctx_xy, ctx_xy,
            (parse_poly("x^2", ctx_xy), parse_poly("y", ctx_xy)),
        )
        w = parse_form("dx", ctx_xy)
        assert phi.push_form(w) == parse_form("2*x*dx", ctx_xy)


class TestTowerOracle:
    @pytest.mark.parametrize("nvars", [1, 2, 3])
    def test_matches_closed_form(self, nvars):
        names = ("x", "y", "z")[:nvars]
        ctx = ring(*names)
        rng = random.Random(100 + nvars)
        count = 0
        while count < 10:
            a = rand_poly(rng, ctx, 2, 2)
            b = rand_poly(rng, ctx, 2, 2)
            if a.is_zero() or b.is_zero():
                continue
            from mfchern import MatFac

            M = MatFac(
                ctx, a * b,
                PolyMatrix(ctx, 1, 1, [[a]]),
                PolyMatrix(ctx, 1, 1, [[b]]),
            )
            conn = random_connection(M, rng)
            assert phi_tower_oracle(M, conn, nvars) == phi_tilde_n(M, conn, nvars)
            count += 1

    def test_unscaled_tower_differs_in_general(self, koszul_xy):
        # without the rescaling isomorphism the stage sum carries binomial
        # weights instead of 1/i!; n = 2 separates them
        M = koszul_xy
        raw = phi_tower_oracle(M, None, 2, rescale=False)
        assert raw != phi_tilde_n(M, None, 2)


class TestClassicalChernWeil:
    def test_rank(self):
        ctx = ring("x", "y")
        e = PolyMatrix.identity(ctx, 3)
        ch = classical_chern(e)
        assert ch == Form.from_poly(Poly.const(ctx, 3))

    def test_conjugated_idempotents_closed(self):
        ctx = ring("x", "y", "z")
        P = lambda s: parse_poly(s, ctx)
        one, zero = Poly.one(ctx), Poly.zero(ctx)
        rng = random.Random(55)
        for _ in range(8):
            p = rand_poly(rng, ctx, 2, 2)
            q = rand_poly(rng, ctx, 2, 2)
            U = PolyMatrix(ctx, 2, 2, [[one, p], [zero, one]]) * PolyMatrix(
                ctx, 2, 2, [[one, zero], [q, one]]
            )
            Uinv = PolyMatrix(ctx, 2, 2, [[one, zero], [-q, one]]) * PolyMatrix(
                ctx, 2, 2, [[one, -p], [zero, one]]
            )
            assert U * Uinv == PolyMatrix.identity(ctx, 2)
            e = U * PolyMatrix(ctx, 2, 2, [[one, zero], [zero, zero]]) * Uinv
            ch = classical_chern(e)
            for k in ch.degrees():
                assert exterior_derivative(ch.degree_component(k)).is_zero()

    def test_non_idempotent_rejected(self):
        ctx = ring("x")
        with pytest.raises(Exception):
            classical_chern(PolyMatrix(ctx, 1, 1, [[Poly.variable(ctx, 0)]]))


class TestKClasses:
    def test_chern_additive(self, ctx_xy):
        M = mf_1x1(ctx_xy, "x", "y")
        N = mf_1x1(ctx_xy, "y", "x")
        k = kclass_add(kclass(M), kclass(N))
        lhs = kclass_chern(k)
        rhs = chern_character(M) + chern_character(N)
        assert lhs == rhs

    def test_product_ranks(self, ctx_xy):
        M = mf_1x1(ctx_xy, "x", "y")
        prod = kclass_product(kclass(M), kclass(mf_unit(ctx_xy)))
        (c, T), = prod.terms
        assert c == 1
        assert (T.r0, T.r1) == (M.r0, M.r1)
