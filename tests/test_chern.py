import math
import random
from fractions import Fraction

import pytest

from mfchern import (
    AtiyahClass,
    Connection,
    Form,
    FormMatrix,
    HomologyClass,
    InternalConsistencyError,
    Poly,
    PolyMatrix,
    RingMap,
    atiyah,
    atiyah_power,
    atiyah_powers,
    chern_character,
    classical_chern,
    cone,
    cone_additivity_check,
    connection_default,
    df_form,
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
    wedge,
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

    def test_powers_are_one_chain(self, threevar_example, monkeypatch):
        M = threevar_example
        at = atiyah(M, random_connection(M, random.Random(2)))
        dense = [atiyah_power(at, i) for i in range(4)]
        calls = []
        monkeypatch.setattr(chern, "fm_mul", lambda S, T: calls.append(1) or fm_mul(S, T))
        assert list(atiyah_powers(at, 3)) == dense
        assert len(calls) == 3

    def test_gamma_zero_costs_no_product_and_no_partial(self, monkeypatch):
        # under the default connection At01 = dA and At10 = dB: the four
        # products by Gamma = 0 form no entry product, and d differentiates
        # each term in place, without Poly.partial_derivative
        from mfchern import exterior

        M = _koszul_tower(4)
        conn = connection_default(M)
        want = atiyah(M, conn)
        calls = {"fm_mul": 0, "_wedge_sums": 0, "partial_derivative": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(chern, "fm_mul", counted("fm_mul", fm_mul))
        monkeypatch.setattr(
            exterior, "_wedge_sums", counted("_wedge_sums", exterior._wedge_sums)
        )
        monkeypatch.setattr(
            Poly, "partial_derivative", counted("partial_derivative", Poly.partial_derivative)
        )
        assert M.ctx.nvars == 8
        assert atiyah(M, conn) == want
        assert calls == {"fm_mul": 4, "_wedge_sums": 0, "partial_derivative": 0}

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
        mangled = AtiyahClass(M, conn, bare.block01, good.block10)
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

    def test_class_is_read_modulo_df_image(self, threevar_example):
        # a raw cycle and the same cycle plus df ^ eta give one class
        M = threevar_example
        at = atiyah(M, random_connection(M, random.Random(4)))
        w = supertrace(atiyah_power(at, 2), M.r0, M.r1).scale(Fraction(1, 2))
        eta = parse_form("x*dy - z^2*dx + dz", M.ctx)
        moved = w + wedge(df_form(M.f), eta)
        assert moved != w
        assert HomologyClass(M.f, 3, {2: moved}) == HomologyClass(M.f, 3, {2: w})
        assert HomologyClass(M.f, 3, [(2, w)]).component(2) == form_normal_form(w, M.f)

    def test_kernel_builds_no_dense_atiyah_matrix(self, monkeypatch):
        M = _koszul_tower(2)
        conn = random_connection(M, random.Random(8))
        calls = []
        blocks = FormMatrix.blocks
        monkeypatch.setattr(
            FormMatrix, "blocks", classmethod(lambda cls, *a: calls.append(1) or blocks(*a))
        )
        chern_character(M, conn)
        assert phi_strictness_check(M, conn)[0]
        assert calls == []


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
        # under a random connection at n=6 the dense path's normal forms in
        # degrees 2 and 4 are too slow for a unit test; n <= 4 covers them
        # here, and TestJacobianKernel checks connection independence at n=6
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

    @pytest.mark.parametrize("names, isolated", [("xy", True), ("xyz", False)])
    def test_trace_identity_check_fires(self, names, isolated, monkeypatch):
        # doubled chain products: chern_character, which checks no
        # cyclicity, returns a doubled degree 2, reduced mod J_f (x*y over
        # x, y) or not (x*y over x, y, z, whose Jacobian ring is
        # infinite-dimensional); the cycle suite, which compares the chain
        # with the dense power, fails
        M = mf_1x1(ring(*names), "x", "y")
        assert (chern._jacobian_normal_forms(M.f) is not None) == isolated
        two = chern_character(M).component(2)
        assert not two.is_zero()
        products = _chain_products(monkeypatch, skew=True)
        assert chern_character(M).component(2) == two.scale(2)
        del products[:]
        assert chern.CHECK_SUITES["cycle"](M, None, None) == "str(At^2) != 2 tr(X^1)"
        # one product: the diagonal of At01.At10
        assert len(products) == 1


def _chain_character(M, conn=None):
    """ch from every degree's unreduced power chains, the mode of every f
    whose Jacobian ring is infinite-dimensional."""
    at = atiyah(M, conn or connection_default(M))
    return HomologyClass(M.f, M.ctx.nvars, chern._cycles(at, None))


def _chain_products(monkeypatch, skew=False):
    """A list that gets one entry per product the power chain forms, seen at
    its own product step (``chern._wedge_sums``).  With ``skew``, every
    product comes out doubled."""
    calls, real_sums = [], chern._wedge_sums

    def sums(*args):
        calls.append(1)
        out = real_sums(*args)
        if skew:
            out = [{m: {u: 2 * c for u, c in t.items()} for m, t in acc.items()} for acc in out]
        return out

    monkeypatch.setattr(chern, "_wedge_sums", sums)
    return calls


def _products_past_atiyah(M, conn, monkeypatch):
    """The products chern_character(M, conn) forms beyond those of atiyah:
    its fm_mul calls past atiyah's, plus the products of the power chains."""
    calls = []
    monkeypatch.setattr(chern, "fm_mul", lambda S, T: calls.append(1) or fm_mul(S, T))
    atiyah(M, conn)
    in_atiyah = len(calls)
    chain = _chain_products(monkeypatch)
    chern_character(M, conn)
    return len(calls) - 2 * in_atiyah + len(chain)


class TestJacobianKernel:
    """chern_character, which reduces mod J_f when the Jacobian ring is
    finite-dimensional, against the unreduced chains of every degree."""

    def _check(self, M, seeds=(5,)):
        assert chern._jacobian_normal_forms(M.f) is not None
        conns = [connection_default(M)]
        conns += [random_connection(M, random.Random(s)) for s in seeds]
        for conn in conns:
            assert chern_character(M, conn).entries == _chain_character(M, conn).entries

    def test_corpus(self, corpus):
        for M in corpus:
            self._check(M, seeds=(5, 6))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_koszul_towers(self, m):
        self._check(_koszul_tower(m), seeds=(5,) if m < 3 else ())

    def test_koszul_tower_n6_random_connection(self):
        # the power chains did not finish this in 90 s; reduced mod J_f
        # (the maximal ideal here) it takes about 0.1 s
        T = _koszul_tower(3)
        conn = random_connection(T, random.Random(5))
        assert chern_character(T, conn) == chern_character(T)

    def test_odd_n_forms_no_chain(self, threevar_example, monkeypatch):
        M = threevar_example
        self._check(M)
        conn = random_connection(M, random.Random(3))
        assert _products_past_atiyah(M, conn, monkeypatch) == 0
        ch = chern_character(M, conn)
        assert [d for d, _ in ch.entries] == [0, 2]
        assert ch.component(2).is_zero()

    def test_direct_sums_and_cones(self, ctx_x, ctx_xy, threevar_example):
        M = direct_sum(mf_1x1(ctx_xy, "x", "y"), mf_1x1(ctx_xy, "y", "x"))
        self._check(direct_sum(M, mf_1x1(ctx_xy, "1", "x*y")))
        theta = StrictMorphism(
            mf_1x1(ctx_x, "x^2", "x"), mf_1x1(ctx_x, "x", "x^2"),
            PolyMatrix(ctx_x, 1, 1, [[parse_poly("1", ctx_x)]]),
            PolyMatrix(ctx_x, 1, 1, [[parse_poly("x", ctx_x)]]),
        )
        self._check(cone(theta).cone)
        self._check(cone(identity_morphism(threevar_example)).cone)

    def test_unit_jacobian_ideal(self, ctx_xy):
        # f = x: J_f = (1), so every class above degree 0 is zero
        M = mf_1x1(ctx_xy, "x", "1")
        self._check(M, seeds=(5, 6))
        assert chern_character(M).component(2).is_zero()

    def test_jacobian_ideal_with_nonzero_normal_forms(self):
        # J_f = (3x^2 + y^2, xy, 3u^2 - v^2, uv): unlike the monomial ideals
        # above, reducing x^2 leaves -y^2/3 behind
        ctx = ring("x", "y", "u", "v")
        self._check(
            tensor(mf_1x1(ctx, "x", "x^2 + y^2"), mf_1x1(ctx, "u", "u^2 - v^2")),
            seeds=(5, 6),
        )

    @pytest.mark.parametrize("names, f", [
        ("x", "x^5"), ("xy", "x"), ("xy", "x^3*y + y^4"), ("xy", "x^4 + y^4 + x^2*y^2"),
        ("xyzw", "x^3 + y^3 + z^3*w + w^5"), ("xyuv", "x^3 + x*y^2 + u^3 - u*v^2"),
    ])
    def test_exponent_cap_from_the_pure_power_leads(self, names, f):
        # the cap is the largest over i of the least k for which x_i^(k+1)
        # reduces, asked of the memo power by power; f = x has the lead 1
        ctx = ring(*names)
        nf, cap = chern._jacobian_normal_forms(parse_poly(f, ctx))
        n = ctx.nvars
        powers = [[tuple(k if j == i else 0 for j in range(n)) for k in range(1, 9)]
                  for i in range(n)]
        least = [next(k for k, m in enumerate(ms) if nf[m] is not None) for ms in powers]
        assert cap == max(least)
        assert all(e <= cap for ms in powers for m in ms if nf[m] is not None
                   for r in nf[m].terms for e in r)

    @pytest.mark.parametrize("names, f", [("xyz", "x*y"), ("xy", "0"), ("", "0")])
    def test_other_potentials_take_the_chains(self, names, f):
        ctx = ring(*names)
        M = mf_1x1(ctx, "x", "y") if f != "0" else mf_unit(ctx)
        assert chern._jacobian_normal_forms(M.f) is None
        assert chern_character(M).entries == _chain_character(M).entries

    def test_no_variables_forms_no_chain(self, monkeypatch):
        M = mf_unit(ring())
        assert _products_past_atiyah(M, connection_default(M), monkeypatch) == 0

    def test_chain_products_are_counted(self, monkeypatch):
        # n = 4, reduced: one chain forms X, then the diagonal of X.X
        M = _koszul_tower(2)
        assert _products_past_atiyah(M, connection_default(M), monkeypatch) == 2

    def test_cycle_check_fires(self, monkeypatch):
        # a 2-form eta added to tr(X) makes str(At^2) = 2 tr(X) no cycle,
        # since df ^ eta != 0
        M = mf_1x1(ring("x", "y", "z"), "x", "y")
        assert chern._jacobian_normal_forms(M.f) is None
        eta = parse_form("dx^dz", M.ctx)
        assert not wedge(df_form(M.f), eta).is_zero()
        real = chern._power_traces

        def skewed(*args):
            return [t + eta for t in real(*args)]

        monkeypatch.setattr(chern, "_power_traces", skewed)
        with pytest.raises(InternalConsistencyError, match="df \\^ str"):
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

    def test_unscaled_tower_differs_in_general(self, koszul_xy, threevar_example):
        # without the rescaling isomorphism the stage sum carries binomial
        # weights instead of 1/i!: the raw tower is sum_m C(n, m) At^m, and
        # n = 2 already separates the two
        cases = [
            (koszul_xy, connection_default(koszul_xy)),
            # 2x2 under a random connection: dead words and Koszul signs
            (threevar_example, random_connection(threevar_example, random.Random(3))),
        ]
        for M, conn in cases:
            n = M.ctx.nvars
            raw = phi_tower_oracle(M, conn, n, rescale=False)
            powers = atiyah_powers(atiyah(M, conn), n)
            expected = next(powers)
            for m, power in enumerate(powers, start=1):
                expected = expected + power.scale(math.comb(n, m))
            assert raw == expected
            assert raw != phi_tilde_n(M, conn, n)

    def test_takes_no_product_past_atiyah(self, threevar_example, monkeypatch):
        # the oracle checks the closed form, so it must not share its wedge
        # kernel: past atiyah it multiplies polynomials only
        M = threevar_example
        conn = random_connection(M, random.Random(0))
        calls = []
        monkeypatch.setattr(chern, "fm_mul", lambda S, T: calls.append(1) or fm_mul(S, T))
        chern.atiyah(M, conn)
        in_atiyah = len(calls)

        def no_wedge(*args):
            raise AssertionError("the tower oracle took a wedge")

        monkeypatch.setattr(chern, "wedge", no_wedge)
        calls.clear()
        phi_tower_oracle(M, conn, 3)
        assert len(calls) == in_atiyah


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

    def test_one_power_chain_matches_the_product_chain(self):
        # oracle: tr(e.(de.de)^k) through a fresh fm_mul chain per power, on
        # rank-2 idempotents of Q[x,y,z,w]^4 conjugated by six elementary
        # matrices; seed 29 gives a nonzero degree-4 component
        ctx = ring("x", "y", "z", "w")
        one, zero = Poly.one(ctx), Poly.zero(ctx)

        def elementary(i, j, p):
            rows = [[one if a == b else zero for b in range(4)] for a in range(4)]
            rows[i][j] = p
            return PolyMatrix(ctx, 4, 4, rows)

        def product_chain(e):
            E = FormMatrix.from_poly_rows(ctx, 4, 4, e.entries)
            de = fm_exterior_derivative(E)
            de2, power = fm_mul(de, de), FormMatrix.identity(ctx, 4)
            total = Form.from_poly(e.trace())
            for k in (1, 2):
                power = fm_mul(power, de2)
                total = total + fm_mul(E, power).trace().scale(
                    Fraction(1, math.factorial(k)))
            return total

        proj = PolyMatrix.blocks(ctx, (2, 2), (2, 2), {(0, 0): PolyMatrix.identity(ctx, 2)})
        top = []
        for seed in range(26, 32):
            rng = random.Random(seed)
            U = Uinv = PolyMatrix.identity(ctx, 4)
            for _ in range(6):
                i, j = rng.sample(range(4), 2)
                p = rand_poly(rng, ctx, 1, 2)
                U, Uinv = U * elementary(i, j, p), elementary(i, j, -p) * Uinv
            e = U * proj * Uinv
            ch = classical_chern(e)
            assert ch == product_chain(e)
            top.append(not ch.degree_component(4).is_zero())
        assert any(top)

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
