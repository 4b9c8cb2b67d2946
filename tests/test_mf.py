import random
from fractions import Fraction

import pytest

from mfchern import (
    ChainComplex,
    MatFac,
    Poly,
    PolyMatrix,
    RingMap,
    ValidationError,
    chern_character,
    cone,
    contraction_of_identity_cone,
    direct_sum,
    embed,
    fold_complex,
    identity_morphism,
    is_homotopy,
    is_strict_morphism,
    mf_unit,
    module_complex,
    parse_poly,
    pushforward,
    shift,
    tensor,
    tensor_complexes,
    zero_morphism,
)
from mfchern.mf import Homotopy, StrictMorphism

from conftest import mf_1x1, rand_poly, ring


class TestValidation:
    def test_corpus(self, corpus):
        for M in corpus:
            assert (M.A * M.B - PolyMatrix.identity(M.ctx, M.r0).scale(M.f)).is_zero()

    def test_corrupted_entry_located(self, ctx_xyz):
        P = lambda s: parse_poly(s, ctx_xyz)
        A = PolyMatrix(ctx_xyz, 2, 2, [[P("z"), P("y")], [P("x"), P("-x-y")]])
        B = PolyMatrix(ctx_xyz, 2, 2, [[P("x+y"), P("y")], [P("x"), P("-z+1")]])
        with pytest.raises(ValidationError) as e:
            MatFac(ctx_xyz, P("x*y + y*z + z*x"), A, B)
        msg = str(e.value)
        assert "(" in msg and "," in msg  # coordinates of the bad entry

    def test_non_factorization_rejected(self, ctx_x):
        P = lambda s: parse_poly(s, ctx_x)
        with pytest.raises(ValidationError):
            MatFac(
                ctx_x, P("x"),
                PolyMatrix(ctx_x, 1, 1, [[P("x")]]),
                PolyMatrix(ctx_x, 1, 1, [[P("x")]]),
            )

    def test_unit_has_zero_ranks(self, ctx_xy):
        u = mf_unit(ctx_xy)
        assert (u.r0, u.r1) == (1, 0)
        assert u.f.is_zero()


class TestShiftAndSum:
    def test_double_shift_identity(self, corpus):
        for M in corpus:
            assert shift(shift(M)) == M

    def test_shift_of_power_pair(self, ctx_x):
        M = mf_1x1(ctx_x, "x^2", "x")
        S = shift(M)
        P = lambda s: parse_poly(s, ctx_x)
        assert S.A.entries[0][0] == P("-x")
        assert S.B.entries[0][0] == P("-x^2")

    def test_direct_sum_ranks(self, koszul_xy):
        D = direct_sum(koszul_xy, koszul_xy)
        assert (D.r0, D.r1) == (2, 2)

    def test_sum_with_rank_zero(self, ctx_xy):
        z = MatFac(
            ctx_xy, parse_poly("x*y", ctx_xy),
            PolyMatrix.zeros(ctx_xy, 0, 0), PolyMatrix.zeros(ctx_xy, 0, 0),
        )
        M = mf_1x1(ctx_xy, "x", "y")
        assert direct_sum(M, z) == M


class TestMorphisms:
    def test_identity_and_zero(self, threevar_example):
        M = threevar_example
        identity_morphism(M)
        zero_morphism(M, M)

    def test_multiplication_morphism(self, ctx_x):
        # alpha = (1, x) intertwines (x^i | x^(n-i)) -> (x^(i+1) | x^(n-i-1))
        P = lambda s: parse_poly(s, ctx_x)
        for n in range(2, 5):
            for i in range(n - 1):
                src = mf_1x1(ctx_x, f"x^{i+1}", f"x^{n-i-1}" if n - i - 1 else "1")
                tgt = mf_1x1(ctx_x, f"x^{i}" if i else "1", f"x^{n-i}")
                ok, why = is_strict_morphism(
                    PolyMatrix(ctx_x, 1, 1, [[P("1")]]),
                    PolyMatrix(ctx_x, 1, 1, [[P("x")]]),
                    src, tgt,
                )
                assert ok, why

    def test_noncommuting_square_rejected(self, ctx_xy):
        M = mf_1x1(ctx_xy, "x", "y")
        P = lambda s: parse_poly(s, ctx_xy)
        ok, why = is_strict_morphism(
            PolyMatrix(ctx_xy, 1, 1, [[P("1")]]),
            PolyMatrix(ctx_xy, 1, 1, [[P("y")]]),
            M, M,
        )
        assert not ok and "alpha" in why


class TestCone:
    def test_cone_of_zero_is_sum_with_shift(self, ctx_xy):
        M = mf_1x1(ctx_xy, "x", "y")
        N = mf_1x1(ctx_xy, "x*y", "1")
        C = cone(zero_morphism(M, N)).cone
        assert C == direct_sum(N, shift(M))

    def test_canonical_maps_strict(self, threevar_example):
        # StrictMorphism validates in its constructor
        res = cone(identity_morphism(threevar_example))
        assert res.from_target.target == res.cone
        assert res.to_shifted_source.source == res.cone

    def test_identity_cone_contracts(self, corpus):
        for M in corpus:
            res = cone(identity_morphism(M))
            C = res.cone
            h = contraction_of_identity_cone(M)
            assert is_homotopy(
                h, identity_morphism(C), zero_morphism(C, C)
            )

    def test_wrong_homotopy_detected(self, threevar_example):
        M = threevar_example
        res = cone(identity_morphism(M))
        C = res.cone
        h = contraction_of_identity_cone(M)
        bad = Homotopy(h.h0.scale(parse_poly("x", M.ctx)), h.h1)
        assert not is_homotopy(bad, identity_morphism(C), zero_morphism(C, C))


class TestTensor:
    def test_knoerrer_shape(self):
        ctx = ring("x", "y", "u", "v")
        E = mf_1x1(ctx, "x", "y")
        F = mf_1x1(ctx, "u", "v")
        T = tensor(E, F)
        assert (T.r0, T.r1) == (2, 2)
        assert T.f == parse_poly("x*y + u*v", ctx)

    def test_unit_is_neutral(self, corpus):
        for M in corpus:
            T = tensor(M, mf_unit(M.ctx))
            assert T.A == M.A and T.B == M.B and T.f == M.f

    def test_associativity_invariants(self, ctx_xyz):
        rng = random.Random(8)
        names = ["x", "y", "z"]
        for _ in range(5):
            facs = []
            for v in names:
                k = rng.randint(1, 2)
                facs.append(mf_1x1(ctx_xyz, f"{v}^{k}", v))
            L = tensor(tensor(facs[0], facs[1]), facs[2])
            R = tensor(facs[0], tensor(facs[1], facs[2]))
            assert (L.r0, L.r1) == (R.r0, R.r1)
            assert L.f == R.f
            assert chern_character(L) == chern_character(R)

    def test_sum_distributes_over_tensor(self, ctx_xy):
        M = mf_1x1(ctx_xy, "x", "y")
        L = mf_1x1(ctx_xy, "y", "x")
        lhs = tensor(direct_sum(M, M), L)
        rhs = direct_sum(tensor(M, L), tensor(M, L))
        assert (lhs.r0, lhs.r1) == (rhs.r0, rhs.r1)
        assert chern_character(lhs) == chern_character(rhs)


class TestComplexes:
    def test_fold_module(self, ctx_xy):
        M = fold_complex(module_complex(ctx_xy))
        assert (M.r0, M.r1) == (1, 0)
        assert M.f.is_zero()

    def test_fold_koszul_stage(self, ctx_xy):
        # Q --(df)--> Q^2 placed in degrees 0, 1 for f = x*y
        P = lambda s: parse_poly(s, ctx_xy)
        d = PolyMatrix(ctx_xy, 2, 1, [[P("y")], [P("x")]])
        C = ChainComplex(ctx_xy, 0, (1, 2), (d,))
        M = fold_complex(C)
        assert (M.r0, M.r1) == (1, 2)

    def test_differential_square_checked(self, ctx_xy):
        P = lambda s: parse_poly(s, ctx_xy)
        d0 = PolyMatrix(ctx_xy, 1, 1, [[P("x")]])
        d1 = PolyMatrix(ctx_xy, 1, 1, [[P("x")]])
        with pytest.raises(ValidationError):
            ChainComplex(ctx_xy, 0, (1, 1, 1), (d0, d1))

    def test_fold_tensor_compatibility(self, ctx_xyz):
        rng = random.Random(3)

        def rand_two_term(dmin):
            r1, r0 = rng.randint(1, 2), rng.randint(1, 2)
            d = PolyMatrix(
                ctx_xyz, r0, r1,
                [
                    [rand_poly(rng, ctx_xyz, 1, 1) for _ in range(r1)]
                    for _ in range(r0)
                ],
            )
            return ChainComplex(ctx_xyz, dmin, (r1, r0), (d,))

        for _ in range(25):
            X = rand_two_term(rng.choice([-1, 0, 1, 2]))
            Y = rand_two_term(rng.choice([-2, 0, 2]))
            lhs = fold_complex(tensor_complexes(X, Y))
            rhs = tensor(fold_complex(X), fold_complex(Y))
            assert lhs.A == rhs.A and lhs.B == rhs.B


class TestEmbed:
    def test_embed_then_tensor(self):
        small = ring("x", "y")
        big = ring("x", "y", "u", "v")
        E = embed(mf_1x1(small, "x", "y"), big)
        F = embed(mf_1x1(ring("u", "v"), "u", "v"), big)
        T = tensor(E, F)
        assert T.f == parse_poly("x*y + u*v", big)
        images = [parse_poly(v, big) for v in ("x", "y")]
        assert E == pushforward(mf_1x1(small, "x", "y"), RingMap(small, big, images))

    def test_missing_variable_rejected(self):
        small = ring("x", "y")
        with pytest.raises(Exception):
            embed(mf_1x1(small, "x", "y"), ring("x", "u"))
