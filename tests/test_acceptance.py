"""End-to-end acceptance checks, one per verified claim.

Each test prints a single pass/fail line so the whole gate is readable from
the pytest -s output.  All checks are exact; there are no tolerances.
"""
import itertools
import random
from fractions import Fraction

import pytest

from mfchern import (
    AtiyahClass,
    ChainComplex,
    Connection,
    Form,
    FormMatrix,
    MatFac,
    Poly,
    PolyMatrix,
    RingMap,
    ValidationError,
    atiyah,
    atiyah_power,
    buchberger,
    chern_character,
    classical_chern,
    cone,
    cone_additivity_check,
    connection_default,
    df_form,
    direct_sum,
    exterior_derivative,
    fm_exterior_derivative,
    fold_complex,
    form_normal_form,
    functoriality_check,
    identity_morphism,
    is_groebner,
    mf_unit,
    normal_form,
    parse_form,
    parse_poly,
    phi_strictness_check,
    phi_tilde_n,
    phi_tower_oracle,
    print_poly,
    random_connection,
    supertrace,
    tensor,
    tensor_complexes,
    tensor_multiplicativity_check,
    wedge,
    zero_morphism,
)
from mfchern.mf import StrictMorphism

from conftest import corpus_list, mf_1x1, rand_poly, ring
from test_ideals import spans

CTX1 = ring("x")
CTX2 = ring("x", "y")
CTX3 = ring("x", "y", "z")
CORPUS = corpus_list(CTX1, CTX2, CTX3)
THREEVAR = CORPUS[-1]
KOSZUL = CORPUS[-2]


def report(num, name, ok):
    line = f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}"
    print(line)
    # also bypass pytest's capture so the gate is readable in any run
    import sys as _sys

    if _sys.stdout is not _sys.__stdout__:
        print(line, file=_sys.__stdout__)
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_01_validation():
    ok = True
    for M in CORPUS:
        prod = M.A * M.B
        for i in range(M.r0):
            for j in range(M.r0):
                want = M.f if i == j else Poly.zero(M.ctx)
                ok = ok and prod.entries[i][j] == want
    # corrupted entry must fail with located diagnostics
    P = lambda s: parse_poly(s, CTX3)
    A = PolyMatrix(CTX3, 2, 2, [[P("z"), P("y")], [P("x"), P("-x-y")]])
    B = PolyMatrix(CTX3, 2, 2, [[P("x+y"), P("y")], [P("x"), P("-z+1")]])
    try:
        MatFac(CTX3, P("x*y + y*z + z*x"), A, B)
        ok = False
    except ValidationError as e:
        ok = ok and "entry (" in str(e)
    report(1, "validation of the example corpus", ok)


def test_02_atiyah_free_module_formula():
    ok = True
    for M in CORPUS:
        at = atiyah(M, connection_default(M))
        dA = fm_exterior_derivative(
            FormMatrix.from_poly_rows(M.ctx, M.r0, M.r1, M.A.entries)
        )
        dB = fm_exterior_derivative(
            FormMatrix.from_poly_rows(M.ctx, M.r1, M.r0, M.B.entries)
        )
        ok = ok and at.block01 == dA and at.block10 == dB
        for i in range(M.r0 + M.r1):
            for j in range(M.r0 + M.r1):
                if (i < M.r0) == (j < M.r0):
                    ok = ok and at.matrix.entries[i][j].is_zero()
    report(2, "Atiyah class via the free-module formula", ok)


def test_03_strictness():
    ok = True
    rng = random.Random(2024)
    for M in CORPUS:
        ok = ok and phi_strictness_check(M)[0]
        ok = ok and phi_strictness_check(M, random_connection(M, rng))[0]
    # negative control: drop the Gamma correction from one block
    M = KOSZUL
    gamma0 = FormMatrix(CTX2, 1, 1, [[parse_form("x*dy", CTX2)]])
    gamma1 = FormMatrix.zeros(CTX2, 1, 1)
    conn = Connection(M, gamma0, gamma1)
    good = atiyah(M, conn)
    bare = atiyah(M, connection_default(M))
    mangled = AtiyahClass(M, conn, bare.block01, good.block10)
    ok = ok and not phi_strictness_check(M, conn, at=mangled)[0]
    report(3, "strictness of [1; At] with negative control", ok)


def test_04_odd_vanishing_and_cycle():
    ok = True
    for M in CORPUS:
        at = atiyah(M, connection_default(M))
        df = df_form(M.f)
        for i in range(M.ctx.nvars + 1):
            s = supertrace(atiyah_power(at, i), M.r0, M.r1)
            if i % 2 == 1:
                ok = ok and s.is_zero()
            ok = ok and wedge(df, s).is_zero()
    report(4, "odd-power vanishing and the cycle condition", ok)


def test_05_worked_chern_value():
    ch = chern_character(KOSZUL)
    ok = ch.component(0).is_zero()
    ok = ok and ch.component(2) == parse_form("dx^dy", CTX2)
    report(5, "worked value ch(x | y) = dx^dy", ok)


def test_06_connection_independence():
    rng = random.Random(6)
    ok = True
    for M in CORPUS:
        base = chern_character(M)
        trials = 20
        for _ in range(trials):
            ok = ok and chern_character(M, random_connection(M, rng)) == base
    # the intermediate degree-2 discrepancy for f = x*y is (g*x + h*y) dx^dy
    f = KOSZUL.f
    x, y = Poly.variable(CTX2, 0), Poly.variable(CTX2, 1)
    for _ in range(20):
        g = rand_poly(rng, CTX2, 2, 3)
        h = rand_poly(rng, CTX2, 2, 3)
        w = Form(CTX2, {(0, 1): g * x + h * y})
        ok = ok and form_normal_form(w, f).is_zero()
    report(6, "connection independence of ch", ok)


def test_07_homotopy_invariance():
    ok = True
    for M in CORPUS:
        if not M.f.is_zero():
            triv = mf_1x1(M.ctx, "1", print_poly(M.f))
            ok = ok and chern_character(direct_sum(M, triv)) == chern_character(M)
        C = cone(identity_morphism(M)).cone
        ok = ok and chern_character(C).is_zero()
    report(7, "homotopy invariance (stabilization, cone of identity)", ok)


def test_08_additivity():
    P = lambda s: parse_poly(s, CTX1)
    src = mf_1x1(CTX1, "x^2", "x")
    tgt = mf_1x1(CTX1, "x", "x^2")
    mult = StrictMorphism(
        src, tgt,
        PolyMatrix(CTX1, 1, 1, [[P("1")]]),
        PolyMatrix(CTX1, 1, 1, [[P("x")]]),
    )
    ok = cone_additivity_check(zero_morphism(KOSZUL, KOSZUL))
    ok = ok and cone_additivity_check(identity_morphism(THREEVAR))
    ok = ok and cone_additivity_check(mult)
    report(8, "additivity of ch over mapping cones", ok)


def test_09_multiplicativity():
    ctx = ring("x", "y", "u", "v")
    E = mf_1x1(ctx, "x", "y")
    F = mf_1x1(ctx, "u", "v")
    ok = tensor_multiplicativity_check(E, F)
    ch = chern_character(tensor(E, F))
    ok = ok and ch.component(4) == parse_form("dx^dy^du^dv", ctx)
    for M in (KOSZUL, THREEVAR):
        ok = ok and tensor_multiplicativity_check(M, mf_unit(M.ctx))
    report(9, "multiplicativity of ch under tensor", ok)


def test_10_functoriality():
    shear = RingMap(
        CTX2, CTX2, (parse_poly("x + y", CTX2), parse_poly("y", CTX2))
    )
    ok = functoriality_check(KOSZUL, shear)
    rng = random.Random(10)
    xs = [Poly.variable(CTX3, i) for i in range(3)]
    images = list(xs)
    for i in range(3):
        for j in range(i + 1, 3):
            images[i] = images[i] + rng.randint(-2, 2) * xs[j]
    for i in range(2, -1, -1):
        for j in range(i):
            images[i] = images[i] + rng.randint(-2, 2) * images[j]
    ok = ok and functoriality_check(THREEVAR, RingMap(CTX3, CTX3, tuple(images)))
    report(10, "functoriality under base change", ok)


def test_11_tower_oracle():
    ok = True
    for nvars in (1, 2, 3):
        ctx = ring(*("x", "y", "z")[:nvars])
        rng = random.Random(1100 + nvars)
        count = 0
        while count < 10:
            a = rand_poly(rng, ctx, 2, 2)
            b = rand_poly(rng, ctx, 2, 2)
            if a.is_zero() or b.is_zero():
                continue
            M = MatFac(
                ctx, a * b,
                PolyMatrix(ctx, 1, 1, [[a]]),
                PolyMatrix(ctx, 1, 1, [[b]]),
            )
            conn = random_connection(M, rng)
            ok = ok and phi_tower_oracle(M, conn, nvars) == phi_tilde_n(
                M, conn, nvars
            )
            count += 1
    report(11, "tensor-tower oracle matches the closed form", ok)


def test_12_folding_compatibility():
    rng = random.Random(12)

    def rand_two_term(dmin):
        r1, r0 = rng.randint(1, 2), rng.randint(1, 2)
        d = PolyMatrix(
            CTX3, r0, r1,
            [
                [rand_poly(rng, CTX3, 1, 1) for _ in range(r1)]
                for _ in range(r0)
            ],
        )
        return ChainComplex(CTX3, dmin, (r1, r0), (d,))

    ok = True
    for _ in range(25):
        X = rand_two_term(rng.choice([-1, 0, 1, 2]))
        Y = rand_two_term(rng.choice([-2, 0, 2]))
        lhs = fold_complex(tensor_complexes(X, Y))
        rhs = tensor(fold_complex(X), fold_complex(Y))
        ok = ok and lhs.A == rhs.A and lhs.B == rhs.B
    report(12, "Z/2-folding compatible with tensor of complexes", ok)


def test_13_classical_chern_weil():
    ok = classical_chern(PolyMatrix.identity(CTX2, 3)) == Form.from_poly(
        Poly.const(CTX2, 3)
    )
    rng = random.Random(13)
    one, zero = Poly.one(CTX3), Poly.zero(CTX3)
    for _ in range(10):
        p = rand_poly(rng, CTX3, 2, 2)
        q = rand_poly(rng, CTX3, 2, 2)
        U = PolyMatrix(CTX3, 2, 2, [[one, p], [zero, one]]) * PolyMatrix(
            CTX3, 2, 2, [[one, zero], [q, one]]
        )
        Uinv = PolyMatrix(CTX3, 2, 2, [[one, zero], [-q, one]]) * PolyMatrix(
            CTX3, 2, 2, [[one, -p], [zero, one]]
        )
        e = U * PolyMatrix(CTX3, 2, 2, [[one, zero], [zero, zero]]) * Uinv
        ch = classical_chern(e)
        ok = ok and ch.degree_component(0) == Form.from_poly(Poly.one(CTX3))
        for k in ch.degrees():
            ok = ok and exterior_derivative(ch.degree_component(k)).is_zero()
    report(13, "classical Chern-Weil character is closed", ok)


def test_14_groebner_engine():
    rng = random.Random(14)
    ok = True
    agreements = 0
    while agreements < 50:
        ctx = CTX2 if rng.random() < 0.7 else CTX3
        gens = [
            g
            for g in (
                rand_poly(rng, ctx, max_deg=2, max_terms=2)
                for _ in range(rng.randint(1, 3))
            )
            if not g.is_zero()
        ]
        if not gens:
            continue
        gb = buchberger(gens, ctx)
        ok = ok and is_groebner(gb)
        p = rand_poly(rng, ctx, max_deg=2, max_terms=3)
        if rng.random() < 0.5:
            p = p * gens[0]
        ok = ok and (normal_form(p, gb).is_zero() == spans(p, gens, ctx))
        agreements += 1
    report(14, "Groebner engine verified against the membership oracle", ok)
