#!/usr/bin/env python3
"""Run every symbolic identity check against the built-in example corpus.

Usage: python scripts/verify_identities.py [--seed N] [--trials K]

Prints one line per (object, property) pair and exits nonzero on any
failure.  Everything is exact rational arithmetic; the seed only controls
which random connections and base changes are tried.
"""
import argparse
import random
import sys

sys.path.insert(0, "src")

from mfchern import (
    MatFac,
    PolyMatrix,
    RingCtx,
    atiyah,
    atiyah_powers,
    chern_character,
    cone_additivity_check,
    connection_default,
    df_form,
    identity_morphism,
    mf_unit,
    parse_poly,
    phi_strictness_check,
    phi_tilde_n,
    phi_tower_oracle,
    print_form,
    random_connection,
    supertrace,
    tensor_multiplicativity_check,
    wedge,
)


def build_corpus():
    out = []
    cx = RingCtx(("x",))
    for n in range(1, 7):
        for i in range(n + 1):
            a = parse_poly(f"x^{i}" if i else "1", cx)
            b = parse_poly(f"x^{n - i}" if n - i else "1", cx)
            out.append((f"(x^{i} | x^{n - i}) over x^{n}", MatFac(
                cx, a * b,
                PolyMatrix(cx, 1, 1, [[a]]),
                PolyMatrix(cx, 1, 1, [[b]]),
            )))
    cxy = RingCtx(("x", "y"))
    x, y = parse_poly("x", cxy), parse_poly("y", cxy)
    out.append(("(x | y) over x*y", MatFac(
        cxy, x * y, PolyMatrix(cxy, 1, 1, [[x]]), PolyMatrix(cxy, 1, 1, [[y]])
    )))
    cz = RingCtx(("x", "y", "z"))
    P = lambda s: parse_poly(s, cz)
    out.append(("2x2 block over x*y + y*z + z*x", MatFac(
        cz, P("x*y + y*z + z*x"),
        PolyMatrix(cz, 2, 2, [[P("z"), P("y")], [P("x"), P("-x-y")]]),
        PolyMatrix(cz, 2, 2, [[P("x+y"), P("y")], [P("x"), P("-z")]]),
    )))
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trials", type=int, default=3,
                    help="random connections per object")
    args = ap.parse_args()
    rng = random.Random(args.seed)
    failures = 0

    def check(label, prop, ok):
        nonlocal failures
        print(f"{label}: {prop}: {'pass' if ok else 'FAIL'}")
        failures += 0 if ok else 1

    for label, M in build_corpus():
        n = M.ctx.nvars
        check(label, "strictness", phi_strictness_check(M)[0])
        at = atiyah(M, connection_default(M))
        df = df_form(M.f)
        strs = [supertrace(P, M.r0, M.r1) for P in atiyah_powers(at, n)]
        check(label, "odd powers vanish", all(s.is_zero() for s in strs[1::2]))
        cycle_ok = all(wedge(df, s).is_zero() for s in strs)
        check(label, "cycle condition", cycle_ok)
        base = chern_character(M)
        indep = all(
            chern_character(M, random_connection(M, rng)) == base
            for _ in range(args.trials)
        )
        check(label, "connection independence", indep)
        check(label, "additivity (identity cone)",
              cone_additivity_check(identity_morphism(M)))
        check(label, "multiplicativity (unit factor)",
              tensor_multiplicativity_check(M, mf_unit(M.ctx)))
        if n <= 3 and M.r0 == M.r1 == 1:
            conn = random_connection(M, rng)
            check(label, "tower oracle",
                  phi_tower_oracle(M, conn, n) == phi_tilde_n(M, conn, n))
        summary = ", ".join(
            f"deg {d}: {print_form(w)}" for d, w in base.entries
        )
        print(f"{label}: ch = {summary}")

    print(f"\n{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
