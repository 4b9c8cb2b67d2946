#!/usr/bin/env python3
"""Run every identity check against the built-in example corpus.

Usage: python scripts/verify_identities.py [--seed N] [--trials K]

Prints one line per (object, property) pair and exits nonzero on any
failure.  The properties are the suites of ``mfchern.CHECK_SUITES``, which
``mfchern check`` runs too, and the independence of ch from the connection.
Everything is exact rational arithmetic; the seed only controls which
random connections and base changes are tried.
"""
import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mfchern import (
    CHECK_SUITES,
    MatFac,
    PolyMatrix,
    RingCtx,
    chern_character,
    parse_poly,
    print_form,
    random_connection,
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
    failures = 0

    def report(label, prop, why):
        nonlocal failures
        print(f"{label}: {prop}: {'pass' if why is None else f'FAIL ({why})'}")
        failures += why is not None

    for label, M in build_corpus():
        for name, suite in CHECK_SUITES.items():
            report(label, name, suite(M, random.Random(args.seed), None))
        base = chern_character(M)
        rng = random.Random(args.seed)
        indep = all(
            chern_character(M, random_connection(M, rng)) == base
            for _ in range(args.trials)
        )
        report(label, "connection independence",
               None if indep else "ch depends on the connection")
        summary = ", ".join(
            f"deg {d}: {print_form(w)}" for d, w in base.entries
        )
        print(f"{label}: ch = {summary}")

    print(f"\n{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
