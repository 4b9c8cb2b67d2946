#!/usr/bin/env python3
"""Small walkthrough: build factorizations, tensor them, print characters.

Usage: python scripts/chern_demo.py
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mfchern import (
    MatFac,
    PolyMatrix,
    RingCtx,
    chern_character,
    parse_poly,
    print_form,
    tensor,
)


def koszul_pair(ctx, a_text, b_text):
    a = parse_poly(a_text, ctx)
    b = parse_poly(b_text, ctx)
    return MatFac(
        ctx, a * b,
        PolyMatrix(ctx, 1, 1, [[a]]),
        PolyMatrix(ctx, 1, 1, [[b]]),
    )


def show(title, M):
    print(title)
    for d, w in chern_character(M).entries:
        print(f"  deg {d}: {print_form(w)}")


def main():
    ctx = RingCtx(("x", "y", "u", "v"))
    E = koszul_pair(ctx, "x", "y")
    F = koszul_pair(ctx, "u", "v")
    show("ch(x | y) over x*y:", E)
    show("ch(u | v) over u*v:", F)
    T = tensor(E, F)
    print(f"tensor has ranks ({T.r0}, {T.r1}) over {T.f!r}")
    show("ch of the tensor (the wedge of the two classes):", T)


if __name__ == "__main__":
    main()
