"""The mfchern command line tool.

Documents are UTF-8 JSON with string-encoded polynomials and forms.  A
matrix factorization document looks like

    {"vars": ["x", "y"], "f": "x*y", "A": [["x"]], "B": [["y"]]}

with A of shape r0 x r1 (so r0 = len(A), r1 = len(B); empty lists encode
rank-zero pieces).  Morphism documents carry "alpha0"/"alpha1" and either a
single A/B pair (an endomorphism) or explicit "source"/"target" objects.
Complex documents carry "min_degree", "ranks" and "differentials"; ring map
documents carry "source_vars", "target_vars" and "images".

Exit codes: 0 success or pass, 1 a verification failed, 2 usage or parse
problems, 3 an internal consistency check failed (a library bug).
"""
from __future__ import annotations

import argparse
import json
import random
import sys

from .chern import (
    Connection,
    InternalConsistencyError,
    atiyah,
    atiyah_power,
    chern_character,
    cone_additivity_check,
    connection_default,
    functoriality_check,
    phi_strictness_check,
    phi_tilde_n,
    phi_tower_oracle,
    pushforward,
    random_connection,
    supertrace,
    tensor_multiplicativity_check,
    RingMap,
)
from .exterior import Form, FormMatrix, parse_form, print_form, wedge
from .ideals import df_form, form_normal_form
from .mf import (
    ChainComplex,
    MatFac,
    PolyMatrix,
    StrictMorphism,
    ValidationError,
    cone,
    embed,
    fold_complex,
    identity_morphism,
    mf_unit,
    shift,
    tensor,
)
from .ring import ParseError, Poly, RingCtx, RingError, parse_poly, print_poly

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class DocumentError(ValueError):
    pass


# ---------------------------------------------------------------------------
# document (de)serialization
# ---------------------------------------------------------------------------

def _load(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise DocumentError(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise DocumentError(f"{path} is not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise DocumentError(f"{path}: top level must be a JSON object")
    return doc


def _ctx(doc, path) -> RingCtx:
    vs = doc.get("vars")
    if not isinstance(vs, list) or not all(isinstance(v, str) for v in vs):
        raise DocumentError(f"{path}: 'vars' must be a list of strings")
    return RingCtx(tuple(vs))


def _poly_matrix(ctx, rows_json, rows, cols, label, path) -> PolyMatrix:
    if not isinstance(rows_json, list) or len(rows_json) != rows:
        raise DocumentError(f"{path}: '{label}' must have {rows} rows")
    entries = []
    for i, row in enumerate(rows_json):
        if not isinstance(row, list) or len(row) != cols:
            raise DocumentError(
                f"{path}: '{label}' row {i} must have {cols} entries"
            )
        entries.append([parse_poly(e, ctx) for e in row])
    return PolyMatrix(ctx, rows, cols, entries)


def _matfac_parts(ctx, doc, path):
    """Parse f, A, B without running the factorization identity check."""
    for key in ("f", "A", "B"):
        if key not in doc:
            raise DocumentError(f"{path}: missing '{key}'")
    f = parse_poly(doc["f"], ctx)
    r0, r1 = len(doc["A"]), len(doc["B"])
    A = _poly_matrix(ctx, doc["A"], r0, r1, "A", path)
    B = _poly_matrix(ctx, doc["B"], r1, r0, "B", path)
    return f, A, B


def matfac_from_doc(doc, path) -> MatFac:
    ctx = _ctx(doc, path)
    f, A, B = _matfac_parts(ctx, doc, path)
    return MatFac(ctx, f, A, B)


def matfac_to_doc(M: MatFac) -> dict:
    return {
        "vars": list(M.ctx.variables),
        "f": print_poly(M.f),
        "A": [[print_poly(e) for e in row] for row in M.A.entries],
        "B": [[print_poly(e) for e in row] for row in M.B.entries],
    }


def morphism_from_doc(doc, path) -> StrictMorphism:
    ctx = _ctx(doc, path)
    if "source" in doc or "target" in doc:
        for key in ("source", "target"):
            if key not in doc:
                raise DocumentError(f"{path}: missing '{key}'")
        f = parse_poly(doc["f"], ctx) if "f" in doc else None
        src = dict(doc["source"])
        tgt = dict(doc["target"])
        if f is not None:
            src.setdefault("f", doc["f"])
            tgt.setdefault("f", doc["f"])
        _, As, Bs = _matfac_parts(ctx, src, path + "#source")
        fs = parse_poly(src["f"], ctx)
        _, At_, Bt = _matfac_parts(ctx, tgt, path + "#target")
        ft = parse_poly(tgt["f"], ctx)
        source = MatFac(ctx, fs, As, Bs)
        target = MatFac(ctx, ft, At_, Bt)
    else:
        source = target = matfac_from_doc(doc, path)
    for key in ("alpha0", "alpha1"):
        if key not in doc:
            raise DocumentError(f"{path}: missing '{key}'")
    a0 = _poly_matrix(ctx, doc["alpha0"], target.r0, source.r0, "alpha0", path)
    a1 = _poly_matrix(ctx, doc["alpha1"], target.r1, source.r1, "alpha1", path)
    return StrictMorphism(source, target, a0, a1)


def complex_from_doc(doc, path) -> ChainComplex:
    ctx = _ctx(doc, path)
    for key in ("min_degree", "ranks", "differentials"):
        if key not in doc:
            raise DocumentError(f"{path}: missing '{key}'")
    ranks = tuple(doc["ranks"])
    diffs = []
    for j, d in enumerate(doc["differentials"]):
        diffs.append(
            _poly_matrix(
                ctx, d, ranks[j + 1], ranks[j], f"differentials[{j}]", path
            )
        )
    return ChainComplex(ctx, int(doc["min_degree"]), ranks, tuple(diffs))


def ringmap_from_doc(doc, path) -> RingMap:
    for key in ("source_vars", "target_vars", "images"):
        if key not in doc:
            raise DocumentError(f"{path}: missing '{key}'")
    src = RingCtx(tuple(doc["source_vars"]))
    tgt = RingCtx(tuple(doc["target_vars"]))
    images = tuple(parse_poly(s, tgt) for s in doc["images"])
    return RingMap(src, tgt, images)


def connection_from_doc(doc, path, M: MatFac) -> Connection:
    ctx = M.ctx

    def form_matrix(rows_json, size, label):
        if not isinstance(rows_json, list) or len(rows_json) != size:
            raise DocumentError(f"{path}: '{label}' must be {size}x{size}")
        entries = []
        for row in rows_json:
            if len(row) != size:
                raise DocumentError(f"{path}: '{label}' must be {size}x{size}")
            entries.append([parse_form(e, ctx) for e in row])
        return FormMatrix(ctx, size, size, entries)

    g0 = form_matrix(doc.get("gamma0", []), M.r0, "gamma0")
    g1 = form_matrix(doc.get("gamma1", []), M.r1, "gamma1")
    return Connection(M, g0, g1)


def _write_doc(doc, out):
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out == "-" or out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    doc = _load(args.file)
    ctx = _ctx(doc, args.file)
    f, A, B = _matfac_parts(ctx, doc, args.file)
    try:
        MatFac(ctx, f, A, B)
    except (ValidationError, RingError) as e:
        print(f"FAIL: {e}")
        return EXIT_FAIL
    print("OK")
    return EXIT_OK


def _print_chern(ch):
    for deg, w in ch.entries:
        print(f"deg {deg}: {print_form(w)}")


def cmd_chern(args) -> int:
    M = matfac_from_doc(_load(args.file), args.file)
    conn = None
    if args.gamma:
        conn = connection_from_doc(_load(args.gamma), args.gamma, M)
    _print_chern(chern_character(M, conn))
    return EXIT_OK


def cmd_tensor(args) -> int:
    a = matfac_from_doc(_load(args.a), args.a)
    b = matfac_from_doc(_load(args.b), args.b)
    _write_doc(matfac_to_doc(tensor(a, b)), args.output)
    return EXIT_OK


def cmd_cone(args) -> int:
    theta = morphism_from_doc(_load(args.file), args.file)
    _write_doc(matfac_to_doc(cone(theta).cone), args.output)
    return EXIT_OK


def cmd_shift(args) -> int:
    M = matfac_from_doc(_load(args.file), args.file)
    _write_doc(matfac_to_doc(shift(M)), args.output)
    return EXIT_OK


def cmd_fold(args) -> int:
    C = complex_from_doc(_load(args.file), args.file)
    _write_doc(matfac_to_doc(fold_complex(C)), args.output)
    return EXIT_OK


def cmd_pushforward(args) -> int:
    M = matfac_from_doc(_load(args.file), args.file)
    phi = ringmap_from_doc(_load(args.ringmap), args.ringmap)
    _write_doc(matfac_to_doc(pushforward(M, phi)), args.output)
    return EXIT_OK


def cmd_embed(args) -> int:
    M = matfac_from_doc(_load(args.file), args.file)
    new_ctx = RingCtx(tuple(args.vars))
    _write_doc(matfac_to_doc(embed(M, new_ctx)), args.output)
    return EXIT_OK


def cmd_nf(args) -> int:
    ctx = _infer_ctx(args.vars, args.potential, args.form)
    f = parse_poly(args.potential, ctx)
    w = parse_form(args.form, ctx)
    print(print_form(form_normal_form(w, f)))
    return EXIT_OK


def _infer_ctx(vars_opt, potential, form) -> RingCtx:
    """Variable list, explicit or inferred from the expressions.

    Inference: every identifier in the potential is a variable; in the form
    an identifier 'dv' with v already known is a differential, anything else
    is a variable.  First-appearance order.
    """
    import re

    if vars_opt:
        return RingCtx(tuple(vars_opt))
    ident = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
    seen = []
    for tok in ident.findall(potential):
        if tok not in seen:
            seen.append(tok)
    for tok in ident.findall(form):
        if tok.startswith("d") and tok[1:] in seen:
            continue
        if tok not in seen:
            seen.append(tok)
    if not seen:
        raise DocumentError("cannot infer variables; pass --vars")
    return RingCtx(tuple(seen))


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _suite_strictness(M, rng):
    ok, why = phi_strictness_check(M)
    if not ok:
        return False, why
    ok, why = phi_strictness_check(M, random_connection(M, rng))
    return ok, why


def _suite_odd(M, rng):
    at = atiyah(M, connection_default(M))
    for i in range(1, M.ctx.nvars + 1, 2):
        s = supertrace(atiyah_power(at, i), M.r0, M.r1)
        if not s.is_zero():
            return False, f"str(At^{i}) != 0"
    return True, "ok"


def _suite_cycle(M, rng):
    at = atiyah(M, connection_default(M))
    df = df_form(M.f)
    for i in range(0, M.ctx.nvars + 1):
        s = supertrace(atiyah_power(at, i), M.r0, M.r1)
        if not wedge(df, s).is_zero():
            return False, f"df ^ str(At^{i}) != 0"
    return True, "ok"


def _suite_additivity(M, rng):
    theta = identity_morphism(M)
    if not cone_additivity_check(theta):
        return False, "additivity fails for the identity endomorphism"
    return True, "ok"


def _suite_multiplicativity(M, rng, other=None):
    other = other or mf_unit(M.ctx)
    if not tensor_multiplicativity_check(M, other):
        return False, "ch(E (x) F) != ch(E) ch(F)"
    return True, "ok"


def _suite_functoriality(M, rng):
    ctx = M.ctx
    n = ctx.nvars
    # random invertible linear substitution (unit upper times unit lower)
    xs = [Poly.variable(ctx, i) for i in range(n)]
    images = list(xs)
    for i in range(n):
        for j in range(i + 1, n):
            images[i] = images[i] + rng.randint(-2, 2) * xs[j]
    for i in range(n - 1, -1, -1):
        for j in range(i):
            images[i] = images[i] + rng.randint(-2, 2) * images[j]
    phi = RingMap(ctx, ctx, tuple(images))
    if not functoriality_check(M, phi):
        return False, "pushforward does not commute with ch"
    return True, "ok"


def _suite_tower(M, rng):
    n = M.ctx.nvars
    if n > 3:
        return True, "skipped (needs <= 3 variables)"
    conn = random_connection(M, rng)
    if phi_tower_oracle(M, conn, n) != phi_tilde_n(M, conn, n):
        return False, "tower oracle disagrees with the closed form"
    return True, "ok"


_SUITES = {
    "strictness": _suite_strictness,
    "cycle": _suite_cycle,
    "odd": _suite_odd,
    "additivity": _suite_additivity,
    "multiplicativity": _suite_multiplicativity,
    "functoriality": _suite_functoriality,
    "tower": _suite_tower,
}


def cmd_check(args) -> int:
    import os

    paths = []
    for p in args.files:
        if os.path.isdir(p):
            paths.extend(
                os.path.join(p, n)
                for n in sorted(os.listdir(p))
                if n.endswith(".json")
            )
        else:
            paths.append(p)
    if not paths:
        raise DocumentError("no input documents")
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    print(f"# mfchern check  seed={args.seed}")
    failed = False
    if args.suite == "multiplicativity" and len(paths) == 2:
        pairs = [(paths[0], paths[1])]
    else:
        pairs = [(p, None) for p in paths]
    for path, partner in pairs:
        M = matfac_from_doc(_load(path), path)
        other = (
            matfac_from_doc(_load(partner), partner) if partner else None
        )
        for name in suites:
            rng = random.Random(args.seed)
            if name == "multiplicativity":
                ok, why = _suite_multiplicativity(M, rng, other)
            else:
                ok, why = _SUITES[name](M, rng)
            status = "pass" if ok else f"FAIL ({why})"
            print(f"{path}: {name}: {status}")
            failed = failed or not ok
    return EXIT_FAIL if failed else EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mfchern",
        description="Matrix factorizations and their Chern characters, exactly.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("validate", help="check the factorization identity")
    s.add_argument("file")
    s.set_defaults(fn=cmd_validate)

    s = sub.add_parser("chern", help="print the Chern character")
    s.add_argument("file")
    s.add_argument("--gamma", help="JSON document with gamma0/gamma1 matrices")
    s.set_defaults(fn=cmd_chern)

    s = sub.add_parser("tensor", help="tensor product of two factorizations")
    s.add_argument("a")
    s.add_argument("b")
    s.add_argument("-o", "--output", default="-")
    s.set_defaults(fn=cmd_tensor)

    s = sub.add_parser("cone", help="mapping cone of a strict morphism")
    s.add_argument("file")
    s.add_argument("-o", "--output", default="-")
    s.set_defaults(fn=cmd_cone)

    s = sub.add_parser("shift", help="the shift [1]")
    s.add_argument("file")
    s.add_argument("-o", "--output", default="-")
    s.set_defaults(fn=cmd_shift)

    s = sub.add_parser("fold", help="Z/2-folding of a bounded complex")
    s.add_argument("file")
    s.add_argument("-o", "--output", default="-")
    s.set_defaults(fn=cmd_fold)

    s = sub.add_parser("pushforward", help="base change along a ring map")
    s.add_argument("file")
    s.add_argument("ringmap")
    s.add_argument("-o", "--output", default="-")
    s.set_defaults(fn=cmd_pushforward)

    s = sub.add_parser("embed", help="re-express over a larger variable list")
    s.add_argument("file")
    s.add_argument("--vars", nargs="+", required=True)
    s.add_argument("-o", "--output", default="-")
    s.set_defaults(fn=cmd_embed)

    s = sub.add_parser("check", help="run verification suites")
    s.add_argument("files", nargs="+")
    s.add_argument(
        "--suite",
        default="all",
        choices=["all"] + sorted(_SUITES),
    )
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(fn=cmd_check)

    s = sub.add_parser("nf", help="normal form modulo the df-wedge image")
    s.add_argument("--potential", required=True)
    s.add_argument("--form", required=True)
    s.add_argument("--vars", nargs="+")
    s.set_defaults(fn=cmd_nf)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0,) else 0
    try:
        return args.fn(args)
    except (DocumentError, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValidationError, RingError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAIL
    except InternalConsistencyError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
