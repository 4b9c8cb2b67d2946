"""The mfchern command line tool.

Documents are UTF-8 JSON with string-encoded polynomials and forms.  A
matrix factorization document looks like

    {"vars": ["x", "y"], "f": "x*y", "A": [["x"]], "B": [["y"]]}

with A of shape r0 x r1 (so r0 = len(A), r1 = len(B); empty lists encode
rank-zero pieces).  Morphism documents carry "alpha0"/"alpha1" and either a
single A/B pair (an endomorphism) or explicit "source"/"target" objects.
Complex documents carry "min_degree", "ranks" and "differentials"; ring map
documents carry "source_vars", "target_vars" and "images".

``check`` runs the suites of ``chern.CHECK_SUITES``, each with a fresh
``random.Random(seed)``, and prints one pass or FAIL line per document and
suite; the suites themselves live in ``chern`` beside the checks they drive.

Exit codes: 0 success or pass; 1 a mathematical verification failed
(ValidationError, or a check suite reporting FAIL) and nothing else; 2 the
inputs are malformed or do not fit together (usage, an unreadable or
malformed document, any RingError such as a parse error or two rings that
differ); 3 an internal consistency check failed (a library bug).  ``main``
makes this mapping in one place.
"""
from __future__ import annotations

import argparse
import json
import random
import sys

from .chern import (
    CHECK_SUITES,
    Connection,
    InternalConsistencyError,
    RingMap,
    chern_character,
    embed,
    pushforward,
)
from .exterior import FormMatrix, parse_form, print_form
from .ideals import form_normal_form
from .mf import (
    ChainComplex,
    MatFac,
    PolyMatrix,
    StrictMorphism,
    ValidationError,
    cone,
    fold_complex,
    shift,
    tensor,
)
from .ring import (
    RingCtx,
    RingError,
    _differential,
    _tokenize,
    parse_poly,
    print_poly,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class DocumentError(ValueError):
    pass


# Largest r0 + r1 a complex document may fold to.  Its ranks are bare
# integers with nothing behind them, while checking the folded factorization
# takes r x r products: "ranks": [1000, 0] alone took seconds.  The largest
# factorization anywhere in the tests, scripts and benchmark has r0 + r1 = 32.
MAX_FOLDED_RANK = 64


def _load(path) -> "_Doc":
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as e:
        raise DocumentError(f"cannot read {path} as JSON: {e}") from None
    return _Doc(doc, path)


def _is_str(v) -> bool:
    return type(v) is str


class _Doc:
    """A JSON object read from ``path``.  Each accessor checks the type and
    shape of what it returns, and an error names the JSON path."""

    def __init__(self, doc, path):
        if type(doc) is not dict:
            raise DocumentError(f"{path}: top level must be a JSON object")
        self.doc, self.path = doc, path

    def get(self, key, type_, what):
        """The value at ``key``, of exactly ``type_``: neither 0.5 nor true is an int."""
        if key not in self.doc:
            raise DocumentError(f"{self.path}: missing '{key}'")
        if type(self.doc[key]) is not type_:
            raise DocumentError(f"{self.path}: '{key}' must be {what}")
        return self.doc[key]

    def items(self, label, value, count, many, each=None, one=None):
        """``value`` as a list of ``count`` entries (any number if None), each
        passing ``each``; ``many`` and ``one`` describe them in the error."""
        if type(value) is not list or count is not None and len(value) != count:
            size = "" if count is None else f"{count} "
            raise DocumentError(f"{self.path}: {label} must be a list of {size}{many}")
        for i, v in enumerate(value):
            if each is not None and not each(v):
                raise DocumentError(f"{self.path}: {label}[{i}] must be {one}")
        return value

    def call(self, where, fn, *args):
        """fn(*args), with a RingError reported at ``where``."""
        try:
            return fn(*args)
        except RingError as e:
            raise DocumentError(f"{self.path}: {where}: {e}") from None

    def ring(self, key) -> RingCtx:
        names = self.get(key, list, "a list of strings")
        self.items(f"'{key}'", names, None, "strings", _is_str, "a string")
        return self.call(f"'{key}'", RingCtx, tuple(names))

    def matrix(self, key, rows, cols, parse, ctx, cls=PolyMatrix):
        """The rows x cols matrix at ``key``, each string entry parsed."""
        label = f"'{key}'"
        grid = self.items(label, self.get(key, list, "a list of rows"), rows, "rows")
        for i, row in enumerate(grid):
            self.items(f"{label}[{i}]", row, cols, "entries", _is_str, "a string")
        return cls(ctx, rows, cols, [
            [self.call(f"{label}[{i}][{j}]", parse, e, ctx) for j, e in enumerate(row)]
            for i, row in enumerate(grid)
        ])


def _matfac_parts(d: _Doc, ctx):
    """Parse f, A, B without running the factorization identity check."""
    f = d.call("'f'", parse_poly, d.get("f", str, "a string"), ctx)
    r0 = len(d.get("A", list, "a list of rows"))
    r1 = len(d.get("B", list, "a list of rows"))
    A = d.matrix("A", r0, r1, parse_poly, ctx)
    B = d.matrix("B", r1, r0, parse_poly, ctx)
    return f, A, B


def matfac_from_doc(d: _Doc) -> MatFac:
    ctx = d.ring("vars")
    return MatFac(ctx, *_matfac_parts(d, ctx))


def matfac_to_doc(M: MatFac) -> dict:
    return {
        "vars": list(M.ctx.variables),
        "f": print_poly(M.f),
        "A": [[print_poly(e) for e in row] for row in M.A.entries],
        "B": [[print_poly(e) for e in row] for row in M.B.entries],
    }


def morphism_from_doc(d: _Doc) -> StrictMorphism:
    ctx = d.ring("vars")
    if "source" in d.doc or "target" in d.doc:
        shared = {}
        if "f" in d.doc:  # checked even where both sides override it
            shared["f"] = d.get("f", str, "a string")
            d.call("'f'", parse_poly, shared["f"], ctx)
        sides = [_Doc({**shared, **d.get(key, dict, "an object")}, f"{d.path}#{key}")
                 for key in ("source", "target")]
        source, target = (MatFac(ctx, *_matfac_parts(side, ctx)) for side in sides)
    else:
        source = target = matfac_from_doc(d)
    a0 = d.matrix("alpha0", target.r0, source.r0, parse_poly, ctx)
    a1 = d.matrix("alpha1", target.r1, source.r1, parse_poly, ctx)
    return StrictMorphism(source, target, a0, a1)


def complex_from_doc(d: _Doc) -> ChainComplex:
    ctx = d.ring("vars")
    min_degree = d.get("min_degree", int, "an integer")
    ranks = d.items("'ranks'", d.get("ranks", list, "a list of integers"), None,
                    "integers", lambda r: type(r) is int and r >= 0,
                    "a non-negative integer")
    if sum(ranks) > MAX_FOLDED_RANK:
        raise DocumentError(
            f"{d.path}: 'ranks' add up to {sum(ranks)}, more than the "
            f"{MAX_FOLDED_RANK} a folded factorization may have"
        )
    count = max(len(ranks) - 1, 0)
    grids = d.get("differentials", list, f"a list of {count} matrices")
    d.items("'differentials'", grids, count, "matrices")
    # each grid is read as a key of its own, so errors name 'differentials[j]'
    cells = _Doc({f"differentials[{j}]": g for j, g in enumerate(grids)}, d.path)
    diffs = tuple(
        cells.matrix(f"differentials[{j}]", ranks[j + 1], ranks[j], parse_poly, ctx)
        for j in range(count)
    )
    return ChainComplex(ctx, min_degree, tuple(ranks), diffs)


def ringmap_from_doc(d: _Doc) -> RingMap:
    src, tgt = d.ring("source_vars"), d.ring("target_vars")
    images = d.get("images", list, f"a list of {src.nvars} strings")
    d.items("'images'", images, src.nvars, "strings", _is_str, "a string")
    return RingMap(src, tgt, tuple(
        d.call(f"'images'[{i}]", parse_poly, s, tgt) for i, s in enumerate(images)
    ))


def connection_from_doc(d: _Doc, M: MatFac) -> Connection:
    # an omitted gamma reads as no rows, which fits only a piece of rank 0
    d = _Doc({"gamma0": [], "gamma1": [], **d.doc}, d.path)
    g0 = d.matrix("gamma0", M.r0, M.r0, parse_form, M.ctx, FormMatrix)
    g1 = d.matrix("gamma1", M.r1, M.r1, parse_form, M.ctx, FormMatrix)
    return d.call("'gamma0'/'gamma1'", Connection, M, g0, g1)


def _write_doc(doc, out):
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out == "-" or out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise DocumentError(f"cannot write {out}: {e}") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    d = _load(args.file)
    ctx = d.ring("vars")
    parts = _matfac_parts(d, ctx)
    try:
        MatFac(ctx, *parts)
    except ValidationError as e:
        print(f"FAIL: {e}")
        return EXIT_FAIL
    print("OK")
    return EXIT_OK


def _print_chern(ch):
    for deg, w in ch.entries:
        print(f"deg {deg}: {print_form(w)}")


def cmd_chern(args) -> int:
    M = matfac_from_doc(_load(args.file))
    conn = None
    if args.gamma:
        conn = connection_from_doc(_load(args.gamma), M)
    _print_chern(chern_character(M, conn))
    return EXIT_OK


def cmd_tensor(args) -> int:
    a = matfac_from_doc(_load(args.a))
    b = matfac_from_doc(_load(args.b))
    _write_doc(matfac_to_doc(tensor(a, b)), args.output)
    return EXIT_OK


def cmd_cone(args) -> int:
    theta = morphism_from_doc(_load(args.file))
    _write_doc(matfac_to_doc(cone(theta).cone), args.output)
    return EXIT_OK


def cmd_shift(args) -> int:
    M = matfac_from_doc(_load(args.file))
    _write_doc(matfac_to_doc(shift(M)), args.output)
    return EXIT_OK


def cmd_fold(args) -> int:
    C = complex_from_doc(_load(args.file))
    _write_doc(matfac_to_doc(fold_complex(C)), args.output)
    return EXIT_OK


def cmd_pushforward(args) -> int:
    M = matfac_from_doc(_load(args.file))
    phi = ringmap_from_doc(_load(args.ringmap))
    _write_doc(matfac_to_doc(pushforward(M, phi)), args.output)
    return EXIT_OK


def cmd_embed(args) -> int:
    M = matfac_from_doc(_load(args.file))
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
    if vars_opt:
        return RingCtx(tuple(vars_opt))
    seen = []
    for text, forms in ((potential, False), (form, True)):
        for kind, tok in _tokenize(text):
            if kind == "name" and tok not in seen and not (
                forms and _differential(tok, seen)
            ):
                seen.append(tok)
    if not seen:
        raise DocumentError("cannot infer variables; pass --vars")
    return RingCtx(tuple(seen))


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
    suites = list(CHECK_SUITES) if args.suite == "all" else [args.suite]
    print(f"# mfchern check  seed={args.seed}")
    failed = False
    # two files named on the command line are the two tensor factors; the
    # documents of a directory are never paired
    if (args.suite == "multiplicativity" and len(args.files) == 2
            and not any(os.path.isdir(p) for p in args.files)):
        pairs = [(paths[0], paths[1])]
    else:
        pairs = [(p, None) for p in paths]
    for path, partner in pairs:
        M = matfac_from_doc(_load(path))
        other = matfac_from_doc(_load(partner)) if partner else None
        for name in suites:
            why = CHECK_SUITES[name](M, random.Random(args.seed), other)
            print(f"{path}: {name}: {'pass' if why is None else f'FAIL ({why})'}")
            failed = failed or why is not None
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

    def command(name, fn, help_, *positional, output=False):
        s = sub.add_parser(name, help=help_)
        for arg in positional:
            s.add_argument(arg)
        if output:
            s.add_argument("-o", "--output", default="-")
        s.set_defaults(fn=fn)
        return s

    command("validate", cmd_validate, "check the factorization identity", "file")
    command("chern", cmd_chern, "print the Chern character", "file").add_argument(
        "--gamma", help="JSON document with gamma0/gamma1 matrices")
    command("tensor", cmd_tensor, "tensor product of two factorizations", "a", "b",
            output=True)
    command("cone", cmd_cone, "mapping cone of a strict morphism", "file", output=True)
    command("shift", cmd_shift, "the shift [1]", "file", output=True)
    command("fold", cmd_fold, "Z/2-folding of a bounded complex", "file", output=True)
    command("pushforward", cmd_pushforward, "base change along a ring map",
            "file", "ringmap", output=True)
    s = command("embed", cmd_embed, "re-express over a larger variable list", "file")
    s.add_argument("--vars", nargs="+", required=True)
    s.add_argument("-o", "--output", default="-")

    s = command("check", cmd_check, "run verification suites")
    s.add_argument("files", nargs="+")
    s.add_argument("--suite", default="all", choices=["all"] + sorted(CHECK_SUITES))
    s.add_argument("--seed", type=int, default=0)

    s = command("nf", cmd_nf, "normal form modulo the df-wedge image")
    s.add_argument("--potential", required=True)
    s.add_argument("--form", required=True)
    s.add_argument("--vars", nargs="+")

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0,) else 0
    try:
        return args.fn(args)
    except (DocumentError, RingError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAIL
    except InternalConsistencyError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
