"""Differential forms with polynomial coefficients and matrices of forms.

A :class:`Form` is an element of the exterior algebra over the Kaehler
differentials of the ambient polynomial ring, stored in the monomial basis
``dx_I`` for strictly increasing index tuples ``I``.  Wedge products carry
the shuffle sign; anything of degree above the variable count is zero.
"""
from __future__ import annotations

from typing import Mapping

from .ring import ParseError, Poly, RingCtx, RingError, _tokenize, _PolyParser, parse_poly, print_poly


class Form:
    """Element of the exterior algebra, keyed by increasing index tuples."""

    __slots__ = ("ctx", "components")

    def __init__(self, ctx: RingCtx, components=()):
        items = components.items() if isinstance(components, Mapping) else components
        acc = {}
        for idx, p in items:
            idx = tuple(idx)
            if list(idx) != sorted(set(idx)):
                raise RingError(f"index tuple {idx} is not strictly increasing")
            if any(not 0 <= i < ctx.nvars for i in idx):
                raise RingError("form index out of range")
            if p.ctx != ctx:
                raise RingError("form coefficient in wrong ring")
            if idx in acc:
                acc[idx] = acc[idx] + p
            else:
                acc[idx] = p
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(
            self, "components", {i: p for i, p in acc.items() if not p.is_zero()}
        )

    def __setattr__(self, *a):
        raise AttributeError("Form is immutable")

    @classmethod
    def _trusted(cls, ctx: RingCtx, components: dict) -> "Form":
        """Internal constructor for results of arithmetic on valid Forms.

        ``components`` must be a fresh dict from strictly increasing index
        tuples to Polys of ``ctx``; only zero coefficients are dropped.
        """
        w = object.__new__(cls)
        object.__setattr__(w, "ctx", ctx)
        object.__setattr__(
            w, "components", {i: p for i, p in components.items() if p.terms}
        )
        return w

    @classmethod
    def zero(cls, ctx: RingCtx) -> "Form":
        return cls(ctx)

    @classmethod
    def from_poly(cls, p: Poly) -> "Form":
        return cls(p.ctx, {(): p})

    @classmethod
    def d_var(cls, ctx: RingCtx, i: int) -> "Form":
        return cls(ctx, {(i,): Poly.one(ctx)})

    def is_zero(self) -> bool:
        return not self.components

    def degree(self):
        """Homogeneous degree, or None if inhomogeneous; 0 for the zero form."""
        degs = {len(i) for i in self.components}
        if not degs:
            return 0
        if len(degs) > 1:
            return None
        return degs.pop()

    def degree_component(self, k: int) -> "Form":
        return Form(
            self.ctx, {i: p for i, p in self.components.items() if len(i) == k}
        )

    def degrees(self):
        return sorted({len(i) for i in self.components})

    def __add__(self, other: "Form") -> "Form":
        if self.ctx != other.ctx:
            raise RingError("mismatched ring contexts")
        acc = dict(self.components)
        for i, p in other.components.items():
            acc[i] = acc[i] + p if i in acc else p
        return Form._trusted(self.ctx, acc)

    def __neg__(self) -> "Form":
        return Form._trusted(self.ctx, {i: -p for i, p in self.components.items()})

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def scale(self, c) -> "Form":
        """Multiply by a Poly or exact scalar."""
        return Form._trusted(self.ctx, {i: p * c for i, p in self.components.items()})

    def __eq__(self, other):
        return (
            isinstance(other, Form)
            and self.ctx == other.ctx
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.ctx, frozenset(self.components.items())))

    def __repr__(self):
        return f"Form({print_form(self)!r})"


def _shuffle_sign(a, b):
    """Sign of merging the disjoint increasing tuples a and b; 0 on overlap."""
    if not set(a).isdisjoint(b):
        return 0
    inv = sum(1 for x in a for y in b if x > y)
    return -1 if inv % 2 else 1


def wedge(a: Form, b: Form) -> Form:
    if a.ctx != b.ctx:
        raise RingError("mismatched ring contexts")
    acc = {}
    for i1, p1 in a.components.items():
        for i2, p2 in b.components.items():
            sign = _shuffle_sign(i1, i2)
            if sign == 0:
                continue
            idx = tuple(sorted(i1 + i2))
            p = p1 * p2
            if sign < 0:
                p = -p
            acc[idx] = acc[idx] + p if idx in acc else p
    return Form._trusted(a.ctx, acc)


def exterior_derivative(a: Form) -> Form:
    acc = {}
    for idx, p in a.components.items():
        for i in range(a.ctx.nvars):
            if i in idx:
                continue
            dp = p.partial_derivative(i)
            if dp.is_zero():
                continue
            # dx_i wedged in front of dx_idx, then sorted into place
            sign = -1 if sum(1 for j in idx if j < i) % 2 else 1
            new = tuple(sorted(idx + (i,)))
            q = dp * sign
            acc[new] = acc[new] + q if new in acc else q
    return Form(a.ctx, acc)


# ---------------------------------------------------------------------------
# form parsing / printing ("(x+1)*dx^dy + 3*dz" style)
# ---------------------------------------------------------------------------

def parse_form(text: str, ctx: RingCtx) -> Form:
    """Parse a sum of terms 'poly * d<var>^d<var>...'; '^' joins wedges."""
    tokens = _tokenize(text)
    out = Form.zero(ctx)
    pos = 0
    n = len(tokens)
    sign = 1
    # leading sign
    while pos < n and tokens[pos] in (("op", "+"), ("op", "-")):
        if tokens[pos] == ("op", "-"):
            sign = -sign
        pos += 1
    while pos < n:
        # collect one additive term: factors separated by '*'
        coeff = Poly.const(ctx, sign)
        dchain = []
        expect_factor = True
        while pos < n:
            tok = tokens[pos]
            if tok in (("op", "+"), ("op", "-")) and not expect_factor:
                break
            if tok == ("op", "*"):
                pos += 1
                expect_factor = True
                continue
            if tok[0] == "name" and _is_differential(tok[1], ctx):
                chain, pos = _parse_dchain(tokens, pos, ctx)
                dchain.extend(chain)
                expect_factor = False
                continue
            # otherwise parse one polynomial factor with the poly parser
            factor, pos = _parse_poly_factor(tokens, pos, ctx)
            coeff = coeff * factor
            expect_factor = False
        term = Form.from_poly(coeff)
        for i in dchain:
            term = wedge(term, Form.d_var(ctx, i))
        out = out + term
        sign = 1
        while pos < n and tokens[pos] in (("op", "+"), ("op", "-")):
            if tokens[pos] == ("op", "-"):
                sign = -sign
            pos += 1
        if pos >= n:
            break
    return out


def _is_differential(name: str, ctx: RingCtx) -> bool:
    return name.startswith("d") and name[1:] in ctx.variables


def _parse_dchain(tokens, pos, ctx):
    chain = []
    while True:
        if pos >= len(tokens):
            raise ParseError("unexpected end of form expression")
        tok = tokens[pos]
        if tok[0] != "name" or not _is_differential(tok[1], ctx):
            raise ParseError(f"expected differential, got {tok!r}")
        chain.append(ctx.var_index(tok[1][1:]))
        pos += 1
        if pos < len(tokens) and tokens[pos] == ("op", "^"):
            pos += 1
            continue
        return chain, pos


def _parse_poly_factor(tokens, pos, ctx):
    parser = _PolyParser(tokens, ctx)
    parser.pos = pos
    p = parser.factor()
    return p, parser.pos


def print_form(w: Form, ctx: RingCtx = None) -> str:
    """Deterministic printing; index tuples sorted lexicographically."""
    ctx = ctx or w.ctx
    if w.is_zero():
        return "0"
    parts = []
    for idx in sorted(w.components):
        p = w.components[idx]
        ptxt = print_poly(p, ctx)
        if idx == ():
            body, neg = _signed(ptxt)
        else:
            dtxt = "^".join(f"d{ctx.variables[i]}" for i in idx)
            if ptxt == "1":
                body, neg = dtxt, False
            elif ptxt == "-1":
                body, neg = dtxt, True
            elif _is_atomic(ptxt):
                body, neg = _signed(ptxt)
                body = f"{body}*{dtxt}"
            else:
                body, neg = f"({ptxt})*{dtxt}", False
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts)


def _signed(ptxt: str):
    if ptxt.startswith("-") and "+" not in ptxt and "- " not in ptxt[1:]:
        return ptxt[1:], True
    return ptxt, False


def _is_atomic(ptxt: str):
    return " " not in ptxt


# ---------------------------------------------------------------------------
# matrices of forms
# ---------------------------------------------------------------------------

class FormMatrix:
    """Rectangular matrix of forms; products wedge entrywise.

    Parity bookkeeping for graded-endomorphism use is supplied by callers
    (block sizes are passed to the supertrace), not enforced here.
    """

    __slots__ = ("ctx", "rows", "cols", "entries")

    def __init__(self, ctx: RingCtx, rows: int, cols: int, entries):
        entries = tuple(tuple(row) for row in entries)
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise RingError("entry grid does not match declared shape")
        for row in entries:
            for e in row:
                if e.ctx != ctx:
                    raise RingError("entry in wrong ring context")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *a):
        raise AttributeError("FormMatrix is immutable")

    @classmethod
    def zeros(cls, ctx, rows, cols):
        z = Form.zero(ctx)
        return cls(ctx, rows, cols, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, ctx, size):
        one = Form.from_poly(Poly.one(ctx))
        z = Form.zero(ctx)
        return cls(
            ctx, size, size,
            [[one if i == j else z for j in range(size)] for i in range(size)],
        )

    @classmethod
    def from_poly_rows(cls, ctx, rows, cols, poly_rows):
        return cls(
            ctx, rows, cols,
            [[Form.from_poly(p) for p in row] for row in poly_rows],
        )

    def __add__(self, other: "FormMatrix") -> "FormMatrix":
        self._shape_eq(other)
        return FormMatrix(
            self.ctx, self.rows, self.cols,
            [[a + b for a, b in zip(r1, r2)]
             for r1, r2 in zip(self.entries, other.entries)],
        )

    def __neg__(self):
        return FormMatrix(
            self.ctx, self.rows, self.cols,
            [[-e for e in row] for row in self.entries],
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "FormMatrix":
        return FormMatrix(
            self.ctx, self.rows, self.cols,
            [[e.scale(c) for e in row] for row in self.entries],
        )

    def _shape_eq(self, other):
        if self.ctx != other.ctx:
            raise RingError("mismatched ring contexts")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise RingError("shape mismatch")

    def __eq__(self, other):
        return (
            isinstance(other, FormMatrix)
            and self.ctx == other.ctx
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.ctx, self.rows, self.cols, self.entries))

    def is_zero(self):
        return all(e.is_zero() for row in self.entries for e in row)

    def __repr__(self):
        return f"FormMatrix({self.rows}x{self.cols})"


def fm_mul(S: FormMatrix, T: FormMatrix) -> FormMatrix:
    if S.ctx != T.ctx:
        raise RingError("mismatched ring contexts")
    if S.cols != T.rows:
        raise RingError(f"shape mismatch: {S.rows}x{S.cols} times {T.rows}x{T.cols}")
    zero = Form.zero(S.ctx)
    out = []
    for srow in S.entries:
        nonzero = [(a, T.entries[k]) for k, a in enumerate(srow) if a.components]
        row = []
        for j in range(T.cols):
            acc = zero
            for a, trow in nonzero:
                b = trow[j]
                if b.components:
                    acc = acc + wedge(a, b)
            row.append(acc)
        out.append(row)
    return FormMatrix(S.ctx, S.rows, T.cols, out)


def fm_exterior_derivative(T: FormMatrix) -> FormMatrix:
    return FormMatrix(
        T.ctx, T.rows, T.cols,
        [[exterior_derivative(e) for e in row] for row in T.entries],
    )


def graded_trace(T: FormMatrix) -> Form:
    if T.rows != T.cols:
        raise RingError("trace of a non-square matrix")
    acc = Form.zero(T.ctx)
    for i in range(T.rows):
        acc = acc + T.entries[i][i]
    return acc
