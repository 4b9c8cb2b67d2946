"""Differential forms with polynomial coefficients and matrices of forms.

A :class:`Form` is an element of the exterior algebra over the Kaehler
differentials of the ambient polynomial ring, stored in the monomial basis
``dx_I`` for strictly increasing index tuples ``I``.  Wedge products carry
the shuffle sign; anything of degree above the variable count is zero.
"""
from __future__ import annotations

from operator import add
from typing import Mapping

from .ring import Frozen, Matrix, Poly, RingCtx, RingError, _PolyParser, print_poly


class Form(Frozen):
    """Element of the exterior algebra, keyed by increasing index tuples."""

    __slots__ = _fields = ("ctx", "components")

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
        super().__init__(ctx, {i: p for i, p in acc.items() if not p.is_zero()})

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
    def one(cls, ctx: RingCtx) -> "Form":
        return cls(ctx, {(): Poly.one(ctx)})

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

    def __hash__(self):
        return hash((self.ctx, frozenset(self.components.items())))

    def __repr__(self):
        return f"Form({print_form(self)!r})"


def wedge(a: Form, b: Form) -> Form:
    if a.ctx != b.ctx:
        raise RingError("mismatched ring contexts")
    return _wedge_sums(a.ctx, ((a,),), ((b,),), [((0, 0),)])[0]


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
            if sum(1 for j in idx if j < i) % 2:
                dp = -dp
            new = tuple(sorted(idx + (i,)))
            acc[new] = acc[new] + dp if new in acc else dp
    return Form._trusted(a.ctx, acc)


# ---------------------------------------------------------------------------
# form parsing / printing ("(x+1)*dx^dy + 3*dz" style)
# ---------------------------------------------------------------------------

def parse_form(text: str, ctx: RingCtx) -> Form:
    """Parse a form: the polynomial grammar of :func:`ring.parse_poly` with
    one more kind of factor, a differential chain 'dv^dw^...' (see
    ``ring._PolyParser``), as in "(x+1)*dx^dy + 3*dz"."""
    out = Form.zero(ctx)
    for coeff, chain in _PolyParser(text, ctx).parse(forms=True):
        term = Form.from_poly(coeff)
        for i in chain:
            term = wedge(term, Form.d_var(ctx, i))
        out = out + term
    return out


def print_form(w: Form) -> str:
    """Deterministic printing; index tuples sorted lexicographically.

    The sign of a one-term coefficient is the sign of its term; a longer
    coefficient of a differential goes in parentheses."""
    if w.is_zero():
        return "0"
    parts = []
    for idx in sorted(w.components):
        p = w.components[idx]
        atomic = len(p.terms) == 1
        neg = atomic and min(p.terms.values()) < 0
        if neg:
            p = -p
        body = print_poly(p)
        if idx:
            dtxt = "^".join(f"d{w.ctx.variables[i]}" for i in idx)
            if p == Poly.one(p.ctx):
                body = dtxt
            elif atomic:
                body = f"{body}*{dtxt}"
            else:
                body = f"({body})*{dtxt}"
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# matrices of forms
# ---------------------------------------------------------------------------

class FormMatrix(Matrix):
    """Rectangular matrix of forms; products wedge entrywise (:func:`fm_mul`).

    Parity bookkeeping for graded-endomorphism use is supplied by callers
    (block sizes are passed to the supertrace), not enforced here.
    """

    __slots__ = ()
    _kind = Form

    @classmethod
    def from_poly_rows(cls, ctx, rows, cols, poly_rows):
        return cls(
            ctx, rows, cols,
            [[Form.from_poly(p) for p in row] for row in poly_rows],
        )

    def scale(self, c) -> "FormMatrix":
        """Multiply every entry by a Poly or exact scalar."""
        return self.map_entries(lambda e: e.scale(c))


def fm_mul(S: FormMatrix, T: FormMatrix) -> FormMatrix:
    if S.ctx != T.ctx:
        raise RingError("mismatched ring contexts")
    if S.cols != T.rows:
        raise RingError(f"shape mismatch: {S.rows}x{S.cols} times {T.rows}x{T.cols}")
    cols = T.cols
    cells = [((i, j),) for i in range(S.rows) for j in range(cols)]
    flat = _wedge_sums(S.ctx, S.entries, T.entries, cells)
    return FormMatrix(
        S.ctx, S.rows, cols, [flat[i * cols:(i + 1) * cols] for i in range(S.rows)]
    )


# ---------------------------------------------------------------------------
# the wedge-product kernel behind wedge, fm_mul and the trace of a product
# ---------------------------------------------------------------------------

def _odd_shuffle(ma: int, ib: tuple) -> bool:
    """Whether dx_A ^ dx_B = -dx_(A|B) for an index bitmask A and a disjoint
    index tuple B: the parity of the pairs (a, b) in A x B with a > b."""
    return sum(map(int.bit_count, map(ma.__rshift__, ib))) % 2 == 1


def _wedge_sums(ctx: RingCtx, S, T, cells) -> list:
    """One Form per cell: the sum over (i, j) in the cell of (S.T)[i][j].

    S and T are grids (sequences of rows) of Forms of ``ctx`` with
    len(S[i]) == len(T).  Each operand entry is flattened once into
    (index bitmask, index tuple, terms) triples: index sets that overlap
    (``ma & mb``) are skipped before anything is built, and the merged
    index is ``ma | mb``.  Masks, shuffle signs (keyed by
    ``ma << nvars | mb``), output index tuples and monomial products are
    memoised for this call only.  Each output accumulates into one
    ``{mask: {monomial: coeff}}`` dict that becomes a Form at the end.
    Integral coefficients are stored as ints, so their products never
    touch ``Fraction``.
    """
    nvars = ctx.nvars
    masks, tuples, signs, monos = {}, {}, {}, {}

    def flat(w: Form) -> list:
        out = []
        for idx, p in w.components.items():
            if idx not in masks:
                masks[idx] = sum(map((1).__lshift__, idx))
            out.append((masks[idx], idx, tuple(p.terms.items())))
        return out

    tflat = [[flat(b) for b in row] for row in T]
    nonzero = [[(flat(a), tb) for a, tb in zip(row, tflat) if a.components] for row in S]
    out = []
    for cell in cells:
        acc = {}
        for i, j in cell:
            for a, trow in nonzero[i]:
                b = trow[j]
                for ma, ia, ta in a:
                    for mb, ib, tb in b:
                        if ma & mb:
                            continue
                        key = ma << nvars | mb
                        neg = signs.get(key)
                        if neg is None:
                            neg = signs[key] = _odd_shuffle(ma, ib)
                        m = ma | mb
                        dst = acc.get(m)
                        if dst is None:
                            dst = acc[m] = {}
                            if m not in tuples:
                                tuples[m] = tuple(sorted(ia + ib))
                        for m1, c1 in ta:
                            for m2, c2 in tb:
                                mk = (m1, m2)
                                if mk in monos:
                                    mono = monos[mk]
                                else:
                                    mono = monos[mk] = tuple(map(add, m1, m2))
                                c = -c1 * c2 if neg else c1 * c2
                                dst[mono] = dst[mono] + c if mono in dst else c
        out.append(Form._trusted(ctx, {
            tuples[m]: Poly._trusted(ctx, terms) for m, terms in acc.items()
        }))
    return out


def fm_exterior_derivative(T: FormMatrix) -> FormMatrix:
    return T.map_entries(exterior_derivative)


graded_trace = FormMatrix.trace
