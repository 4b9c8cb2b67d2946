"""Differential forms with polynomial coefficients and matrices of forms.

A :class:`Form` is an element of the exterior algebra over the Kaehler
differentials of the ambient polynomial ring, stored in the monomial basis
``dx_I`` for strictly increasing index tuples ``I``.  Wedge products carry
the shuffle sign; anything of degree above the variable count is zero.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import chain
from operator import lshift
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
            if not all(isinstance(i, int) and 0 <= i < ctx.nvars for i in idx):
                if all(isinstance(i, int) for i in idx):
                    raise RingError("form index out of range")
                raise RingError(f"index tuple {idx} holds a non-int")
            if list(idx) != sorted(set(idx)):
                raise RingError(f"index tuple {idx} is not strictly increasing")
            if not isinstance(p, Poly):
                raise RingError(f"form coefficient {p!r} is not a Poly")
            if p.ctx != ctx:
                raise RingError("form coefficient in wrong ring")
            acc[idx] = acc[idx] + p if idx in acc else p
        super().__init__(ctx, {i: p for i, p in acc.items() if not p.is_zero()})

    @classmethod
    def _trusted(cls, ctx: RingCtx, components: dict) -> "Form":
        """Internal constructor for results of arithmetic on valid Forms.

        ``components`` must be a dict from strictly increasing index tuples
        to Polys of ``ctx``; only zero coefficients are dropped.
        """
        return cls._make(ctx, {i: p for i, p in components.items() if p.terms})

    @classmethod
    def zero(cls, ctx: RingCtx) -> "Form":
        return cls._make(ctx, {})

    @classmethod
    def one(cls, ctx: RingCtx) -> "Form":
        return cls._make(ctx, {(): Poly.one(ctx)})

    @classmethod
    def from_poly(cls, p: Poly) -> "Form":
        return cls._make(p.ctx, {(): p} if p.terms else {})

    @classmethod
    def d_var(cls, ctx: RingCtx, i: int) -> "Form":
        if not 0 <= i < ctx.nvars:
            raise RingError("form index out of range")
        return cls._make(ctx, {(i,): Poly.one(ctx)})

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
        return Form._make(
            self.ctx, {i: p for i, p in self.components.items() if len(i) == k}
        )

    def degrees(self):
        return sorted({len(i) for i in self.components})

    def __add__(self, other: "Form") -> "Form":
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise RingError("mismatched ring contexts")
        if not (self.components and other.components):  # a zero side: no copy
            return other if other.components else self
        acc = dict(self.components)
        for i, p in other.components.items():
            acc[i] = acc[i] + p if i in acc else p
        return Form._trusted(self.ctx, acc)

    def __neg__(self) -> "Form":
        if not self.components:
            return self
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
    return _wedge_forms(a.ctx, ((a,),), ((b,),), [((0, 0),)])[0]


def exterior_derivative(a: Form) -> Form:
    """d a in one pass over the terms: c*x^m at dx_idx gives +-c*m_i*x^(m - e_i)
    at dx_(idx | {i}) for each i not in idx with m_i > 0 (:func:`_d_slots`)."""
    if not a.components:  # d0 = 0, nothing to build
        return a
    acc = {}
    for idx, p in a.components.items():
        slots = _d_slots(idx, a.ctx.nvars)
        for m, c in p.terms.items():
            for i, new, neg in slots:
                e = m[i]
                if e:
                    dm = (*m[:i], e - 1, *m[i + 1:])
                    dst = acc.setdefault(new, {})
                    dc = -c * e if neg else c * e
                    dst[dm] = dst[dm] + dc if dm in dst else dc
    return Form._trusted(a.ctx, {new: Poly._trusted(a.ctx, t) for new, t in acc.items()})


@lru_cache(maxsize=None)
def _d_slots(idx: tuple, nvars: int) -> tuple:
    """``(i, idx | {i}, dx_i ^ dx_idx == -dx_(idx | {i}))`` for each i not in idx."""
    return tuple(
        (i, tuple(sorted(idx + (i,))), sum(j < i for j in idx) % 2 == 1)
        for i in range(nvars) if i not in idx
    )


# ---------------------------------------------------------------------------
# form parsing / printing ("(x+1)*dx^dy + 3*dz" style)
# ---------------------------------------------------------------------------

def parse_form(text: str, ctx: RingCtx) -> Form:
    """Parse a form: the polynomial grammar of :func:`ring.parse_poly` with
    one more kind of factor, a differential chain 'dv^dw^...' (see
    ``ring._PolyParser``), as in "(x+1)*dx^dy + 3*dz".  A chain is sorted
    into place with the sign of its inversions."""
    terms = []
    for coeff, word in _PolyParser(text, ctx).parse(forms=True):
        idx = tuple(sorted(word))
        if len(set(idx)) == len(idx):  # else a differential repeats: dx ^ dx = 0
            odd = sum(a > b for k, a in enumerate(word) for b in word[k + 1:]) % 2
            terms.append((idx, -coeff if odd else coeff))
    return Form(ctx, terms)


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
        """The entries ``poly_rows`` of a rows x cols PolyMatrix as 0-forms."""
        return cls._make(
            ctx, rows, cols, tuple(tuple(map(Form.from_poly, row)) for row in poly_rows)
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
    flat = _wedge_forms(S.ctx, S.entries, T.entries, cells)
    return FormMatrix._make(
        S.ctx, S.rows, cols,
        tuple(tuple(flat[i * cols:(i + 1) * cols]) for i in range(S.rows)),
    )


# ---------------------------------------------------------------------------
# the wedge-product kernel behind wedge, fm_mul and the Chern power chains
# (classical_chern's too); the caches on index bitmasks hold at most
# 3^nvars entries
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _odd_shuffle(ma: int, mb: int) -> bool:
    """Whether dx_A ^ dx_B = -dx_(A|B) for disjoint index bitmasks A and B:
    the parity of the pairs (a, b) in A x B with a > b."""
    pairs = 0
    while mb:
        low = mb & -mb
        pairs += (ma & -low).bit_count()  # the indices of A above this b
        mb ^= low
    return pairs % 2 == 1


@lru_cache(maxsize=None)
def _index_tuple(m: int) -> tuple:
    """The increasing index tuple of an index bitmask."""
    return tuple(i for i in range(m.bit_length()) if m >> i & 1)


def _largest(grid) -> int:
    """The largest exponent in a grid of Forms: 0 for constants alone, -1
    when it has no term."""
    terms = [p.terms for row in grid for w in row for p in w.components.values()]
    return max(chain.from_iterable(chain.from_iterable(terms)), default=0) if terms else -1


class _Packing(dict):
    """Monomials packed into ints, one field per variable wide enough for
    every exponent up to ``bound``, so that a monomial product is one int
    ``+``.  The dict maps a packed monomial to its exponent tuple: it holds
    the monomials packed (a product by a constant is one of them) and
    unpacks any other on its first lookup."""

    __slots__ = ("shifts", "field")

    def __init__(self, nvars: int, bound: int):
        width = bound.bit_length()
        self.shifts = [width * i for i in range(nvars)]
        self.field = (1 << width) - 1

    def __missing__(self, u: int) -> tuple:
        e = self[u] = tuple([u >> s & self.field for s in self.shifts])
        return e

    def pack(self, p: Poly) -> list:
        """p's terms as ``(monomial, coeff)`` pairs with packed monomials,
        each kept with its exponent tuple."""
        shifts = self.shifts
        terms = []
        for m, c in p.terms.items():
            u = sum(map(lshift, m, shifts))
            self[u] = m
            terms.append((u, c))
        return terms

    def flat(self, grid) -> list:
        """The flat entries of :func:`_wedge_sums` for a grid of Forms."""
        out = []
        for row in grid:
            flat_row = []
            for w in row:
                entry = []
                for idx, p in w.components.items():
                    entry.append((sum(map((1).__lshift__, idx)), self.pack(p)))
                flat_row.append(entry)
            out.append(flat_row)
        return out

    def forms(self, ctx: RingCtx, sums) -> list:
        """One Form per ``{mask: {monomial: coeff}}`` of ``sums``, each Poly
        built canonical in one pass."""
        out = []
        for acc in sums:
            comps = {}
            for m, terms in acc.items():
                poly = {}
                for u, c in terms.items():
                    if c:
                        poly[self[u]] = (
                            c if type(c) is int or c.denominator != 1 else c.numerator
                        )
                comps[_index_tuple(m)] = Poly._make(ctx, poly)
            out.append(Form._trusted(ctx, comps))
        return out


def _wedge_sums(S, T, cells) -> list:
    """One ``{mask: {monomial: coeff}}`` dict per cell: the sum over (i, j)
    in the cell of (S.T)[i][j], in the flat form the kernel works on.

    S and T are grids (sequences of rows) of flat entries with
    len(S[i]) == len(T).  A flat entry lists the nonzero components of a
    form as ``(index bitmask, terms)`` pairs, the empty list for zero; the
    terms are ``(monomial, coeff)`` pairs, each monomial packed into fields
    wide enough for the product (:class:`_Packing`), so a monomial product
    is one ``+``.  Index sets that overlap (``ma & mb``) are skipped before
    anything is built, the merged index is ``ma | mb``, and the shuffle
    sign is read from the two masks.  Coefficients are summed as they are,
    so a dict may hold zeros and integral Fractions.
    """
    nonzero = [[(a, tb) for a, tb in zip(row, T) if a] for row in S]
    out = []
    for cell in cells:
        acc = {}
        for i, j in cell:
            for a, trow in nonzero[i]:
                b = trow[j]
                for ma, ta in a:
                    for mb, tb in b:
                        if ma & mb:
                            continue
                        neg = _odd_shuffle(ma, mb)
                        m = ma | mb
                        dst = acc.get(m)
                        if dst is None:
                            dst = acc[m] = {}
                        for m1, c1 in ta:
                            for m2, c2 in tb:
                                u = m1 + m2
                                c = -c1 * c2 if neg else c1 * c2
                                dst[u] = dst[u] + c if u in dst else c
        out.append(acc)
    return out


def _wedge_forms(ctx: RingCtx, S, T, cells) -> list:
    """One Form per cell: the sum over (i, j) in the cell of (S.T)[i][j],
    for grids S and T of Forms of ``ctx`` (see :func:`_wedge_sums`).

    Each operand entry is packed once, in fields as wide as the largest
    exponent of S plus that of T.  Once either side has no term, every cell
    is one shared zero Form, and nothing is packed."""
    top_s = _largest(S)
    top_t = _largest(T) if top_s >= 0 else -1
    if top_t < 0:
        return [Form.zero(ctx)] * len(cells)
    packing = _Packing(ctx.nvars, top_s + top_t)
    return packing.forms(ctx, _wedge_sums(packing.flat(S), packing.flat(T), cells))


def fm_exterior_derivative(T: FormMatrix) -> FormMatrix:
    return T.map_entries(exterior_derivative)


graded_trace = FormMatrix.trace
