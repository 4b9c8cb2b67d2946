"""Connections, the Atiyah class, and the Chern character.

For a matrix factorization on free modules every connection is d + Gamma
with Gamma a matrix of 1-forms per graded piece.  The Atiyah class is the
commutator of the chosen connection with the twisted differential; its
wedge-matrix powers feed the supertrace, and the Chern character is the
collection of normal forms of (1/(2i)!) str(At^(2i)) in the homology of
the complex (Omega^*, df^).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exterior import (
    Form,
    FormMatrix,
    exterior_derivative,
    fm_exterior_derivative,
    fm_mul,
    graded_trace,
    wedge,
)
from .ideals import df_form, form_normal_form
from .mf import MatFac, PolyMatrix, StrictMorphism, cone, tensor
from .ring import Poly, RingCtx, RingError


class InternalConsistencyError(AssertionError):
    """A proved identity failed symbolically; indicates an implementation bug."""


def _as_forms(P: PolyMatrix) -> FormMatrix:
    return FormMatrix.from_poly_rows(P.ctx, P.rows, P.cols, P.entries)


def _block(ctx, blocks):
    """Assemble a FormMatrix from a 2x2 grid of FormMatrix blocks."""
    (tl, tr), (bl, br) = blocks
    rows = []
    for r1, r2 in zip(tl.entries, tr.entries):
        rows.append(list(r1) + list(r2))
    for r1, r2 in zip(bl.entries, br.entries):
        rows.append(list(r1) + list(r2))
    return FormMatrix(ctx, tl.rows + bl.rows, tl.cols + tr.cols, rows)


@dataclass(frozen=True)
class Connection:
    """d + Gamma on each graded piece of the underlying free module."""

    base: MatFac
    gamma0: FormMatrix  # r0 x r0, 1-form entries
    gamma1: FormMatrix  # r1 x r1, 1-form entries

    def __post_init__(self):
        M = self.base
        if (self.gamma0.rows, self.gamma0.cols) != (M.r0, M.r0):
            raise RingError("gamma0 must be r0 x r0")
        if (self.gamma1.rows, self.gamma1.cols) != (M.r1, M.r1):
            raise RingError("gamma1 must be r1 x r1")
        for g in (self.gamma0, self.gamma1):
            for row in g.entries:
                for e in row:
                    if not e.is_zero() and e.degree() != 1:
                        raise RingError("connection entries must be 1-forms")


def connection_default(M: MatFac) -> Connection:
    """The exterior derivative as connection: Gamma = 0 on both pieces."""
    return Connection(
        M,
        FormMatrix.zeros(M.ctx, M.r0, M.r0),
        FormMatrix.zeros(M.ctx, M.r1, M.r1),
    )


def random_connection(M: MatFac, rng, max_coeff: int = 3, max_deg: int = 1) -> Connection:
    """Random 1-form perturbation of the default connection (test helper)."""
    ctx = M.ctx

    def rand_form():
        acc = Form.zero(ctx)
        for i in range(ctx.nvars):
            if rng.random() < 0.5:
                continue
            c = rng.randint(-max_coeff, max_coeff)
            if c == 0:
                continue
            mono = [0] * ctx.nvars
            for _ in range(rng.randint(0, max_deg)):
                mono[rng.randrange(ctx.nvars)] += 1
            p = Poly(ctx, {tuple(mono): Fraction(c)})
            acc = acc + Form(ctx, {(i,): p})
        return acc

    def rand_matrix(size):
        return FormMatrix(
            ctx, size, size,
            [[rand_form() for _ in range(size)] for _ in range(size)],
        )

    return Connection(M, rand_matrix(M.r0), rand_matrix(M.r1))


@dataclass(frozen=True)
class AtiyahClass:
    """Odd 1-form-valued endomorphism; block off-diagonal in (E0, E1) order."""

    base: MatFac
    conn: Connection
    matrix: FormMatrix  # (r0+r1) square; rows/cols indexed E0 first, then E1

    @property
    def block01(self) -> FormMatrix:
        """The E1 -> Omega^1 (x) E0 block (r0 x r1)."""
        M = self.base
        return FormMatrix(
            M.ctx, M.r0, M.r1,
            [row[M.r0:] for row in self.matrix.entries[: M.r0]],
        )

    @property
    def block10(self) -> FormMatrix:
        """The E0 -> Omega^1 (x) E1 block (r1 x r0)."""
        M = self.base
        return FormMatrix(
            M.ctx, M.r1, M.r0,
            [row[: M.r0] for row in self.matrix.entries[M.r0:]],
        )


def atiyah(M: MatFac, conn: Connection) -> AtiyahClass:
    if conn.base != M:
        raise RingError("connection belongs to a different matrix factorization")
    ctx = M.ctx
    A, B = _as_forms(M.A), _as_forms(M.B)
    at01 = fm_exterior_derivative(A) + fm_mul(conn.gamma0, A) - fm_mul(A, conn.gamma1)
    at10 = fm_exterior_derivative(B) + fm_mul(conn.gamma1, B) - fm_mul(B, conn.gamma0)
    full = _block(ctx, (
        (FormMatrix.zeros(ctx, M.r0, M.r0), at01),
        (at10, FormMatrix.zeros(ctx, M.r1, M.r1)),
    ))
    return AtiyahClass(M, conn, full)


def atiyah_power(at: AtiyahClass, i: int) -> FormMatrix:
    """The collapsed i-th power: i-fold wedge-matrix product of At."""
    n = at.base.ctx.nvars
    if not 0 <= i <= n:
        raise RingError(f"power {i} out of range 0..{n}")
    out = FormMatrix.identity(at.base.ctx, at.matrix.rows)
    for _ in range(i):
        out = fm_mul(out, at.matrix)
    return out


def supertrace(T: FormMatrix, r0: int, r1: int) -> Form:
    """tr of the E0E0 block minus tr of the E1E1 block."""
    if T.rows != T.cols:
        raise RingError("supertrace of a non-square matrix")
    if r0 < 0 or r1 < 0 or r0 + r1 != T.rows:
        raise RingError("block structure does not match matrix size")
    acc = Form.zero(T.ctx)
    for i in range(r0):
        acc = acc + T.entries[i][i]
    for i in range(r0, r0 + r1):
        acc = acc - T.entries[i][i]
    return acc


def phi_tilde_n(M: MatFac, conn: Connection = None, n: int = None) -> FormMatrix:
    """The End-valued form sum_{i=0}^{n} (1/i!) At^i.

    Terms of form degree above the variable count vanish on their own, so
    extending n past the relative dimension changes nothing.
    """
    conn = conn or connection_default(M)
    n = M.ctx.nvars if n is None else n
    at = atiyah(M, conn)
    out = FormMatrix.identity(M.ctx, at.matrix.rows)
    power = FormMatrix.identity(M.ctx, at.matrix.rows)
    for i in range(1, n + 1):
        power = fm_mul(power, at.matrix)
        out = out + power.scale(Fraction(1, math.factorial(i)))
    return out


# ---------------------------------------------------------------------------
# strictness of phi = [1; At]
# ---------------------------------------------------------------------------

def phi_strictness_check(M: MatFac, conn: Connection = None, at: AtiyahClass = None):
    """Verify that [1; At] intertwines d with the twisted differential of
    (Q --df^--> Omega^1) (x) E.  Returns (bool, diagnostic)."""
    conn = conn or connection_default(M)
    at = at or atiyah(M, conn)
    ctx = M.ctx
    df = df_form(M.f)
    A, B = _as_forms(M.A), _as_forms(M.B)
    df1 = _diag_form(ctx, df, M.r1)
    df0 = _diag_form(ctx, df, M.r0)
    # bottom component of Abar . phi1 = phi0 . A:
    #   df * I_r1 - B . At01 = At10 . A
    lhs = df1 - fm_mul(B, at.block01)
    rhs = fm_mul(at.block10, A)
    if lhs != rhs:
        return False, "first square fails: df*I - B.At01 != At10.A"
    # bottom component of Bbar . phi0 = phi1 . B:
    #   df * I_r0 - A . At10 = At01 . B
    lhs = df0 - fm_mul(A, at.block10)
    rhs = fm_mul(at.block01, B)
    if lhs != rhs:
        return False, "second square fails: df*I - A.At10 != At01.B"
    return True, "ok"


def _diag_form(ctx, w: Form, size: int) -> FormMatrix:
    z = Form.zero(ctx)
    return FormMatrix(
        ctx, size, size,
        [[w if i == j else z for j in range(size)] for i in range(size)],
    )


# ---------------------------------------------------------------------------
# the Chern character
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomologyClass:
    """Even components of ch, each given by its canonical normal form."""

    f: Poly
    n: int
    entries: tuple  # tuple of (even degree, Form), degrees ascending

    @property
    def components(self) -> dict:
        return dict(self.entries)

    def component(self, deg: int) -> Form:
        return self.components.get(deg, Form.zero(self.f.ctx))

    def is_zero(self) -> bool:
        return all(w.is_zero() for _, w in self.entries)

    def __add__(self, other: "HomologyClass") -> "HomologyClass":
        if self.f != other.f or self.n != other.n:
            raise RingError("homology classes over different complexes")
        degs = sorted({d for d, _ in self.entries} | {d for d, _ in other.entries})
        out = []
        for d in degs:
            w = form_normal_form(self.component(d) + other.component(d), self.f)
            out.append((d, w))
        return HomologyClass(self.f, self.n, tuple(out))

    def __neg__(self) -> "HomologyClass":
        return HomologyClass(
            self.f, self.n, tuple((d, -w) for d, w in self.entries)
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "HomologyClass":
        return HomologyClass(
            self.f, self.n,
            tuple((d, form_normal_form(w.scale(c), self.f)) for d, w in self.entries),
        )


def chern_character(M: MatFac, conn: Connection = None) -> HomologyClass:
    """ch(E) = sum (1/(2i)!) str(At^(2i)) as normal-form representatives.

    At is odd, [[0, At01], [At10, 0]] in the (E0, E1) splitting, so
    At^(2i) = diag(X^i, Y^i) with X = At01.At10 and Y = At10.At01, and

        str(At^(2i)) = tr(X^i) - tr(Y^i),   str(At^0) = r0 - r1,

    while odd powers have zero diagonal blocks and are never formed.  Only
    the diagonal of the last power of each chain is computed.  Two proved
    identities are re-verified on the way: tr(Y^i) = -tr(X^i) (the graded
    cyclicity of the trace for matrices of 1-forms) and the cycle condition
    df ^ str(At^(2i)) = 0.  A failure means the library is broken, not the
    input, hence InternalConsistencyError.  The dense path (atiyah_power,
    supertrace) stays public as the independent oracle for this kernel.
    """
    conn = conn or connection_default(M)
    ctx = M.ctx
    n = ctx.nvars
    at = atiyah(M, conn)
    a, b = at.block01, at.block10
    half = n // 2
    tr_x = _power_traces(fm_mul(a, b), half)
    tr_y = _power_traces(fm_mul(b, a), half)
    df = df_form(M.f)
    strs = [Form.from_poly(Poly.const(ctx, M.r0 - M.r1))]
    for i, (tx, ty) in enumerate(zip(tr_x, tr_y), start=1):
        if not (tx + ty).is_zero():
            raise InternalConsistencyError(f"tr(Y^{i}) != -tr(X^{i})")
        strs.append(tx - ty)
    entries = []
    for i, s in zip(range(0, n + 1, 2), strs):
        if not wedge(df, s).is_zero():
            raise InternalConsistencyError(f"df ^ str(At^{i}) != 0")
        rep = form_normal_form(s.scale(Fraction(1, math.factorial(i))), M.f)
        entries.append((i, rep))
    return HomologyClass(M.f, n, tuple(entries))


def _power_traces(X: FormMatrix, top: int) -> list:
    """[tr(X^1), ..., tr(X^top)]; of X^top only the diagonal is formed."""
    if top == 0:
        return []
    traces = [graded_trace(X)]
    power = X  # X^k with k = len(traces)
    while len(traces) < top - 1:
        power = fm_mul(power, X)
        traces.append(graded_trace(power))
    if top > 1:
        traces.append(_trace_of_product(power, X))
    return traces


def _trace_of_product(S: FormMatrix, T: FormMatrix) -> Form:
    """tr(S.T) from the diagonal entries of the product alone."""
    acc = Form.zero(S.ctx)
    for i, srow in enumerate(S.entries):
        for a, trow in zip(srow, T.entries):
            b = trow[i]
            if a.components and b.components:
                acc = acc + wedge(a, b)
    return acc


# ---------------------------------------------------------------------------
# classical Chern-Weil character of an idempotent
# ---------------------------------------------------------------------------

def classical_chern(e: PolyMatrix, ctx: RingCtx = None) -> Form:
    """tr(exp(R)) for the projective module Im(e) with its induced connection.

    R is realized as e.(de).(de); the result is truncated at the variable
    count and every even component is a de Rham cycle.
    """
    ctx = ctx or e.ctx
    if e.rows != e.cols:
        raise RingError("idempotent must be square")
    if e * e != e:
        raise RingError("matrix is not idempotent")
    E = _as_forms(e)
    de = fm_exterior_derivative(E)
    de2 = fm_mul(de, de)
    n = ctx.nvars
    total = Form.from_poly(_poly_trace(e))
    power = FormMatrix.identity(ctx, e.rows)
    for k in range(1, n // 2 + 1):
        power = fm_mul(power, de2)
        term = graded_trace(fm_mul(E, power)).scale(Fraction(1, math.factorial(k)))
        total = total + term
    return total


def _poly_trace(P: PolyMatrix) -> Poly:
    acc = Poly.zero(P.ctx)
    for i in range(P.rows):
        acc = acc + P.entries[i][i]
    return acc


# ---------------------------------------------------------------------------
# additivity / multiplicativity / functoriality checks
# ---------------------------------------------------------------------------

def cone_connection(theta: StrictMorphism, connP: Connection, connQ: Connection,
                    C: MatFac) -> Connection:
    """Block-diagonal connection on cone(theta): (Q1 + P0, Q0 + P1) pieces."""
    ctx = C.ctx
    z01 = FormMatrix.zeros
    g1 = _block(ctx, (
        (connQ.gamma1, z01(ctx, connQ.gamma1.rows, connP.gamma0.cols)),
        (z01(ctx, connP.gamma0.rows, connQ.gamma1.cols), connP.gamma0),
    ))
    g0 = _block(ctx, (
        (connQ.gamma0, z01(ctx, connQ.gamma0.rows, connP.gamma1.cols)),
        (z01(ctx, connP.gamma1.rows, connQ.gamma0.cols), connP.gamma1),
    ))
    return Connection(C, g0, g1)


def cone_additivity_check(theta: StrictMorphism, connP: Connection = None,
                          connQ: Connection = None) -> bool:
    """ch(target) = ch(source) + ch(cone(theta)), all three computed here."""
    P, Q = theta.source, theta.target
    connP = connP or connection_default(P)
    connQ = connQ or connection_default(Q)
    C = cone(theta).cone
    connC = cone_connection(theta, connP, connQ, C)
    lhs = chern_character(Q, connQ)
    rhs = chern_character(P, connP) + chern_character(C, connC)
    return lhs == rhs


def tensor_multiplicativity_check(E: MatFac, F: MatFac,
                                  connE: Connection = None,
                                  connF: Connection = None) -> bool:
    """ch(E (x) F) equals the wedge of representatives, reduced mod d(f+g)^."""
    if E.ctx != F.ctx:
        raise RingError("tensor factors must share a ring context")
    ctx = E.ctx
    n = ctx.nvars
    T = tensor(E, F)
    lhs = chern_character(T)
    chE = chern_character(E, connE)
    chF = chern_character(F, connF)
    acc = {}
    for a, wa in chE.entries:
        for b, wb in chF.entries:
            if a + b > n:
                continue
            w = wedge(wa, wb)
            acc[a + b] = acc[a + b] + w if a + b in acc else w
    rhs_entries = []
    for d, _ in lhs.entries:
        w = acc.get(d, Form.zero(ctx))
        rhs_entries.append((d, form_normal_form(w, T.f)))
    rhs = HomologyClass(T.f, n, tuple(rhs_entries))
    return lhs == rhs


@dataclass(frozen=True)
class RingMap:
    """A ring homomorphism given by polynomial images of each variable."""

    source: RingCtx
    target: RingCtx
    images: tuple  # tuple[Poly, ...] in the target ring

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        if len(self.images) != self.source.nvars:
            raise RingError("need one image per source variable")
        for p in self.images:
            if p.ctx != self.target:
                raise RingError("image polynomial in wrong ring")

    def apply(self, p: Poly) -> Poly:
        return p.substitute(self.target, self.images)

    def push_form(self, w: Form) -> Form:
        """Extend d(r) -> d(phi(r)) multiplicatively over wedges."""
        out = Form.zero(self.target)
        dimg = [exterior_derivative(Form.from_poly(p)) for p in self.images]
        for idx, p in w.components.items():
            term = Form.from_poly(self.apply(p))
            for i in idx:
                term = wedge(term, dimg[i])
            out = out + term
        return out


def pushforward(M: MatFac, phi: RingMap) -> MatFac:
    """Base change by entrywise substitution; the result is validated."""
    if M.ctx != phi.source:
        raise RingError("matrix factorization not over the map's source ring")
    tgt = phi.target
    A = PolyMatrix(
        tgt, M.A.rows, M.A.cols,
        [[phi.apply(e) for e in row] for row in M.A.entries],
    )
    B = PolyMatrix(
        tgt, M.B.rows, M.B.cols,
        [[phi.apply(e) for e in row] for row in M.B.entries],
    )
    return MatFac(tgt, phi.apply(M.f), A, B)


def functoriality_check(M: MatFac, phi: RingMap) -> bool:
    """Pushing representatives forward agrees with ch of the pushforward."""
    if phi.source.nvars != phi.target.nvars:
        raise RingError("functoriality requires equal relative dimensions")
    N = pushforward(M, phi)
    lhs = chern_character(N)
    chM = chern_character(M)
    entries = []
    for d, w in chM.entries:
        entries.append((d, form_normal_form(phi.push_form(w), N.f)))
    rhs = HomologyClass(N.f, phi.target.nvars, tuple(entries))
    return lhs == rhs


# ---------------------------------------------------------------------------
# formal K-classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KClass:
    """Formal Z-linear combination of matrix factorizations over one ring."""

    ctx: RingCtx
    terms: tuple  # tuple of (int coefficient, MatFac)

    def __post_init__(self):
        for _, M in self.terms:
            if M.ctx != self.ctx:
                raise RingError("K-class member in wrong ring context")


def kclass(M: MatFac, coeff: int = 1) -> KClass:
    return KClass(M.ctx, ((coeff, M),))


def kclass_add(a: KClass, b: KClass) -> KClass:
    if a.ctx != b.ctx:
        raise RingError("mismatched ring contexts")
    return KClass(a.ctx, a.terms + b.terms)


def kclass_neg(a: KClass) -> KClass:
    return KClass(a.ctx, tuple((-c, M) for c, M in a.terms))


def kclass_product(a: KClass, b: KClass) -> KClass:
    """Bilinear extension of the tensor product on representatives."""
    if a.ctx != b.ctx:
        raise RingError("mismatched ring contexts")
    out = []
    for ca, Ma in a.terms:
        for cb, Mb in b.terms:
            out.append((ca * cb, tensor(Ma, Mb)))
    return KClass(a.ctx, tuple(out))


def kclass_chern(a: KClass) -> HomologyClass:
    """ch extended Z-linearly; all members must share one potential."""
    if not a.terms:
        raise RingError("empty K-class has no declared potential")
    f = a.terms[0][1].f
    n = a.ctx.nvars
    acc = None
    for c, M in a.terms:
        if M.f != f:
            raise RingError("K-class members must share one potential")
        part = chern_character(M).scale(c)
        acc = part if acc is None else acc + part
    return acc


# ---------------------------------------------------------------------------
# the tower oracle for phi-tilde
# ---------------------------------------------------------------------------

def phi_tower_oracle(M: MatFac, conn: Connection = None, n: int = None,
                     rescale: bool = True) -> FormMatrix:
    """Compute phi-tilde by composing the stage maps [1; At] through the
    explicit tensor tower, collapsing tensor words by wedges at the end.

    Slots of the word record which stage contributed a 1-form; the stage
    maps are applied with the Koszul sign of an odd operator moving past
    the word built so far.  Small n only: the tower has 2^n words.
    """
    ctx = M.ctx
    conn = conn or connection_default(M)
    n = ctx.nvars if n is None else n
    if n > 3:
        raise RingError("tower oracle is restricted to n <= 3")
    at = atiyah(M, conn).matrix
    r = at.rows
    one = Poly.one(ctx)
    # word bitmask -> {(row, col) -> {index tuple -> Poly}}
    comp = {0: {(i, i): {(): one} for i in range(r)}}
    for stage in range(n):
        new = {}
        for w, C in comp.items():
            new.setdefault(w, {})
            for key, tw in C.items():
                dst = new[w].setdefault(key, {})
                for tpl, p in tw.items():
                    dst[tpl] = dst[tpl] + p if tpl in dst else p
            sign = -1 if bin(w).count("1") % 2 else 1
            wb = w | (1 << stage)
            dstmat = new.setdefault(wb, {})
            for (a, b), tw in C.items():
                for c in range(r):
                    entry = at.entries[c][a]
                    if entry.is_zero():
                        continue
                    for idx, q in entry.components.items():
                        k = idx[0]
                        for tpl, p in tw.items():
                            coeff = p * q * sign
                            key = (c, b)
                            dst = dstmat.setdefault(key, {})
                            t = tpl + (k,)
                            dst[t] = dst[t] + coeff if t in dst else coeff
        comp = new
    # collapse tensor words by wedging slot forms in stage order
    z = Form.zero(ctx)
    grid = [[z] * r for _ in range(r)]
    for w, C in comp.items():
        m = bin(w).count("1")
        factor = Fraction(1)
        if rescale and m > 0:
            # iso onto (Omega^*, df, n): degree m scaled by (n-m)!/n!
            factor = Fraction(math.factorial(n - m), math.factorial(n))
        for (a, b), tw in C.items():
            acc = {}
            for tpl, p in tw.items():
                if len(set(tpl)) != len(tpl):
                    continue
                order = tuple(sorted(tpl))
                inv = sum(
                    1
                    for i in range(len(tpl))
                    for j in range(i + 1, len(tpl))
                    if tpl[i] > tpl[j]
                )
                c = p * factor * (-1 if inv % 2 else 1)
                acc[order] = acc[order] + c if order in acc else c
            grid[a][b] = grid[a][b] + Form(ctx, acc)
    return FormMatrix(ctx, r, r, grid)
