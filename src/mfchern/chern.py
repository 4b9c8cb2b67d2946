"""Connections, the Atiyah class, and the Chern character.

For a matrix factorization on free modules every connection is d + Gamma
with Gamma a matrix of 1-forms per graded piece.  The Atiyah class is the
commutator of the chosen connection with the twisted differential; its
wedge-matrix powers feed the supertrace, and the Chern character is the
collection of normal forms of (1/(2i)!) str(At^(2i)) in the homology of
the complex (Omega^*, df^).  The identity checks, and ``CHECK_SUITES``,
the table of suites that drive them, live here too.
"""
from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter

from .exterior import (
    Form, FormMatrix, _Packing, _largest, _wedge_sums, exterior_derivative,
    fm_exterior_derivative, fm_mul, wedge,
)
from .ideals import _Memo, _jacobian_normal_forms, df_form, form_normal_form
from .mf import (
    MatFac,
    PolyMatrix,
    StrictMorphism,
    cone,
    identity_morphism,
    mf_unit,
    tensor,
)
from .ring import Frozen, Poly, RingCtx, RingError


class InternalConsistencyError(AssertionError):
    """A proved identity failed symbolically; indicates an implementation bug."""


def _as_forms(P: PolyMatrix) -> FormMatrix:
    return FormMatrix.from_poly_rows(P.ctx, P.rows, P.cols, P.entries)


class Connection(Frozen):
    """d + Gamma on each graded piece of the underlying free module; gamma0
    (r0 x r0) and gamma1 (r1 x r1) have 1-form entries."""

    __slots__ = _fields = ("base", "gamma0", "gamma1")

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


def random_connection(M: MatFac, rng) -> Connection:
    """Random 1-form perturbation of the default connection (test helper)."""
    ctx = M.ctx

    def rand_form():
        acc = Form.zero(ctx)
        for i in range(ctx.nvars):
            if rng.random() < 0.5:
                continue
            c = rng.randint(-3, 3)
            if c == 0:
                continue
            mono = [0] * ctx.nvars
            for _ in range(rng.randint(0, 1)):  # a monomial of degree <= 1
                mono[rng.randrange(ctx.nvars)] += 1
            p = Poly(ctx, {tuple(mono): c})
            acc = acc + Form(ctx, {(i,): p})
        return acc

    def rand_matrix(size):
        return FormMatrix(
            ctx, size, size,
            [[rand_form() for _ in range(size)] for _ in range(size)],
        )

    return Connection(M, rand_matrix(M.r0), rand_matrix(M.r1))


class AtiyahClass(Frozen):
    """Odd 1-form-valued endomorphism of E0 (+) E1, held as its two
    off-diagonal blocks: block01 (r0 x r1) maps E1 -> Omega^1 (x) E0 and
    block10 (r1 x r0) maps E0 -> Omega^1 (x) E1."""

    __slots__ = _fields = ("base", "conn", "block01", "block10")

    @property
    def matrix(self) -> FormMatrix:
        """The dense (r0+r1)-square [[0, At01], [At10, 0]], rows and columns
        indexed E0 first, then E1; built on each call, for the dense oracle."""
        M = self.base
        r = (M.r0, M.r1)
        return FormMatrix.blocks(M.ctx, r, r, {(0, 1): self.block01, (1, 0): self.block10})


def atiyah(M: MatFac, conn: Connection) -> AtiyahClass:
    if conn.base != M:
        raise RingError("connection belongs to a different matrix factorization")
    A, B = _as_forms(M.A), _as_forms(M.B)
    at01 = fm_exterior_derivative(A) + fm_mul(conn.gamma0, A) - fm_mul(A, conn.gamma1)
    at10 = fm_exterior_derivative(B) + fm_mul(conn.gamma1, B) - fm_mul(B, conn.gamma0)
    return AtiyahClass(M, conn, at01, at10)


def atiyah_powers(at: AtiyahClass, top: int):
    """At^0, At^1, ..., At^top, each one wedge-matrix product past the last."""
    m = at.matrix
    power = FormMatrix.identity(m.ctx, m.rows)
    yield power
    for _ in range(top):
        power = fm_mul(power, m)
        yield power


def atiyah_power(at: AtiyahClass, i: int) -> FormMatrix:
    """The collapsed i-th power: i-fold wedge-matrix product of At."""
    n = at.base.ctx.nvars
    if not 0 <= i <= n:
        raise RingError(f"power {i} out of range 0..{n}")
    *_, power = atiyah_powers(at, i)
    return power


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
    powers = atiyah_powers(atiyah(M, conn), n)
    out = next(powers)
    for i, power in enumerate(powers, start=1):
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
    df1 = FormMatrix.diagonal(ctx, M.r1, df)
    df0 = FormMatrix.diagonal(ctx, M.r0, df)
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


# ---------------------------------------------------------------------------
# the Chern character
# ---------------------------------------------------------------------------

class HomologyClass(Frozen):
    """A class in the homology of (Omega^*, df^) given by one cycle per
    degree, as a degree -> Form mapping or as (degree, Form) pairs; entries
    is a tuple of (degree, normal form of the cycle), degrees ascending."""

    __slots__ = _fields = ("f", "n", "entries")

    def __init__(self, f: Poly, n: int, cycles):
        cycles = dict(cycles)
        super().__init__(
            f, n, tuple((d, form_normal_form(cycles[d], f)) for d in sorted(cycles))
        )

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
        degs = self.components.keys() | other.components.keys()
        return HomologyClass(
            self.f, self.n, {d: self.component(d) + other.component(d) for d in degs}
        )

    def __neg__(self) -> "HomologyClass":
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "HomologyClass":
        return HomologyClass(self.f, self.n, ((d, w.scale(c)) for d, w in self.entries))


def chern_character(M: MatFac, conn: Connection = None) -> HomologyClass:
    """ch(E) = sum (1/(2i)!) str(At^(2i)) as normal-form representatives.

    At is odd, [[0, At01], [At10, 0]] in the (E0, E1) splitting, so
    At^(2i) = diag(X^i, Y^i) with X = At01.At10 and Y = At10.At01.  The
    trace is graded-cyclic and Y^i = At10.(X^(i-1).At01) has two odd
    factors, so Y^i and X^i have opposite traces and

        str(At^(2i)) = 2 tr(X^i),   str(At^0) = r0 - r1,

    while odd powers have zero diagonal blocks and are never formed.  The
    traces come from one half-length power chain (:func:`_power_traces`).
    When n > 0 and the Jacobian ring Q[x]/J_f is finite-dimensional (an
    isolated singularity), (Omega^*, df^) is exact below degree n, so
    every lower class is zero and only tr(X^(n/2)) is formed (none for odd
    n).  J_f.Omega^* is an ideal of the exterior algebra and J_f.Omega^n =
    df^Omega^(n-1), so there every product is reduced mod J_f, and so is
    every trace.  Every other f forms every degree up to n, unreduced.

    No call re-checks that cyclicity: it is a property of the wedge
    kernel, not of the input.  The tests and the ``cycle`` suite check it
    against the dense path (atiyah_power, supertrace), the public oracle.
    """
    at = atiyah(M, conn or connection_default(M))
    return HomologyClass(M.f, M.ctx.nvars, _cycles(at, _jacobian_normal_forms(M.f)))


def _cycles(at: AtiyahClass, jacobian) -> dict:
    """{2i: str(At^(2i)) / (2i)!} for 2i <= n.  ``jacobian`` is None or the
    monomial memo and exponent cap of ``ideals._jacobian_normal_forms``:
    when set, only degree n is formed (for even n), with every product
    reduced, and lower degrees are zero.  df ^ str(At^(2i)) = 0 is checked
    for 2 <= 2i < n, where a library fault can break it; in degree 0,
    r0 - r1 = 0 unless f is constant and df = 0 (AB = f.I = BA), and in
    degree n, df ^ s has degree n + 1.  So the reduced mode checks nothing.
    """
    M = at.base
    ctx = M.ctx
    n = ctx.nvars
    nf, cap = jacobian or (None, 0)
    wanted = range(1, n // 2 + 1) if nf is None else ([n // 2] if n % 2 == 0 else [])
    cycles = dict.fromkeys(range(2, n + 1, 2), Form.zero(ctx))
    cycles[0] = Form.from_poly(Poly.const(ctx, M.r0 - M.r1))
    df = df_form(M.f)
    for i, t in zip(wanted, _power_traces(at.block01, at.block10, wanted, nf, cap)):
        if 2 * i < n and not wedge(df, t).is_zero():
            raise InternalConsistencyError(f"df ^ str(At^{2 * i}) != 0")
        cycles[2 * i] = t.scale(Fraction(2, math.factorial(2 * i)))
    return cycles


def _power_traces(S: FormMatrix, T: FormMatrix, wanted, nf, cap=0) -> list:
    """[tr(X^i) for i in wanted], X = S.T, with every product and trace
    reduced by the monomial memo ``nf``, which maps a monomial to None when
    no lead divides it and else to its normal form, with no exponent above
    ``cap``.

    Only the powers X^k with k <= h = ceil(max(wanted)/2) are formed, none
    when max(wanted) <= 1, and each tr(X^i) comes from the diagonal alone
    of a product of two of them: X^(i-1).X for i <= h, X^h.X^(i-h) above,
    S.T for i = 1.  S and T are packed once (:class:`exterior._Packing`),
    in fields as wide as max(wanted) * max(eS + eT, cap), eS and eT their
    largest exponents, which bounds every exponent of the chain.  All of
    it stays packed; the only Forms built are the traces returned.
    """
    if not wanted:
        return []
    ctx, top = S.ctx, max(wanted)
    h = (top + 1) // 2
    reach = top * max(_largest(S.entries) + _largest(T.entries), cap)
    packing = _Packing(ctx.nvars, reach)
    if nf is not None:
        irreducible = set()

        def packed_normal_form(u: int):
            r = nf[packing[u]]
            if r is None:
                irreducible.add(u)
                return None
            if any(e > reach for m in r.terms for e in m):
                raise InternalConsistencyError("normal form past the exponent bound")
            return packing.pack(r)

        normal_forms = _Memo(packed_normal_form)

    def reduced(acc: dict) -> dict:
        """One cell's sums, each monomial that reduces replaced by its
        normal form."""
        for terms in acc.values():
            if nf is not None and not terms.keys() <= irreducible:
                moved = [(normal_forms[u], terms.pop(u))
                         for u in [u for u in terms if normal_forms[u] is not None]]
                for r, c in moved:
                    for v, d in r:
                        terms[v] = terms[v] + c * d if v in terms else c * d
        return acc

    r = S.rows
    cells = [((i, j),) for i in range(r) for j in range(r)]

    def product(P, Q) -> list:
        """P.Q, reduced, as flat entries without zero terms."""
        sums = [[(m, t) for m, terms in reduced(acc).items()
                 if (t := tuple(filter(itemgetter(1), terms.items())))]
                for acc in _wedge_sums(P, Q, cells)]
        return [sums[i * r:(i + 1) * r] for i in range(r)]

    S, T = packing.flat(S.entries), packing.flat(T.entries)
    powers = [product(S, T)] if top > 1 else []  # powers[k - 1] = X^k
    while powers and len(powers) < h:
        powers.append(product(powers[-1], powers[0]))
    traces = []
    for i in wanted:
        j = max(1, i - h)  # tr(X^i) = tr(X^(i-j).X^j), both formed
        P, Q = (S, T) if i == 1 else (powers[i - j - 1], powers[j - 1])
        traces.append(reduced(_wedge_sums(P, Q, [[(k, k) for k in range(r)]])[0]))
    return packing.forms(ctx, traces)


# ---------------------------------------------------------------------------
# classical Chern-Weil character of an idempotent
# ---------------------------------------------------------------------------

def classical_chern(e: PolyMatrix) -> Form:
    """tr(exp(R)) for the projective module Im(e) with its induced connection.

    R is realized as e.(de).(de); e commutes with de.de, so tr(R^k) =
    tr(X^k) for X = (e.de).de, and one power chain (:func:`_power_traces`)
    gives every k.  The result is truncated at the variable count and every
    even component is a de Rham cycle.
    """
    if e.rows != e.cols:
        raise RingError("idempotent must be square")
    if e * e != e:
        raise RingError("matrix is not idempotent")
    E = _as_forms(e)
    de = fm_exterior_derivative(E)
    total = Form.from_poly(e.trace())
    traces = _power_traces(fm_mul(E, de), de, range(1, e.ctx.nvars // 2 + 1), None)
    for k, t in enumerate(traces, start=1):
        total = total + t.scale(Fraction(1, math.factorial(k)))
    return total


# ---------------------------------------------------------------------------
# additivity / multiplicativity / functoriality checks
# ---------------------------------------------------------------------------

def cone_connection(connP: Connection, connQ: Connection, C: MatFac) -> Connection:
    """Block-diagonal connection on the cone C of a morphism P -> Q, whose
    pieces are (Q1 + P0, Q0 + P1)."""
    def diag(a, b):
        r = (a.rows, b.rows)
        return FormMatrix.blocks(C.ctx, r, r, {(0, 0): a, (1, 1): b})

    g1 = diag(connQ.gamma1, connP.gamma0)
    g0 = diag(connQ.gamma0, connP.gamma1)
    return Connection(C, g0, g1)


def cone_additivity_check(theta: StrictMorphism, connP: Connection = None,
                          connQ: Connection = None) -> bool:
    """ch(target) = ch(source) + ch(cone(theta)), all three computed here."""
    P, Q = theta.source, theta.target
    connP = connP or connection_default(P)
    connQ = connQ or connection_default(Q)
    C = cone(theta).cone
    connC = cone_connection(connP, connQ, C)
    lhs = chern_character(Q, connQ)
    rhs = chern_character(P, connP) + chern_character(C, connC)
    return lhs == rhs


def tensor_multiplicativity_check(E: MatFac, F: MatFac,
                                  connE: Connection = None,
                                  connF: Connection = None) -> bool:
    """ch(E (x) F) equals the wedge of representatives, reduced mod d(f+g)^."""
    if E.ctx != F.ctx:
        raise RingError("tensor factors must share a ring context")
    n = E.ctx.nvars
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
    return lhs == HomologyClass(T.f, n, acc)


class RingMap(Frozen):
    """A ring homomorphism given by polynomial images of each variable;
    images is a tuple[Poly, ...] in the target ring."""

    __slots__ = _fields = ("source", "target", "images")

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
    A = M.A.map_entries(phi.apply, tgt)
    B = M.B.map_entries(phi.apply, tgt)
    return MatFac(tgt, phi.apply(M.f), A, B)


def embed(M: MatFac, new_ctx: RingCtx) -> MatFac:
    """Re-express M over a ring whose variables include all of M's: base
    change along the inclusion map."""
    images = [Poly.variable(new_ctx, new_ctx.var_index(v)) for v in M.ctx.variables]
    return pushforward(M, RingMap(M.ctx, new_ctx, images))


def functoriality_check(M: MatFac, phi: RingMap) -> bool:
    """Pushing representatives forward agrees with ch of the pushforward."""
    if phi.source.nvars != phi.target.nvars:
        raise RingError("functoriality requires equal relative dimensions")
    N = pushforward(M, phi)
    lhs = chern_character(N)
    pushed = ((d, phi.push_form(w)) for d, w in chern_character(M).entries)
    return lhs == HomologyClass(N.f, phi.target.nvars, pushed)


# ---------------------------------------------------------------------------
# formal K-classes
# ---------------------------------------------------------------------------

class KClass(Frozen):
    """Formal Z-linear combination of matrix factorizations over one ring;
    terms is a tuple of (int coefficient, MatFac)."""

    __slots__ = _fields = ("ctx", "terms")

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
    the word built so far.  The identity map leaves a word as it is, and
    a term whose slots would repeat an index is dead (dx ^ dx = 0), so the
    At map never builds it.  Small n only: the tower has 2^n words.
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
        new = dict(comp)
        for w, C in comp.items():
            sign = -1 if bin(w).count("1") % 2 else 1
            dstmat = new[w | (1 << stage)] = {}
            for (a, b), tw in C.items():
                for c in range(r):
                    for (k,), q in at.entries[c][a].components.items():
                        q = q * sign
                        dst = dstmat.setdefault((c, b), {})
                        for tpl, p in tw.items():
                            if k not in tpl:
                                t = tpl + (k,)
                                dst[t] = dst[t] + p * q if t in dst else p * q
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
            for tpl, p in tw.items():  # m slots, one per At stage of w
                inv = sum(tpl[i] > tpl[j] for i in range(m) for j in range(i + 1, m))
                c = p * (-factor if inv % 2 else factor)
                order = tuple(sorted(tpl))
                acc[order] = acc[order] + c if order in acc else c
            grid[a][b] = grid[a][b] + Form(ctx, acc)
    return FormMatrix(ctx, r, r, grid)


# ---------------------------------------------------------------------------
# the check suites
# ---------------------------------------------------------------------------
# Each suite(M, rng, partner) returns None on a pass and the reason on a
# failure; rng draws its random connections and base changes, and partner,
# when given, is the second tensor factor of multiplicativity.  The suites
# reach the checks through this module's globals at call time, so a check
# rebound here (by a tracer or a test) is the one that runs.

def _suite_strictness(M, rng, partner):
    ok, why = phi_strictness_check(M)
    if ok:
        ok, why = phi_strictness_check(M, random_connection(M, rng))
    return None if ok else why


def _suite_cycle(M, rng, partner):
    # even powers against the chain: graded cyclicity gives str(At^i) = 2 tr(X^(i/2))
    at = atiyah(M, connection_default(M))
    df = df_form(M.f)
    tr_x = _power_traces(at.block01, at.block10, range(1, M.ctx.nvars // 2 + 1), None)
    for i, power in enumerate(atiyah_powers(at, M.ctx.nvars)):
        s = supertrace(power, M.r0, M.r1)
        if not wedge(df, s).is_zero():
            return f"df ^ str(At^{i}) != 0"
        if i > 1 and i % 2 == 0 and s != tr_x[i // 2 - 1].scale(2):
            return f"str(At^{i}) != 2 tr(X^{i // 2})"
    return None


def _suite_odd(M, rng, partner):
    at = atiyah(M, connection_default(M))
    n = M.ctx.nvars
    # supertraces of the odd powers alone, up to the largest odd i <= n
    for i, power in enumerate(atiyah_powers(at, n - 1 + n % 2)):
        if i % 2 and not supertrace(power, M.r0, M.r1).is_zero():
            return f"str(At^{i}) != 0"
    return None


def _suite_additivity(M, rng, partner):
    ok = cone_additivity_check(identity_morphism(M))
    return None if ok else "additivity fails for the identity endomorphism"


def _suite_multiplicativity(M, rng, partner):
    ok = tensor_multiplicativity_check(M, partner or mf_unit(M.ctx))
    return None if ok else "ch(E (x) F) != ch(E) ch(F)"


def _suite_functoriality(M, rng, partner):
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
    ok = functoriality_check(M, RingMap(ctx, ctx, tuple(images)))
    return None if ok else "pushforward does not commute with ch"


def _suite_tower(M, rng, partner):
    n = M.ctx.nvars
    if n > 3:  # the oracle walks 2^n tensor words and refuses n > 3
        return None
    conn = random_connection(M, rng)
    ok = phi_tower_oracle(M, conn, n) == phi_tilde_n(M, conn, n)
    return None if ok else "tower oracle disagrees with the closed form"


# the suites of `mfchern check` and scripts/verify_identities.py, in the
# order of `--suite all`
CHECK_SUITES = {
    "strictness": _suite_strictness,
    "cycle": _suite_cycle,
    "odd": _suite_odd,
    "additivity": _suite_additivity,
    "multiplicativity": _suite_multiplicativity,
    "functoriality": _suite_functoriality,
    "tower": _suite_tower,
}
