"""Matrix factorizations: objects, strict morphisms, and the constructions
(shift, direct sum, cone, tensor product, Z/2-folding of complexes).

A matrix factorization of a potential f is a pair of free modules with maps
A: E_1 -> E_0 and B: E_0 -> E_1 such that AB = f*I and BA = f*I.  Rank-zero
modules are allowed (empty matrices), so the tensor unit (0 <=> Q) exists.
"""
from __future__ import annotations

from .ring import Frozen, Matrix, Poly, RingCtx, RingError


class ValidationError(ValueError):
    """A construction failed its defining identity; carries the location."""


class PolyMatrix(Matrix):
    """Immutable rectangular matrix of polynomials with explicit shape."""

    __slots__ = ()
    _kind = Poly

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.ctx != other.ctx:
            raise RingError("mismatched ring contexts")
        if self.cols != other.rows:
            raise RingError(
                f"shape mismatch: {self.rows}x{self.cols} times {other.rows}x{other.cols}"
            )
        zero, rhs = Poly.zero(self.ctx), other.entries
        out = tuple(
            tuple(sum((a * rhs[k][j] for k, a in enumerate(row)), zero)
                  for j in range(other.cols))
            for row in self.entries
        )
        return PolyMatrix._make(self.ctx, self.rows, other.cols, out)

    def scale(self, p) -> "PolyMatrix":
        return self.map_entries(lambda e: e * p)

    def kron(self, other: "PolyMatrix") -> "PolyMatrix":
        """Kronecker product, left factor major (basis e_i (x) f_j)."""
        if self.ctx != other.ctx:
            raise RingError("mismatched ring contexts")
        out = tuple(
            tuple(p * q for p in row for q in orow)
            for row in self.entries for orow in other.entries
        )
        return PolyMatrix._make(
            self.ctx, self.rows * other.rows, self.cols * other.cols, out
        )


def _check_f_identity(prod: PolyMatrix, f: Poly, label: str):
    for i in range(prod.rows):
        for j in range(prod.cols):
            want = f if i == j else Poly.zero(f.ctx)
            if prod.entries[i][j] != want:
                raise ValidationError(
                    f"{label}: entry ({i},{j}) is not "
                    f"{'f' if i == j else '0'}"
                )


class MatFac(Frozen):
    """A matrix factorization (E_1 --A--> E_0 --B--> E_1) of the potential f:
    A (r0 x r1) is the map d_1 : E_1 -> E_0, B (r1 x r0) is d_0 : E_0 -> E_1."""

    __slots__ = _fields = ("ctx", "f", "A", "B")

    @property
    def r0(self) -> int:
        return self.A.rows

    @property
    def r1(self) -> int:
        return self.A.cols

    def __post_init__(self):
        if self.f.ctx != self.ctx:
            raise RingError("potential in wrong ring context")
        if (self.B.rows, self.B.cols) != (self.A.cols, self.A.rows):
            raise RingError("A and B shapes are not transposes of each other")
        _check_f_identity(self.A * self.B, self.f, "A*B != f*I")
        _check_f_identity(self.B * self.A, self.f, "B*A != f*I")


def mf_unit(ctx: RingCtx) -> MatFac:
    """The tensor unit (0 <=> Q), a matrix factorization of zero."""
    z = Poly.zero(ctx)
    return MatFac(
        ctx, z, PolyMatrix.zeros(ctx, 1, 0), PolyMatrix.zeros(ctx, 0, 1)
    )


def shift(M: MatFac) -> MatFac:
    return MatFac(M.ctx, M.f, -M.B, -M.A)


def direct_sum(M: MatFac, N: MatFac) -> MatFac:
    if M.ctx != N.ctx:
        raise RingError("mismatched ring contexts")
    if M.f != N.f:
        raise ValidationError("direct sum of factorizations of different potentials")
    ctx = M.ctx
    A = PolyMatrix.blocks(ctx, (M.r0, N.r0), (M.r1, N.r1), {(0, 0): M.A, (1, 1): N.A})
    B = PolyMatrix.blocks(ctx, (M.r1, N.r1), (M.r0, N.r0), {(0, 0): M.B, (1, 1): N.B})
    return MatFac(ctx, M.f, A, B)


class StrictMorphism(Frozen):
    """Degree-0 map commuting with the differentials on the nose; alpha0 is
    target.r0 x source.r0, alpha1 is target.r1 x source.r1."""

    __slots__ = _fields = ("source", "target", "alpha0", "alpha1")

    def __post_init__(self):
        ok, why = is_strict_morphism(
            self.alpha0, self.alpha1, self.source, self.target
        )
        if not ok:
            raise ValidationError(why)


def is_strict_morphism(alpha0, alpha1, M: MatFac, N: MatFac):
    """True iff both squares commute exactly; returns (bool, diagnostics)."""
    if M.ctx != N.ctx:
        raise RingError("mismatched ring contexts")
    if M.f != N.f:
        return False, "source and target have different potentials"
    if (alpha0.rows, alpha0.cols) != (N.r0, M.r0):
        raise RingError("alpha0 shape mismatch")
    if (alpha1.rows, alpha1.cols) != (N.r1, M.r1):
        raise RingError("alpha1 shape mismatch")
    lhs = alpha0 * M.A - N.A * alpha1
    if not lhs.is_zero():
        return False, "alpha0 . A_src != A_tgt . alpha1"
    lhs = alpha1 * M.B - N.B * alpha0
    if not lhs.is_zero():
        return False, "alpha1 . B_src != B_tgt . alpha0"
    return True, "ok"


def identity_morphism(M: MatFac) -> StrictMorphism:
    return StrictMorphism(
        M, M, PolyMatrix.identity(M.ctx, M.r0), PolyMatrix.identity(M.ctx, M.r1)
    )


def zero_morphism(M: MatFac, N: MatFac) -> StrictMorphism:
    return StrictMorphism(
        M, N,
        PolyMatrix.zeros(M.ctx, N.r0, M.r0),
        PolyMatrix.zeros(M.ctx, N.r1, M.r1),
    )


class Homotopy(Frozen):
    """Odd map; validity is the predicate is_homotopy, not a constructor check.
    h0 maps source.r0 -> target.r1, h1 maps source.r1 -> target.r0."""

    __slots__ = _fields = ("h0", "h1")


def is_homotopy(h: Homotopy, alpha: StrictMorphism, beta: StrictMorphism) -> bool:
    """True iff d.h + h.d = alpha - beta holds in both components."""
    if alpha.source is not beta.source and alpha.source != beta.source:
        raise RingError("morphisms must share a source")
    if alpha.target != beta.target:
        raise RingError("morphisms must share a target")
    M, N = alpha.source, alpha.target
    if (h.h0.rows, h.h0.cols) != (N.r1, M.r0):
        raise RingError("h0 shape mismatch")
    if (h.h1.rows, h.h1.cols) != (N.r0, M.r1):
        raise RingError("h1 shape mismatch")
    eq0 = N.A * h.h0 + h.h1 * M.B - (alpha.alpha0 - beta.alpha0)
    eq1 = N.B * h.h1 + h.h0 * M.A - (alpha.alpha1 - beta.alpha1)
    return eq0.is_zero() and eq1.is_zero()


class ConeResult(Frozen):
    """cone(alpha) for alpha: M -> N, with its strict maps from N and to M[1]."""

    __slots__ = _fields = ("cone", "from_target", "to_shifted_source")


def cone(alpha: StrictMorphism) -> ConeResult:
    """Mapping cone (N_1 + M_0 <=> N_0 + M_1) with its canonical strict maps."""
    M, N = alpha.source, alpha.target
    ctx = M.ctx
    blocks, I = PolyMatrix.blocks, PolyMatrix.identity
    r0, r1 = (N.r0, M.r1), (N.r1, M.r0)  # the cone's pieces, blockwise
    A = blocks(ctx, r0, r1, {(0, 0): N.A, (0, 1): alpha.alpha0, (1, 1): -M.B})
    B = blocks(ctx, r1, r0, {(0, 0): N.B, (0, 1): alpha.alpha1, (1, 1): -M.A})
    C = MatFac(ctx, M.f, A, B)
    incl = StrictMorphism(
        N, C,
        blocks(ctx, r0, (N.r0,), {(0, 0): I(ctx, N.r0)}),
        blocks(ctx, r1, (N.r1,), {(0, 0): I(ctx, N.r1)}),
    )
    proj = StrictMorphism(
        C, shift(M),
        blocks(ctx, (M.r1,), r0, {(0, 1): I(ctx, M.r1)}),
        blocks(ctx, (M.r0,), r1, {(0, 1): I(ctx, M.r0)}),
    )
    return ConeResult(C, incl, proj)


def contraction_of_identity_cone(M: MatFac) -> Homotopy:
    """Explicit homotopy witnessing id = 0 on cone(id_M)."""
    ctx = M.ctx
    # cone(id): C1 = M1+M0, C0 = M0+M1; h0 = h1 = [[0,0],[I,0]] blockwise
    h0 = PolyMatrix.blocks(
        ctx, (M.r1, M.r0), (M.r0, M.r1), {(1, 0): PolyMatrix.identity(ctx, M.r0)}
    )
    h1 = PolyMatrix.blocks(
        ctx, (M.r0, M.r1), (M.r1, M.r0), {(1, 0): PolyMatrix.identity(ctx, M.r1)}
    )
    return Homotopy(h0, h1)


def tensor(M: MatFac, N: MatFac) -> MatFac:
    """Tensor product of factorizations; the potential is the sum.

    Bases are ordered left factor major: degree 1 is (M1 (x) N0, M0 (x) N1),
    degree 0 is (M0 (x) N0, M1 (x) N1), the differential follows the Koszul
    rule d(m (x) n) = d(m) (x) n + (-1)^|m| m (x) d(n).
    """
    if M.ctx != N.ctx:
        raise RingError("tensor factors must share a ring context")
    ctx = M.ctx
    I = PolyMatrix.identity
    r0 = (M.r0 * N.r0, M.r1 * N.r1)
    r1 = (M.r1 * N.r0, M.r0 * N.r1)
    A = PolyMatrix.blocks(ctx, r0, r1, {
        (0, 0): M.A.kron(I(ctx, N.r0)), (0, 1): I(ctx, M.r0).kron(N.A),
        (1, 0): -(I(ctx, M.r1).kron(N.B)), (1, 1): M.B.kron(I(ctx, N.r1)),
    })
    B = PolyMatrix.blocks(ctx, r1, r0, {
        (0, 0): M.B.kron(I(ctx, N.r0)), (0, 1): -(I(ctx, M.r1).kron(N.A)),
        (1, 0): I(ctx, M.r0).kron(N.B), (1, 1): M.A.kron(I(ctx, N.r1)),
    })
    return MatFac(ctx, M.f + N.f, A, B)


# ---------------------------------------------------------------------------
# bounded complexes of free modules and the Z/2-folding
# ---------------------------------------------------------------------------

class ChainComplex(Frozen):
    """Bounded cochain complex of free modules; d_i : C^i -> C^(i+1).  ranks[j]
    is the rank of C^(min_degree + j); differentials[j] maps rank j to rank j+1."""

    __slots__ = _fields = ("ctx", "min_degree", "ranks", "differentials")

    def __post_init__(self):
        if len(self.differentials) != max(len(self.ranks) - 1, 0):
            raise RingError("need one differential per adjacent pair of degrees")
        for j, d in enumerate(self.differentials):
            if (d.rows, d.cols) != (self.ranks[j + 1], self.ranks[j]):
                raise RingError(f"differential {j} has the wrong shape")
        for j in range(len(self.differentials) - 1):
            prod = self.differentials[j + 1] * self.differentials[j]
            if not prod.is_zero():
                raise ValidationError(
                    f"differential does not square to zero at degree "
                    f"{self.min_degree + j}"
                )

    def degree_of(self, j: int) -> int:
        return self.min_degree + j


def fold_complex(C: ChainComplex) -> MatFac:
    """Z/2-folding: even degrees (ascending) in degree 0, odd in degree 1."""
    ctx = C.ctx
    e = C.min_degree % 2  # the index of the lowest even degree
    even, odd = C.ranks[e::2], C.ranks[1 - e::2]
    # the j-th term is block j // 2 among the terms of its parity
    A, B = {}, {}  # the odd -> even and the even -> odd blocks
    for j, d in enumerate(C.differentials):
        (A if C.degree_of(j) % 2 else B)[(j + 1) // 2, j // 2] = d
    return MatFac(
        ctx, Poly.zero(ctx),
        PolyMatrix.blocks(ctx, even, odd, A), PolyMatrix.blocks(ctx, odd, even, B),
    )


def module_complex(ctx: RingCtx, rank: int = 1) -> ChainComplex:
    """A free module concentrated in degree 0."""
    return ChainComplex(ctx, 0, (rank,), ())


def tensor_complexes(X: ChainComplex, Y: ChainComplex) -> ChainComplex:
    """Tensor product of complexes, d(x (x) y) = dx (x) y + (-1)^|x| x (x) dy.

    Within total degree k the summands X^i (x) Y^j are ordered with i
    descending; for two-term complexes this makes the folding of the result
    agree with the tensor of the foldings entry for entry.
    """
    if X.ctx != Y.ctx:
        raise RingError("mismatched ring contexts")
    ctx = X.ctx
    I = PolyMatrix.identity
    nx, ny = len(X.ranks), len(Y.ranks)
    # the summands of the t-th total degree, as index pairs (a, b) of X^a (x) Y^b
    summands = [
        [(a, t - a) for a in reversed(range(nx)) if 0 <= t - a < ny]
        for t in range(nx + ny - 1)
    ]
    sizes = [[X.ranks[a] * Y.ranks[b] for a, b in s] for s in summands]
    diffs = []
    for t in range(len(summands) - 1):
        target = {p: q for q, p in enumerate(summands[t + 1])}
        placed = {}
        for q, (a, b) in enumerate(summands[t]):
            if a + 1 < nx:  # dX (x) 1
                placed[target[a + 1, b], q] = X.differentials[a].kron(I(ctx, Y.ranks[b]))
            if b + 1 < ny:  # (-1)^|x| 1 (x) dY
                blk = I(ctx, X.ranks[a]).kron(Y.differentials[b])
                placed[target[a, b + 1], q] = -blk if X.degree_of(a) % 2 else blk
        diffs.append(PolyMatrix.blocks(ctx, sizes[t + 1], sizes[t], placed))
    ranks = tuple(sum(s) for s in sizes)
    return ChainComplex(ctx, X.min_degree + Y.min_degree, ranks, tuple(diffs))

