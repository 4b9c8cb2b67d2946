"""Groebner bases for ideals in Q[x] and for submodules of the form modules.

One Buchberger engine serves both: an ideal is a submodule of rank 1.
Positions of a form module are the k-subsets of variable indices in
lexicographic order, which realizes the submodules ``df ^ Omega^(k-1)``
whose quotients decide equality of homology classes.

Inside the engine a term ``(position, monomial)`` is one int, a packed
exponent vector (Monagan and Pearce 2007): a field per exponent and one for
the total degree, with the position above them, laid out so that a smaller
int is a larger term in the position-over-term order (a lower position
ranks higher) under every monomial order.  The packing is linear in the
exponents: a term times a monomial is one ``+``, the quotient of two
monomials one ``-``, and whether a lead divides a term is one subtraction
masked by the fields' guard bits.  Vectors are term dicts ``{term: int}``.
Polys are packed only on the way in and unpacked only on the way out.  The
field width comes from the inputs' degrees; a shift whose terms could pass
the fields' capacity is refused with ``_Overflow``, checked once per shift
against the degree of the generator shifted, and the run starts again at
twice the width.

The engine is fraction-free: it keeps every generator primitive over Z with
its lead computed once.  Its reducer pops the largest remaining term off a
heap and either cancels it against a generator with the same lead position,
scaling the vector by the reduced lead coefficient where needed, or moves
it to the remainder; it never restarts or rebuilds the vector.  Rational
inputs are cleared of denominators on the way in and the results divided
by them on the way out, so the public generators are monic and normal
forms are exact.  S-pairs (same lead position only) wait in a heap,
smallest lcm first, and are skipped by the chain criterion (Gebauer and
Moeller 1988) and, in rank 1 only, by the coprime criterion.  The reduced
basis and full normal forms are unique, so the pair order changes the cost,
never the result.  A run hands its reduced basis to the result as it is;
the verifier :func:`is_groebner` packs the public generators again.
"""
from __future__ import annotations

import itertools
import sys
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import le, mul

from .exterior import Form, exterior_derivative
from .ring import Frozen, Poly, RingCtx, RingError, exact_div


class _Memo(dict):
    """A dict that fills a missing entry with ``fn(key)`` and keeps it."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class _Overflow(Exception):
    """A term would not fit the fields of the current width."""


def _start_width(vectors, rank: int, ctx: RingCtx) -> int:
    """The field width a run on ``vectors`` starts at: wide enough for the
    lcm of two of their leads, and as wide as keeps every term of a
    rank-``rank`` module inside one digit of a Python int, where integer
    arithmetic is fastest."""
    degree = max((sum(m) for v in vectors for p in v for m in p.terms), default=0)
    free = (sys.int_info.bits_per_digit - (rank - 1).bit_length()) // (ctx.nvars + 1)
    return max(2, (2 * degree).bit_length() + 1, free)


def _widening(run, vectors, rank: int, ctx: RingCtx):
    """``run(width)`` at the start width for ``vectors``, again at twice the
    width each time a term overflows."""
    width = _start_width(vectors, rank, ctx)
    while True:
        try:
            return run(width)
        except _Overflow:
            width *= 2


class _Basis:
    """Engine form of a list of generators of a rank-``rank`` module, each
    primitive over Z, and the packing of its terms at field width ``width``.

    A term ``(pos, m)`` packs to ``(pos << P) + bias + sum(e_i * weights[i])``.
    Every field holds a value up to ``cap = 2^(width-1) - 1`` under a guard
    bit.  Under degrevlex the exponent fields hold e_i, the last variable
    highest, below a degree field holding cap - deg.  Under grlex and lex
    every field holds cap minus its value, the first variable highest, with
    the degree field above the exponents (grlex) or below them (lex).  So a
    smaller int is a larger term, and the lead of a term dict is its min.  A
    lead ``lt`` divides a term ``t`` of its position exactly when
    ``(t - lt - one) & guard == zero``: under degrevlex no exponent field of
    ``t - lt`` borrows, under the others none of ``lt - t`` does.

    ``gens[i]`` is ``(lt, lt + one, a, tail, top)`` with ``a > 0`` the
    integer lead coefficient, ``tail`` the non-lead terms as a list of
    ``(t, c)``, every ``c`` an int, and ``top`` the largest degree of a term
    less the lead's, so that the generator shifted to a lead of degree d
    stays in the fields when d + top <= cap (a graded order bounds only the
    terms in the lead's position);
    ``by_pos`` lists the same tuples by lead position."""

    def __init__(self, ctx: RingCtx, rank: int, width: int, vectors=()):
        n = ctx.nvars
        self.ctx, self.rank, self.width = ctx, rank, width
        self.cap = cap = (1 << width - 1) - 1
        self.P = width * (n + 1)
        up = ctx.order == "degrevlex"
        lex = ctx.order == "lex"
        if up:
            self.offsets = [width * i for i in range(n)]
        else:
            self.offsets = [width * (n - i - 1 + lex) for i in range(n)]
        self.dshift = 0 if lex else width * n
        sign = 1 if up else -1
        self.weights = [(sign << s) - (1 << self.dshift) for s in self.offsets]
        self.flip = 0 if up else sum(cap << s for s in self.offsets)
        self.bias = (cap << self.dshift) + self.flip
        self.guard = sum(1 << s + width - 1 for s in self.offsets)
        self.emask = sum(cap << s for s in self.offsets)
        self.ones = sum(1 << s for s in self.offsets)
        self.sum_at = 2 * min(self.offsets, default=0) + width * max(n - 1, 0)
        self.one, self.zero = (0, 0) if up else (1, self.guard)
        self.gens = []
        self.by_pos = {}
        for v in vectors:
            self.add(_integral(self.terms(v))[1])

    def unpack(self, t: int):
        """``(pos, m)`` of the term ``t``."""
        y, cap = t ^ self.flip, self.cap
        return t >> self.P, tuple([y >> s & cap for s in self.offsets])

    def degree(self, t: int) -> int:
        return self.cap - (t >> self.dshift & self.cap)

    def divides(self, i: int, t: int) -> bool:
        """The lead of generator ``i`` divides the term ``t`` and shares its
        position."""
        lt, lo = self.gens[i][:2]
        return lt >> self.P == t >> self.P and (t - lo) & self.guard == self.zero

    def terms(self, v) -> dict:
        """The term dict of the vector of Polys ``v``: the engine's entry
        edge."""
        P, bias, weights, cap = self.P, self.bias, self.weights, self.cap
        out = {}
        for pos, p in enumerate(v):
            if p.terms and max(map(sum, p.terms)) > cap:
                raise _Overflow
            base = (pos << P) + bias
            for m, c in p.terms.items():
                out[base + sum(map(mul, m, weights))] = c
        return out

    def vector(self, terms: dict, d: int) -> tuple:
        """The vector of Polys ``terms / d``: the engine's exit edge, for an
        integer term dict ``terms`` and a positive int ``d``."""
        P, flip, offsets, cap = self.P, self.flip, self.offsets, self.cap
        comps = [{} for _ in range(self.rank)]
        for t, c in terms.items():
            y = t ^ flip
            comps[t >> P][tuple([y >> s & cap for s in offsets])] = (
                c if d == 1 else exact_div(c, d))
        return tuple(Poly._trusted(self.ctx, c) for c in comps)

    def add(self, terms: dict):
        """Append the integer term dict ``terms``, made primitive: content
        divided out, positive lead coefficient."""
        if not terms:
            raise RingError("a basis generator must be nonzero")
        lead = min(terms)
        g = gcd(*terms.values())
        if terms[lead] < 0:
            g = -g
        if g != 1:
            terms = {t: c // g for t, c in terms.items()}
        tail = [(t, c) for t, c in terms.items() if t != lead]
        ds, cap = self.dshift, self.cap  # the degree field holds cap - deg
        top = (lead >> ds & cap) - min([t >> ds & cap for t in terms])
        gen = (lead, lead + self.one, terms[lead], tail, top)
        self.gens.append(gen)
        self.by_pos.setdefault(lead >> self.P, []).append(gen)

    def lcm(self, i: int, j: int) -> int:
        """The lcm of the leads of generators ``i`` and ``j``, which share a
        position; ``_Overflow`` unless their S-vector fits the fields."""
        (a, *_, topi), (b, *_, topj) = self.gens[i], self.gens[j]
        flip, emask, guard, cap = self.flip, self.emask, self.guard, self.cap
        ya, yb = (a ^ flip) & emask, (b ^ flip) & emask  # the exponent fields
        ge = ((ya | guard) - yb) & guard  # the guard bit of each field where ya >= yb
        sel = ge - (ge >> self.width - 1)  # that field's value bits
        m = ya & sel | yb & (emask ^ sel)
        # the fields' sum lands in one field of m * ones; no partial sum of
        # two degrees up to cap carries out of its field
        deg = m * self.ones >> self.sum_at & (cap << 1 | 1)
        if deg + max(topi, topj) > cap:
            raise _Overflow
        return (a >> self.P << self.P) + (cap - deg << self.dshift) + (m ^ flip)

    def reduce(self, work: dict):
        """``(rem, s)`` with ``rem / s`` the full normal form of the integer
        term dict ``work``, which is consumed; ``rem`` is an integer term
        dict and ``s`` a positive int.

        The largest remaining term comes off a heap; entries of terms that
        have cancelled since they were pushed are skipped.  Cancelling
        ``c x^t`` against a generator with lead ``a x^lt`` scales ``work``,
        ``rem`` and ``s`` by ``a / gcd(a, c)`` instead of dividing by ``a``.
        """
        P, guard, zero, cap, by_pos = self.P, self.guard, self.zero, self.cap, self.by_pos
        rem, s = {}, 1
        heap = list(work)
        heapify(heap)
        while heap:
            t = heappop(heap)
            c = work.pop(t, None)
            if c is None:
                continue
            for lt, lo, a, tail, top in by_pos.get(t >> P, ()):
                if (t - lo) & guard == zero:
                    if top and self.degree(t) + top > cap:
                        raise _Overflow
                    g = gcd(a, c)
                    if g != a:
                        a //= g
                        for u in work:
                            work[u] *= a
                        for u in rem:
                            rem[u] *= a
                        s *= a
                    for u in _add_shifted(work, t - lt, tail, -c // g):
                        heappush(heap, u)
                    break
            else:
                rem[t] = c
        return rem, s

    def s_vector(self, i: int, j: int, lcm: int) -> dict:
        """a_j (lcm/lm_i) g_i - a_i (lcm/lm_j) g_j, both leads divided by
        their gcd, without the cancelling leads."""
        (lti, _, ai, tail_i, _), (ltj, _, aj, tail_j, _) = self.gens[i], self.gens[j]
        g = gcd(ai, aj)
        work = {}
        _add_shifted(work, lcm - lti, tail_i, aj // g)
        _add_shifted(work, lcm - ltj, tail_j, -ai // g)
        return work


def _add_shifted(work: dict, q: int, terms, c: int) -> list:
    """work += c x^q terms in place, dropping the terms that cancel; returns
    the terms that were not in work before."""
    fresh = []
    get = work.get
    for t, d in terms:
        u = t + q
        v = get(u)
        if v is None:
            work[u] = c * d
            fresh.append(u)
        else:
            v += c * d
            if v:
                work[u] = v
            else:
                del work[u]
    return fresh


def _integral(terms: dict):
    """``(D, D * terms)`` with ``D`` the least common denominator of the
    rational term dict ``terms``, so that every value of ``D * terms`` is an
    int."""
    D = lcm(*(c.denominator for c in terms.values()))
    if D == 1:
        return 1, terms
    return D, {t: c.numerator * (D // c.denominator) for t, c in terms.items()}


def _reduced_basis(vectors, rank: int, ctx: RingCtx):
    """``(generators, basis)``: the reduced Groebner basis of the
    rank-``rank`` vectors as monic vectors of Polys sorted by lead, and the
    same basis in engine form."""
    return _widening(
        lambda width: _buchberger_run(vectors, rank, ctx, width), vectors, rank, ctx)


def _buchberger_run(vectors, rank: int, ctx: RingCtx, width: int):
    basis = _Basis(ctx, rank, width)
    gens, P, guard, zero = basis.gens, basis.P, basis.guard, basis.zero
    at = {}  # lead position -> indices of the generators with a lead there
    pairs, pending = [], set()

    def add(terms):
        basis.add(terms)
        k = len(gens) - 1
        pos = gens[k][0] >> P
        here = at.setdefault(pos, [])
        for t in here:
            lcm = basis.lcm(k, t)
            # a larger packed monomial is a smaller lcm, which goes first
            heappush(pairs, (-(lcm - (pos << P)), pos, k, t, lcm))
            pending.add((k, t))
        here.append(k)

    for v in vectors:
        terms = _integral(basis.terms(v))[1]
        if terms:
            add(terms)
    while pairs:
        _, pos, i, j, lcm = heappop(pairs)
        pending.discard((i, j))
        if rank == 1 and lcm == gens[i][0] + gens[j][0] - basis.bias:
            continue  # coprime leads: the S-polynomial reduces to zero
        if any(
            (lcm - gens[k][1]) & guard == zero and k != i and k != j
            and (max(i, k), min(i, k)) not in pending
            and (max(j, k), min(j, k)) not in pending
            for k in at[pos]
        ):
            continue  # chain criterion
        r = basis.reduce(basis.s_vector(i, j, lcm))[0]
        if r:
            add(r)
    # keep the minimal leads (the first of equal ones) and reduce their
    # tails; a tail's normal form is the same modulo any Groebner basis,
    # and the monic generator is lm + (normal form of tail) / a
    out = []
    for i, (lt, _, a, tail, _) in enumerate(gens):
        if not any(
            (lt - gens[j][1]) & guard == zero and j != i and (gens[j][0] != lt or j < i)
            for j in at[lt >> P]
        ):
            rem, s = basis.reduce(dict(tail))
            rem[lt] = a * s
            out.append((lt, rem, a * s))
    out.sort(key=lambda g: (g[0] >> P, -g[0]))
    reduced = _Basis(ctx, rank, width)
    for _, rem, _ in out:
        reduced.add(rem)
    return tuple(basis.vector(rem, d) for _, rem, d in out), reduced


def _vectors(gb):
    """``(rank, generator vectors)`` of a GroebnerBasis or ModuleGB."""
    if isinstance(gb, GroebnerBasis):
        return 1, [(g,) for g in gb.generators]
    return gb.ambient_rank, gb.generators


def _pack_generators(gb, width=None):
    """Set the engine basis of ``gb`` from its public generators."""
    rank, vectors = _vectors(gb)
    width = width or _start_width(vectors, rank, gb.ctx)
    object.__setattr__(gb, "_basis", _Basis(gb.ctx, rank, width, vectors))


def _normal_form(gb, v) -> tuple:
    """Full normal form of the vector of Polys ``v`` modulo ``gb``, whose
    engine basis is packed again at twice the width while a term of the
    reduction would not fit it."""
    while True:
        basis = gb._basis
        try:
            D, terms = _integral(basis.terms(v))
            rem, s = basis.reduce(terms)
            return basis.vector(rem, D * s)
        except _Overflow:
            _pack_generators(gb, 2 * basis.width)


# ---------------------------------------------------------------------------
# ideals: the rank-1 case
# ---------------------------------------------------------------------------

class GroebnerBasis(Frozen):
    """An ideal's reduced basis: a tuple[Poly, ...], monic and sorted."""

    _fields = ("ctx", "generators")
    __slots__ = (*_fields, "_basis")

    __post_init__ = _pack_generators


def buchberger(gens, ctx: RingCtx) -> GroebnerBasis:
    """Reduced Groebner basis; deterministic for a fixed input list."""
    if any(g.ctx != ctx for g in gens):
        raise RingError("generator in wrong ring context")
    vectors, basis = _reduced_basis([(g,) for g in gens], 1, ctx)
    gb = GroebnerBasis._make(ctx, tuple(v[0] for v in vectors))
    object.__setattr__(gb, "_basis", basis)  # the run's basis, not packed again
    return gb


def normal_form(p: Poly, gb: GroebnerBasis) -> Poly:
    if p.ctx != gb.ctx:
        raise RingError("mismatched ring contexts")
    return _normal_form(gb, (p,))[0]


def is_groebner(gb) -> bool:
    """Verifier for a GroebnerBasis or ModuleGB: the generators are monic
    and reduced, and every S-pair in a common lead position reduces to zero.
    It packs the public generators itself."""
    rank, vectors = _vectors(gb)

    def verify(width):
        basis = _Basis(gb.ctx, rank, width)
        for v in vectors:
            terms = basis.terms(v)
            if not terms or terms[min(terms)] != 1:
                return False
            basis.add(_integral(terms)[1])
        gens = basis.gens
        if any(
            basis.divides(j, t)
            for i, (lt, _, _, tail, _) in enumerate(gens)
            for t in [lt] + [t for t, _ in tail]
            for j in range(len(gens)) if j != i
        ):
            return False
        return all(
            not basis.reduce(basis.s_vector(i, j, basis.lcm(i, j)))[0]
            for i in range(len(gens))
            for j in range(i)
            if gens[i][0] >> basis.P == gens[j][0] >> basis.P
        )

    return _widening(verify, vectors, rank, gb.ctx)


# ---------------------------------------------------------------------------
# submodules of Omega^k (free on the k-subsets of variable indices)
# ---------------------------------------------------------------------------

class ModuleGB(Frozen):
    """A submodule's reduced basis: a tuple of vectors, each a tuple[Poly, ...]."""

    _fields = ("ctx", "ambient_rank", "generators")
    __slots__ = (*_fields, "_basis")

    __post_init__ = _pack_generators


def module_buchberger(vectors, ambient_rank: int, ctx: RingCtx) -> ModuleGB:
    vectors = list(vectors)
    if any(len(v) != ambient_rank for v in vectors):
        raise RingError("vector length does not match ambient rank")
    generators, basis = _reduced_basis(vectors, ambient_rank, ctx)
    gb = ModuleGB._make(ctx, ambient_rank, generators)
    object.__setattr__(gb, "_basis", basis)  # the run's basis, not packed again
    return gb


def module_normal_form(v, mgb: ModuleGB):
    if len(v) != mgb.ambient_rank:
        raise RingError("vector length does not match ambient rank")
    return _normal_form(mgb, v)


def k_subsets(ctx: RingCtx, k: int):
    """Basis positions of Omega^k: k-subsets in lexicographic order."""
    return list(itertools.combinations(range(ctx.nvars), k))


def _coordinates(w: Form, subsets) -> tuple:
    """The k-form w as a vector of Omega^k, whose basis positions are the
    k-subsets ``subsets`` of :func:`k_subsets`."""
    vec = dict.fromkeys(subsets, Poly.zero(w.ctx))
    vec.update(w.components)
    return tuple(vec.values())


def df_form(f: Poly) -> Form:
    return exterior_derivative(Form.from_poly(f))


def _df_image_vectors(f: Poly, k: int) -> list:
    """The nonzero vectors df ^ dx_K of Omega^k, |K| = k - 1, in the order of
    the K: each holds (-1)^#{j in K: j < i} df/dx_i at K u {i}, i not in K."""
    ctx = f.ctx
    at = {s: j for j, s in enumerate(k_subsets(ctx, k))}
    partials = [(i, f.partial_derivative(i)) for i in range(ctx.nvars)]
    partials = [(i, d) for i, d in partials if not d.is_zero()]
    zero, out = Poly.zero(ctx), []
    for K in k_subsets(ctx, k - 1):
        v = [zero] * len(at)
        for i, d in partials:
            if i not in K:
                below = sum(j < i for j in K)
                v[at[K[:below] + (i,) + K[below:]]] = -d if below % 2 else d
        if any(i not in K for i, _ in partials):
            out.append(tuple(v))
    return out


def df_image_module_gb(f: Poly, k: int) -> ModuleGB:
    """Groebner basis of im(df^ : Omega^(k-1) -> Omega^k) inside Omega^k."""
    n = f.ctx.nvars
    if not 1 <= k <= n:
        raise RingError(f"degree {k} out of range 1..{n}")
    return module_buchberger(_df_image_vectors(f, k), len(k_subsets(f.ctx, k)), f.ctx)


@lru_cache(maxsize=None)
def _cached_df_image_gb(f: Poly, k: int) -> ModuleGB:
    return df_image_module_gb(f, k)


def _jacobian_normal_forms(f: Poly):
    """``(memo, cap)``: the memo maps a monomial to its normal form modulo
    the Jacobian ideal J_f, or to None when no lead of J_f divides it, and
    no normal form has an exponent above ``cap``; None instead unless n > 0
    and Q[x]/J_f is finite-dimensional.

    In Omega^n the df-image is J_f.dx_1..n, so the cached basis of degree n
    is the reduced basis of J_f.  The quotient is finite-dimensional exactly
    when every variable has a pure-power lead; a lead of 1 serves them all.
    A normal form holds standard monomials, whose exponent of x_i is below
    the least pure-power lead x_i^(a_i), so the cap is max(a_i) - 1, or 0."""
    ctx = f.ctx
    n = ctx.nvars
    if n == 0:
        return None
    gb = _cached_df_image_gb(f, n)
    basis = gb._basis
    leads = [basis.unpack(g[0])[1] for g in basis.gens]
    powers = [[lm[i] for lm in leads if sum(lm) == lm[i]] for i in range(n)]
    if not all(powers):
        return None

    def nf(m):
        if any(all(map(le, lm, m)) for lm in leads):
            return _normal_form(gb, (Poly._trusted(ctx, {m: 1}),))[0]
        return None

    return _Memo(nf), max(max(min(a) - 1 for a in powers), 0)


def form_normal_form(w: Form, f: Poly) -> Form:
    """Canonical representative of w modulo im(df^ : Omega^(k-1) -> Omega^k).

    Requires a homogeneous form; degree 0 reduces modulo the zero submodule.
    """
    ctx = w.ctx
    k = w.degree()
    if k is None:
        raise RingError("form must be homogeneous")
    if k == 0 or w.is_zero():
        return w
    if k > ctx.nvars:
        return Form.zero(ctx)
    mgb = _cached_df_image_gb(f, k)
    subsets = k_subsets(ctx, k)
    nf = module_normal_form(_coordinates(w, subsets), mgb)
    return Form._make(ctx, {s: p for s, p in zip(subsets, nf) if p.terms})
