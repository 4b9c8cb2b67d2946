"""Groebner bases for ideals in Q[x] and for submodules of the form modules.

One Buchberger engine serves both: an ideal is a submodule of rank 1.
Vectors are term dicts ``{(position, monomial): int}`` ordered
position-over-term (a lower position ranks higher); positions of a form
module are the k-subsets of variable indices in lexicographic order, which
realizes the submodules ``df ^ Omega^(k-1)`` whose quotients decide
equality of homology classes.

The engine is fraction-free: it keeps every generator primitive over Z with
its lead computed once, and memoizes order keys per run or per basis.  Its
reducer pops the largest remaining term off a heap and either cancels it
against a generator with the same lead position, scaling the vector by the
reduced lead coefficient where needed, or moves it to the remainder; it
never restarts or rebuilds the vector.  Rational inputs are cleared of
denominators on the way in and the results divided by them on the way out,
so the public generators are monic and normal forms are exact.
S-pairs (same lead position only) wait in a heap, smallest lcm first, and
are skipped by the chain criterion (Gebauer and Moeller 1988) and, in rank
1 only, by the coprime criterion.  The reduced basis and full normal forms
are unique, so the pair order changes the cost, never the result.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, le

from .exterior import Form, exterior_derivative, wedge
from .ring import (
    Frozen,
    Poly,
    RingCtx,
    RingError,
    exact_div,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)


class _Memo(dict):
    """A dict that fills a missing entry with ``fn(key)`` and keeps it."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class _Basis:
    """Engine form of a list of generators, each primitive over Z: ``gens[i]``
    is ``(pos, lm, a, tail)`` with ``a > 0`` the integer lead coefficient and
    ``tail`` the non-lead terms as a list of ``((pos, m), c)``, every ``c``
    an int; ``by_pos`` lists ``(lm, a, tail)`` by lead position.  ``mono``
    memoizes ``ctx.monomial_key`` and ``neg`` ``ctx.neg_monomial_key``; the
    POT order ranks a term ``(pos, m)`` above another when its
    ``(pos, neg[m])`` is smaller."""

    def __init__(self, ctx: RingCtx, vectors=()):
        self.mono = _Memo(ctx.monomial_key)
        self.neg = _Memo(ctx.neg_monomial_key)
        self.gens = []
        self.by_pos = {}
        for v in vectors:
            self.add(_integral(_terms(v))[1])

    def add(self, terms: dict):
        """Append the integer term dict ``terms``, made primitive: content
        divided out, positive lead coefficient."""
        if not terms:
            raise RingError("a basis generator must be nonzero")
        neg = self.neg
        lead = min(terms, key=lambda t: (t[0], neg[t[1]]))
        g = gcd(*terms.values())
        if terms[lead] < 0:
            g = -g
        if g != 1:
            terms = {t: exact_div(c, g) for t, c in terms.items()}
        tail = [(t, c) for t, c in terms.items() if t != lead]
        pos, lm = lead
        a = terms[lead]
        self.gens.append((pos, lm, a, tail))
        self.by_pos.setdefault(pos, []).append((lm, a, tail))

    def reduce(self, work: dict):
        """``(rem, s)`` with ``rem / s`` the full normal form of the integer
        term dict ``work``, which is consumed; ``rem`` is an integer term
        dict and ``s`` a positive int.

        The largest remaining term comes off a heap; entries of terms that
        have cancelled since they were pushed are skipped.  Cancelling
        ``c x^t`` against a generator with lead ``a x^lm`` scales ``work``,
        ``rem`` and ``s`` by ``a / gcd(a, c)`` instead of dividing by ``a``.
        """
        neg, by_pos, rem, s = self.neg, self.by_pos, {}, 1
        heap = [(t[0], neg[t[1]], t) for t in work]
        heapify(heap)
        while heap:
            t = heappop(heap)[2]
            c = work.pop(t, None)
            if c is None:
                continue
            m = t[1]
            for lm, a, tail in by_pos.get(t[0], ()):
                if all(map(le, lm, m)):
                    g = gcd(a, c)
                    if g != a:
                        a //= g
                        for u in work:
                            work[u] *= a
                        for u in rem:
                            rem[u] *= a
                        s *= a
                    for u in _add_shifted(work, monomial_div(m, lm), tail, -c // g):
                        heappush(heap, (u[0], neg[u[1]], u))
                    break
            else:
                rem[t] = c
        return rem, s

    def s_vector(self, i: int, j: int, lcm) -> dict:
        """a_j (lcm/lm_i) g_i - a_i (lcm/lm_j) g_j, both leads divided by
        their gcd, without the cancelling leads."""
        (_, lmi, ai, tail_i), (_, lmj, aj, tail_j) = self.gens[i], self.gens[j]
        g = gcd(ai, aj)
        work = {}
        _add_shifted(work, monomial_div(lcm, lmi), tail_i, aj // g)
        _add_shifted(work, monomial_div(lcm, lmj), tail_j, -ai // g)
        return work


def _add_shifted(work: dict, q, terms, c: int) -> list:
    """work += c x^q terms in place, dropping the terms that cancel; returns
    the terms that were not in work before."""
    fresh = []
    for (p, m), d in terms:
        u = (p, tuple(map(add, q, m)))
        v = work.get(u)
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


def _terms(v) -> dict:
    return {(pos, m): c for pos, p in enumerate(v) for m, c in p.terms.items()}


def _integral(terms: dict):
    """``(D, D * terms)`` with ``D`` the least common denominator of the
    rational term dict ``terms``, so that every value of ``D * terms`` is an
    int: the engine's entry edge."""
    D = lcm(*(c.denominator for c in terms.values()))
    if D == 1:
        return 1, terms
    return D, {t: c.numerator * (D // c.denominator) for t, c in terms.items()}


def _vector(terms: dict, d: int, rank: int, ctx: RingCtx) -> tuple:
    """The rank-``rank`` vector of Polys ``terms / d``: the engine's exit
    edge, for an integer term dict ``terms`` and a positive int ``d``."""
    comps = [{} for _ in range(rank)]
    for (pos, m), c in terms.items():
        comps[pos][m] = c if d == 1 else exact_div(c, d)
    return tuple(Poly._trusted(ctx, c) for c in comps)


def _normal_form(basis: _Basis, v, rank: int, ctx: RingCtx) -> tuple:
    """Full normal form of the vector of Polys ``v`` modulo ``basis``."""
    D, terms = _integral(_terms(v))
    rem, s = basis.reduce(terms)
    return _vector(rem, D * s, rank, ctx)


def _reduced_basis(vectors, rank: int, ctx: RingCtx) -> tuple:
    """Reduced Groebner basis of the rank-``rank`` vectors, sorted by lead."""
    basis = _Basis(ctx)
    mkey = basis.mono
    gens = basis.gens
    pairs, pending = [], set()

    def add(terms):
        basis.add(terms)
        k = len(gens) - 1
        pos, lm = gens[k][:2]
        for t, h in enumerate(gens[:k]):
            if h[0] == pos:
                lcm = monomial_lcm(lm, h[1])
                heappush(pairs, (mkey[lcm], pos, k, t, lcm))
                pending.add((k, t))

    for v in vectors:
        terms = _integral(_terms(v))[1]
        if terms:
            add(terms)
    while pairs:
        _, pos, i, j, lcm = heappop(pairs)
        pending.discard((i, j))
        if rank == 1 and lcm == monomial_mul(gens[i][1], gens[j][1]):
            continue  # coprime leads: the S-polynomial reduces to zero
        if any(
            k != i and k != j and g[0] == pos and monomial_divides(g[1], lcm)
            and (max(i, k), min(i, k)) not in pending
            and (max(j, k), min(j, k)) not in pending
            for k, g in enumerate(gens)
        ):
            continue  # chain criterion
        r = basis.reduce(basis.s_vector(i, j, lcm))[0]
        if r:
            add(r)
    # keep the minimal leads (the first of equal ones) and reduce their
    # tails; a tail's normal form is the same modulo any Groebner basis,
    # and the monic generator is lm + (normal form of tail) / a
    out = []
    for i, (pos, lm, a, tail) in enumerate(gens):
        if not any(
            h[0] == pos and monomial_divides(h[1], lm) and (h[1] != lm or j < i)
            for j, h in enumerate(gens) if j != i
        ):
            rem, s = basis.reduce(dict(tail))
            rem[(pos, lm)] = a * s
            out.append((pos, mkey[lm], _vector(rem, a * s, rank, ctx)))
    out.sort(key=lambda g: g[:2])
    return tuple(v for _, _, v in out)


# ---------------------------------------------------------------------------
# ideals: the rank-1 case
# ---------------------------------------------------------------------------

class GroebnerBasis(Frozen):
    """An ideal's reduced basis: a tuple[Poly, ...], monic and sorted."""

    _fields = ("ctx", "generators")
    __slots__ = (*_fields, "_basis")

    def __post_init__(self):
        object.__setattr__(
            self, "_basis", _Basis(self.ctx, ((g,) for g in self.generators))
        )


def buchberger(gens, ctx: RingCtx) -> GroebnerBasis:
    """Reduced Groebner basis; deterministic for a fixed input list."""
    if any(g.ctx != ctx for g in gens):
        raise RingError("generator in wrong ring context")
    basis = _reduced_basis([(g,) for g in gens], 1, ctx)
    return GroebnerBasis(ctx, tuple(v[0] for v in basis))


def normal_form(p: Poly, gb: GroebnerBasis) -> Poly:
    if p.ctx != gb.ctx:
        raise RingError("mismatched ring contexts")
    return _normal_form(gb._basis, (p,), 1, p.ctx)[0]


def is_groebner(gb) -> bool:
    """Verifier for a GroebnerBasis or ModuleGB: the generators are monic
    and reduced, and every S-pair in a common lead position reduces to zero."""
    basis = gb._basis
    gens = basis.gens
    vectors = gb.generators
    if isinstance(gb, GroebnerBasis):
        vectors = [(g,) for g in vectors]
    for i, (v, (pos, lm, _, tail)) in enumerate(zip(vectors, gens)):
        if _terms(v)[pos, lm] != 1:
            return False
        if any(
            p == h[0] and monomial_divides(h[1], m)
            for p, m in [(pos, lm)] + [t for t, _ in tail]
            for j, h in enumerate(gens) if j != i
        ):
            return False
    return all(
        not basis.reduce(basis.s_vector(i, j, monomial_lcm(gens[i][1], gens[j][1])))[0]
        for i in range(len(gens))
        for j in range(i)
        if gens[i][0] == gens[j][0]
    )


# ---------------------------------------------------------------------------
# submodules of Omega^k (free on the k-subsets of variable indices)
# ---------------------------------------------------------------------------

class ModuleGB(Frozen):
    """A submodule's reduced basis: a tuple of vectors, each a tuple[Poly, ...]."""

    _fields = ("ctx", "ambient_rank", "generators")
    __slots__ = (*_fields, "_basis")

    def __post_init__(self):
        object.__setattr__(self, "_basis", _Basis(self.ctx, self.generators))


def module_buchberger(vectors, ambient_rank: int, ctx: RingCtx) -> ModuleGB:
    vectors = list(vectors)
    if any(len(v) != ambient_rank for v in vectors):
        raise RingError("vector length does not match ambient rank")
    return ModuleGB(ctx, ambient_rank, _reduced_basis(vectors, ambient_rank, ctx))


def module_normal_form(v, mgb: ModuleGB):
    if len(v) != mgb.ambient_rank:
        raise RingError("vector length does not match ambient rank")
    return _normal_form(mgb._basis, v, mgb.ambient_rank, mgb.ctx)


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


def df_image_module_gb(f: Poly, k: int) -> ModuleGB:
    """Groebner basis of im(df^ : Omega^(k-1) -> Omega^k) inside Omega^k."""
    ctx = f.ctx
    n = ctx.nvars
    if not 1 <= k <= n:
        raise RingError(f"degree {k} out of range 1..{n}")
    subsets = k_subsets(ctx, k)
    df = df_form(f)
    vectors = []
    for K in k_subsets(ctx, k - 1):
        w = wedge(df, Form(ctx, {K: Poly.one(ctx)}))
        if not w.is_zero():
            vectors.append(_coordinates(w, subsets))
    return module_buchberger(vectors, len(subsets), ctx)


@lru_cache(maxsize=None)
def _cached_df_image_gb(f: Poly, k: int) -> ModuleGB:
    return df_image_module_gb(f, k)


def _jacobian_normal_forms(f: Poly):
    """A memo from a monomial to its normal form modulo the Jacobian ideal
    J_f, or to None when no lead of J_f divides it; None instead of the memo
    unless n > 0 and Q[x]/J_f is finite-dimensional.

    In Omega^n the df-image is J_f.dx_1..n, so the cached basis of degree n
    is the reduced basis of J_f.  The quotient is finite-dimensional exactly
    when every variable has a pure-power lead; a lead of 1 serves them all."""
    ctx = f.ctx
    n = ctx.nvars
    if n == 0:
        return None
    basis = _cached_df_image_gb(f, n)._basis
    leads = [g[1] for g in basis.gens]
    if not all(any(sum(lm) == lm[i] for lm in leads) for i in range(n)):
        return None

    def nf(m):
        if any(all(map(le, lm, m)) for lm in leads):
            return _normal_form(basis, (Poly._trusted(ctx, {m: 1}),), 1, ctx)[0]
        return None

    return _Memo(nf)


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
    return Form(ctx, {s: p for s, p in zip(subsets, nf) if not p.is_zero()})
