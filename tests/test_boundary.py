"""Values are checked where they enter and trusted once derived.

Every value the library derives is built with ``Frozen._make``, which checks
nothing; these tests hold such values to the checked constructors, and hold
the derived path to building no value through them.
"""
import random
from collections import Counter
from fractions import Fraction

import pytest

from mfchern import (
    Form,
    FormMatrix,
    Poly,
    PolyMatrix,
    atiyah,
    buchberger,
    chern_character,
    classical_chern,
    cone,
    cone_additivity_check,
    exterior_derivative,
    fm_exterior_derivative,
    fm_mul,
    form_normal_form,
    identity_morphism,
    module_buchberger,
    random_connection,
    tensor,
    tensor_multiplicativity_check,
    wedge,
)
from mfchern import ideals
from mfchern.ring import Frozen, Matrix

from conftest import mf_1x1, rand_poly, ring

CTX = ring("x", "y", "z")


def _parts(x):
    """The Frozen values inside a field value."""
    if isinstance(x, Frozen):
        yield x
    elif isinstance(x, (tuple, list)):
        for y in x:
            yield from _parts(y)
    elif isinstance(x, dict):
        for y in x.values():
            yield from _parts(y)


def assert_round_trips(value):
    """value, and every Frozen value inside it, rebuilt through its checked
    constructor gives an equal value with the same hash."""
    stack, seen = [value], set()
    while stack:
        v = stack.pop()
        if id(v) in seen:
            continue
        seen.add(id(v))
        values = v._values(v)
        rebuilt = type(v)(*values)
        assert rebuilt == v and hash(rebuilt) == hash(v), v
        for field in values:
            stack.extend(_parts(field))


def _form(rng, degrees=(0, 1, 2)):
    comps = {}
    for k in degrees:
        for idx in rng.sample(ideals.k_subsets(CTX, k), 1):
            comps[idx] = rand_poly(rng, CTX, 2, 2)
    return Form(CTX, comps)


def _derived_values(rng):
    """One value of each operation that builds with ``_make``, on random
    inputs; zero entries and cancelling sums are drawn on purpose."""
    p, q = rand_poly(rng, CTX, 2, 3), rand_poly(rng, CTX, 2, 3)
    a, b = _form(rng), _form(rng)
    P, Q = (PolyMatrix(CTX, r, c, [[rand_poly(rng, CTX, 2, 2) for _ in range(c)]
                                   for _ in range(r)]) for r, c in ((2, 3), (3, 2)))
    S = FormMatrix(CTX, 2, 3, [[_form(rng, (0, 1)) for _ in range(3)] for _ in range(2)])
    T = FormMatrix(CTX, 3, 2, [[_form(rng, (1,)) for _ in range(2)] for _ in range(3)])
    M = tensor(mf_1x1(CTX, "x", "y + z"), mf_1x1(CTX, "z", "x - y"))
    at = atiyah(M, random_connection(M, rng))
    return [
        Poly.zero(CTX), Poly.one(CTX), Poly.const(CTX, Fraction(6, 3)), Poly.const(CTX, 0),
        Poly.variable(CTX, 2), p + q, p - p, -p, p * q, p * Fraction(1, 2), p.partial_derivative(0),
        Form.zero(CTX), Form.one(CTX), Form.from_poly(p), Form.from_poly(p - p),
        Form.d_var(CTX, 1), a + b, a - a, -a, a.scale(q), a.scale(0), wedge(a, b),
        exterior_derivative(a), a.degree_component(1),
        form_normal_form(wedge(a, b).degree_component(2), M.f),
        P + P, P - P, -P, P * Q, P.kron(Q), P.scale(p), P.scale(0),
        P.map_entries(lambda e: e * e), PolyMatrix.zeros(CTX, 2, 3),
        PolyMatrix.diagonal(CTX, 2, p), PolyMatrix.identity(CTX, 3),
        PolyMatrix.blocks(CTX, (2, 3), (3, 2), {(0, 0): P, (1, 1): Q}),
        fm_mul(S, T), FormMatrix.from_poly_rows(CTX, 2, 3, P.entries), S.scale(p), S.scale(0),
        fm_exterior_derivative(S), S + S, S - S, FormMatrix.zeros(CTX, 0, 2),
        FormMatrix.diagonal(CTX, 3, a), FormMatrix.identity(CTX, 2),
        FormMatrix.blocks(CTX, (2, 3), (3, 2), {(0, 0): S, (1, 1): T}),
        M, cone(identity_morphism(M)), at, at.matrix, chern_character(M),
        classical_chern(PolyMatrix.identity(CTX, 2)),
        module_buchberger([(p, q), (q, p + q), (p * q, Poly.zero(CTX))], 2, CTX),
        buchberger([p, q, p * q + 1], CTX),
    ]


@pytest.mark.parametrize("seed", range(4))
def test_derived_values_round_trip_through_the_checked_constructors(seed):
    for v in _derived_values(random.Random(seed)):
        assert_round_trips(v)


@pytest.fixture
def checked_constructions(monkeypatch):
    """Counts of calls of the checked Matrix, Form and Poly constructors."""
    counts = Counter()
    for cls in (Matrix, Form, Poly):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__):
            counts[_name] += 1
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)
    return counts


@pytest.mark.parametrize("n", [3, 4])
def test_the_derived_path_builds_no_checked_value(n, checked_constructions):
    ctx = ring(*"xyzw"[:n])
    M = tensor(mf_1x1(ctx, "x", "y"), mf_1x1(ctx, "z", "x + " + "yw"[n - 3]))
    ideals._cached_df_image_gb.cache_clear()  # the bases are derived too
    checked_constructions.clear()
    chern_character(M)
    assert cone_additivity_check(identity_morphism(M))
    assert tensor_multiplicativity_check(M, M)
    assert checked_constructions == {}
