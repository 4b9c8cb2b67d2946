import itertools
import random
from fractions import Fraction

import pytest

from mfchern import (
    Form,
    Poly,
    buchberger,
    df_image_module_gb,
    form_normal_form,
    is_groebner,
    module_normal_form,
    normal_form,
    parse_form,
    parse_poly,
    print_poly,
    wedge,
)
from mfchern import ideals as ideals_module
from mfchern.ideals import (
    GroebnerBasis,
    ModuleGB,
    df_form,
    k_subsets,
    module_buchberger,
)
from mfchern.ring import RingError

from conftest import corpus_list, rand_poly, ring

CTX2 = ring("x", "y")
CTX3 = ring("x", "y", "z")


def spans(p: Poly, gens, ctx) -> bool:
    """Brute-force ideal membership oracle by linear algebra.

    Enumerates all products monomial * generator up to a degree bound and
    checks whether p lies in their rational span.  Sound for membership
    certificates of bounded degree; the bound is generous for these sizes.
    """
    if p.is_zero():
        return True
    bound = p.total_degree() + max(g.total_degree() for g in gens) + 2
    monos = [
        m
        for m in itertools.product(range(bound + 1), repeat=ctx.nvars)
        if sum(m) <= bound
    ]
    products = []
    for g in gens:
        gd = g.total_degree()
        for m in monos:
            if sum(m) + gd <= bound:
                products.append(Poly(ctx, {m: Fraction(1)}) * g)
    # Gaussian elimination over the monomial coordinates
    cols = sorted({m for q in products for m in q.terms} | set(p.terms))
    col_of = {m: i for i, m in enumerate(cols)}
    pivots = {}

    def reduce_by_pivots(r):
        r = dict(r)
        changed = True
        while changed:
            changed = False
            for c in sorted(r):
                if r[c] and c in pivots:
                    f = r[c]
                    for pc, pv in pivots[c].items():
                        r[pc] = r.get(pc, Fraction(0)) - f * pv
                        if not r[pc]:
                            del r[pc]
                    changed = True
                    break
        return {c: v for c, v in r.items() if v}

    for q in products:
        r = reduce_by_pivots({col_of[m]: c for m, c in q.terms.items()})
        if r:
            lead = min(r)
            pivots[lead] = {k: v / r[lead] for k, v in r.items()}
    t = reduce_by_pivots({col_of[m]: c for m, c in p.terms.items()})
    return not t


class TestBuchberger:
    def test_known_basis(self):
        # (x^2 + y, x*y) also forces y^2 into the basis
        gens = [parse_poly("x^2 + y", CTX2), parse_poly("x*y", CTX2)]
        gb = buchberger(gens, CTX2)
        assert is_groebner(gb)
        lms = [g.leading_monomial() for g in gb.generators]
        assert (0, 2) in lms

    def test_principal_ideal(self):
        gb = buchberger([parse_poly("2*x*y + 4*y", CTX2)], CTX2)
        assert len(gb.generators) == 1
        assert gb.generators[0] == parse_poly("x*y + 2*y", CTX2)

    def test_whole_ring(self):
        gb = buchberger([parse_poly("x", CTX2), parse_poly("x+1", CTX2)], CTX2)
        assert gb.generators == (Poly.one(CTX2),)

    def test_deterministic(self):
        gens = [parse_poly("x^2 - y", CTX2), parse_poly("y^2 - x", CTX2)]
        assert buchberger(gens, CTX2) == buchberger(gens, CTX2)

    def test_normal_form_idempotent_and_linear(self):
        gens = [parse_poly("x^2 - y", CTX2), parse_poly("y^2 - x", CTX2)]
        gb = buchberger(gens, CTX2)
        rng = random.Random(2)
        for _ in range(20):
            p = rand_poly(rng, CTX2, max_deg=3, max_terms=4)
            q = rand_poly(rng, CTX2, max_deg=3, max_terms=4)
            assert normal_form(normal_form(p, gb), gb) == normal_form(p, gb)
            assert normal_form(p + q, gb) == normal_form(p, gb) + normal_form(q, gb)

    def test_membership_against_bruteforce_oracle(self):
        rng = random.Random(7)
        agreements = 0
        while agreements < 50:
            ctx = CTX2 if rng.random() < 0.7 else CTX3
            gens = [
                g
                for g in (
                    rand_poly(rng, ctx, max_deg=2, max_terms=2)
                    for _ in range(rng.randint(1, 3))
                )
                if not g.is_zero()
            ]
            if not gens:
                continue
            gb = buchberger(gens, ctx)
            assert is_groebner(gb)
            p = rand_poly(rng, ctx, max_deg=2, max_terms=3)
            # also exercise guaranteed members
            if rng.random() < 0.5 and gens:
                p = p * gens[0]
            member = normal_form(p, gb).is_zero()
            assert member == spans(p, gens, ctx)
            agreements += 1


class TestModuleGB:
    def test_module_normal_form_reduces_members(self):
        f = parse_poly("x*y", CTX2)
        mgb = df_image_module_gb(f, 2)
        # generators of the image: -x dx^dy and y dx^dy
        vec = (parse_poly("x^2*y - 3*x", CTX2),)
        assert all(p.is_zero() for p in module_normal_form(vec, mgb))

    def test_vector_length_checked(self):
        f = parse_poly("x*y", CTX2)
        mgb = df_image_module_gb(f, 2)
        with pytest.raises(RingError):
            module_normal_form((Poly.one(CTX2), Poly.one(CTX2)), mgb)

    def test_degree_bounds(self):
        f = parse_poly("x*y", CTX2)
        with pytest.raises(RingError):
            df_image_module_gb(f, 0)
        with pytest.raises(RingError):
            df_image_module_gb(f, 3)

    def test_zero_potential_gives_zero_submodule(self):
        f = Poly.const(CTX2, 5)
        mgb = df_image_module_gb(f, 1)
        assert mgb.generators == ()
        w = parse_form("x*dx + dy", CTX2)
        assert form_normal_form(w, f) == w


class TestFormNormalForm:
    def test_worked_xy_degree_two(self):
        f = parse_poly("x*y", CTX2)
        # image is (x, y) * dx^dy: x dx^dy dies, dx^dy survives
        assert form_normal_form(parse_form("x*dx^dy", CTX2), f).is_zero()
        w = parse_form("dx^dy", CTX2)
        assert form_normal_form(w, f) == w

    def test_linear(self):
        f = parse_poly("x*y + y*z + z*x", CTX3)
        rng = random.Random(4)
        for _ in range(10):
            a = Form(CTX3, {(0, 1): rand_poly(rng, CTX3, 2, 2)})
            b = Form(CTX3, {(1, 2): rand_poly(rng, CTX3, 2, 2)})
            lhs = form_normal_form(a + b, f)
            rhs = form_normal_form(a, f) + form_normal_form(b, f)
            assert lhs == rhs

    def test_idempotent(self):
        f = parse_poly("x^3 - y^2", CTX2)
        rng = random.Random(6)
        for _ in range(10):
            w = Form(CTX2, {(0, 1): rand_poly(rng, CTX2, 3, 3)})
            nf = form_normal_form(w, f)
            assert form_normal_form(nf, f) == nf

    def test_inhomogeneous_rejected(self):
        f = parse_poly("x*y", CTX2)
        w = parse_form("dx + dx^dy", CTX2)
        with pytest.raises(RingError):
            form_normal_form(w, f)

    def test_degree_zero_identity(self):
        f = parse_poly("x*y", CTX2)
        w = parse_form("x^2 + 1", CTX2)
        assert form_normal_form(w, f) == w

    def test_every_produced_basis_verifies(self):
        rng = random.Random(12)
        for _ in range(10):
            gens = [
                g
                for g in (
                    rand_poly(rng, CTX3, max_deg=2, max_terms=3)
                    for _ in range(2)
                )
                if not g.is_zero()
            ]
            gb = buchberger(gens, CTX3)
            assert is_groebner(gb)


# ---------------------------------------------------------------------------
# df-image modules: the verifier and the sympy membership oracle
# ---------------------------------------------------------------------------

CTX4 = ring("x", "y", "z", "w")
PRODUCT_POTENTIALS = (
    "(x^3 + y*w)*(z^2 + x*w + y^2 + x)",
    "(x^2 + y*w)*(z^2 + x*w + y^2 + z)",
)


def df_image_cases():
    """(f, k) for every potential of the conftest corpus at every degree,
    and for the 4-variable product potentials at k = 2..4."""
    cases = []
    for M in corpus_list(ring("x"), CTX2, CTX3):
        for k in range(1, M.ctx.nvars + 1):
            if (M.f, k) not in cases:
                cases.append((M.f, k))
    for text in PRODUCT_POTENTIALS:
        cases.extend((parse_poly(text, CTX4), k) for k in (2, 3, 4))
    return cases


DF_IMAGE_CASES = df_image_cases()
CASE_IDS = [f"{print_poly(f)}:k{k}" for f, k in DF_IMAGE_CASES]


def df_image_vectors(f, k):
    """The vectors df ^ dx_K, |K| = k - 1, that generate the submodule."""
    ctx = f.ctx
    subsets = k_subsets(ctx, k)
    out = []
    for K in k_subsets(ctx, k - 1):
        w = wedge(df_form(f), Form(ctx, {K: Poly.one(ctx)}))
        if not w.is_zero():
            out.append(tuple(w.components.get(s, Poly.zero(ctx)) for s in subsets))
    return out


class TestModuleVerifier:
    @pytest.mark.parametrize("f,k", DF_IMAGE_CASES, ids=CASE_IDS)
    def test_every_df_image_basis_verifies(self, f, k):
        assert is_groebner(df_image_module_gb(f, k))

    def test_rejects_a_non_groebner_set(self):
        x, y = (parse_poly(s, CTX2) for s in ("x^2 + y", "x*y"))
        # the S-vector of the two gives y^2, which neither lead divides
        assert not is_groebner(ModuleGB(CTX2, 2, ((x, x), (y, y))))
        assert is_groebner(module_buchberger([(x, x), (y, y)], 2, CTX2))

    def test_rejects_non_monic_and_non_reduced(self):
        x, xy, one, zero = (parse_poly(s, CTX2) for s in ("x", "x*y", "1", "0"))
        assert not is_groebner(ModuleGB(CTX2, 2, ((x * 2, zero),)))
        assert not is_groebner(ModuleGB(CTX2, 2, ((x, zero), (xy, zero))))
        assert not is_groebner(ModuleGB(CTX2, 2, ((x, xy), (zero, x))))
        assert is_groebner(ModuleGB(CTX2, 2, ((x, one), (zero, x))))

    def test_coprime_leads_in_a_module_still_pair(self):
        # the coprime criterion holds for ideals only: here the S-vector of
        # leads x and y is (0, y), which must join the basis
        x, y, one, zero = (parse_poly(s, CTX2) for s in ("x", "y", "1", "0"))
        mgb = module_buchberger([(x, one), (y, zero)], 2, CTX2)
        assert is_groebner(mgb)
        assert is_zero_vector(module_normal_form((zero, y), mgb))

    def test_ideal_engine_is_the_rank_one_module_engine(self):
        gens = [parse_poly("x^2 - y", CTX2), parse_poly("y^2 - x", CTX2)]
        mgb = module_buchberger([(g,) for g in gens], 1, CTX2)
        assert buchberger(gens, CTX2).generators == tuple(v[0] for v in mgb.generators)


def to_sympy(p: Poly, xs):
    from sympy import Mul, Rational

    return sum(
        (Rational(c.numerator, c.denominator) * Mul(*(x**e for x, e in zip(xs, m)))
         for m, c in p.terms.items()),
        Rational(0),
    )


def sympy_membership(vectors, ctx):
    """Membership in the submodule the (nonempty list of) vectors generate,
    decided by sympy."""
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(ctx.variables)

    def convert(v):
        return [to_sympy(p, xs) for p in v]

    free = sympy.QQ.old_poly_ring(*xs).free_module(len(vectors[0]))
    sub = free.submodule(*map(convert, vectors))
    return lambda v: sub.contains(convert(v))


def is_zero_vector(v) -> bool:
    return all(p.is_zero() for p in v)


class TestSympyOracle:
    @pytest.mark.parametrize("f,k", DF_IMAGE_CASES, ids=CASE_IDS)
    def test_membership_agrees_with_sympy(self, f, k):
        ctx = f.ctx
        gens = df_image_vectors(f, k)
        is_member = sympy_membership(gens, ctx)
        rank = len(gens[0])
        mgb = df_image_module_gb(f, k)
        for v in gens:
            assert is_zero_vector(module_normal_form(v, mgb))
        rng = random.Random(f"{print_poly(f)}:{k}")
        members = 0
        for trial in range(8):
            # random vectors on even trials, combinations of the generators
            # on odd ones; the last combination is shifted off the submodule
            v = [rand_poly(rng, ctx, max_deg=2, max_terms=2) for _ in range(rank)]
            if trial % 2:
                if trial < 7:
                    v = [Poly.zero(ctx)] * rank
                for g in gens:
                    c = rand_poly(rng, ctx, max_deg=1, max_terms=2)
                    v = [a + c * b for a, b in zip(v, g)]
            nf = module_normal_form(v, mgb)
            assert is_zero_vector(nf) == is_member(v)
            # v - nf(v) always lies in the submodule
            assert is_member([a - b for a, b in zip(v, nf)])
            members += is_zero_vector(nf)
        assert members >= 1

    def test_random_modules_agree_with_sympy(self):
        rng = random.Random(31)
        for trial in range(20):
            ctx = CTX2 if trial % 2 else CTX3
            gens = [
                tuple(rand_poly(rng, ctx, max_deg=2, max_terms=2) for _ in range(2))
                for _ in range(rng.randint(2, 3))
            ]
            mgb = module_buchberger(gens, 2, ctx)
            assert is_groebner(mgb)
            gens = [v for v in gens if not is_zero_vector(v)]
            if not gens:
                continue
            is_member = sympy_membership(gens, ctx)
            probe = tuple(rand_poly(rng, ctx, max_deg=2, max_terms=2) for _ in range(2))
            for v in gens + [probe]:
                nf = module_normal_form(v, mgb)
                assert is_zero_vector(nf) == is_member(v)
                assert is_member([a - b for a, b in zip(v, nf)])


# ---------------------------------------------------------------------------
# the fraction-free engine on rational inputs: generators with non-unit
# integer leads once denominators are cleared, denominators up to 12
# ---------------------------------------------------------------------------

def rand_rational_poly(rng, ctx, max_deg=2, max_terms=3) -> Poly:
    """Nonzero; coefficients +-(1..9)/(1..12)."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        m = tuple(rng.randint(0, max_deg) for _ in range(ctx.nvars))
        terms[m] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 12))
    return Poly(ctx, terms)


def assert_monic_and_canonical(vectors):
    """The lead coefficient (first nonzero position, then the monomial
    order) is the int 1; integral coefficients are ints, the rest
    Fractions."""
    for v in vectors:
        lead = next(p for p in v if not p.is_zero()).leading_coeff()
        assert type(lead) is int and lead == 1
        for p in v:
            for c in p.terms.values():
                assert type(c) is (int if c.denominator == 1 else Fraction)


class TestIntegerEngine:
    @pytest.mark.parametrize("seed", [61, 62, 63])
    def test_rational_ideals_match_sympy(self, seed):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(seed)
        for trial in range(12):
            ctx = CTX2 if trial % 2 else CTX3
            xs = sympy.symbols(ctx.variables)
            gens = [rand_rational_poly(rng, ctx) for _ in range(rng.randint(2, 3))]
            gb = buchberger(gens, ctx)
            assert is_groebner(gb)
            assert_monic_and_canonical([(g,) for g in gb.generators])
            # the reduced basis and the normal forms are unique
            ref = sympy.groebner([to_sympy(g, xs) for g in gens], *xs, order="grevlex")
            assert {to_sympy(g, xs) for g in gb.generators} == set(ref.exprs)
            for _ in range(4):
                p = rand_rational_poly(rng, ctx, max_deg=3, max_terms=4)
                assert to_sympy(normal_form(p, gb), xs) == ref.reduce(to_sympy(p, xs))[1]

    def test_rational_modules_agree_with_sympy(self):
        rng = random.Random(67)
        for trial in range(12):
            ctx = CTX2 if trial % 2 else CTX3
            gens = [
                tuple(rand_rational_poly(rng, ctx) for _ in range(2))
                for _ in range(rng.randint(2, 3))
            ]
            mgb = module_buchberger(gens, 2, ctx)
            assert is_groebner(mgb)
            assert_monic_and_canonical(mgb.generators)
            is_member = sympy_membership(gens, ctx)
            probe = tuple(rand_rational_poly(rng, ctx) for _ in range(2))
            cs = [rand_rational_poly(rng, ctx, max_deg=1) for _ in gens]
            combo = tuple(
                sum((c * g[i] for c, g in zip(cs, gens)), Poly.zero(ctx)) for i in range(2)
            )
            for v in gens + [probe, combo]:
                nf = module_normal_form(v, mgb)
                assert is_zero_vector(nf) == is_member(v)
                assert is_member([a - b for a, b in zip(v, nf)])
            assert is_zero_vector(module_normal_form(combo, mgb))

    def test_long_reductions_on_a_rational_quartic_by_cubic(self, monkeypatch):
        # df ^ Omega^1 for a quartic times a cubic: reductions whose work
        # vectors pass 100 terms, where the reducer's heap does the ordering
        from mfchern import ideals

        sizes = []
        add_shifted = ideals._add_shifted

        def recording(work, *args):
            fresh = add_shifted(work, *args)
            sizes.append(len(work))
            return fresh

        monkeypatch.setattr(ideals, "_add_shifted", recording)
        ctx = ring("x", "y", "z", "w")
        f = parse_poly(
            "(3/4*x^4 + y^3*z - 2/3*w^2*x^2 + 5*z)*(2*x^3 - 7/12*y*z*w + 3*y^2 + w)", ctx
        )
        mgb = df_image_module_gb(f, 2)
        assert max(sizes) > 100
        assert is_groebner(mgb)
        assert_monic_and_canonical(mgb.generators)
        gens = df_image_vectors(f, 2)
        is_member = sympy_membership(gens, ctx)
        rng = random.Random(71)
        rank = len(gens[0])
        for trial in range(4):
            v = [rand_rational_poly(rng, ctx) for _ in range(rank)]
            if trial % 2:
                for g in gens:
                    c = rand_rational_poly(rng, ctx, max_deg=1, max_terms=2)
                    v = [a + c * b for a, b in zip(v, g)]
            nf = module_normal_form(v, mgb)
            assert is_zero_vector(nf) == is_member(v)
            assert is_member([a - b for a, b in zip(v, nf)])
        for g in gens:
            assert is_zero_vector(module_normal_form(g, mgb))


# ---------------------------------------------------------------------------
# the packed engine: field arithmetic, widening, the handed-over basis, and
# the df-image generators built without wedge
# ---------------------------------------------------------------------------

SEEDS = range(3)


class TestPackedEngine:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_divisibility_and_lcm_follow_the_exponents(self, seed):
        rng = random.Random(f"swar:{seed}")
        ctx = CTX4
        for width in (3, 4, 6):
            cap = (1 << width - 1) - 1
            for _ in range(150):
                leads = []
                for _ in range(2):
                    m = [rng.randint(0, 3) for _ in range(4)]
                    while 2 * sum(m) > cap:  # the lcm must fit too
                        m[rng.randrange(4)] //= 2
                    leads.append(tuple(m))
                a, b = leads
                basis = ideals_module._Basis(
                    ctx, 1, width, [(Poly(ctx, {a: 1}),), (Poly(ctx, {b: 1}),)])
                (key_b,) = basis.terms((Poly(ctx, {b: 1}),))
                assert basis.divides(0, key_b) == all(i <= j for i, j in zip(a, b))
                assert basis.unpack(basis.lcm(0, 1)) == (0, tuple(map(max, a, b)))

    @pytest.mark.parametrize("width,texts,keys", [
        (3, ["1", "x + y^2 - z^3", "x*y*z"],
         {1536: 1, 5121: 1, 4624: 1, 4288: -1, 8265: 1}),
        (4, ["x^3*y - 2*z + 5", "0", "y^7"],
         {12307: 1, 24832: -2, 28672: 5, 131184: 1}),
        (8, ["x^100*z^20 + 3*y^2", "x - 1/2*y*z", "z^127"],
         {118751332: 1, 2097152512: 3, 6408896513: 1,
          6392185088: Fraction(-1, 2), 8598257664: 1}),
    ], ids=["width3", "width4", "width8"])
    def test_packed_keys_are_pinned(self, width, texts, keys):
        # the layout of a packed term, pinned: exponent fields from low to
        # high under the field holding cap - deg, the position above them
        basis = ideals_module._Basis(CTX3, len(texts), width)
        assert basis.terms([parse_poly(t, CTX3) for t in texts]) == keys

    def test_an_lcm_past_the_fields_overflows(self):
        basis = ideals_module._Basis(
            CTX2, 1, 3, [(parse_poly("x^3", CTX2),), (parse_poly("y^3", CTX2),)])
        assert basis.cap == 3
        with pytest.raises(ideals_module._Overflow):
            basis.lcm(0, 1)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_widening_from_the_narrowest_fields_reaches_sympys_basis(
            self, monkeypatch, seed):
        sympy = pytest.importorskip("sympy")
        monkeypatch.setattr(ideals_module, "_start_width", lambda *inputs: 2)
        rng = random.Random(f"widen:{seed}")
        for trial in range(6):
            ctx = CTX2 if trial % 2 else CTX3
            xs = sympy.symbols(ctx.variables)
            gens = [rand_rational_poly(rng, ctx, max_deg=3) for _ in range(rng.randint(2, 3))]
            gb = buchberger(gens, ctx)
            assert gb._basis.width > 2  # the run started over, wider
            assert is_groebner(gb)
            ref = sympy.groebner(
                [to_sympy(g, xs) for g in gens], *xs, order="grevlex", domain="QQ")
            assert {to_sympy(g, xs) for g in gb.generators} == set(ref.exprs)
            for _ in range(3):
                p = rand_rational_poly(rng, ctx, max_deg=5, max_terms=4)
                assert to_sympy(normal_form(p, gb), xs) == ref.reduce(to_sympy(p, xs))[1]

    def test_normal_forms_widen_the_basis_they_use(self):
        gb = buchberger([parse_poly("x^2 - y", CTX2), parse_poly("y^3", CTX2)], CTX2)
        width = gb._basis.width
        nf = normal_form(parse_poly("x^2000*y + x", CTX2), gb)
        assert nf == parse_poly("x", CTX2)
        assert gb._basis.width > width
        assert is_groebner(gb)

    def test_verifier_reads_the_public_generators_not_the_handed_basis(self):
        f = parse_poly("(x^2 + y*z)*(z^2 + x + y^2)", CTX3)
        mgb = df_image_module_gb(f, 2)
        ctx, rank, gens = mgb.ctx, mgb.ambient_rank, list(mgb.generators)
        handed = ModuleGB._make(ctx, rank, tuple(gens))
        object.__setattr__(handed, "_basis", mgb._basis)
        assert is_groebner(handed)
        # double one tail coefficient: the public generator is still monic
        # and reduced, but no longer part of a Groebner basis
        i = next(i for i, v in enumerate(gens) if sum(len(p.terms) for p in v) > 1)
        lead_pos = next(j for j, p in enumerate(gens[i]) if not p.is_zero())
        lead = (lead_pos, gens[i][lead_pos].leading_monomial())
        gens[i] = tuple(
            Poly(ctx, {m: c if (j, m) == lead else 2 * c for m, c in p.terms.items()})
            for j, p in enumerate(gens[i])
        )
        tampered = ModuleGB._make(ctx, rank, tuple(gens))
        object.__setattr__(tampered, "_basis", mgb._basis)
        assert not is_groebner(tampered)

    def test_df_image_vectors_match_wedge(self):
        rng = random.Random(83)
        for ctx in (CTX2, CTX3, CTX4) * 4:
            f = rand_poly(rng, ctx, max_deg=3, max_terms=4)
            for k in range(1, ctx.nvars + 1):
                assert ideals_module._df_image_vectors(f, k) == df_image_vectors(f, k)
        # a potential free of some variables leaves zero partials out
        f = parse_poly("x^3 + x*z", CTX4)
        for k in range(1, 5):
            assert ideals_module._df_image_vectors(f, k) == df_image_vectors(f, k)

    def test_a_tail_above_the_leads_degree_widens(self):
        # in position-over-term order a tail in a later position may have a
        # higher degree than the lead
        ctx = ring("x")
        one, x6 = Poly.one(ctx), Poly(ctx, {(6,): 1})
        mgb = module_buchberger([(one, x6)], 2, ctx)
        width = mgb._basis.width
        assert mgb._basis.cap < 8196
        nf = module_normal_form((Poly(ctx, {(8190,): 1}), Poly.zero(ctx)), mgb)
        assert nf == (Poly.zero(ctx), Poly(ctx, {(8196,): -1}))
        assert mgb._basis.width > width


# ---------------------------------------------------------------------------
# the finish of a run: the reduced basis and its monic public generators
# ---------------------------------------------------------------------------

def engine_form(gens):
    """Engine generators ``(lt, a, tail, top)``, each tail as a dict: its
    order is not part of the basis."""
    return [(lt, a, dict(tail), top) for lt, a, tail, top in gens]


def assert_run_basis_is_the_repacked_generators(gb):
    """The engine basis a run hands over equals its public generators
    packed again at the run's width: same leads, lead coefficients, tails
    and tops, position by position."""
    rank, vectors = ideals_module._vectors(gb)
    run = gb._basis
    repacked = ideals_module._Basis(gb.ctx, rank, run.width, vectors)
    assert engine_form(run.gens) == engine_form(repacked.gens)
    assert ({p: engine_form(g) for p, g in run.by_pos.items()}
            == {p: engine_form(g) for p, g in repacked.by_pos.items()})


class TestFinish:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_modules_hand_over_their_public_generators(self, seed):
        rng = random.Random(f"finish:{seed}")
        for trial in range(10):
            ctx = CTX2 if trial % 2 else CTX3
            rank = 1 + trial % 3
            gens = [
                tuple(rand_rational_poly(rng, ctx) for _ in range(rank))
                for _ in range(rng.randint(2, 3))
            ]
            mgb = module_buchberger(gens, rank, ctx)
            assert is_groebner(mgb)
            assert_run_basis_is_the_repacked_generators(mgb)
            gb = buchberger([v[0] for v in gens], ctx)
            assert_run_basis_is_the_repacked_generators(gb)

    @pytest.mark.parametrize("f,k", DF_IMAGE_CASES, ids=CASE_IDS)
    def test_df_image_bases_hand_over_their_public_generators(self, f, k):
        assert_run_basis_is_the_repacked_generators(df_image_module_gb(f, k))

    def test_a_tail_that_a_lead_divides_is_reduced(self):
        x, y, xy = (parse_poly(s, CTX2) for s in ("x", "y", "x + y"))
        gb = buchberger([xy, y], CTX2)
        assert gb.generators == (y, x)  # ascending by lead
        assert_run_basis_is_the_repacked_generators(gb)

    def test_tails_that_no_lead_divides_are_kept_without_a_reduction(self, monkeypatch):
        # leads x (position 0) and y^2 (position 1), no S-pair: neither
        # tail y + 1 nor x has a term that a lead divides
        def no_reduce(*args):
            raise AssertionError("the finish reduced a tail")

        monkeypatch.setattr(ideals_module._Basis, "reduce", no_reduce)
        v, w = ((parse_poly(a, CTX2), parse_poly(b, CTX2)) for a, b in
                (("2*x + 2*y", "2"), ("0", "3*y^2 - x")))
        mgb = module_buchberger([v, w], 2, CTX2)
        assert mgb.generators == (
            (parse_poly("x + y", CTX2), Poly.one(CTX2)),
            (Poly.zero(CTX2), parse_poly("y^2 - 1/3*x", CTX2)),
        )
        assert_run_basis_is_the_repacked_generators(mgb)


class TestExitEdge:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_vector_divides_to_canonical_coefficients(self, seed):
        rng = random.Random(f"exit:{seed}")
        ctx = CTX3
        for trial in range(60):
            rank = rng.randint(1, 4)
            d = rng.choice((1, 1, 2, 6, 12, 35))
            v = []
            for _ in range(rank):
                terms = {}
                for _ in range(rng.choice((0, 1, 3))):  # empty positions too
                    m = tuple(rng.randint(0, 3) for _ in range(3))
                    c = rng.choice((1, -1)) * rng.randint(1, 40)
                    terms[m] = c * d if rng.random() < 0.4 else c  # d | c, or not
                v.append(Poly(ctx, terms))
            basis = ideals_module._Basis(ctx, rank, 8)
            out = basis.vector(basis.terms(v), d)
            assert out == tuple(
                Poly(ctx, {m: Fraction(c, d) for m, c in p.terms.items()}) for p in v)
            for p in out:
                for c in p.terms.values():
                    assert c != 0
                    assert type(c) is (int if c.denominator == 1 else Fraction)
