import random
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfchern import (
    Form,
    FormMatrix,
    Poly,
    exterior_derivative,
    fm_mul,
    graded_trace,
    parse_form,
    parse_poly,
    print_form,
    wedge,
)
from mfchern.ideals import _Memo
from mfchern.ring import ParseError, RingError

from conftest import polys, rand_poly, ring

CTX = ring("x", "y", "z")

# tokens of the polynomial grammar; joined, they include truncated and
# malformed strings
POLY_ALPHABET = ["x", "y", "z", "0", "1", "2", "+", "-", "*", "/", "^", "(", ")", " "]


def forms(degree, max_terms=3):
    idx = st.sets(
        st.integers(min_value=0, max_value=2), min_size=degree, max_size=degree
    ).map(lambda s: tuple(sorted(s)))
    return st.dictionaries(idx, polys(CTX, max_terms=2), max_size=max_terms).map(
        lambda d: Form(CTX, d)
    )


class TestWedge:
    @given(forms(1), forms(1))
    def test_anticommutes_in_degree_one(self, a, b):
        assert wedge(a, b) == -wedge(b, a)

    @given(forms(1), forms(2))
    def test_graded_commutativity(self, a, b):
        # degree 1 times degree 2: sign (-1)^(1*2) = +1
        assert wedge(a, b) == wedge(b, a)

    @given(forms(1), forms(1), forms(1))
    @settings(max_examples=40)
    def test_associative(self, a, b, c):
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))

    @given(forms(1))
    def test_square_zero(self, a):
        assert wedge(a, a).is_zero()

    def test_basis_sign(self):
        dx = Form.d_var(CTX, 0)
        dy = Form.d_var(CTX, 1)
        assert wedge(dx, dy) == Form(CTX, {(0, 1): Poly.one(CTX)})
        assert wedge(dy, dx) == Form(CTX, {(0, 1): -Poly.one(CTX)})

    def test_top_degree_truncates(self):
        w = Form(CTX, {(0, 1, 2): Poly.one(CTX)})
        assert wedge(w, Form.d_var(CTX, 0)).is_zero()


class TestExteriorDerivative:
    @given(forms(0))
    def test_d_squared_zero_functions(self, a):
        assert exterior_derivative(exterior_derivative(a)).is_zero()

    @given(forms(1))
    def test_d_squared_zero_one_forms(self, a):
        assert exterior_derivative(exterior_derivative(a)).is_zero()

    @given(forms(1), forms(1))
    @settings(max_examples=40)
    def test_leibniz(self, a, b):
        lhs = exterior_derivative(wedge(a, b))
        rhs = wedge(exterior_derivative(a), b) - wedge(a, exterior_derivative(b))
        assert lhs == rhs

    def test_known_value(self):
        w = parse_form("x*y*dz", CTX)
        dw = exterior_derivative(w)
        assert dw == parse_form("y*dx^dz + x*dy^dz", CTX)


class TestFormSyntax:
    def test_parse_mixed(self):
        w = parse_form("(x+1)*dx^dy + 3*dz", CTX)
        assert w.components[(0, 1)] == Poly(
            CTX, {(1, 0, 0): Fraction(1), (0, 0, 0): Fraction(1)}
        )
        assert w.components[(2,)] == Poly.const(CTX, 3)

    def test_reordering_sign(self):
        assert parse_form("dy^dx", CTX) == parse_form("-dx^dy", CTX)
        assert parse_form("dz^dx^dy", CTX) == parse_form("dx^dy^dz", CTX)
        assert parse_form("dz^dy^dx", CTX) == parse_form("-dx^dy^dz", CTX)

    def test_repeated_differential_is_zero(self):
        assert parse_form("dx^dy^dx", CTX).is_zero()
        assert parse_form("2*dx^dy^dx + x*dz^dz - dy", CTX) == parse_form("-dy", CTX)

    def test_zero(self):
        assert parse_form("0", CTX).is_zero()
        assert print_form(Form.zero(CTX)) == "0"

    @pytest.mark.parametrize("bad", [
        "dx^", "dx^x", "dw", "x^dy", "", "+", "x+", "x*", "x**dx", "x dx", "dx dy",
    ])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_form(bad, CTX)

    def test_parentheses_hold_polynomials(self):
        with pytest.raises(ParseError, match="unknown variable 'dx'"):
            parse_form("(x + dx)*dy", CTX)
        assert parse_form("dx*(x+1)*dy", CTX) == parse_form("(x + 1)*dx^dy", CTX)

    @given(st.lists(st.sampled_from(POLY_ALPHABET), max_size=10).map("".join))
    @settings(derandomize=True, max_examples=300)
    def test_same_grammar_as_polynomials(self, text):
        """Over the polynomial alphabet, truncated strings included, a form
        parses exactly as the polynomial does, or both are refused."""
        try:
            p = parse_poly(text, CTX)
        except ParseError:
            with pytest.raises(ParseError):
                parse_form(text, CTX)
        else:
            assert parse_form(text, CTX) == Form.from_poly(p)

    @pytest.mark.parametrize("components,text", [
        ({(0,): "-1"}, "-dx"),
        ({(0,): "-3*x"}, "-3*x*dx"),
        ({(0, 1): "-1/2"}, "-1/2*dx^dy"),
        ({(0,): "x - 1"}, "(x - 1)*dx"),
        ({(0,): "-x + 1"}, "(-x + 1)*dx"),
        ({(): "-2"}, "-2"),
        ({(): "-x + 1", (1,): "-1"}, "-x + 1 - dy"),
        ({(): "7", (0,): "1", (1, 2): "-y*z"}, "7 + dx - y*z*dy^dz"),
    ])
    def test_print_exact_text(self, components, text):
        w = Form(CTX, {i: parse_poly(p, CTX) for i, p in components.items()})
        assert print_form(w) == text

    def test_refuses_a_coefficient_product_too_large_to_expand(self):
        # a form's coefficient factors are multiplied by the polynomial
        # parser, under its bound: the product of the first two factors has
        # one term per monomial of degree <= 12, and times the third it could
        # have one per monomial of degree <= 18, C(21, 3) = 1330 of them
        assert len(parse_poly("(x+y+z+1)^6*(x+y+z+1)^6", CTX).terms) == 455
        with pytest.raises(ParseError, match="455-term and a 84-term factor"):
            parse_form("(x+y+z+1)^6*(x+y+z+1)^6*(x+y+z+1)^6*dx", CTX)
        assert parse_form("(x+1)*(y-2)*dx^dy", CTX) == parse_form(
            "(x*y - 2*x + y - 2)*dx^dy", CTX
        )

    @given(st.one_of(forms(0), forms(1), forms(2), forms(3)))
    @settings(max_examples=60)
    def test_print_parse_round_trip(self, w):
        assert parse_form(print_form(w), CTX) == w


class TestFormConstructorBoundary:
    """The public constructor validates; arithmetic results skip it."""

    def test_rejects_non_increasing_index_tuple(self):
        one = Poly.one(CTX)
        with pytest.raises(RingError, match="strictly increasing"):
            Form(CTX, {(1, 0): one})
        with pytest.raises(RingError, match="strictly increasing"):
            Form(CTX, {(1, 1): one})

    def test_rejects_out_of_range_index(self):
        with pytest.raises(RingError, match="out of range"):
            Form(CTX, {(3,): Poly.one(CTX)})
        with pytest.raises(RingError, match="out of range"):
            Form(CTX, {(-1,): Poly.one(CTX)})

    @pytest.mark.parametrize("coeff", [3, Fraction(1, 2), "x", None])
    def test_rejects_a_coefficient_that_is_not_a_poly(self, coeff):
        with pytest.raises(RingError, match="not a Poly"):
            Form(CTX, {(0,): coeff})

    @pytest.mark.parametrize("idx", [("a",), (0, "b"), (0.0,), (None,)])
    def test_rejects_a_non_int_index(self, idx):
        with pytest.raises(RingError, match="non-int"):
            Form(CTX, {idx: Poly.one(CTX)})

    def test_rejects_coefficient_from_wrong_ring(self):
        other = ring("x", "y")
        with pytest.raises(RingError, match="wrong ring"):
            Form(CTX, {(0,): Poly.one(other)})

    def test_arithmetic_results_are_canonical(self):
        w = parse_form("x*dx + dy^dz", CTX)
        assert (w - w).components == {}
        assert w.scale(0).components == {}
        v = parse_form("x*dx + y*dy", CTX)
        assert wedge(v, v).components == {}


def rand_form_matrix(rng, rows, cols, degree):
    from conftest import ring as _ring
    import itertools

    entries = []
    idxs = list(itertools.combinations(range(3), degree))
    for _ in range(rows):
        row = []
        for _ in range(cols):
            comp = {}
            for i in idxs:
                if rng.random() < 0.6:
                    comp[i] = rand_poly(rng, CTX, max_deg=1, max_terms=2)
            row.append(Form(CTX, comp))
        entries.append(row)
    return FormMatrix(CTX, rows, cols, entries)


class TestFormMatrix:
    def test_trace_cyclicity_with_koszul_sign(self):
        rng = random.Random(11)
        for _ in range(15):
            n = rng.randint(1, 4)
            p = rng.randint(0, 2)
            q = rng.randint(0, 2)
            S = rand_form_matrix(rng, n, n, p)
            T = rand_form_matrix(rng, n, n, q)
            lhs = graded_trace(fm_mul(S, T))
            rhs = graded_trace(fm_mul(T, S))
            if (p * q) % 2:
                rhs = -rhs
            assert lhs == rhs

    def test_mul_associative(self):
        rng = random.Random(5)
        for _ in range(10):
            S = rand_form_matrix(rng, 2, 3, 1)
            T = rand_form_matrix(rng, 3, 2, 0)
            U = rand_form_matrix(rng, 2, 2, 1)
            assert fm_mul(fm_mul(S, T), U) == fm_mul(S, fm_mul(T, U))

    def test_matches_entrywise_sum(self):
        # fm_mul skips zero entries; the plain triple loop is the reference
        rng = random.Random(13)
        for _ in range(10):
            S = rand_form_matrix(rng, 3, 2, 1)
            T = rand_form_matrix(rng, 2, 3, 1)
            ref = [
                [
                    wedge(S.entries[i][0], T.entries[0][j])
                    + wedge(S.entries[i][1], T.entries[1][j])
                    for j in range(3)
                ]
                for i in range(3)
            ]
            assert fm_mul(S, T) == FormMatrix(CTX, 3, 3, ref)

    def test_identity_neutral(self):
        rng = random.Random(9)
        S = rand_form_matrix(rng, 3, 3, 1)
        I = FormMatrix.identity(CTX, 3)
        assert fm_mul(I, S) == S
        assert fm_mul(S, I) == S


# ---------------------------------------------------------------------------
# an independent reference for the wedge kernel behind wedge, fm_mul and the
# trace of a product: public Poly + and * only, the sign of each basis
# product from the parity of the permutation that sorts its indices
# ---------------------------------------------------------------------------

CTX4 = ring("x", "y", "z", "w")
CTX12 = ring(*(f"x{i}" for i in range(12)))


def _permutation_sign(perm):
    """(-1)^(number of even-length cycles) of a permutation of range(n)."""
    sign, seen = 1, set()
    for start in range(len(perm)):
        length, j = 0, start
        while j not in seen:
            seen.add(j)
            j = perm[j]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def _ref_wedge(a, b):
    terms = []
    for i1, p1 in a.components.items():
        for i2, p2 in b.components.items():
            word = i1 + i2
            if len(set(word)) < len(word):
                continue
            perm = sorted(range(len(word)), key=word.__getitem__)
            terms.append((tuple(sorted(word)), p1 * p2 * _permutation_sign(perm)))
    return Form(a.ctx, terms)  # the public constructor sums repeated indices


def _ref_sum(ctx, forms):
    return Form(ctx, [c for w in forms for c in w.components.items()])


def _ref_mul(S, T):
    return [
        [_ref_sum(S.ctx, [_ref_wedge(S.entries[i][k], T.entries[k][j])
                          for k in range(S.cols)])
         for j in range(T.cols)]
        for i in range(S.rows)
    ]


def _rational_form(rng, ctx, max_degree=3):
    """Zero a quarter of the time; else up to three components of mixed
    degree up to ``max_degree``, coefficients with denominators up to 4."""
    if rng.random() < 0.25:
        return Form.zero(ctx)
    comps = []
    for _ in range(rng.randint(1, 3)):
        idx = tuple(sorted(rng.sample(range(ctx.nvars), rng.randint(0, max_degree))))
        terms = {
            tuple(rng.randint(0, 2) for _ in range(ctx.nvars)):
                Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            for _ in range(rng.randint(1, 3))
        }
        comps.append((idx, Poly(ctx, terms)))
    return Form(ctx, comps)


def _rational_matrix(rng, rows, cols, ctx=CTX4, max_degree=3):
    return FormMatrix(ctx, rows, cols, [
        [_rational_form(rng, ctx, max_degree) for _ in range(cols)] for _ in range(rows)
    ])


def _coefficients(w):
    return [c for p in w.components.values() for c in p.terms.values()]


def _canonical_scalars(coeffs) -> bool:
    """No float; integral values stored as int, the rest as Fraction."""
    return all(
        type(c) is int if c.denominator == 1 else type(c) is Fraction
        for c in coeffs
    )


class TestWedgeKernelOracle:
    def test_permutation_sign(self):
        assert _permutation_sign([0, 1, 2]) == 1
        assert _permutation_sign([1, 0, 2]) == -1
        assert _permutation_sign([1, 2, 0]) == 1
        assert _permutation_sign([3, 2, 1, 0]) == 1

    def test_wedge(self):
        rng = random.Random(41)
        non_integral = 0
        for _ in range(300):
            a, b = _rational_form(rng, CTX4), _rational_form(rng, CTX4)
            got = wedge(a, b)
            assert got == _ref_wedge(a, b)
            coeffs = _coefficients(got)
            assert _canonical_scalars(coeffs)
            non_integral += sum(type(c) is Fraction for c in coeffs)
        assert non_integral > 100  # the non-integral branch is exercised

    @pytest.mark.parametrize("shape", [
        (0, 2, 3), (2, 0, 3), (2, 3, 0), (0, 0, 0), (1, 1, 1), (3, 2, 4), (4, 4, 4),
    ])
    def test_fm_mul(self, shape):
        rng = random.Random(sum(shape))
        r, k, c = shape
        for _ in range(5):
            S, T = _rational_matrix(rng, r, k), _rational_matrix(rng, k, c)
            P = fm_mul(S, T)
            assert (P.rows, P.cols) == (r, c)
            assert P == FormMatrix(CTX4, r, c, _ref_mul(S, T))
            for row in P.entries:
                for e in row:
                    assert _canonical_scalars(_coefficients(e))

    @pytest.mark.parametrize("size", [0, 1, 3, 5])
    def test_trace_of_product(self, size):
        from mfchern.chern import _power_traces

        rng = random.Random(100 + size)
        for _ in range(5):
            S, T = _rational_matrix(rng, size, size), _rational_matrix(rng, size, size)
            ref = _ref_mul(S, T)
            want = _ref_sum(CTX4, [ref[i][i] for i in range(size)])
            got = _power_traces(S, T, [1], None)[0]
            assert got == want
            assert got == graded_trace(fm_mul(S, T))

    @pytest.mark.parametrize("var", [0, 3])
    @pytest.mark.parametrize("k", [1, 3, 4])
    @pytest.mark.parametrize("extra", [-1, 0])
    def test_exponent_sums_at_a_power_of_two(self, var, k, extra):
        # fields are as wide as the largest exponent of S plus that of T:
        # a sum of 2^k - 1 fills every bit of a k-bit field, one of 2^k
        # takes a (k+1)-bit field; on the first and on the last variable,
        # with every other field in use beside it
        top = 2 ** k + extra
        e = [0] * 4
        e[var] = top - top // 2
        a = Form(CTX4, {
            (1,): Poly(CTX4, {tuple(e): Fraction(3, 2), (1, 1, 1, 1): 1}),
            (): Poly(CTX4, {(0, 2, 1, 0): -1}),
        })
        e[var] = top // 2
        b = Form(CTX4, {
            (0,): Poly(CTX4, {tuple(e): 1, (0, 0, 0, 0): 2}),
            (2, 3): Poly(CTX4, {(1, 0, 0, 1): -5}),
        })
        got = wedge(a, b)
        assert got == _ref_wedge(a, b)
        assert tuple(top if i == var else 0 for i in range(4)) in got.components[(0, 1)].terms
        S = FormMatrix(CTX4, 2, 2, [[a, b], [b, Form.zero(CTX4)]])
        T = FormMatrix(CTX4, 2, 1, [[b], [a]])
        assert fm_mul(S, T) == FormMatrix(CTX4, 2, 1, _ref_mul(S, T))

    def test_exponent_of_fifty_digits(self):
        big = 10 ** 50 + 7
        a = parse_form(f"x^{big}*dy + z^2*w", CTX4)
        b = parse_form(f"(x^{big + 1} + 3*w^{big})*dz - y*dx", CTX4)
        got = wedge(a, b)
        assert got == _ref_wedge(a, b)
        assert (2 * big + 1, 0, 0, 0) in got.components[(1, 2)].terms
        S = FormMatrix(CTX4, 1, 2, [[a, b]])
        T = FormMatrix(CTX4, 2, 2, [[b, a], [a, b]])
        assert fm_mul(S, T) == FormMatrix(CTX4, 1, 2, _ref_mul(S, T))

    def test_no_variables(self):
        # only 0-forms over RingCtx(()), each monomial the empty tuple
        ctx = ring()
        rng = random.Random(60)
        for shape in ((1, 1, 1), (2, 3, 2)):
            r, k, c = shape
            S, T = _rational_matrix(rng, r, k, ctx, 0), _rational_matrix(rng, k, c, ctx, 0)
            assert fm_mul(S, T) == FormMatrix(ctx, r, c, _ref_mul(S, T))
            for a, b in zip(S.entries[0], T.entries[0]):
                assert wedge(a, b) == _ref_wedge(a, b)
        three = Form.from_poly(Poly.const(ctx, 3))
        assert wedge(three, three) == Form.from_poly(Poly.const(ctx, 9))
        assert wedge(three, Form.zero(ctx)).is_zero()

    def test_wedge_past_eight_variables(self):
        # bit positions 8..11 and index tuples of up to six entries on each side
        rng = random.Random(43)
        for _ in range(200):
            a, b = _rational_form(rng, CTX12, 6), _rational_form(rng, CTX12, 6)
            assert wedge(a, b) == _ref_wedge(a, b)

    @pytest.mark.parametrize("shape", [(1, 1, 1), (2, 3, 2), (3, 3, 3)])
    def test_fm_mul_past_eight_variables(self, shape):
        rng = random.Random(50 + sum(shape))
        r, k, c = shape
        for _ in range(3):
            S = _rational_matrix(rng, r, k, CTX12, 6)
            T = _rational_matrix(rng, k, c, CTX12, 6)
            assert fm_mul(S, T) == FormMatrix(CTX12, r, c, _ref_mul(S, T))

    @pytest.mark.parametrize("top", range(7))
    def test_power_traces(self, top):
        # the one chain helper, X = S.T with T the identity, against traces
        # of a plain running product: every trace 1..top unreduced; the top
        # trace alone with a memo that reduces no monomial; every trace with
        # a memo to the zero Poly and with one whose normal forms have
        # Fraction coefficients, each trace reduced afterwards by the same
        # memo; and over 12 variables, so that masks pass bit 8
        from mfchern.chern import _power_traces

        to_zero, ideal = _Memo(_modulo_x), _Memo(_modulo_2y_x3)
        reduced = 0
        rng = random.Random(200 + top)
        for size in (1, 2, 3, 4):
            X = _rational_matrix(rng, size, size)
            I = FormMatrix.identity(CTX4, size)
            want = _running_traces(X, top)
            assert _power_traces(X, I, range(1, top + 1), None) == want
            if top:
                assert _power_traces(X, I, [top], defaultdict(lambda: None)) == want[-1:]
            for memo, cap in ((to_zero, 0), (ideal, 7)):
                got = _power_traces(X, I, range(1, top + 1), memo, cap)
                assert got == [_reduced(w, memo) for w in want]
            reduced += sum(m[0] > 0 for w in want for p in w.components.values() for m in p.terms)
        if top:
            assert reduced
            assert any(r is not None and not r.is_zero() for r in ideal.values())
        for size in (1, 2):
            X = _rational_matrix(rng, size, size, CTX12, 6)
            I = FormMatrix.identity(CTX12, size)
            assert _power_traces(X, I, range(1, top + 1), None) == _running_traces(X, top)

    @pytest.mark.parametrize("var", [0, 3])
    def test_power_traces_fill_the_field(self, var):
        # X = [[v^5 + y + 2]], v the first or last variable: X^3 reaches v^15,
        # every bit of a 4-bit field, next to y's field or at the top
        from mfchern.chern import _power_traces

        v = "xyzw"[var]
        p = parse_poly(f"{v}^5 + y + 2", CTX4)
        X = FormMatrix(CTX4, 1, 1, [[Form.from_poly(p)]])
        got = _power_traces(X, FormMatrix.identity(CTX4, 1), [1, 2, 3], None)
        assert got == [Form.from_poly(p ** k) for k in (1, 2, 3)]
        assert (15 if var == 0 else 0, 0, 0, 15 if var == 3 else 0) in got[2].components[()].terms

    def test_power_traces_fill_the_field_with_a_normal_form(self):
        # x*y^2 goes to x^7/4 modulo (2y - x^3, x^8): cap 7 sets a 3-bit field
        from mfchern.chern import _power_traces

        X = FormMatrix(CTX4, 1, 1, [[parse_form("(x*y^2 + z)*dw", CTX4)]])
        got = _power_traces(X, FormMatrix.identity(CTX4, 1), [1], _Memo(_modulo_2y_x3), 7)
        assert got == [parse_form("(1/4*x^7 + z)*dw", CTX4)]

    def test_power_traces_refuse_a_normal_form_past_the_bound(self):
        from mfchern.chern import InternalConsistencyError, _power_traces

        X = FormMatrix(CTX4, 1, 1, [[parse_form("y*dx", CTX4)]])
        memo = _Memo(lambda m: Poly(CTX4, {(3 * m[1], 0, 0, 0): 1}) if m[1] else None)
        with pytest.raises(InternalConsistencyError, match="exponent bound"):
            _power_traces(X, FormMatrix.identity(CTX4, 1), [1], memo)

    def test_power_traces_build_forms_only_for_the_traces(self, monkeypatch):
        from mfchern.chern import _power_traces

        rng = random.Random(330)
        X = _rational_matrix(rng, 3, 3)
        I = FormMatrix.identity(CTX4, 3)
        built = []
        trusted, init = Form._trusted.__func__, Form.__init__
        monkeypatch.setattr(
            Form, "_trusted", classmethod(lambda cls, *a: built.append(1) or trusted(cls, *a))
        )
        monkeypatch.setattr(Form, "__init__", lambda w, *a: built.append(1) or init(w, *a))
        assert len(_power_traces(X, I, range(1, 6), None)) == 5
        assert len(built) == 5
        del built[:]
        assert len(_power_traces(X, I, [5], defaultdict(lambda: None))) == 1
        assert len(built) == 1

    @pytest.mark.parametrize("ctx, shape", [
        (CTX4, (2, 3)), (CTX4, (3, 1)), (CTX4, (1, 0)), (CTX4, (4, 4)), (CTX12, (3, 2)),
    ], ids=["4-2x3", "4-3x1", "4-1x0", "4-4x4", "12-3x2"])
    def test_power_traces_graded_cyclicity(self, ctx, shape):
        # S (r0 x r1) and T (r1 x r0) of 1-forms: the trace is graded-cyclic,
        # so tr((T.S)^i) = -tr((S.T)^i), unreduced and modulo (2y - x^3, x^8),
        # and 2 tr((S.T)^i) is the supertrace of [[0, S], [T, 0]]^(2i), the
        # dense power taken by the reference product
        from mfchern.chern import _power_traces, supertrace

        r0, r1 = shape
        rng = random.Random(500 + 10 * r0 + r1 + ctx.nvars)
        S, T = _one_form_matrix(rng, r0, r1, ctx), _one_form_matrix(rng, r1, r0, ctx)
        memos = [(None, 0), (_Memo(_modulo_2y_x3), 7)] if ctx is CTX4 else [(None, 0)]
        for w in (1, 2, 3):
            for wanted in ([w], range(1, w + 1)):
                for memo, cap in memos:
                    got = _power_traces(S, T, wanted, memo, cap)
                    assert got == [-t for t in _power_traces(T, S, wanted, memo, cap)]
        at = FormMatrix.blocks(ctx, shape, shape, {(0, 1): S, (1, 0): T})
        power = square = FormMatrix(ctx, r0 + r1, r0 + r1, _ref_mul(at, at))
        traces = _power_traces(S, T, (1, 2, 3), None)
        for t in traces:  # against At^2, At^4, At^6
            assert supertrace(power, r0, r1) == t.scale(2)
            power = FormMatrix(ctx, r0 + r1, r0 + r1, _ref_mul(power, square))
        assert any(not t.is_zero() for t in traces) == (r0 * r1 > 0)


def _ref_d(a):
    """d a as the sum over i of dx_i ^ (d/dx_i a), through partial_derivative
    and wedge."""
    ctx, out = a.ctx, Form.zero(a.ctx)
    for i in range(ctx.nvars):
        di = Form(ctx, {idx: p.partial_derivative(i) for idx, p in a.components.items()})
        out = out + wedge(Form.d_var(ctx, i), di)
    return out


def _d_form(rng, ctx, degree, fractions):
    """Zero one time in eight; else up to three components of one degree,
    each exponent 0, 2^k - 1 or 2^k, int or (when ``fractions``) Fraction
    coefficients."""
    if rng.random() < 0.125:
        return Form.zero(ctx)
    comps = []
    for _ in range(rng.randint(1, 3)):
        idx = tuple(sorted(rng.sample(range(ctx.nvars), degree)))
        terms = {}
        for _ in range(rng.randint(1, 3)):
            m = []
            for _ in range(ctx.nvars):
                k = rng.randint(0, 6)
                m.append(rng.choice((0, 2 ** k - 1, 2 ** k)))
            c = rng.randint(-5, 5)
            terms[tuple(m)] = Fraction(c, rng.randint(1, 4)) if fractions else c
        comps.append((idx, Poly(ctx, terms)))
    return Form(ctx, comps)


class TestExteriorDerivativeOracle:
    @pytest.mark.parametrize("nvars", [0, 1, 4, 12])
    @pytest.mark.parametrize("fractions", [False, True])
    def test_exterior_derivative(self, nvars, fractions):
        ctx = ring(*(f"x{i}" for i in range(nvars)))
        rng = random.Random(10 * nvars + fractions)
        non_integral = 0
        for degree in range(nvars + 1):
            for _ in range(4):
                a = _d_form(rng, ctx, degree, fractions)
                da = exterior_derivative(a)
                assert da == _ref_d(a)
                assert _canonical_scalars(_coefficients(da))
                non_integral += sum(type(c) is Fraction for c in _coefficients(da))
                assert exterior_derivative(da).is_zero()
                # the graded Leibniz rule, a homogeneous of this degree
                b = _d_form(rng, ctx, rng.randint(0, nvars), fractions)
                db = exterior_derivative(b)
                got = exterior_derivative(wedge(a, b))
                assert got == wedge(da, b) + wedge(a, db).scale(-1 if degree % 2 else 1)
                # and an inhomogeneous sum
                assert exterior_derivative(a + b) == _ref_d(a + b)
        assert (non_integral > 0) == (fractions and nvars > 0)

    def test_cancelling_terms_leave_no_component(self):
        # d(y dx + x dy) = 0: dy ^ dx and dx ^ dy meet at (0, 1) and cancel
        w = parse_form("y*dx + x*dy", CTX)
        assert exterior_derivative(w).components == {}


class TestZeroPath:
    """A side with no term: products, sums and negation of zero forms give
    what the checked constructors give."""

    @pytest.mark.parametrize("shape", [
        (3, 3, 3), (2, 3, 4), (4, 1, 2), (0, 2, 3), (2, 0, 3), (2, 3, 0), (0, 0, 0),
    ])
    def test_fm_mul_by_zero(self, shape):
        rng = random.Random(200 + sum(shape))
        r, k, c = shape
        S, T = _rational_matrix(rng, r, k), _rational_matrix(rng, k, c)
        zeros = FormMatrix.zeros(CTX4, r, c)
        for P in (
            fm_mul(FormMatrix.zeros(CTX4, r, k), T),
            fm_mul(S, FormMatrix.zeros(CTX4, k, c)),
            fm_mul(FormMatrix.zeros(CTX4, r, k), FormMatrix.zeros(CTX4, k, c)),
        ):
            assert P == zeros
            assert P == FormMatrix(CTX4, r, c, [[Form(CTX4)] * c] * r)
            assert all(e.components == {} for row in P.entries for e in row)

    def test_sum_and_negation_of_zero(self):
        rng = random.Random(210)
        zero = Form.zero(CTX4)
        for _ in range(20):
            w = _rational_form(rng, CTX4)
            checked = Form(CTX4, w.components)
            negated = Form(CTX4, {i: -p for i, p in w.components.items()})
            for got, want in ((w + zero, checked), (zero + w, checked),
                              (w - zero, checked), (zero - w, negated)):
                assert got == want
                assert hash(got) == hash(want)
        assert -zero == Form(CTX4) == zero + zero
        with pytest.raises(RingError, match="mismatched"):
            zero + Form.zero(CTX)
        with pytest.raises(RingError, match="mismatched"):
            Form.d_var(CTX, 0) + Form.zero(CTX4)


# monomial memos for the chain helper, in the shape of
# ideals._jacobian_normal_forms: None for a monomial no lead divides, else its
# normal form, with no exponent above the cap passed along

def _modulo_x(m):
    """Modulo the monomial ideal (x): every monomial with x goes to 0."""
    return Poly.zero(CTX4) if m[0] else None


def _modulo_2y_x3(m):
    """Modulo (2y - x^3, x^8), lex with y > x: x^a y^b z^c w^d goes to
    x^(a+3b) z^c w^d / 2^b, or to 0 once a + 3b >= 8 (cap 7)."""
    a, b, c, d = m
    if not b and a < 8:
        return None
    if a + 3 * b >= 8:
        return Poly.zero(CTX4)
    return Poly(CTX4, {(a + 3 * b, 0, c, d): Fraction(1, 2 ** b)})


def _one_form_matrix(rng, rows, cols, ctx):
    """Entries of degree 1 alone, zero a quarter of the time, else up to
    three terms c x^m dx_k with m of exponents up to 2."""
    def one_form():
        if rng.random() < 0.25:
            return Form.zero(ctx)
        return Form(ctx, [
            ((rng.randrange(ctx.nvars),),
             Poly(ctx, {tuple(rng.randint(0, 2) for _ in range(ctx.nvars)):
                        Fraction(rng.randint(-5, 5), rng.randint(1, 4))}))
            for _ in range(rng.randint(1, 3))
        ])

    return FormMatrix(ctx, rows, cols, [[one_form() for _ in range(cols)] for _ in range(rows)])


def _running_traces(X, top):
    """tr(X), ..., tr(X^top) from a plain running product."""
    size = X.rows
    want, power = [], X
    for _ in range(top):
        want.append(_ref_sum(X.ctx, [power.entries[i][i] for i in range(size)]))
        power = FormMatrix(X.ctx, size, size, _ref_mul(power, X))
    return want


def _reduced(w, memo):
    """w with each monomial replaced by its memo entry, when it has one."""
    ctx = w.ctx
    return Form(ctx, [
        (idx, Poly(ctx, {m: c}) if memo[m] is None else memo[m] * c)
        for idx, p in w.components.items() for m, c in p.terms.items()
    ])
