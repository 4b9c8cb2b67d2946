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
        from mfchern.chern import _trace_of_product

        rng = random.Random(100 + size)
        for _ in range(5):
            S, T = _rational_matrix(rng, size, size), _rational_matrix(rng, size, size)
            ref = _ref_mul(S, T)
            want = _ref_sum(CTX4, [ref[i][i] for i in range(size)])
            got = _trace_of_product(S, T)
            assert got == want
            assert got == graded_trace(fm_mul(S, T))

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
        # of a plain running product: every trace 1..top unreduced, and the
        # top trace alone with a memo that reduces no monomial
        from mfchern.chern import _power_traces

        rng = random.Random(200 + top)
        for size in (1, 2, 3, 4):
            X = _rational_matrix(rng, size, size)
            I = FormMatrix.identity(CTX4, size)
            want, power = [], X
            for _ in range(top):
                want.append(_ref_sum(CTX4, [power.entries[i][i] for i in range(size)]))
                power = FormMatrix(CTX4, size, size, _ref_mul(power, X))
            assert _power_traces(X, I, range(1, top + 1), None) == want
            if top:
                assert _power_traces(X, I, [top], defaultdict(lambda: None)) == want[-1:]
