from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfchern import ParseError, Poly, RingCtx, RingError, parse_poly, print_poly
from mfchern.ring import partial_derivative

from conftest import polys, ring

CTX = ring("x", "y", "z")


class TestParsing:
    def test_basic(self):
        p = parse_poly("x^2 + 3/2*x*y - 1", CTX)
        assert p.terms == {
            (2, 0, 0): Fraction(1),
            (1, 1, 0): Fraction(3, 2),
            (0, 0, 0): Fraction(-1),
        }

    def test_parentheses_and_unary_minus(self):
        p = parse_poly("-(x - y)*(x + y)", CTX)
        q = parse_poly("y^2 - x^2", CTX)
        assert p == q

    def test_zero_terms_cancel(self):
        assert parse_poly("x - x", CTX).is_zero()

    def test_rational_literal(self):
        assert parse_poly("2/4", CTX) == Poly.const(CTX, Fraction(1, 2))

    @pytest.mark.parametrize("bad", ["x^-1", "x +", "(x", "x 1 y", "^2", ""])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_poly(bad, CTX)

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            parse_poly("w + 1", CTX)

    @given(polys(CTX))
    def test_print_parse_round_trip(self, p):
        assert parse_poly(print_poly(p), CTX) == p


class TestArithmetic:
    @given(polys(CTX), polys(CTX), polys(CTX))
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polys(CTX), polys(CTX))
    def test_commutative(self, a, b):
        assert a * b == b * a
        assert a + b == b + a

    @given(polys(CTX))
    def test_neg_cancels(self, a):
        assert (a - a).is_zero()

    @given(polys(CTX), st.integers(min_value=0, max_value=4))
    @settings(max_examples=30)
    def test_power_matches_repeated_product(self, a, k):
        expected = Poly.one(CTX)
        for _ in range(k):
            expected = expected * a
        assert a ** k == expected

    def test_scalar_mixing(self):
        x = Poly.variable(CTX, 0)
        assert 2 * x + x == parse_poly("3*x", CTX)
        assert x * Fraction(1, 2) == parse_poly("1/2*x", CTX)


class TestConstructorBoundary:
    """The public constructor validates; arithmetic results skip it."""

    def test_rejects_wrong_monomial_length(self):
        with pytest.raises(RingError, match="length"):
            Poly(CTX, {(1, 0): 1})

    def test_rejects_negative_exponent(self):
        with pytest.raises(RingError, match="negative"):
            Poly(CTX, {(1, -1, 0): 1})

    def test_merges_and_drops_zero_terms(self):
        p = Poly(CTX, [((1, 0, 0), 2), ((1, 0, 0), -2), ((0, 1, 0), 1)])
        assert p.terms == {(0, 1, 0): Fraction(1)}

    def test_arithmetic_results_are_canonical(self):
        p = parse_poly("x + 2*y", CTX)
        q = parse_poly("x - y", CTX)
        assert (p - p).terms == {}
        assert (p * 0).terms == {}
        assert (p * q - q * p).terms == {}
        assert all(isinstance(c, Fraction) for c in (p * q + 3).terms.values())


class TestCalculus:
    @given(polys(CTX), polys(CTX))
    @settings(max_examples=40)
    def test_leibniz(self, a, b):
        for i in range(3):
            lhs = partial_derivative(a * b, i)
            rhs = partial_derivative(a, i) * b + a * partial_derivative(b, i)
            assert lhs == rhs

    def test_known_derivative(self):
        p = parse_poly("x^2*y + z", CTX)
        assert partial_derivative(p, 0) == parse_poly("2*x*y", CTX)
        assert partial_derivative(p, 2) == Poly.one(CTX)


class TestOrder:
    def test_degrevlex_examples(self):
        # x^2 > x*y > y^2 > x > y for degrevlex with x > y
        c = ring("x", "y")
        ms = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        ordered = sorted(ms, key=c.monomial_key, reverse=True)
        assert ordered == [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1)]

    def test_degrevlex_vs_grlex_differ(self):
        c = ring("x", "y", "z")
        # classic separating pair: x*y^2*z vs x^2*z^2 (both degree 4)
        a, b = (1, 2, 1), (2, 0, 2)
        assert c.monomial_key(a) > c.monomial_key(b)
        g = ring("x", "y", "z")
        g = RingCtx(g.variables, order="grlex")
        assert g.monomial_key(a) < g.monomial_key(b)

    def test_leading_monomial(self):
        p = parse_poly("x + y^2", CTX)
        assert p.leading_monomial() == (0, 2, 0)
        assert p.monic() == p

    def test_print_is_sorted_descending(self):
        p = parse_poly("y + x^2 + 1", CTX)
        assert print_poly(p) == "x^2 + y + 1"


class TestSubstitute:
    def test_shear(self):
        tgt = ring("x", "y")
        p = parse_poly("x*y", tgt)
        images = (parse_poly("x+y", tgt), parse_poly("y", tgt))
        assert p.substitute(tgt, images) == parse_poly("x*y + y^2", tgt)

    def test_cross_ring(self):
        src = ring("t")
        tgt = ring("u", "v")
        p = parse_poly("t^2 + 1", src)
        q = p.substitute(tgt, (parse_poly("u*v", tgt),))
        assert q == parse_poly("u^2*v^2 + 1", tgt)
