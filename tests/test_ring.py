import copy
import itertools
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfchern import (
    Form,
    FormMatrix,
    ParseError,
    Poly,
    PolyMatrix,
    RingCtx,
    RingError,
    RingMap,
    atiyah,
    buchberger,
    chern_character,
    cone,
    connection_default,
    contraction_of_identity_cone,
    graded_trace,
    identity_morphism,
    kclass,
    module_buchberger,
    module_complex,
    parse_form,
    parse_poly,
    print_poly,
)
from mfchern import ring as ring_module
from mfchern.ring import Frozen

from conftest import mf_1x1, polys, ring

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
        # a differential is not a polynomial
        with pytest.raises(ParseError, match="unknown variable 'dx'"):
            parse_poly("x*dx", CTX)

    def test_power_bound_refuses_before_expanding(self):
        with pytest.raises(ParseError, match=r"\^400 .* 80601 terms"):
            parse_poly("(x+y+1)^400", CTX)

    def test_power_bound_is_exact(self, monkeypatch):
        # (x+y)^e has C(e+1, e) = e+1 terms
        monkeypatch.setattr(ring_module, "MAX_POWER_TERMS", 10)
        assert len(parse_poly("(x+y)^9", CTX).terms) == 10
        with pytest.raises(ParseError, match=r"\^10 "):
            parse_poly("(x+y)^10", CTX)

    def test_product_bound_is_exact(self, monkeypatch):
        monkeypatch.setattr(ring_module, "MAX_POWER_TERMS", 10)
        assert len(parse_poly("(x+z^3)*(1+x+y+z+x*y)", CTX).terms) == 10
        with pytest.raises(ParseError, match="2-term and a 6-term factor"):
            parse_poly("(x+z^3)*(1+x+y+z+x*y+y*z)", CTX)
        # the running product is what is bounded: x*x*... stays one term
        parse_poly("*".join(["(x+y)"] + ["x"] * 20), CTX)

    def test_product_bound_counts_the_monomials_of_its_degrees(self, monkeypatch):
        # 6 * 3 terms, but only the C(5, 2) = 10 monomials of degree 3
        monkeypatch.setattr(ring_module, "MAX_POWER_TERMS", 10)
        assert len(parse_poly("(x+y+z)^2*(x+y+z)", CTX).terms) == 10
        # degrees 2..3 hold C(6, 3) - C(4, 3) = 16 monomials, fewer than 6 * 4
        with pytest.raises(ParseError, match="6-term and a 4-term factor could "
                                             "expand to 16 terms"):
            parse_poly("(x+y+z)^2*(x+y+z+1)", CTX)

    def test_nesting_depth(self):
        nested = lambda k: "(" * k + "x" + ")" * k
        assert parse_poly(nested(100), CTX) == parse_poly("x", CTX)
        with pytest.raises(ParseError, match="parentheses nested too deeply"):
            parse_poly(nested(3000), CTX)

    def test_integer_literal_past_the_digit_limit(self):
        with pytest.raises(ParseError, match="position 4 has 5000 digits"):
            parse_poly("x + " + "1" * 5000, CTX)

    def test_coefficient_bound_refuses_a_one_term_power_before_expanding(self):
        start = time.perf_counter()
        with pytest.raises(ParseError, match=r"\^30000000 of a 1-term base could "
                                             r"have coefficients of more than 4300 digits"):
            parse_poly("(3*x)^30000000*y", CTX)
        assert time.perf_counter() - start < 1

    def test_coefficient_bound_is_exact(self):
        # the estimate for (2x)^e is e bits, and the bound is
        # ceil(4300 log2 10) = 14285 bits
        assert ring_module._MAX_COEFF_BITS == 14285
        assert parse_poly("(2*x)^14285", CTX).terms == {(14285, 0, 0): 2 ** 14285}
        with pytest.raises(ParseError, match=r"\^14286 of a 1-term base"):
            parse_poly("(2*x)^14286", CTX)
        # a product adds the factors' estimates
        parse_poly("(2*x)^7000*(2*y)^7285", CTX)
        with pytest.raises(ParseError, match="1-term and a 1-term factor could have"):
            parse_poly("(2*x)^7000*(2*y)^7286", CTX)
        # every literal the tokenizer reads is under the bound
        parse_poly("9" * 4300 + "*x*y", CTX)

    def test_long_exponent_of_a_sum_is_refused_uncounted(self):
        with pytest.raises(ParseError, match="more than 1000 terms"):
            parse_poly("(x+y+1)^" + "9" * 3000, CTX)
        # a unit coefficient never grows, whatever the exponent
        assert parse_poly("x^" + "9" * 4300, CTX).terms == {(10 ** 4300 - 1, 0, 0): 1}

    @pytest.mark.parametrize("text", [
        "x^400", "x^400*y^400*z^400", "(2/3)^400", "(x*y)^400", "(x+y)^0",
        "x^6", "x^3 + y*z", "(x+2)*z^2 + y^2", "(x+y+z+1)^14",
    ])
    def test_power_bound_keeps_small_powers(self, text):
        parse_poly(text, CTX)

    @given(polys(CTX))
    def test_print_parse_round_trip(self, p):
        assert parse_poly(print_poly(p), CTX) == p

    @pytest.mark.parametrize("terms", [
        {(0, 0, 0): 2 * 10 ** 4300}, {(1, 0, 0): Fraction(1, 10 ** 4300)},
        {(10 ** 4300, 0, 0): 1},
    ])
    def test_print_refuses_numbers_past_the_digit_limit(self, terms):
        with pytest.raises(RingError, match="more than 4300 digits, too many to print"):
            print_poly(Poly(CTX, terms))


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

    @pytest.mark.parametrize("mono", [(1.5, 0, 0), (1.0, 0, 0), ("1", 0, 0), (None, 0, 0)])
    def test_rejects_a_non_int_exponent(self, mono):
        # x^1.5 would print as a term that does not parse back
        with pytest.raises(RingError, match="not an int"):
            Poly(CTX, {mono: 1})

    @pytest.mark.parametrize("coeff", [0.1, 2.0, "2", None, complex(1, 0)])
    def test_rejects_a_coefficient_that_is_not_exact(self, coeff):
        # 0.1 would be stored as 3602879701896397/36028797018963968
        with pytest.raises(RingError, match="not an int or Fraction"):
            Poly(CTX, {(1, 0, 0): coeff})

    @pytest.mark.parametrize("coeff", [0.5, "2", None])
    def test_const_refuses_a_coefficient_that_is_not_exact(self, coeff):
        with pytest.raises(RingError, match="not an int or Fraction"):
            Poly.const(CTX, coeff)

    def test_const_is_canonical(self):
        assert Poly.const(CTX, Fraction(4, 2)).terms == {(0, 0, 0): 2}
        assert type(Poly.const(CTX, Fraction(4, 2)).terms[(0, 0, 0)]) is int
        assert Poly.const(CTX, 0) == Poly.zero(CTX) == Poly(CTX)
        assert Poly.const(CTX, True) == Poly.one(CTX) == Poly(CTX, {(0, 0, 0): 1})

    @pytest.mark.parametrize("i", [-1, 3])
    def test_variable_refuses_an_index_out_of_range(self, i):
        with pytest.raises(RingError, match="out of range"):
            Poly.variable(CTX, i)
        with pytest.raises(RingError, match="out of range"):
            Form.d_var(CTX, i)

    def test_accepts_ints_and_fractions(self):
        p = Poly(CTX, {(1, 0, 0): Fraction(4, 2), (0, 1, 0): Fraction(1, 3), (0, 0, 1): 5})
        assert p.terms == {(1, 0, 0): 2, (0, 1, 0): Fraction(1, 3), (0, 0, 1): 5}
        assert type(p.terms[(1, 0, 0)]) is int

    def test_merges_and_drops_zero_terms(self):
        p = Poly(CTX, [((1, 0, 0), 2), ((1, 0, 0), -2), ((0, 1, 0), 1)])
        assert p.terms == {(0, 1, 0): Fraction(1)}

    def test_arithmetic_results_are_canonical(self):
        p = parse_poly("x + 2*y", CTX)
        q = parse_poly("x - y", CTX)
        assert (p - p).terms == {}
        assert (p * 0).terms == {}
        assert (p * q - q * p).terms == {}
        # integral coefficients are stored as int, others as Fraction, none
        # as float
        assert all(type(c) is int for c in (p * q + 3).terms.values())
        half = (p * Fraction(1, 2)).terms
        assert type(half[(1, 0, 0)]) is Fraction and type(half[(0, 1, 0)]) is int


class TestRingCtx:
    @pytest.mark.parametrize("names", [("x", "dx"), ("dx", "y", "x")])
    def test_refuses_a_variable_named_like_a_differential(self, names):
        with pytest.raises(RingError, match="variable 'dx' reads as the differential of 'x'"):
            RingCtx(names)

    def test_keeps_d_names_without_their_variable(self):
        assert RingCtx(("x", "dz", "d")).variables == ("x", "dz", "d")


class TestCalculus:
    @given(polys(CTX), polys(CTX))
    @settings(max_examples=40)
    def test_leibniz(self, a, b):
        for i in range(3):
            lhs = (a * b).partial_derivative(i)
            rhs = a.partial_derivative(i) * b + a * b.partial_derivative(i)
            assert lhs == rhs

    def test_known_derivative(self):
        p = parse_poly("x^2*y + z", CTX)
        assert p.partial_derivative(0) == parse_poly("2*x*y", CTX)
        assert p.partial_derivative(2) == Poly.one(CTX)


class TestOrder:
    def test_degrevlex_examples(self):
        # x^2 > x*y > y^2 > x > y for degrevlex with x > y
        c = ring("x", "y")
        ms = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        ordered = sorted(ms, key=c.monomial_key, reverse=True)
        assert ordered == [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1)]

    @pytest.mark.parametrize("order", ["degrevlex", "grlex", "lex"])
    def test_packed_terms_follow_the_position_over_term_order(self, order):
        # the Groebner engine packs a term (pos, m) into one int, and a
        # smaller int must be a larger term: lower position first, then the
        # larger monomial
        from mfchern.ideals import _Basis

        rng = random.Random(f"packed:{order}")
        ctx = RingCtx(("x", "y", "z", "w"), order)
        for width in (3, 5, 8):
            basis = _Basis(ctx, 6, width)

            def packed(term):
                v = [Poly.zero(ctx)] * 6
                v[term[0]] = Poly(ctx, {term[1]: 1})
                (key,) = basis.terms(v)
                return key

            terms = set()
            while len(terms) < 200:
                m = [rng.randint(0, basis.cap) for _ in range(4)]
                while sum(m) > basis.cap:
                    m[rng.randrange(4)] //= 2
                terms.add((rng.randrange(6), tuple(m)))
            want = sorted(terms, key=lambda t: ctx.monomial_key(t[1]), reverse=True)
            want.sort(key=lambda t: t[0])
            assert sorted(terms, key=packed) == want
            assert [basis.unpack(packed(t)) for t in want] == want

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

    def test_power_of_an_image_is_refused_before_expanding(self):
        tgt = ring("x", "y")
        images = (parse_poly("x+y+1", tgt), parse_poly("y", tgt))
        start = time.perf_counter()
        with pytest.raises(RingError, match=r"power \^300 of a 3-term image of 'x' "
                                            r"could expand to 45451 terms") as err:
            parse_poly("x^300*y", tgt).substitute(tgt, images)
        assert time.perf_counter() - start < 1
        assert not isinstance(err.value, ParseError)
        with pytest.raises(RingError, match=r"\^20000 of a 1-term image of 'x' could "
                                            r"have coefficients of more than 4300 digits"):
            parse_poly("x^20000", tgt).substitute(tgt, (parse_poly("2*x", tgt),) * 2)

    def test_product_of_powers_in_one_term_is_refused_before_expanding(self):
        tgt = ring("x", "y", "z")
        images = tuple(parse_poly(t, tgt) for t in ("x+y+1", "y+z+1", "z+x+1"))
        start = time.perf_counter()
        with pytest.raises(RingError, match=r"term x\^20\*y\^20\*z\^20: product of a "
                                            r"231-term and a 231-term factor") as err:
            parse_poly("x^20*y^20*z^20", tgt).substitute(tgt, images)
        assert time.perf_counter() - start < 1
        assert not isinstance(err.value, ParseError)
        # the same term along images whose products stay small goes through
        small = tuple(parse_poly(t, tgt) for t in ("x+1", "y", "z"))
        assert parse_poly("x^20*y^20*z^20", tgt).substitute(tgt, small) == parse_poly(
            "(x+1)^20*y^20*z^20", tgt)

    def test_substitution_shares_the_power_bound(self, monkeypatch):
        # (x+y)^e has e+1 terms: the parser's bound, exactly
        monkeypatch.setattr(ring_module, "MAX_POWER_TERMS", 10)
        tgt = ring("x", "y")
        images = (parse_poly("x+y", tgt), parse_poly("y", tgt))
        assert parse_poly("x^9", tgt).substitute(tgt, images) == parse_poly("(x+y)^9", tgt)
        with pytest.raises(RingError, match=r"\^10 of a 2-term image"):
            parse_poly("x^10", tgt).substitute(tgt, images)
        # a monomial image is never refused for its term count
        parse_poly("x^400*y^400", tgt).substitute(tgt, (images[1], images[1]))


# ---------------------------------------------------------------------------
# the matrix base shared by PolyMatrix and FormMatrix
# ---------------------------------------------------------------------------

def poly_entry(text):
    return parse_poly(text, CTX)


def form_entry(text):
    return parse_form(text, CTX)


KINDS = [(PolyMatrix, poly_entry, "x"), (FormMatrix, form_entry, "x*dy")]


@pytest.mark.parametrize("cls,entry,text", KINDS)
class TestMatrix:
    def test_blocks_refuses_a_misshapen_block_by_name(self, cls, entry, text):
        tall = cls(CTX, 2, 1, [[entry(text)], [entry(text)]])
        with pytest.raises(RingError, match=r"block \(0, 1\) is 2x1, not 1x1"):
            cls.blocks(CTX, (1, 2), (1, 1), {(0, 1): tall})
        with pytest.raises(RingError, match=r"block \(1, 0\) is 1x1, not 1x2"):
            cls.blocks(CTX, (1, 1), (2,), {(1, 0): cls.zeros(CTX, 1, 1)})
        with pytest.raises(RingError, match=r"block \(2, 0\) lies outside"):
            cls.blocks(CTX, (1, 1), (1,), {(2, 0): cls.zeros(CTX, 1, 1)})

    def test_blocks_places_blocks_and_zero_fills_the_rest(self, cls, entry, text):
        a = cls(CTX, 1, 2, [[entry(text), entry("1")]])
        b = cls.diagonal(CTX, 2, entry("y"))
        m = cls.blocks(CTX, (1, 2), (2, 1, 2), {(0, 0): a, (1, 2): b})
        z = cls._kind.zero(CTX)
        assert (m.rows, m.cols) == (3, 5)
        assert m.entries == (
            (entry(text), entry("1"), z, z, z),
            (z, z, z, entry("y"), z),
            (z, z, z, z, entry("y")),
        )
        assert cls.blocks(CTX, (2, 1), (1, 3), {}) == cls.zeros(CTX, 3, 4)

    def test_blocks_of_size_zero(self, cls, entry, text):
        # the inclusion into a cone whose second block row or column is empty
        one = cls.identity(CTX, 1)
        assert cls.blocks(CTX, (1, 0), (1,), {(0, 0): one}) == one
        assert cls.blocks(CTX, (0,), (0, 1), {(0, 0): cls.zeros(CTX, 0, 0)}) == (
            cls.zeros(CTX, 0, 1))
        col = cls(CTX, 2, 1, [[entry(text)], [entry("1")]])
        m = cls.blocks(CTX, (0, 2), (0, 1), {(1, 1): col})
        assert m.entries == ((entry(text),), (entry("1"),))
        with pytest.raises(RingError, match=r"block \(0, 0\) is 1x1, not 0x1"):
            cls.blocks(CTX, (0, 1), (1,), {(0, 0): one})

    def test_rejects_entry_of_the_other_kind(self, cls, entry, text):
        other = form_entry("dx") if cls is PolyMatrix else poly_entry("x")
        with pytest.raises(RingError, match="entry must be"):
            cls(CTX, 1, 1, [[other]])

    def test_rejects_negative_shape(self, cls, entry, text):
        with pytest.raises(RingError, match="negative"):
            cls(CTX, -1, 0, [])

    def test_rejects_entry_of_another_ring(self, cls, entry, text):
        with pytest.raises(RingError, match="wrong ring context"):
            cls(CTX, 1, 1, cls.identity(ring("u"), 1).entries)

    def test_blocks_refuses_a_block_of_the_other_kind(self, cls, entry, text):
        other = FormMatrix if cls is PolyMatrix else PolyMatrix
        with pytest.raises(RingError, match=rf"block \(1, 0\) is a {other.__name__}"):
            cls.blocks(CTX, (1, 1), (1,), {(0, 0): cls.identity(CTX, 1),
                                          (1, 0): other.identity(CTX, 1)})

    def test_blocks_refuses_a_block_over_another_ring(self, cls, entry, text):
        with pytest.raises(RingError, match=r"block \(0, 0\) in wrong ring context"):
            cls.blocks(CTX, (1,), (1,), {(0, 0): cls.identity(ring("u"), 1)})

    def test_diagonal_refuses_an_entry_of_the_other_kind_or_ring(self, cls, entry, text):
        other = form_entry("dx") if cls is PolyMatrix else poly_entry("x")
        for d in (other, cls._kind.one(ring("u"))):
            with pytest.raises(RingError, match="diagonal entry"):
                cls.diagonal(CTX, 2, d)

    def test_sized_constructors_refuse_a_negative_size(self, cls, entry, text):
        for build in (lambda: cls.zeros(CTX, 1, -1), lambda: cls.identity(CTX, -1),
                      lambda: cls.blocks(CTX, (2, -1), (1,), {})):
            with pytest.raises(RingError, match="negative matrix shape"):
                build()

    def test_identity_trace_and_arithmetic(self, cls, entry, text):
        m = cls(CTX, 2, 2, [[entry(text), entry("1")], [entry("y"), entry(text)]])
        assert m.trace() == entry(text) + entry(text)
        one = cls._kind.one(CTX)
        assert cls.identity(CTX, 3).trace() == one + one + one
        assert (m - m).is_zero() and m + (-m) == cls.zeros(CTX, 2, 2)
        with pytest.raises(RingError, match="non-square"):
            cls.zeros(CTX, 1, 2).trace()
        with pytest.raises(RingError, match="shape mismatch"):
            m + cls.zeros(CTX, 2, 1)

    def test_equality_hash_repr_immutability(self, cls, entry, text):
        assert cls.zeros(CTX, 2, 3) == cls.zeros(CTX, 2, 3)
        assert hash(cls.identity(CTX, 2)) == hash(cls.identity(CTX, 2))
        assert cls.zeros(CTX, 0, 0) != (
            FormMatrix if cls is PolyMatrix else PolyMatrix).zeros(CTX, 0, 0)
        assert repr(cls.zeros(CTX, 2, 3)) == f"{cls.__name__}(2x3)"
        with pytest.raises(AttributeError, match="immutable"):
            cls.zeros(CTX, 1, 1).rows = 2


def _koszul():
    return mf_1x1(ring("x", "y"), "x", "y")


# one builder of an instance of each immutable value type; two calls give
# equal values that share no object
VALUES = {
    "RingCtx": lambda: ring("x", "y"),
    "Poly": lambda: parse_poly("x*y + 1", CTX),
    "Form": lambda: parse_form("x*dy - dz", CTX),
    "PolyMatrix": lambda: PolyMatrix.identity(CTX, 2),
    "FormMatrix": lambda: FormMatrix.diagonal(CTX, 2, form_entry("x*dy")),
    "MatFac": _koszul,
    "StrictMorphism": lambda: identity_morphism(_koszul()),
    "Homotopy": lambda: contraction_of_identity_cone(_koszul()),
    "ConeResult": lambda: cone(identity_morphism(_koszul())),
    "ChainComplex": lambda: module_complex(CTX, 2),
    "Connection": lambda: connection_default(_koszul()),
    "AtiyahClass": lambda: atiyah(_koszul(), connection_default(_koszul())),
    "HomologyClass": lambda: chern_character(_koszul()),
    "RingMap": lambda: RingMap(CTX, CTX, tuple(poly_entry(v) for v in "yxz")),
    "KClass": lambda: kclass(_koszul(), 2),
    "GroebnerBasis": lambda: buchberger([poly_entry("x*y"), poly_entry("x^2")], CTX),
    "ModuleGB": lambda: module_buchberger(
        [(poly_entry("x"), poly_entry("y"))], 2, CTX),
}


@pytest.mark.parametrize("name", VALUES)
def test_every_value_type_is_one_frozen_value(name):
    a, b = VALUES[name](), VALUES[name]()
    assert type(a).__name__ == name and isinstance(a, Frozen)
    fields = [getattr(a, f) for f in a._fields]
    hash(a)  # fills Poly._hash on a only
    # the derived slots (Poly._hash, the Groebner _basis) differ between a
    # and b, and take no part in equality, hashing or repr
    for slot in set(type(a).__slots__) - set(a._fields):
        assert getattr(a, slot) is not getattr(b, slot, None)
        assert slot not in repr(a)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != (ring("y", "x") if name == "RingCtx" else ring("x", "y"))
    with pytest.raises(AttributeError, match="immutable"):
        setattr(a, a._fields[0], None)
    with pytest.raises(AttributeError, match="immutable"):
        delattr(a, a._fields[-1])
    with pytest.raises(TypeError):
        type(a)(*fields, None)
    assert copy.copy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a


def test_graded_trace_is_the_shared_trace():
    m = FormMatrix.diagonal(CTX, 2, form_entry("x*dy"))
    assert graded_trace(m) == m.trace() == form_entry("2*x*dy")
