import random
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
    print_form,
    wedge,
)
from mfchern.ring import ParseError, RingError

from conftest import polys, rand_poly, ring

CTX = ring("x", "y", "z")


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

    @pytest.mark.parametrize("bad", ["dx^", "dx^x", "dw", "x^dy"])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_form(bad, CTX)

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
