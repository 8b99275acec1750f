import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobpde.cli import _rows
from frobpde.errors import ZeroConstantTerm
from frobpde.multiseries import (
    CSeries2,
    cauchy_mul,
    exp_series,
    index_key,
    norm,
    reciprocal,
    sqrt_series,
)
from frobpde.frobenius import prepare_coordinates
from helpers import (
    exact_exp,
    exact_prepare,
    exact_reciprocal,
    exact_sqrt,
    layer_relative_error,
    max_abs_diff,
)


def series(order, table):
    return CSeries2(order, table)


@st.composite
def small_series(draw, order=5, unit=False):
    table = {}
    for Q in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1)]:
        if draw(st.booleans()):
            table[Q] = complex(
                draw(st.floats(-3, 3, allow_nan=False)),
                draw(st.floats(-3, 3, allow_nan=False)),
            )
    if unit:
        c = table.get((0, 0), 0j)
        if abs(c) < 0.25:
            table[(0, 0)] = 1.0 + c
    return CSeries2(order, table)


@st.composite
def dyadic_series(draw, constant, monomials=((1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (3, 0))):
    """(CSeries2, exact table) of a series with dyadic coefficients, order 6-12."""
    order = draw(st.integers(6, 12))
    table = {(0, 0): Fraction(constant)}
    for Q in monomials:
        if draw(st.booleans()):
            table[Q] = Fraction(draw(st.integers(-16, 16)), 8)
    return CSeries2(order, {Q: float(v) for Q, v in table.items()}), table


class TestIndices:
    def test_norm_and_key(self):
        assert norm((3, 4)) == 7
        assert index_key((2, 1)) == (3, 2)


class TestCSeries2:
    def test_pruning_and_truncation(self):
        f = series(2, {(0, 0): 1.0, (1, 0): 0.0, (2, 1): 5.0})
        assert (1, 0) not in f.coeffs
        assert (2, 1) not in f.coeffs  # beyond order 2
        assert f.get((0, 0)) == 1.0

    def test_immutable(self):
        f = CSeries2.one(3)
        with pytest.raises(AttributeError):
            f.order = 5

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            series(3, {(-1, 0): 1.0})

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            series(3, {(0, 0): float("inf")})
        with pytest.raises(ValueError, match=r"non-finite coefficient \(1\+nanj\)"):
            series(3, {(0, 0): 2.0, (1, 1): complex(1, float("nan"))})
        assert series(1, {(0, 0): 2.0, (1, 1): float("nan")}).coeffs == {(0, 0): 2.0}  # beyond the order

    def test_equality_structural(self):
        assert series(3, {(1, 1): 2.0}) == series(3, {(1, 1): 2.0, (0, 1): 0.0})
        assert series(3, {}) != series(4, {})

    def test_arithmetic(self):
        f = series(3, {(0, 0): 1.0, (1, 0): 2.0})
        g = series(3, {(1, 0): -2.0, (0, 1): 1.0})
        assert (f + g) == series(3, {(0, 0): 1.0, (0, 1): 1.0})
        assert (f - f) == CSeries2(3)
        assert (-f).get((1, 0)) == -2.0

    def test_mul_known_product(self):
        one_minus_x = series(4, {(0, 0): 1.0, (1, 0): -1.0})
        one_plus_x = series(4, {(0, 0): 1.0, (1, 0): 1.0})
        assert cauchy_mul(one_minus_x, one_plus_x) == series(4, {(0, 0): 1.0, (2, 0): -1.0})

    def test_mul_truncates_to_min_order(self):
        f = series(2, {(1, 1): 1.0})
        g = series(5, {(1, 0): 1.0})
        assert cauchy_mul(f, g).order == 2
        assert cauchy_mul(f, g) == CSeries2(2)  # (2,1) beyond order 2

    def test_transpose(self):
        f = series(3, {(2, 1): 3.0, (1, 0): 1.0})
        assert f.transpose() == series(3, {(1, 2): 3.0, (0, 1): 1.0})

    def test_evaluate(self):
        f = series(3, {(0, 0): 1.0, (1, 0): 2.0, (0, 1): 3.0, (1, 1): 4.0})
        assert f.evaluate(0.5, 0.25) == pytest.approx(1 + 1.0 + 0.75 + 0.5)

    def test_json_round_trip(self):
        f = series(4, {(0, 0): 1.0, (2, 1): 1 + 2j})
        data = _rows(f)
        assert data == [[0, 0, 1.0, 0.0], [2, 1, 1.0, 2.0]]
        assert CSeries2(4, {(q1, q2): complex(re, im) for q1, q2, re, im in data}) == f


class TestReciprocal:
    def test_geometric(self):
        f = series(5, {(0, 0): 1.0, (1, 0): -1.0})  # 1 - x
        inv = reciprocal(f)
        for n in range(6):
            assert inv.get((n, 0)) == pytest.approx(1.0)

    def test_zero_constant_refused(self):
        with pytest.raises(ZeroConstantTerm):
            reciprocal(series(3, {(1, 0): 1.0}))

    @given(small_series(unit=True))
    @settings(max_examples=60, deadline=None)
    def test_involution(self, f):
        assert max_abs_diff(reciprocal(reciprocal(f)), f) < 1e-9 * (
            1 + max(abs(v) for v in f.coeffs.values())
        )

    @given(small_series(unit=True))
    @settings(max_examples=60, deadline=None)
    def test_product_is_one(self, f):
        assert max_abs_diff(cauchy_mul(f, reciprocal(f)), CSeries2.one(f.order)) < 1e-9


class TestRingProperties:
    @given(small_series(), small_series())
    @settings(max_examples=60, deadline=None)
    def test_mul_commutative(self, f, g):
        # summation order differs, so allow rounding at the last ulp
        assert max_abs_diff(cauchy_mul(f, g), cauchy_mul(g, f)) < 1e-12

    @given(small_series(), small_series(), small_series())
    @settings(max_examples=60, deadline=None)
    def test_mul_associative(self, f, g, h):
        lhs = cauchy_mul(cauchy_mul(f, g), h)
        rhs = cauchy_mul(f, cauchy_mul(g, h))
        assert max_abs_diff(lhs, rhs) < 1e-7

    @given(small_series(), small_series(), small_series())
    @settings(max_examples=60, deadline=None)
    def test_distributive(self, f, g, h):
        lhs = cauchy_mul(f, g + h)
        rhs = cauchy_mul(f, g) + cauchy_mul(f, h)
        assert max_abs_diff(lhs, rhs) < 1e-9


class TestAnalyticTransforms:
    def test_sqrt_squares_back(self):
        f = series(6, {(0, 0): 4.0, (1, 0): 1.0, (0, 1): -0.5, (1, 1): 0.25})
        g = sqrt_series(f)
        assert g.constant_term() == pytest.approx(2.0)
        assert max_abs_diff(cauchy_mul(g, g), f) < 1e-12

    def test_sqrt_zero_constant_refused(self):
        with pytest.raises(ZeroConstantTerm):
            sqrt_series(series(3, {(1, 0): 1.0}))

    def test_exp_of_x(self):
        g = exp_series(series(6, {(1, 0): 1.0}))
        for n in range(7):
            assert g.get((n, 0)) == pytest.approx(1.0 / math.factorial(n))

    @given(small_series(), small_series())
    @settings(max_examples=40, deadline=None)
    def test_exp_additive(self, f, g):
        lhs = exp_series(f + g)
        rhs = cauchy_mul(exp_series(f), exp_series(g))
        scale = 1 + max((abs(v) for v in rhs.coeffs.values()), default=0.0)
        assert max_abs_diff(lhs, rhs) < 1e-7 * scale


class TestExactReferences:
    """Series operations against exact rational references that do not use
    Miller's formula, layer-relative error at most 1e-14."""

    GATE = 1e-14

    @given(dyadic_series(1))
    @settings(max_examples=60, deadline=None)
    def test_reciprocal(self, drawn):
        f, exact = drawn
        assert layer_relative_error(reciprocal(f), exact_reciprocal(exact, f.order)) <= self.GATE

    @given(dyadic_series(1))
    @settings(max_examples=60, deadline=None)
    def test_sqrt(self, drawn):
        f, exact = drawn
        assert layer_relative_error(sqrt_series(f), exact_sqrt(exact, f.order)) <= self.GATE

    @given(dyadic_series(0))
    @settings(max_examples=60, deadline=None)
    def test_exp(self, drawn):
        f, exact = drawn
        assert layer_relative_error(exp_series(f), exact_exp(exact, f.order)) <= self.GATE

    @given(
        st.sampled_from([-2, -1, -0.5, -0.25, 0.25, 0.5, 1, 3]),
        dyadic_series(1, monomials=((1, 0), (2, 0), (3, 0))),
        dyadic_series(1, monomials=((1, 0), (2, 0))),
    )
    @settings(max_examples=60, deadline=None)
    def test_prepare_coordinates(self, a0, drawn_a, drawn_c):
        (A, exact_a), (C, exact_c) = drawn_a, drawn_c
        A, C = cauchy_mul(CSeries2.constant(a0, A.order), A), CSeries2(A.order, C.coeffs).transpose()
        f, g = prepare_coordinates(A, C)
        assert layer_relative_error(f, exact_prepare({Q: Fraction(a0) * v for Q, v in exact_a.items()}, A.order)) <= self.GATE
        assert layer_relative_error(g.transpose(), exact_prepare(exact_c, A.order)) <= self.GATE
