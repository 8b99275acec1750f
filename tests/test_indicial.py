import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frobpde.cli import _dump, _scan_json
from frobpde.errors import BasePointNotOnConic, ComplexCoefficients, NoSolution
from frobpde.expr_parser import parse_expr, to_series
from frobpde.frobenius import RegularSingularPDE, solve
from frobpde.indicial import (
    ALL_SOLUTIONS,
    IndicialConic,
    classify,
    resonance_scan,
    solve_for_s,
    unit_scale,
)


def conic(cA, cB, cC, cD, cE, cF):
    return IndicialConic(*(complex(v) for v in (cA, cB, cC, cD, cE, cF)))


def pde_conic(A, B, C, a, b, c, params=None, order=6):
    series = [to_series(parse_expr(t), params or {}, order) for t in (a, b, c)]
    return RegularSingularPDE(A, B, C, *series).conic()


class TestConstruction:
    def test_from_regular_singular(self):
        # Bessel I with nu = 2: P = (r+s)^2 - 4
        p = pde_conic(1, 2, 1, "1", "1", "x^2 - 4")
        assert p.coefficients() == (1, 2, 1, 0, 0, -4)
        assert p.evaluate(2, 0) == 0
        assert p.evaluate(1, 1) == 0

    def test_only_constant_terms_matter(self):
        p = pde_conic(1, 0, 0, "1 + 7*x - y^2", "-1 + x*y", "3*x")
        assert p.coefficients() == (1, 0, 0, 0, -1, 0)

    def test_from_euler(self):
        p = IndicialConic.from_euler(1, 0, 1, 3, 4, 5)
        assert p.coefficients() == (1, 0, 1, 2, 3, 5)

    def test_evaluate(self):
        p = conic(1, 0, 0, 0, -1, 0)  # r^2 - s (heat)
        assert p.evaluate(0.5, 0.25) == 0
        assert p.evaluate(2, 1) == 3

    def test_to_json_stable(self):
        assert json.loads(_dump(conic(1, 2, 3, 4, 5, 6))) == {
            "cA": [1.0, 0.0],
            "cB": [2.0, 0.0],
            "cC": [3.0, 0.0],
            "cD": [4.0, 0.0],
            "cE": [5.0, 0.0],
            "cF": [6.0, 0.0],
        }


class TestClassify:
    def test_ellipse(self):
        c = classify(conic(1, 0, 1, 0, 0, -1))
        assert c.discriminant_class == "elliptic"
        assert not c.degenerate
        assert c.degenerate_kind == "none"

    def test_hyperbola(self):
        assert classify(conic(1, 0, -1, 0, 0, -1)).discriminant_class == "hyperbolic"

    def test_parabola(self):
        c = classify(conic(1, 2, 1, 1, 0, 0))
        assert c.discriminant_class == "parabolic"

    def test_crossing_lines_degenerate(self):
        # rs = 0: hyperbolic, two crossing lines
        c = classify(conic(0, 1, 0, 0, 0, 0))
        assert c.discriminant_class == "hyperbolic"
        assert c.degenerate
        assert c.degenerate_kind == "two_crossing_lines"

    def test_repeated_line_degenerate(self):
        # (r+s)^2 = 0
        c = classify(conic(1, 2, 1, 0, 0, 0))
        assert c.degenerate
        assert c.degenerate_kind == "parallel_or_repeated_lines"

    def test_complex_refused(self):
        with pytest.raises(ComplexCoefficients):
            classify(conic(1j, 0, 1, 0, 0, 0))

    def test_all_zero_refused(self):
        with pytest.raises(ValueError):
            classify(conic(0, 0, 0, 0, 0, 0))

    @given(
        st.floats(0.1, 100, allow_nan=False),
        st.sampled_from(
            [(1, 0, 1, 0, 0, -1), (1, 0, -1, 0, 0, -1), (1, 2, 1, 1, 0, 0), (0, 1, 0, 0, 0, 0)]
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, scale, coeffs):
        base = classify(conic(*coeffs))
        scaled = classify(conic(*(scale * v for v in coeffs)))
        assert scaled == base

    @given(
        st.lists(st.integers(-20, 20), min_size=6, max_size=6).filter(lambda c: max(map(abs, c[:3])) >= 1),
        st.integers(-1000, 1000),
    )
    @example([1, 0, -1, 0, 0, 0], 1000)  # two crossing lines
    @example([1, 2, 1, 2, 2, 1], 1000)  # a repeated line
    @example([1, 0, 1, -1, -1, 1], 600)  # the conic of `euler 1 0 1 0 0 1`
    @example([1, 0, 1, -1, -1, 1], -1000)
    @example([0, 1, 0, 0, 0, 0], -15)  # rs: a hyperbola, not a parabola
    @example([0, 0, 1, 0, 0, 0], -513)  # squares of 2^513 overflow
    @settings(max_examples=100, deadline=None)
    def test_power_of_two_scale_invariance(self, coeffs, j):
        # products of coefficients near 2^1000 overflow, and near 2^-1000
        # underflow, unless the test is scaled; no test has an absolute floor
        assert classify(conic(*(2.0 ** j * v for v in coeffs))) == classify(conic(*coeffs))

    @pytest.mark.parametrize("numbers, unit", [
        ([0.0, 0j], 1.0), ([0.75, -0.5], 1.0), ([3, 1], 0.25), ([0.5, 8j - 1], 2.0 ** -4),
        ([2.0 ** -1022], 2.0 ** 1021), ([5e-324], 2.0 ** 1023),
    ])
    def test_unit_scale(self, numbers, unit):
        assert unit_scale(numbers) == unit

    def test_subnormal_conic(self):
        # the unit stops at 2^1023, so a subnormal conic is classified, not overflowed
        tiny = 2.0 ** -1070
        assert classify(conic(tiny, 0, tiny, 0, 0, 0)) == classify(conic(1, 0, 1, 0, 0, 0))

    def test_swap_invariance(self):
        # swapping (r, s) maps (A,B,C,D,E,F) -> (C,B,A,E,D,F); class is unchanged
        c1 = classify(conic(2, 1, 3, -1, 4, 1))
        c2 = classify(conic(3, 1, 2, 4, -1, 1))
        assert c1 == c2


class TestSolveForS:
    def test_two_roots_sorted(self):
        roots = solve_for_s(conic(1, 0, 1, 0, 0, -25), 3)  # s^2 = 16
        assert roots == [(-4 + 0j), (4 + 0j)]

    def test_single_root_when_linear(self):
        roots = solve_for_s(conic(1, 0, 0, 0, -1, 0), 0.5)  # heat: s = r^2
        assert roots == [0.25 + 0j]

    def test_double_root_collapses(self):
        roots = solve_for_s(conic(0, 0, 1, 0, -2, 1), 7)  # (s-1)^2
        assert roots == [1 + 0j]

    def test_complex_roots(self):
        roots = solve_for_s(conic(1, 0, 1, 0, 0, 1), 0)  # s^2 = -1
        assert roots == [-1j, 1j]

    def test_no_solution(self):
        with pytest.raises(NoSolution):
            solve_for_s(conic(1, 0, 0, 0, 0, -4), 1)  # 1 - 4 = -3 != 0

    def test_huge_row_has_finite_roots(self):
        # lin^2 and 4 quad const overflow; the row is rescaled, and the roots with it
        roots = solve_for_s(conic(1e200, 0, 1e200, -1e200, -1e200, 1e200), 0)
        assert roots == pytest.approx([0.5 - 0.75 ** 0.5 * 1j, 0.5 + 0.75 ** 0.5 * 1j])

    def test_rescue_that_underflows_quad_gives_the_finite_root(self):
        # the scaled quad underflows to 0; the other root, about 1.1e483, is beyond the float range
        c = IndicialConic(3.273390607896142e+156, 0, 9.332636185032189e-296, 1.8665272370064378e-295,
                          -1.0317204618990469e+188, 0)
        assert solve_for_s(c, 0) == [0j]

    def test_rescue_that_underflows_quad_without_lin_gives_both_roots(self):
        # the scaled quad underflows to 0 and lin = 0: the roots come from the unscaled row
        c = IndicialConic(0, 0, 5e-324, 0, 0, 1)
        assert solve_for_s(c, 0) == [-4.4989137945431964e+161j, 4.4989137945431964e+161j]
        assert solve_for_s(c._replace(cF=-1), 0) == [-4.4989137945431964e+161, 4.4989137945431964e+161]

    def test_rescue_that_underflows_quad_and_lin_gives_both_roots(self):
        # the scaled quad and lin both underflow to 0 while lin != 0: -0.5 +- i sqrt(1 / 5e-324 - 1 / 4)
        c = IndicialConic(0, 0, 5e-324, 0, 5e-324, 1)
        assert solve_for_s(c, 0) == [-0.5 - 4.4989137945431964e+161j, -0.5 + 4.4989137945431964e+161j]

    @pytest.mark.parametrize("row, r", [
        ((0, 0, 5e-324, 0, 0, 1e300), 0),  # sqrt(-2e-23) / 1e-323: both roots overflow, no rescue runs
        ((3, -2 + 2j, -0.061738121572278315, -0.765474725274937, 0.7827070784084487, -3),
         -5.444194948896026e289),  # const overflows: the roots are nan
    ])
    def test_roots_beyond_the_float_range_left_out(self, row, r):
        assert solve_for_s(IndicialConic(*row), r) == []

    def test_all_solutions_sentinel(self):
        assert solve_for_s(conic(1, 0, 0, 0, 0, -4), 2) is ALL_SOLUTIONS

    @given(
        st.lists(st.integers(-20, 20), min_size=6, max_size=6),
        st.integers(-5, 5),
        st.integers(-1000, 1000),
    )
    @example([1, 0, 1, -1, -1, 1], 0, -1000)  # lin^2 and 4 quad const underflow to 0
    @example([1, 0, 1, -1, -1, 1], 0, 1000)  # and overflow
    @example([1, 2, 1, 0, 0, 0], 3, -700)  # a Laguerre row: lin^2 = 4 quad const exactly
    @settings(max_examples=200, deadline=None)
    def test_power_of_two_scale_invariance(self, coeffs, r, j):
        # the roots of 2^j P(r, s) are those of P(r, s), bit for bit
        def roots(c):
            try:
                found = solve_for_s(c, r)
            except NoSolution:
                return "none"
            return "all" if found is ALL_SOLUTIONS else [(z.real.hex(), z.imag.hex()) for z in found]

        assert roots(conic(*(2.0 ** j * v for v in coeffs))) == roots(conic(*coeffs))


class TestResonanceScan:
    def test_off_conic_refused(self):
        with pytest.raises(BasePointNotOnConic):
            resonance_scan(conic(1, 0, 0, 0, -1, 0), 1, 2, 10)

    def test_bound_below_one_refused(self):
        with pytest.raises(ValueError, match="scan bound N must be >= 1"):
            resonance_scan(conic(1, 0, 0, 0, -1, 0), 1, 1, 0)

    def test_clean_scan(self):
        # Bessel I nu=0 at (0,0): P(q1,q2) = (q1+q2)^2 > 0 for |Q| >= 1
        rep = resonance_scan(conic(1, 2, 1, 0, 0, 0), 0, 0, 25)
        assert rep.hits == ()
        assert rep.nonresonant_up_to == 25

    def test_heat_hits(self):
        # r^2 - s at (1/2, 1/4): hits where q2 = q1^2 + q1
        rep = resonance_scan(conic(1, 0, 0, 0, -1, 0), 0.5, 0.25, 12)
        assert rep.hit_indices() == [(1, 2), (2, 6)]
        assert rep.nonresonant_up_to == 2

    def test_sigma_zero_airy_hits(self):
        # (r+s)(r+s-1) at r+s=0 hits the unit layer
        rep = resonance_scan(conic(1, 2, 1, -1, -1, 0), 0, 0, 10)
        assert rep.hit_indices() == [(0, 1), (1, 0)]

    def test_canonical_hit_order(self):
        rep = resonance_scan(conic(1, 2, 1, -1, -1, 0), 0.5, -0.5, 10)
        assert rep.hit_indices() == sorted(rep.hit_indices(), key=lambda Q: (Q[0] + Q[1], Q[0]))

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, -1e-300, float("-inf")])
    def test_tolerance_not_a_number_or_negative_refused(self, tol):
        # a NaN tol would turn the on-conic check and every comparison off:
        # r^2 + s^2 at (3, 0.5), where P = 9.25
        with pytest.raises(ValueError, match="tolerance must be a number >= 0"):
            resonance_scan(conic(1, 0, 1, 0, 0, 0), 3, 0.5, 6, tol=tol)
        a, b, c = (to_series(parse_expr(t), {}, 6) for t in ("1", "1", "-x^2-y^2"))
        with pytest.raises(ValueError, match="tolerance must be a number >= 0"):
            solve(RegularSingularPDE(1, 0, 1, a, b, c), 3, 0.5, 6, tol=tol)

    def test_nan_point_is_not_on_the_conic(self):
        with pytest.raises(BasePointNotOnConic, match="nan"):
            resonance_scan(conic(1, 0, 0, 0, -1, 0), math.nan, 0, 6)
        a, b, c = (to_series(parse_expr(t), {}, 6) for t in ("1", "1", "x^2"))
        with pytest.raises(BasePointNotOnConic):
            solve(RegularSingularPDE(1, 2, 1, a, b, c), 0, math.nan, 6)

    def test_tolerance_zero_and_infinite(self):
        with pytest.raises(BasePointNotOnConic):  # |P| >= 0 everywhere
            resonance_scan(conic(1, 0, 0, 0, -1, 0), 0.5, 0.25, 6, tol=0.0)
        rep = resonance_scan(conic(1, 0, 1, 0, 0, -9.25), 3, 0.5, 6, tol=float("inf"))
        assert len(rep.hits) == 6 * 9 // 2  # every finite |P| is below inf

    def test_json_round(self):
        rep = resonance_scan(conic(1, 0, 0, 0, -1, 0), 0.5, 0.25, 6)
        data = json.loads(_dump(_scan_json(rep)))
        assert data["bound"] == 6
        assert data["hits"] == [[1, 2, 0.0]]
