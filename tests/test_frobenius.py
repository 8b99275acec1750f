import json
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from frobpde import catalog
from frobpde.cli import _dump, _rows, _solution_json
from frobpde.errors import (
    BasePointNotOnConic,
    ResonantPoint,
    ZeroConstantTerm,
)
from frobpde.expr_parser import parse_expr, to_series
from frobpde.frobenius import (
    RegularSingularPDE,
    _lstsq,
    convergence_report,
    prepare_coordinates,
    radius_estimate,
    solve,
)
from frobpde.multiseries import CSeries2, cauchy_mul
from helpers import max_abs_diff


def make_pde(A, B, C, a, b, c, params=None, order=12):
    series = [to_series(parse_expr(t), params or {}, order) for t in (a, b, c)]
    return RegularSingularPDE(A, B, C, *series)


class TestConvergenceReport:
    def test_parabolic_real_type(self):
        rep = convergence_report(1, 2, 1)
        assert rep.parabolic_real_type
        assert rep.any

    def test_parabolic_scaled(self):
        assert convergence_report(4, 4, 1).parabolic_real_type

    def test_elliptic(self):
        rep = convergence_report(1, 0, 1)
        assert rep.elliptic_condition and not rep.hyperbolic_condition
        assert rep.any

    def test_hyperbolic(self):
        rep = convergence_report(1, 0, -1)
        assert rep.hyperbolic_condition and not rep.elliptic_condition

    def test_general_sufficient(self):
        rep = convergence_report(1, 1, 1)
        assert rep.general_sufficient

    def test_heat_has_none(self):
        rep = convergence_report(1, 0, 0)
        assert not rep.any

    @given(
        st.lists(st.builds(complex, st.integers(-20, 20), st.integers(-20, 20)), min_size=3, max_size=3),
        st.integers(-1000, 1000),
    )
    @example([1, 0, 1], -664)  # Laplace at about 1e-200: not parabolic of real type
    @example([1, 2, 1], 600)  # |B|^2 overflows unless the test is scaled
    @settings(max_examples=100, deadline=None)
    def test_power_of_two_scale_invariance(self, ABC, j):
        assert convergence_report(*(2.0 ** j * v for v in ABC)) == convergence_report(*ABC)

    def test_json(self):
        sol = solve(make_pde(1, 2, 1, "1", "1", "x^2"), 0, 0, 4)
        assert sol.convergence == convergence_report(1, 2, 1)
        data = json.loads(_dump(_solution_json(sol)))["convergence"]
        assert data["parabolic_real_type"] is True
        assert data["any"] is True


class TestSolveBasics:
    def test_off_conic_refused(self):
        pde = make_pde(1, 2, 1, "1", "1", "x^2")
        with pytest.raises(BasePointNotOnConic):
            solve(pde, 1, 1, 5)

    def test_unit_leading_coefficient(self):
        pde = make_pde(1, 2, 1, "1", "1", "x^2")
        sol = solve(pde, 0, 0, 10)
        assert sol.get((0, 0)) == 1.0
        assert sol.order == 10

    def test_bessel_closed_form(self):
        pde = make_pde(1, 2, 1, "1", "1", "x^2", order=20)
        sol = solve(pde, 0, 0, 20)
        for n in range(11):
            expect = (-1) ** n / (4.0 ** n * math.factorial(n) ** 2)
            assert sol.get((2 * n, 0)) == pytest.approx(expect, rel=1e-12)
        offs = [Q for Q in sol.coeffs if Q[1] != 0 or Q[0] % 2]
        assert offs == []

    def test_resonant_strict_refusal_carries_hits(self):
        pde = make_pde(1, 2, 1, "0", "0", "-x^3")  # sigma = 0 base point
        with pytest.raises(ResonantPoint) as info:
            solve(pde, 0, 0, 10)
        assert {tuple(Q) for Q, _ in info.value.hits} == {(1, 0), (0, 1)}

    def test_skip_removable_heat(self):
        pde = make_pde(1, 0, 0, "1 - x*y", "-1", "0")
        sol = solve(pde, 0.5, 0.25, 12, resonance_policy="skip_removable")
        for n in range(1, 7):
            expect = 1.0
            for k in range(1, n + 1):
                expect *= (k - 0.5) / ((k + 0.5) ** 2 - (k + 0.25))
            assert sol.get((n, n)) == pytest.approx(expect, rel=1e-12)
        # certificate still records the hits
        assert sol.resonance_certificate.hit_indices() == [(1, 2), (2, 6)]

    def test_skip_removable_still_refuses_essential(self):
        # c = -x adds an essential contribution at the resonant shift (0,1)
        pde = make_pde(1, 2, 1, "0", "0", "-y")
        with pytest.raises(ResonantPoint):
            solve(pde, 0, 0, 6, resonance_policy="skip_removable")

    def test_order_beyond_the_pde_refused(self):
        # c at order 10 has lost its x^12 term, which sets D_(12,0) of the
        # order-20 solution: the table would be that of another PDE
        text = "x^2 - 0.25 + x^12"
        with pytest.raises(ValueError, match="exceeds the order 10 of the PDE series"):
            solve(make_pde(1, 2, 1, "1", "1", text, order=10), 0.5, 0, 20)
        sol = solve(make_pde(1, 2, 1, "1", "1", text, order=20), 0.5, 0, 20)
        assert sol.get((12, 0)) == pytest.approx(-6.41e-3, rel=1e-3)

    def test_unknown_policy(self):
        pde = make_pde(1, 2, 1, "1", "1", "x^2")
        with pytest.raises(ValueError):
            solve(pde, 0, 0, 5, resonance_policy="lenient")

    def test_layer_sums(self):
        pde = make_pde(1, 2, 1, "1", "1", "x^2")
        sol = solve(pde, 0, 0, 8)
        sums = sol.layer_sums()
        assert sums[0] == 1.0
        assert sums[2] == pytest.approx(0.25)
        assert sums[1] == 0.0

    def test_json_and_csv(self):
        pde = make_pde(1, 2, 1, "1", "1", "x^2")
        sol = solve(pde, 0, 0, 4)
        data = json.loads(_dump(_solution_json(sol)))
        assert data["coeffs"][0] == [0, 0, 1.0, 0.0]
        assert _rows(sol)[1] == [2, 0, -0.25, 0.0]

    def test_pickle_round_trip(self):
        pde = make_pde(1, 2, 1, "1", "1", "x^2")
        sol = solve(pde, 0, 0, 6)
        back = pickle.loads(pickle.dumps(sol))
        assert back == sol and _dump(_solution_json(back)) == _dump(_solution_json(sol))


class TestClearedDenominators:
    def test_cleared_polynomials(self):
        pde = make_pde(1, 2, 1, "1/(1-x)", "2 + y/(1-y)", "x*y/(1-x) - 0.25", order=10)
        q, a, b, c = pde.cleared()
        one_x, one_y = (to_series(parse_expr(t), {}, 10) for t in ("1 - x", "1 - y"))
        assert q == cauchy_mul(one_x, one_y)
        assert a == one_y and b == to_series(parse_expr("(2 - y)*(1 - x)"), {}, 10)
        assert c == to_series(parse_expr("x*y*(1 - y) - 0.25*(1 - x)*(1 - y)"), {}, 10)
        poly = make_pde(1, 2, 1, "1 - x", "1", "x^2", order=10)
        assert poly.cleared() == (CSeries2.one(10), poly.a, poly.b, poly.c)

    def test_distinct_denominators_match_the_dense_path(self):
        # q = (1 - x)(1 - y) with variable q A, q B, q C, against the same
        # a, b, c expanded into dense series, which carry no fraction
        N = 30
        pde = make_pde(1, 2, 1, "1/(1-x)", "2 + y/(1-y)", "x*y/(1-x) - 0.25", order=N)
        dense = RegularSingularPDE(1, 2, 1, *(CSeries2(N, f.coeffs) for f in (pde.a, pde.b, pde.c)))
        assert dense.cleared()[0] == CSeries2.one(N)
        s0 = (math.sqrt(2) - 1) / 2  # P(0, s) = s^2 + s - 1/4
        sol = solve(pde, 0, s0, N)
        ref = solve(dense, 0, s0, N)
        assert max_abs_diff(sol, ref) <= 1e-13 * max(abs(v) for v in ref.coeffs.values())


class TestRadiusEstimate:
    def test_planted_geometric(self):
        for rho in (0.25, 2.0, 7.5):
            table = {(n, 0): rho ** (-n) for n in range(41)}
            est = radius_estimate(table, order=40)
            assert est == pytest.approx(rho, rel=0.05)

    def test_terminating_series_infinite(self):
        table = {(0, 0): 1.0, (1, 0): 1.0}
        assert radius_estimate(table, order=30) == math.inf

    def test_requires_order_ten(self):
        with pytest.raises(ValueError):
            radius_estimate({(0, 0): 1.0}, order=5)

    def test_solution_input(self):
        pde = make_pde(1, 2, 1, "1", "1", "x^2", order=40)
        sol = solve(pde, 0, 0, 40)
        assert radius_estimate(sol) > 10.0

    def test_sparse_layers_handled(self):
        # support on layers 0, 3, 6, ... with rate 2^-n overall
        table = {(3 * n, 0): 2.0 ** (-3 * n) for n in range(11)}
        est = radius_estimate(table, order=30)
        assert est == pytest.approx(2.0, rel=0.05)

    # Known radii.  Ratios that drift in 1/n and 1/n^2 are where a fit of
    # degree 1 misses by more than 1e-3 (period 3, legendre_II, chebyshev_II).

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 3.0])
    def test_inverse_power(self, k):
        # (1-x)^-k: D_n = (k)_n / n!, radius 1
        coeff = [1.0]
        for n in range(1, 41):
            coeff.append(coeff[-1] * (n - 1 + k) / n)
        table = {(n, 0): c for n, c in enumerate(coeff)}
        assert radius_estimate(table, order=40) == pytest.approx(1.0, rel=1e-3)

    def test_logarithm(self):
        # log(1-x) = -sum x^n / n, radius 1
        table = {(n, 0): -1.0 / n for n in range(1, 41)}
        assert radius_estimate(table, order=40) == pytest.approx(1.0, rel=1e-3)

    def test_period_three(self):
        # Airy-sparse layers: (1 - (x/2)^3)^-2 = sum (m+1) (x/2)^{3m}, radius 2
        table = {(3 * m, 0): (m + 1) * 2.0 ** (-3 * m) for m in range(14)}
        assert radius_estimate(table, order=40) == pytest.approx(2.0, rel=1e-3)

    def test_conjugate_pair(self):
        # singularities at 2 e^{+-i}: the ratios oscillate and are not extrapolated
        table = {(n, 0): 2.0 ** -n * abs(math.sin(n + 1.0)) / math.sin(1.0) for n in range(41)}
        assert radius_estimate(table, order=40) == pytest.approx(2.0, rel=0.05)

    def test_entire_series_infinite(self):
        # exp(x): ratios 1/n extrapolate to a rate at rounding level
        table = {(n, 0): 1.0 / math.factorial(n) for n in range(41)}
        assert radius_estimate(table, order=40) == math.inf

    # The fallbacks: tables whose ratios cannot be extrapolated, truncated at
    # their highest layer (no order given).

    def test_single_layer(self):
        # one nonzero layer: no period, and the rate is d_12^(1/12) = 2
        assert radius_estimate({(12, 0): 4096.0}) == 0.5

    def test_zero_layer_on_the_progression(self):
        # period 2 with layer 16 missing: the log-linear slope gives rate 1/2
        table = {(n, 0): 2.0 ** -n for n in range(0, 21, 2) if n != 16}
        assert radius_estimate(table) == pytest.approx(2.0, abs=1e-15)

    def test_overflowing_rate(self):
        # one ratio in the top half, and a log-linear slope whose exponential overflows
        assert radius_estimate({(9, 0): 1e-300, (10, 0): 1e300}) == 0.0

    @pytest.mark.parametrize(
        "name, params",
        [("legendre_I", {"lam": 0.7}), ("legendre_II", {"lam": 0.7}), ("chebyshev_II", {"p": 0.7})],
    )
    def test_unit_radius_models(self, name, params):
        # the coefficients carry 1/(1-x^2) or 1/(1-xy): radius 1
        sol = catalog.solve_entry(catalog.entry(name, **params), 0.5, 0.5, 40)
        assert radius_estimate(sol) == pytest.approx(1.0, rel=1e-3)


class TestLstsq:
    # the abscissae of the two callers: 1/n for the ratio fit, n for the
    # log-linear fit, over a top-half window of layers
    WINDOWS = {"1/n": [1.0 / n for n in range(20, 41)], "n": [float(n) for n in range(20, 41)]}

    @given(st.sampled_from(sorted(WINDOWS)), st.integers(1, 2).flatmap(
        lambda degree: st.lists(st.floats(-100, 100), min_size=degree + 1, max_size=degree + 1)))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_exact_polynomial_recovered(self, window, coeffs):
        # ordinates rounded once from the exact polynomial in t; 100000 random
        # draws came within 26 ulp of the largest coefficient
        assume(max(map(abs, coeffs)) >= 1.0)
        xs = self.WINDOWS[window]
        mid = (max(xs) + min(xs)) / 2
        half = (max(xs) - min(xs)) / 2
        ts = [Fraction((x - mid) / half) for x in xs]
        ys = [float(sum(Fraction(c) * t ** k for k, c in enumerate(coeffs))) for t in ts]
        got, got_mid, got_half = _lstsq(xs, ys, len(coeffs) - 1)
        assert (got_mid, got_half) == (mid, half)
        ulp = math.ulp(max(map(abs, coeffs)))
        assert max(abs(a - b) for a, b in zip(got, coeffs)) <= 32 * ulp


class TestPrepareCoordinates:
    @staticmethod
    def _check_identity(A_series, f):
        # A(x) (f + x f')^2 == A(0) f^2 modulo truncation
        order = A_series.order
        xfprime = CSeries2(order, {(q1, q2): v * q1 for (q1, q2), v in f.coeffs.items()})
        w = f + xfprime
        lhs = cauchy_mul(A_series, cauchy_mul(w, w))
        rhs = cauchy_mul(CSeries2.constant(A_series.constant_term(), order), cauchy_mul(f, f))
        return max_abs_diff(lhs, rhs)

    def test_constant_input_gives_one(self):
        f, g = prepare_coordinates(CSeries2.constant(3.0, 8), CSeries2.constant(2.0, 8))
        assert f == CSeries2.one(8)
        assert g == CSeries2.one(8)

    def test_identity_for_simple_series(self):
        A = to_series(parse_expr("1 + x"), {}, 12)
        C = to_series(parse_expr("2 - y + y^2"), {}, 12)
        f, g = prepare_coordinates(A, C)
        assert self._check_identity(A, f) < 1e-12
        assert self._check_identity(C.transpose(), g.transpose()) < 1e-12

    def test_zero_constant_refused(self):
        with pytest.raises(ZeroConstantTerm):
            prepare_coordinates(to_series(parse_expr("x"), {}, 6), CSeries2.one(6))

    def test_bivariate_refused(self):
        with pytest.raises(ValueError):
            prepare_coordinates(to_series(parse_expr("1 + x*y"), {}, 6), CSeries2.one(6))

    @given(st.lists(st.floats(-0.4, 0.4, allow_nan=False), min_size=0, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_identity_random_units(self, tail):
        table = {(0, 0): 1.0}
        for k, v in enumerate(tail, start=1):
            table[(k, 0)] = v
        A = CSeries2(12, table)
        f, _ = prepare_coordinates(A, CSeries2.one(12))
        assert self._check_identity(A, f) < 1e-10
