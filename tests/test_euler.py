import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobpde.errors import ConstraintViolated
from frobpde.euler import (
    EulerPDE,
    classical_solution,
    euler_coords,
    integral_points,
    monomial_check,
    real_monomial_pair,
)


class TestEulerPDE:
    def test_conic(self):
        pde = EulerPDE(1, 0, 0, 1, -1, 0)  # Euler form of the heat equation
        assert pde.conic().coefficients() == (1, 0, 0, 0, -1, 0)

    def test_all_zero_refused(self):
        with pytest.raises(ValueError):
            EulerPDE(0, 0, 0, 0, 0, 0)

    def test_monomial_check(self):
        pde = EulerPDE(1, 0, 0, 1, -1, 0)
        assert monomial_check(pde, 0.5, 0.25)
        assert not monomial_check(pde, 0.5, 0.5)

    def test_real_monomial_pair_is_re_im(self):
        r, s = 0.5 + 2j, -1 + 0.25j
        x, y = 0.7, 1.3
        u1, u2 = real_monomial_pair(r, s, x, y)
        z = complex(x) ** r * complex(y) ** s
        assert u1 == pytest.approx(z.real, abs=1e-12)
        assert u2 == pytest.approx(z.imag, abs=1e-12)

    def test_real_monomial_pair_domain(self):
        with pytest.raises(ValueError):
            real_monomial_pair(1, 1, -1.0, 1.0)


class TestEulerCoords:
    def test_heat_triple(self):
        assert euler_coords((1, 0, 0, 1, -1, 0), "to_constant") == (1, 0, 0, 0, -1, 0)

    def test_round_trip(self):
        start = (2, 1, -3, 0.5, 4, -1)
        there = euler_coords(start, "to_constant")
        assert euler_coords(there, "to_euler") == start

    @given(st.tuples(*[st.integers(-5, 5)] * 6))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, coeffs):
        assert euler_coords(euler_coords(coeffs, "to_euler"), "to_constant") == coeffs

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            euler_coords((1, 0, 0, 0, 0, 0), "sideways")

    def test_six_coefficients_needed(self):
        with pytest.raises(ValueError, match="expected six coefficients"):
            euler_coords((1, 0, 0, 0, 0), "to_constant")


def _conic_value(conic, r, s):
    A, B, C, D, E, F = conic
    return A * r * r + B * r * s + C * s * s + D * r + E * s + F


class TestIntegralPoints:
    def test_elliptic_sample(self):
        fam = integral_points("elliptic", A=3, C=2)
        assert set(fam.points) == {(1, -1), (-3, -1), (-1, 2), (-1, -4)}
        for r, s in fam.points:
            assert _conic_value(fam.conic, r, s) == 0

    def test_parabolic_line(self):
        fam = integral_points("parabolic", A=1, B=2, C=1)
        for t in range(-4, 5):
            r, s = fam.lines[0].point(t)
            assert _conic_value(fam.conic, r, s) == 0

    def test_hyperbolic_lines(self):
        fam = integral_points("hyperbolic", A=2, B=1)
        assert len(fam.lines) == 2
        for r, s in fam.all_points(span=4):
            assert _conic_value(fam.conic, r, s) == 0

    def test_constraints(self):
        with pytest.raises(ConstraintViolated):
            integral_points("elliptic", A=1, C=-1)
        with pytest.raises(ConstraintViolated):
            integral_points("parabolic", A=1, B=1, C=1)
        with pytest.raises(ConstraintViolated):
            integral_points("parabolic", A=0, B=0, C=1)
        with pytest.raises(ConstraintViolated):
            integral_points("hyperbolic", A=1, B=0)
        with pytest.raises(ConstraintViolated):
            integral_points("elliptic", A=1.5, C=2)
        with pytest.raises(ConstraintViolated):
            integral_points("unknown")

    @given(st.integers(-9, 9), st.integers(-9, 9))
    @settings(max_examples=80, deadline=None)
    def test_elliptic_exact(self, A, C):
        if A * C <= 0:
            return
        fam = integral_points("elliptic", A=A, C=C)
        for r, s in fam.points:
            assert isinstance(r, int) and isinstance(s, int)
            assert _conic_value(fam.conic, r, s) == 0

    @given(st.integers(-9, 9).filter(lambda v: v), st.integers(-9, 9).filter(lambda v: v))
    @settings(max_examples=80, deadline=None)
    def test_hyperbolic_exact(self, A, B):
        fam = integral_points("hyperbolic", A=A, B=B)
        for r, s in fam.all_points(span=5):
            assert isinstance(r, int) and isinstance(s, int)
            assert _conic_value(fam.conic, r, s) == 0


class TestClassicalSolutions:
    GRID = [(0.1 + 0.8 * i / 9, 0.05 + 0.9 * j / 9) for i in range(10) for j in range(10)]

    @pytest.mark.parametrize(
        "kind", ["heat", "wave_sin_sin", "wave_sin_cos", "laplace_grow", "laplace_decay"]
    )
    def test_residual_small(self, kind):
        sol = classical_solution(kind, n=3, L=1.0, a=0.7)
        for x, y in self.GRID:
            assert abs(sol.residual(x, y)) < 1e-9

    @pytest.mark.parametrize(
        "kind", ["heat", "wave_sin_sin", "wave_sin_cos", "laplace_grow", "laplace_decay"]
    )
    def test_boundary_zero(self, kind):
        sol = classical_solution(kind, n=2, L=1.5, a=1.0)
        for y in (0.1, 0.5, 1.0):
            assert abs(sol(0.0, y)) < 1e-12
            assert abs(sol(1.5, y)) < 1e-12

    def test_derivatives_match_finite_differences(self):
        sol = classical_solution("wave_sin_sin", n=1, L=1.0, a=1.3)
        x, y, h = 0.3, 0.4, 1e-6
        fx = (sol(x + h, y) - sol(x - h, y)) / (2 * h)
        fy = (sol(x, y + h) - sol(x, y - h)) / (2 * h)
        assert sol.fx(x, y) == pytest.approx(fx, abs=1e-6)
        assert sol.fy(x, y) == pytest.approx(fy, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            classical_solution("diffusion", 1, 1.0)
        with pytest.raises(ValueError):
            classical_solution("heat", 0, 1.0)
        with pytest.raises(ValueError):
            classical_solution("heat", 1, -1.0)
