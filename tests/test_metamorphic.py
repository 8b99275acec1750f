"""Metamorphic properties of the whole solve: a transformed problem whose
solution is known from the solution of the original; and the equation as
written, evaluated at points from the text of the problem, which the
truncated solution satisfies to the order of its truncation."""

import json
import math
import re
from pathlib import Path

import pytest

from frobpde import catalog
from frobpde.expr_parser import parse_expr, to_series
from frobpde.frobenius import RegularSingularPDE, solve
from helpers import evaluate_ast

SCALED_MODELS = [
    ("legendre_II", {"lam": 0.7}),
    ("hermite_II", {"lam": 1.3}),
    ("chebyshev_II", {"p": 0.7}),
    ("bessel_II", {"nu": 0}),
    ("laguerre_II", {"lam": 1.3}),
    ("legendre_I", {"lam": 0.7}),
]


@pytest.mark.parametrize("i, j", [(1, 0), (0, -1), (2, 3), (-3, 1)])
@pytest.mark.parametrize("name, params", SCALED_MODELS)
def test_coordinate_scaling_by_powers_of_two(name, params, i, j):
    # a, b, c at (2^i x, 2^j y): P(Q) is unchanged and every product by 2^k is
    # exact, so D_Q becomes D_Q 2^(i q1 + j q2) bit for bit, with the same keys and hits
    N = 40
    ent = catalog.entry(name, **params)
    pde = catalog.make_pde(ent, N)
    factor = {"x": f"({math.ldexp(1.0, i)!r}*x)", "y": f"({math.ldexp(1.0, j)!r}*y)"}
    texts = [re.sub(r"\b[xy]\b", lambda m: factor[m.group()], t) for t in catalog._SPECS[name]["abc"]]
    scaled = RegularSingularPDE(pde.A, pde.B, pde.C, *(to_series(parse_expr(t), dict(ent.params), N) for t in texts))
    r0, s0 = catalog.default_point(ent)
    policy = catalog.resonance_policy(ent)
    sol, got = (solve(p, r0, s0, N, resonance_policy=policy) for p in (pde, scaled))
    assert list(got.coeffs) == list(sol.coeffs)
    for (q1, q2), v in sol.coeffs.items():
        k = math.ldexp(1.0, i * q1 + j * q2)  # not v * 2.0**k: a complex product turns -0j into +0j
        w = got.coeffs[(q1, q2)]
        assert (w.real.hex(), w.imag.hex()) == ((v.real * k).hex(), (v.imag * k).hex())
    assert got.resonance_certificate == sol.resonance_certificate


# -- the pointwise residual of the equation as written --------------------------
# z_N = x^r0 y^s0 sum_{|Q| <= N} D_Q x^q1 y^q2 leaves L z_N / (x^r0 y^s0) =
# sum_Q D_Q x^q1 y^q2 [A p(p-1) + B p s + C s(s-1) + a p + b s + c], with
# p = r0 + q1 and s = s0 + q2, of order N + 1 at the origin.  a, b and c are
# evaluated from their ASTs, so this check shares only the parser with
# to_series, the cleared PDE and the sweep.

AUTO_POINT = json.loads((Path(__file__).parent / "golden" / "problems" / "auto_point.json").read_text())
#: unit roundoff of binary64
U = 2.0 ** -53
#: a residual below FLOOR u times the magnitude of its terms may be rounding
FLOOR = 64


def pointwise_residual(spec, sol, coeffs, x, y):
    """(|L z_N| / |x^r0 y^s0|, the sum of the magnitudes of its terms) at (x, y)."""
    a, b, c = (evaluate_ast(parse_expr(spec[k]), spec["params"], x, y) for k in "abc")
    A, B, C = spec["A"], spec["B"], spec["C"]
    total, size = 0j, 0.0
    for (q1, q2), d in coeffs.items():
        p, s = sol.r0 + q1, sol.s0 + q2
        terms = (A * p * (p - 1), B * p * s, C * s * (s - 1), a * p, b * s, c)
        monomial = d * x ** q1 * y ** q2
        total += monomial * sum(terms)
        size += abs(monomial) * sum(map(abs, terms))
    return abs(total), size


def slopes_along_the_ray(spec, sol, coeffs, x0=0.3, y0=0.2):
    """log2 of the residual ratio for each halving of t along (t x0, t y0),
    t = 1, 1/2, 1/4, 1/8, while the smaller residual is above the rounding floor."""
    residuals = [pointwise_residual(spec, sol, coeffs, t * x0, t * y0) for t in (1, 0.5, 0.25, 0.125)]
    return [math.log2(r / smaller) for (r, _), (smaller, size) in zip(residuals, residuals[1:])
            if smaller > FLOOR * U * size]


#: three points of the conic r^2 + 2 s^2 = 1/4 of auto_point.json: the one
#: its "auto" search finds, a point on the r axis and one off both axes
CONIC_POINTS = [(0.0, -math.sqrt(1 / 8)), (0.5, 0.0), (0.3, math.sqrt(0.08))]


@pytest.mark.parametrize("r0, s0", CONIC_POINTS, ids=["auto", "r-axis", "off-axes"])
def test_pointwise_residual_vanishes_to_the_order_of_the_truncation(r0, s0):
    N = 8
    pde = RegularSingularPDE(AUTO_POINT["A"], AUTO_POINT["B"], AUTO_POINT["C"],
                             *(to_series(parse_expr(AUTO_POINT[k]), AUTO_POINT["params"], N) for k in "abc"))
    sol = solve(pde, r0, s0, N)
    slopes = slopes_along_the_ray(AUTO_POINT, sol, sol.coeffs)
    assert len(slopes) >= 2 and min(slopes) >= N  # O(t^(N+1)): about N + 1 per halving
    # the mutation check: a relative error of 1e-6 planted in D_(2,1) leaves
    # a residual of order 3, which the slope reads
    planted = {**sol.coeffs, (2, 1): sol.coeffs[(2, 1)] * (1 + 1e-6)}
    slopes = slopes_along_the_ray(AUTO_POINT, sol, planted)
    assert len(slopes) == 3 and min(slopes) < N and round(slopes[-1]) == 3
