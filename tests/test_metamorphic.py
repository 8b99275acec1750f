"""Metamorphic properties of the whole solve: a transformed problem whose
solution is known from the solution of the original."""

import math
import re

import pytest

from frobpde import catalog
from frobpde.expr_parser import parse_expr, to_series
from frobpde.frobenius import RegularSingularPDE, solve

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
