"""Checks of the engine against results derived apart from it.

The Airy identities: the Airy models' Frobenius series at (1/2, 1/2),
evaluated numerically, against the second ordinary Airy solution y2 in the
stated variable.
"""

import math

from frobpde import catalog
from frobpde.verify import eval_solution


def y2(t):
    """The second standard Airy ODE solution y2(t) = t + t^4/(3*4) + ...,
    summed from its own series to the term in t^76."""
    total = t
    term = t
    for n in range(1, 26):
        term *= t ** 3 / ((3 * n) * (3 * n + 1))
        total += term
    return total


def special_relation_check(name, x, y):
    """|phi(x, y) - stated y2 combination| for the two Airy models, phi
    solved at (1/2, 1/2) to order 45."""
    if not (0 < x < 1 and 0 < y < 1):
        raise ValueError("identity check expects x, y in (0, 1)")
    if name == "airy_I_vs_ode":
        model = "airy_I"
        target = math.sqrt(y / x) * y2(x)
    elif name == "airy_II_vs_ode":
        model = "airy_II"
        target = (y / x) ** (1.0 / 6.0) * y2((x * x * y) ** (1.0 / 3.0))
    else:
        raise ValueError(f"unknown identity {name!r}")
    sol = catalog.solve_entry(catalog.entry(model), 0.5, 0.5, N=45)
    return abs(eval_solution(sol, x, y) - target)
