"""The named PDE models: Bessel, Airy, Hermite, Legendre, Chebyshev and
Laguerre types I/II plus the disturbed heat equation, each paired with a
closed-form coefficient oracle that is independent of the generic engine.

The Legendre and Chebyshev models carry a variable leading factor (1-x^2)
or (1-xy): their a, b, c are fractions over it, and the engine solves the
PDE times it, with leading coefficients (1-x^2) A, B, C or (1-xy) A, B, C
(`RegularSingularPDE.cleared`).  The disturbed heat model has removable
resonances on its diagonal support, so its solver runs with the
"skip_removable" resonance policy.
"""

import math
from collections import namedtuple
from functools import lru_cache

from .errors import MissingParameter
from . import frobenius
from .expr_parser import _tokenize, parse_expr, to_series
from .frobenius import RegularSingularPDE


def _bessel_point(p):
    """(nu, 0), or (-nu, 0) when Re nu < 0: the point of the Bessel conics with
    the larger Re r, nonresonant as P = n(n + 2 nu) on layer n of bessel_I."""
    nu = complex(p["nu"])
    return (-nu if nu.real < 0 else nu), 0.0


_SPECS = {
    "bessel_I": {
        "ABC": ("1", "2", "1"),
        "abc": ("1", "1", "x^2 - nu^2"),
        "conic": "(r+s)^2 - nu^2",
        "sample_point": _bessel_point,
    },
    "bessel_II": {
        "ABC": ("1", "0", "1"),
        "abc": ("1", "1", "x*y - nu^2"),
        "conic": "r^2 + s^2 - nu^2",
        "sample_point": _bessel_point,
    },
    "airy_I": {
        "ABC": ("1", "2", "1"),
        "abc": ("0", "0", "-x^3"),
        "conic": "(r+s)(r+s-1)",
        "sample_point": lambda p: (0.5, 0.5),
    },
    "airy_II": {
        "ABC": ("1", "2", "1"),
        "abc": ("0", "0", "-x^2*y"),
        "conic": "(r+s)(r+s-1)",
        "sample_point": lambda p: (0.5, 0.5),
    },
    "hermite_I": {
        "ABC": ("1", "2", "1"),
        "abc": ("-2*x^2", "-2*x^2", "lam*x^2"),
        "conic": "(r+s)(r+s-1)",
        "sample_point": lambda p: (0.5, 0.5),
    },
    "hermite_II": {
        "ABC": ("1", "2", "1"),
        "abc": ("-2*x^2", "-2*y^2", "lam*x*y"),
        "conic": "(r+s)(r+s-1)",
        "sample_point": lambda p: (0.5, 0.5),
    },
    "legendre_I": {
        "ABC": ("1", "2", "1"),
        "abc": (
            "-2*x^2/(1-x^2)",
            "-2*x^2/(1-x^2)",
            "lam*(lam+1)*x^2/(1-x^2)",
        ),
        "conic": "(r+s)(r+s-1)",
        "sample_point": lambda p: (0.5, 0.5),
    },
    "legendre_II": {
        "ABC": ("1", "2", "1"),
        "abc": (
            "-2*x^2/(1-x*y)",
            "-2*y^2/(1-x*y)",
            "lam*(lam+1)*x*y/(1-x*y)",
        ),
        "conic": "(r+s)(r+s-1)",
        "sample_point": lambda p: (0.5, 0.5),
    },
    "chebyshev_I": {
        "ABC": ("1", "2", "1"),
        "abc": ("-x^2/(1-x^2)", "-x^2/(1-x^2)", "p^2*x^2/(1-x^2)"),
        "conic": "(r+s)(r+s-1)",
        "sample_point": lambda p: (0.5, 0.5),
    },
    "chebyshev_II": {
        "ABC": ("1", "2", "1"),
        "abc": ("-x^2/(1-x*y)", "-y^2/(1-x*y)", "p^2*x*y/(1-x*y)"),
        "conic": "(r+s)(r+s-1)",
        "sample_point": lambda p: (0.5, 0.5),
    },
    "laguerre_I": {
        "ABC": ("1", "2", "1"),
        "abc": ("1-x", "1-x", "lam*x"),
        "conic": "(r+s)^2",
        "sample_point": lambda p: (0.0, 0.0),
    },
    "laguerre_II": {
        "ABC": ("1", "2", "1"),
        "abc": ("1-x*y", "1-x*y", "lam*x*y"),
        "conic": "(r+s)^2",
        "sample_point": lambda p: (0.0, 0.0),
    },
    "disturbed_heat": {
        "ABC": ("a^2", "0", "0"),
        "abc": ("a^2 - x*y", "-1", "0"),
        "conic": "a^2 r^2 - s",
        "sample_point": lambda p: (0.5, 0.25 * complex(p["a"]) ** 2),
    },
}

NAMES = tuple(_SPECS)


class CatalogEntry(namedtuple("CatalogEntry", "name params")):
    """params: sorted (name, complex value) pairs"""

    __slots__ = ()


@lru_cache(maxsize=None)
def _params(name):
    """The identifiers of the model's A, B, C, a, b, c other than x, y and i,
    in order of first appearance, read once per model."""
    spec = _SPECS[name]
    tokens = [t for text in spec["ABC"] + spec["abc"] for t in _tokenize(text)]
    return tuple(dict.fromkeys(text for kind, text, _ in tokens if kind == "ident" and text not in ("x", "y", "i")))


def entry(name, **params):
    """Build a CatalogEntry, validating its parameter set."""
    if name not in _SPECS:
        raise ValueError(f"unknown catalog entry {name!r}; known: {', '.join(NAMES)}")
    names = _params(name)
    missing = [p for p in names if p not in params]
    if missing:
        raise MissingParameter(f"{name} needs parameter(s): {', '.join(missing)}")
    unknown = [p for p in params if p not in names]
    if unknown:
        raise ValueError(f"{name} does not take parameter(s): {', '.join(unknown)}")
    bound = tuple(sorted((k, complex(v)) for k, v in params.items()))
    return CatalogEntry(name, bound)


def list_entries():
    """Name, required parameters, normalization flag and conic for every
    model; a model is normalized when a, b or c divides: it was divided by
    its variable leading factor."""
    return [
        {"name": name, "params": list(_params(name)), "normalized": any("/" in t for t in spec["abc"]),
         "conic": spec["conic"]}
        for name, spec in _SPECS.items()
    ]


def default_point(ent):
    return _SPECS[ent.name]["sample_point"](dict(ent.params))


def resonance_policy(ent):
    """Disturbed heat has removable diagonal resonances; everything else is strict."""
    return "skip_removable" if ent.name == "disturbed_heat" else "strict"


def make_pde(ent, order):
    """RegularSingularPDE for a catalog entry at the given truncation order."""
    if order < 4:
        raise ValueError("catalog PDEs need order >= 4")
    params = dict(ent.params)
    spec = _SPECS[ent.name]
    consts = [to_series(parse_expr(t), params, 0).constant_term() for t in spec["ABC"]]
    series = [to_series(parse_expr(t), params, order) for t in spec["abc"]]
    return RegularSingularPDE(consts[0], consts[1], consts[2], *series)


def solve_entry(ent, r0=None, s0=None, N=20):
    """Engine solve with the entry's documented point and resonance policy."""
    if r0 is None or s0 is None:
        r0, s0 = default_point(ent)
    return frobenius.solve(make_pde(ent, N), r0, s0, N, resonance_policy=resonance_policy(ent))


# ---------------------------------------------------------------------------
# Closed-form oracles
# ---------------------------------------------------------------------------


#: each single-ray or diagonal model: its ray (d1, d2), and the factor
#: D_{k(d1,d2)} / D_{(k-1)(d1,d2)} of step k at sigma = r0 + s0, given the
#: model's one parameter (None for Airy)
_RAYS = {
    "bessel_I": ((2, 0), lambda k, sigma, r0, s0, nu: -1.0 / ((2 * k + sigma) ** 2 - nu * nu)),
    "bessel_II": ((1, 1), lambda k, sigma, r0, s0, nu: -1.0 / (2.0 * k * (k + sigma))),
    "airy_I": ((3, 0), lambda k, sigma, r0, s0, _: 1.0 / ((3 * k - 1 + sigma) * (3 * k + sigma))),
    "airy_II": ((2, 1), lambda k, sigma, r0, s0, _: 1.0 / ((3 * k - 1 + sigma) * (3 * k + sigma))),
    "hermite_I": ((2, 0), lambda k, sigma, r0, s0, lam: (
        -(lam - 2 * sigma - 4 * (k - 1)) / ((2 * k + sigma) * (2 * k + sigma - 1)))),
    "legendre_I": ((2, 0), lambda k, sigma, r0, s0, lam: (
        ((sigma + 2 * (k - 1)) * (sigma + 2 * (k - 1) + 1) - lam * (lam + 1))
        / ((2 * k + sigma) * (2 * k + sigma - 1)))),
    "chebyshev_I": ((2, 0), lambda k, sigma, r0, s0, p: (
        ((sigma + 2 * (k - 1)) - p) * ((sigma + 2 * (k - 1)) + p)
        / ((2 * k + sigma) * (2 * k + sigma - 1)))),
    "laguerre_I": ((1, 0), lambda k, sigma, r0, s0, lam: (k - 1 + sigma - lam) / (k + sigma) ** 2),
    "laguerre_II": ((1, 1), lambda k, sigma, r0, s0, lam: (2 * k - 2 + sigma - lam) / (2 * k + sigma) ** 2),
    "disturbed_heat": ((1, 1), lambda k, sigma, r0, s0, a: (k - 1 + r0) / (a * a * (k + r0) ** 2 - (k + s0))),
}


def closed_form_coeff(ent, r0, s0, Q):
    """Independent closed-form value of D_Q at a conic point (r0, s0).

    A single-ray/diagonal model (`_RAYS`) has D_Q = 0 off its ray, and on it,
    at Q = n (d1, d2), the product of its factors for k = 1..n.  The
    multi-term models (hermite_II, legendre_II, chebyshev_II) evaluate their
    bespoke recurrences.  Both are independent of the generic engine.
    """
    q1, q2 = Q
    r0 = complex(r0)
    s0 = complex(s0)
    param = ent.params[0][1] if ent.params else None
    if ent.name in ("hermite_II", "legendre_II", "chebyshev_II"):
        return _bespoke_table(ent.name, param, r0, s0, q1 + q2).get((q1, q2), 0j)
    (d1, d2), factor = _RAYS[ent.name]  # a KeyError for a name outside the catalog
    n = (q1 + q2) // (d1 + d2)
    if (q1, q2) != (n * d1, n * d2):
        return 0j
    sigma = r0 + s0
    return math.prod((factor(k, sigma, r0, s0, param) for k in range(1, n + 1)), start=1.0 + 0j)


@lru_cache(maxsize=None)
def _bespoke_table(name, param, r0, s0, N):
    """Multi-term recurrence tables for the type-II Hermite/Legendre/Chebyshev
    models, coded directly from their layer formulas."""
    sigma = r0 + s0
    d = {(0, 0): 1.0 + 0j}

    def g(i, j):
        return d.get((i, j), 0j) if i >= 0 and j >= 0 else 0j

    for n in range(1, N + 1):
        for q1 in range(n + 1):
            q2 = n - q1
            if n == 1:
                d[(q1, q2)] = 0j
                continue
            denom = (n + sigma) * (n + sigma - 1)
            if name == "hermite_II":
                num = (
                    2 * (q1 + r0 - 2) * g(q1 - 2, q2)
                    + 2 * (q2 + s0 - 2) * g(q1, q2 - 2)
                    - param * g(q1 - 1, q2 - 1)
                )
            elif name == "legendre_II":
                num = (
                    ((n + sigma - 2) * (n + sigma - 3) - param * (param + 1))
                    * g(q1 - 1, q2 - 1)
                    + 2 * (q1 + r0 - 2) * g(q1 - 2, q2)
                    + 2 * (q2 + s0 - 2) * g(q1, q2 - 2)
                )
            else:  # chebyshev_II
                num = (
                    ((n + sigma - 2) * (n + sigma - 3) - param * param) * g(q1 - 1, q2 - 1)
                    + (q1 + r0 - 2) * g(q1 - 2, q2)
                    + (q2 + s0 - 2) * g(q1, q2 - 2)
                )
            d[(q1, q2)] = num / denom
    return d
