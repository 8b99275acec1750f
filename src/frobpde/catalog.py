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
from .verify import eval_solution


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


class CatalogEntry(namedtuple("CatalogEntry", "name params normalized")):
    """params: sorted (name, complex value) pairs"""

    __slots__ = ()


@lru_cache(maxsize=None)
def _params(name):
    """The identifiers of the model's A, B, C, a, b, c other than x, y and i,
    in order of first appearance, read once per model."""
    spec = _SPECS[name]
    tokens = [t for text in spec["ABC"] + spec["abc"] for t in _tokenize(text)]
    return tuple(dict.fromkeys(t.text for t in tokens if t.kind == "ident" and t.text not in ("x", "y", "i")))


def _normalized(spec):
    """Whether a, b or c divides: the model was divided by its variable leading factor."""
    return any("/" in text for text in spec["abc"])


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
    return CatalogEntry(name, bound, _normalized(_SPECS[name]))


def list_entries():
    """Name, required parameters and normalization flag for every model."""
    return [
        {"name": name, "params": list(_params(name)), "normalized": _normalized(spec), "conic": spec["conic"]}
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


def _product(factors):
    value = 1.0 + 0j
    for f in factors:
        value *= f
    return value


def closed_form_coeff(ent, r0, s0, Q):
    """Independent closed-form value of D_Q at a conic point (r0, s0).

    Single-ray/diagonal models evaluate a finite product; the multi-term
    models (hermite_II, legendre_II, chebyshev_II) evaluate their bespoke
    recurrences, independently of the generic engine.  Off-support indices
    return 0.
    """
    q1, q2 = Q
    if (q1, q2) == (0, 0):
        return 1.0 + 0j
    r0 = complex(r0)
    s0 = complex(s0)
    sigma = r0 + s0
    name = ent.name
    params = dict(ent.params)

    if name == "bessel_I":
        nu = params["nu"]
        if q2 != 0 or q1 % 2:
            return 0j
        n = q1 // 2
        return _product(-1.0 / ((2 * k + sigma) ** 2 - nu * nu) for k in range(1, n + 1))
    if name == "bessel_II":
        if q1 != q2:
            return 0j
        n = q1
        return _product(-1.0 / (2.0 * k * (k + sigma)) for k in range(1, n + 1))
    if name in ("airy_I", "airy_II"):
        if name == "airy_I":
            if q2 != 0 or q1 % 3:
                return 0j
            n = q1 // 3
        else:
            if q1 != 2 * q2:
                return 0j
            n = q2
        return _product(1.0 / ((3 * k - 1 + sigma) * (3 * k + sigma)) for k in range(1, n + 1))
    if name == "hermite_I":
        lam = params["lam"]
        if q2 != 0 or q1 % 2:
            return 0j
        n = q1 // 2
        return _product(
            -(lam - 2 * sigma - 4 * (k - 1)) / ((2 * k + sigma) * (2 * k + sigma - 1))
            for k in range(1, n + 1)
        )
    if name == "legendre_I":
        lam = params["lam"]
        if q2 != 0 or q1 % 2:
            return 0j
        n = q1 // 2
        return _product(
            ((sigma + 2 * (k - 1)) * (sigma + 2 * (k - 1) + 1) - lam * (lam + 1))
            / ((2 * k + sigma) * (2 * k + sigma - 1))
            for k in range(1, n + 1)
        )
    if name == "chebyshev_I":
        p = params["p"]
        if q2 != 0 or q1 % 2:
            return 0j
        n = q1 // 2
        return _product(
            ((sigma + 2 * (k - 1)) - p) * ((sigma + 2 * (k - 1)) + p)
            / ((2 * k + sigma) * (2 * k + sigma - 1))
            for k in range(1, n + 1)
        )
    if name == "laguerre_I":
        lam = params["lam"]
        if q2 != 0:
            return 0j
        return _product((k - 1 + sigma - lam) / (k + sigma) ** 2 for k in range(1, q1 + 1))
    if name == "laguerre_II":
        lam = params["lam"]
        if q1 != q2:
            return 0j
        return _product(
            (2 * k - 2 + sigma - lam) / (2 * k + sigma) ** 2 for k in range(1, q1 + 1)
        )
    if name == "disturbed_heat":
        a = params["a"]
        if q1 != q2:
            return 0j
        return _product(
            (k - 1 + r0) / (a * a * (k + r0) ** 2 - (k + s0)) for k in range(1, q1 + 1)
        )
    if name in ("hermite_II", "legendre_II", "chebyshev_II"):
        key = next(iter(params.values()))
        table = _bespoke_table(name, key, r0, s0, q1 + q2)
        return table.get((q1, q2), 0j)
    raise ValueError(f"no closed form for {name!r}")


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


# ---------------------------------------------------------------------------
# Airy identities against the ordinary Airy series
# ---------------------------------------------------------------------------


def _y2(t):
    """The second standard Airy ODE solution y2(t) = t + t^4/(3*4) + ...,
    summed from its own series to the term in t^76."""
    total = t
    term = t
    for n in range(1, 26):
        term *= t ** 3 / ((3 * n) * (3 * n + 1))
        total += term
    return total


@lru_cache(maxsize=None)
def _airy_solution(name):
    return solve_entry(entry(name), 0.5, 0.5, N=45)


def special_relation_check(name, x, y):
    """|phi(x, y) - stated y2 combination| for the two Airy models."""
    if not (0 < x < 1 and 0 < y < 1):
        raise ValueError("identity check expects x, y in (0, 1)")
    if name == "airy_I_vs_ode":
        sol = _airy_solution("airy_I")
        target = math.sqrt(y / x) * _y2(x)
    elif name == "airy_II_vs_ode":
        sol = _airy_solution("airy_II")
        target = (y / x) ** (1.0 / 6.0) * _y2((x * x * y) ** (1.0 / 3.0))
    else:
        raise ValueError(f"unknown identity {name!r}")
    value = eval_solution(sol, x, y, check_domain=False)
    return abs(value - target)
