"""Seeded problem generation, CLI jobs and output checks for the benchmark.

Problems are written the way a problem file writes them: constant A, B, C
and expression strings for a, b, c.  Catalog models carry their own copy of
the expression strings (test_bench.py checks that they give the same series
as ``catalog.make_pde``) so that ``parse_expr`` and ``to_series`` are part of
every timed solve.  Parameters are drawn away from the values where a model
truncates or resonates, and each point is put on the indicial conic with
``solve_for_s``.

Outputs are checked against the closed-form oracles in ``catalog`` for
coefficients, values and radii, an own lattice scan for resonances, an own
evaluation of the conic, and an own series identity for the preparation
transform.  Problems without an oracle (free-form polynomial coefficients)
are checked by the residual of the independent operator application,
``apply_operator``; their CLI radius is compared with the library's.
"""

import cmath
import json
import math
from dataclasses import dataclass, field

from frobpde import (
    IndicialConic,
    RegularSingularPDE,
    apply_operator,
    catalog,
    parse_expr,
    radius_estimate,
    solve,
    solve_for_s,
    to_series,
)

#: point (x, y) at which every solution is evaluated
EVAL_POINT = (0.1, 0.1)
#: largest accepted layer-relative coefficient error against an oracle
ORACLE_GATE = 1e-8
#: largest accepted residual coefficient, relative to the coefficient scale
RESIDUAL_GATE = 1e-8
#: resonance / on-conic threshold used by the program's default tolerance
TOL = 1e-9
#: cap for oracle digits when a result matches its oracle exactly
MAX_DIGITS = 17.0

# name -> (A, B, C and the constant terms a(0,0), b(0,0), c(0,0) as functions
# of the parameters, (a, b, c) strings)
MODELS = {
    "bessel_I": (lambda p: (1, 2, 1, 1, 1, -p["nu"] ** 2), ("1", "1", "x^2 - nu^2")),
    "bessel_II": (lambda p: (1, 0, 1, 1, 1, -p["nu"] ** 2), ("1", "1", "x*y - nu^2")),
    "airy_I": (lambda p: (1, 2, 1, 0, 0, 0), ("0", "0", "-x^3")),
    "airy_II": (lambda p: (1, 2, 1, 0, 0, 0), ("0", "0", "-x^2*y")),
    "hermite_I": (lambda p: (1, 2, 1, 0, 0, 0), ("-2*x^2", "-2*x^2", "lam*x^2")),
    "hermite_II": (lambda p: (1, 2, 1, 0, 0, 0), ("-2*x^2", "-2*y^2", "lam*x*y")),
    "legendre_I": (
        lambda p: (1, 2, 1, 0, 0, 0),
        ("-2*x^2/(1-x^2)", "-2*x^2/(1-x^2)", "lam*(lam+1)*x^2/(1-x^2)"),
    ),
    "legendre_II": (
        lambda p: (1, 2, 1, 0, 0, 0),
        ("-2*x^2/(1-x*y)", "-2*y^2/(1-x*y)", "lam*(lam+1)*x*y/(1-x*y)"),
    ),
    "chebyshev_II": (
        lambda p: (1, 2, 1, 0, 0, 0),
        ("-x^2/(1-x*y)", "-y^2/(1-x*y)", "p^2*x*y/(1-x*y)"),
    ),
    "laguerre_I": (lambda p: (1, 2, 1, 1, 1, 0), ("1-x", "1-x", "lam*x")),
    "laguerre_II": (lambda p: (1, 2, 1, 1, 1, 0), ("1-x*y", "1-x*y", "lam*x*y")),
    "disturbed_heat": (lambda p: (p["a"] ** 2, 0, 0, p["a"] ** 2, -1, 0), ("a^2 - x*y", "-1", "0")),
}


def _far_from(value, targets, gap):
    return all(abs(value - t) >= gap for t in targets)


def _draw_params(model, rng):
    """Seeded parameters away from truncating or resonant values (sigma as
    chosen by ``_pick_point``)."""
    while True:
        if model in ("bessel_I", "bessel_II"):
            return {"nu": round(rng.uniform(0.6, 2.4), 3)}
        if model in ("airy_I", "airy_II"):
            return {}
        if model == "hermite_I":  # truncates at lam = 2 sigma + 4k with sigma = 1
            lam = round(rng.uniform(-5.0, 9.0), 3)
            if _far_from(lam, [2 + 4 * k for k in range(3)], 0.4):
                return {"lam": lam}
        elif model == "hermite_II":
            return {"lam": round(rng.uniform(-3.0, 3.0), 3)}
        elif model in ("legendre_I", "legendre_II"):  # truncates at integer lam
            lam = round(rng.uniform(0.1, 3.9), 3)
            if _far_from(lam, range(5), 0.15):
                return {"lam": lam}
        elif model == "chebyshev_II":  # truncates where p^2 = (n-1)(n-2)
            p = round(rng.uniform(0.1, 3.9), 3)
            if _far_from(p * p, [k * (k + 1) for k in range(5)], 0.4):
                return {"p": p}
        elif model == "laguerre_I":  # truncates at lam = k, k >= 0
            lam = round(rng.uniform(-3.0, 5.0), 3)
            if _far_from(lam, range(6), 0.15):
                return {"lam": lam}
        elif model == "laguerre_II":  # truncates at lam = 2k, k >= 0
            lam = round(rng.uniform(-3.0, 5.0), 3)
            if _far_from(lam, range(0, 6, 2), 0.15):
                return {"lam": lam}
        elif model == "disturbed_heat":
            return {"a": rng.choice([1.0, 2.0])}
        else:
            raise ValueError(f"no parameter rule for {model!r}")


def _draw_r0(model, rng, params):
    if model == "bessel_II":
        return round(rng.uniform(0.1, 0.9) * params["nu"], 3)
    if model == "disturbed_heat":  # 2 a^2 r0 integer: removable hits off the diagonal
        return rng.choice([0.25, 0.5, 0.75, 1.5])
    return round(rng.uniform(-0.4, 0.9), 3)


# ---------------------------------------------------------------------------
# Problems
# ---------------------------------------------------------------------------


@dataclass
class Problem:
    """One problem file: constants, expression strings, point and order."""

    pid: str
    model: object  # catalog name, or None for free-form coefficients
    A: complex
    B: complex
    C: complex
    abc: tuple
    consts0: tuple  # a(0,0), b(0,0), c(0,0)
    params: dict
    point: tuple  # (r0, s0)
    order: int
    policy: str = "strict"
    auto_point: bool = False  # the CLI file says "point": "auto"
    hits: tuple = ()  # own lattice scan: resonant shifts up to `order`
    oracle: object = field(default=None, repr=False)

    def at_order(self, order, pid=None):
        return Problem(
            pid or f"{self.pid}@{order}", self.model, self.A, self.B, self.C, self.abc,
            self.consts0, self.params, self.point, order, self.policy, self.auto_point,
            lattice_hits(self.conic_coeffs(), *self.point, order),
        )

    def conic_coeffs(self):
        """P(r,s) coefficients from A, B, C and the constant terms of a, b, c."""
        a0, b0, c0 = self.consts0
        return (self.A, self.B, self.C, a0 - self.A, b0 - self.C, c0)

    def file_payload(self):
        point = "auto" if self.auto_point else [_num(z) for z in self.point]
        return {
            "A": _num(self.A), "B": _num(self.B), "C": _num(self.C),
            "a": self.abc[0], "b": self.abc[1], "c": self.abc[2],
            "params": {k: _num(v) for k, v in self.params.items()},
            "point": point,
            "order": self.order,
        }

    def catalog_entry(self):
        return catalog.entry(self.model, **self.params)


def _num(z):
    z = complex(z)
    return z.real if z.imag == 0 else [z.real, z.imag]


def conic_value(coeffs, r, s):
    cA, cB, cC, cD, cE, cF = coeffs
    return cA * r * r + cB * r * s + cC * s * s + cD * r + cE * s + cF


def lattice_hits(coeffs, r0, s0, order):
    """Own resonance scan: every shift Q, 1 <= |Q| <= order, where the conic
    vanishes."""
    hits = []
    for n in range(1, order + 1):
        for q1 in range(n + 1):
            if abs(conic_value(coeffs, r0 + q1, s0 + n - q1)) < TOL:
                hits.append((q1, n - q1))
    return tuple(hits)


def _pick_point(coeffs, r0, order, allow_removable):
    """A root s of P(r0, s) = 0 from ``solve_for_s`` whose lattice is clean,
    or, when allowed, whose hits all lie off the diagonal support."""
    roots = solve_for_s(IndicialConic(*[complex(c) for c in coeffs]), r0)
    for s0 in sorted(roots, key=lambda z: (-z.real, -z.imag)):
        hits = lattice_hits(coeffs, complex(r0), s0, order)
        if not hits or (allow_removable and all(q1 != q2 for q1, q2 in hits)):
            return (complex(r0), s0), hits
    return None, ()


def catalog_problem(pid, model, rng, order):
    consts, abc = MODELS[model]
    while True:
        params = _draw_params(model, rng)
        A, B, C, *consts0 = (complex(v) for v in consts(params))
        policy = catalog.resonance_policy(catalog.entry(model, **params))
        prob = Problem(pid, model, A, B, C, abc, tuple(consts0), params, (0j, 0j), order, policy)
        point, hits = _pick_point(prob.conic_coeffs(), _draw_r0(model, rng, params), order,
                                  policy == "skip_removable")
        if point is not None:
            prob.point, prob.hits = point, hits
            return prob


def _signed(coef, monomial):
    sign = "-" if coef < 0 else "+"
    return f" {sign} {abs(coef)}*{monomial}"


def free_form_problem(pid, rng, order, auto_point=False):
    """Polynomial coefficients with seeded constants, radius comfortably
    above the evaluation point."""
    while True:
        A = float(rng.choice([1, 2]))
        B = float(rng.choice([0, 1, -1]))
        C = float(rng.choice([1, 3]))
        c = [round(rng.uniform(-1.0, 1.0), 2) for _ in range(6)]
        consts0 = (abs(c[0]) + 0.5, abs(c[3]) + 0.5, c[5])
        abc = (
            f"{consts0[0]}" + _signed(c[1], "x") + _signed(c[2], "y"),
            f"{consts0[1]}" + _signed(c[4], "x*y"),
            f"{consts0[2]}" + _signed(0.3, "x") + _signed(-0.2, "y^2"),
        )
        prob = Problem(pid, None, complex(A), complex(B), complex(C), abc,
                       tuple(complex(v) for v in consts0), {}, (0j, 0j), order,
                       auto_point=auto_point)
        point, hits = _pick_point(prob.conic_coeffs(), round(rng.uniform(-1.0, 1.0), 3), order, False)
        if point is None:
            continue
        prob.point, prob.hits = point, hits
        if free_form_radius(prob) > 4 * max(EVAL_POINT):
            return prob


def free_form_radius(prob):
    """Radius estimate of a free-form problem, from the program (there is
    no oracle) at the order of the problem."""
    sol = solve(RegularSingularPDE(prob.A, prob.B, prob.C, *_series_of(prob)), *prob.point, prob.order)
    return radius_estimate(sol) if prob.order >= 10 else math.inf


def resonant_problem(pid, rng, order):
    """Bessel I at an integer nu and sigma = -nu: P vanishes on layer 2 nu,
    so a strict solve must refuse with exit code 2."""
    nu = rng.choice([1, 2, 3])
    prob = Problem(pid, "bessel_I", 1 + 0j, 2 + 0j, 1 + 0j, MODELS["bessel_I"][1],
                   (1 + 0j, 1 + 0j, complex(-nu * nu)), {"nu": float(nu)},
                   (complex(-nu), 0j), order)
    prob.hits = lattice_hits(prob.conic_coeffs(), *prob.point, order)
    assert prob.hits, "resonant problem without hits"
    return prob


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


@dataclass
class Oracle:
    """Closed-form coefficients of a catalog problem with derived values."""

    table: dict  # (q1, q2) -> D_Q for every |Q| <= N
    layer_max: list  # n -> max |D_Q| on layer n
    value: complex  # x^r0 y^s0 sum D_Q x^q1 y^q2 at EVAL_POINT
    radius: float  # radius_estimate of the oracle table, or None below order 10


def build_oracle(prob):
    ent = prob.catalog_entry()
    r0, s0 = prob.point
    N = prob.order
    table = {}
    layer_max = [0.0] * (N + 1)
    for n in range(N + 1):
        for q1 in range(n + 1):
            v = complex(catalog.closed_form_coeff(ent, r0, s0, (q1, n - q1)))
            table[(q1, n - q1)] = v
            layer_max[n] = max(layer_max[n], abs(v))
    value = prefactor(r0, s0) * sum(v * EVAL_POINT[0] ** q1 * EVAL_POINT[1] ** q2
                                    for (q1, q2), v in table.items())
    radius = radius_estimate({Q: v for Q, v in table.items() if v != 0}, order=N) if N >= 10 else None
    return Oracle(table, layer_max, value, radius)


def prefactor(r0, s0):
    x, y = EVAL_POINT
    return cmath.exp(complex(r0) * math.log(x) + complex(s0) * math.log(y))


def oracle_error(oracle, coeffs):
    """Largest layer-relative error of a {(q1, q2): D} table against the
    oracle; inf when a coefficient appears where the oracle layer is zero or
    outside the triangle."""
    if not coeffs.keys() <= oracle.table.keys():
        return math.inf
    err = 0.0
    for Q, want in oracle.table.items():
        got = coeffs.get(Q, 0j)
        m = oracle.layer_max[Q[0] + Q[1]]
        if m == 0.0:
            if got != 0:
                return math.inf
            continue
        err = max(err, abs(got - want) / m)
    return err


def digits(err):
    return MAX_DIGITS if err <= 10 ** -MAX_DIGITS else min(MAX_DIGITS, -math.log10(err))


class CheckFailed(Exception):
    """An output that does not match its oracle or gate."""


def close(got, want, rel):
    if want is None or got is None:
        return got is want
    if isinstance(want, float) and math.isinf(want):
        return got == want
    return abs(got - want) <= rel * max(1.0, abs(want))


def residual_of(prob, series, r0, s0, coeffs):
    """Largest residual coefficient of L applied to the table, over the
    layers the truncation cannot reach (|Q| <= N - degree of a, b, c)."""
    pde = RegularSingularPDE(prob.A, prob.B, prob.C, *series)
    deg = max((q1 + q2 for s in series for (q1, q2) in s.coeffs), default=0)
    out = apply_operator(pde, r0, s0, coeffs)
    upto = prob.order - deg
    scale = max([1.0] + [abs(v) for v in coeffs.values()])
    return max((abs(v) for Q, v in out.items() if Q[0] + Q[1] <= upto), default=0.0) / scale


# ---------------------------------------------------------------------------
# CLI jobs
# ---------------------------------------------------------------------------

SUBCOMMANDS = ("solve", "verify", "radius", "scan-resonance", "classify",
               "catalog-solve", "transform-prepare", "euler")


@dataclass
class CliJob:
    """One CLI invocation: subcommand name, argv after ``-m frobpde.cli``,
    the problem it works on, expected exit code and extra check data."""

    sub: str
    argv: list
    problem: object = None
    expect_code: int = 0
    extra: dict = field(default_factory=dict)


def problem_job(sub, prob, path):
    solves = sub in ("solve", "verify", "radius", "catalog-solve")
    expect_code = 2 if solves and prob.policy == "strict" and prob.hits else 0
    if sub == "catalog-solve":
        r0, s0 = prob.point
        argv = ["catalog", "solve", prob.model, "--order", str(prob.order),
                f"--point={r0.real!r},{s0.real!r}"]
        for k, v in prob.params.items():
            argv += ["--param", f"{k}={v!r}"]
        return CliJob(sub, argv, prob, expect_code)
    argv = [sub, str(path)]
    if solves and prob.policy != "strict":
        argv += ["--resonance-policy", prob.policy]
    return CliJob(sub, argv, prob, expect_code)


def transform_job(rng, order):
    a = [round(rng.uniform(-0.5, 0.5), 2) for _ in range(3)]
    A = f"1{_signed(a[0], 'x')}{_signed(a[1], 'x^2')}"
    C = f"1{_signed(a[2], 'y')}"
    argv = ["transform", "prepare-coordinates", "--A", A, "--C", C, "--order", str(order)]
    return CliJob("transform-prepare", argv, extra={"A": [1.0, a[0], a[1]], "C": [1.0, a[2]], "order": order})


def euler_job(rng):
    A, C = rng.choice([1, 2]), rng.choice([1, 2, -1])
    B = rng.choice([0, 1, 2 * A * C if A * C > 0 else 1])
    D, E, F = (round(rng.uniform(-2.0, 2.0), 2) for _ in range(3))
    args = [A, B, C, D, E, F]
    return CliJob("euler", ["euler", *[repr(float(v)) for v in args]], extra={"coeffs": args})


# ---------------------------------------------------------------------------
# CLI output checks
# ---------------------------------------------------------------------------


def _coeff_table(rows):
    return {(q1, q2): complex(re, im) for q1, q2, re, im in rows}


def _series_of(prob):
    return [to_series(parse_expr(t), prob.params, prob.order) for t in prob.abc]


def check_cli(job, code, stdout, stderr):
    """Raise CheckFailed unless the CLI output is right; return the oracle
    error of returned coefficients, or None when none were returned."""
    if code != job.expect_code:
        raise CheckFailed(f"{job.argv}: exit {code}, expected {job.expect_code}: {stderr.strip()[:200]}")
    if code == 2:
        if not stderr.startswith("refused:"):
            raise CheckFailed(f"{job.argv}: refusal without 'refused:' on stderr")
        return None
    out = json.loads(stdout)
    prob = job.problem
    if job.sub in ("solve", "catalog-solve"):
        r0 = complex(*out["r0"])
        s0 = complex(*out["s0"])
        coeffs = _coeff_table(out["coeffs"])
        if prob.oracle is not None:
            err = oracle_error(prob.oracle, coeffs)
            if not err <= ORACLE_GATE:
                raise CheckFailed(f"{job.argv}: oracle error {err:.3e}")
            return err
        if abs(conic_value(prob.conic_coeffs(), r0, s0)) >= TOL:
            raise CheckFailed(f"{job.argv}: point ({r0}, {s0}) is off the conic")
        if lattice_hits(prob.conic_coeffs(), r0, s0, prob.order):
            raise CheckFailed(f"{job.argv}: point ({r0}, {s0}) is resonant")
        res = residual_of(prob, _series_of(prob), r0, s0, coeffs)
        if not res <= RESIDUAL_GATE:
            raise CheckFailed(f"{job.argv}: residual {res:.3e}")
        return None
    if job.sub == "verify":
        res = out["residual"]["max_residual"]
        if not (isinstance(res, (int, float)) and res <= RESIDUAL_GATE):
            raise CheckFailed(f"{job.argv}: max_residual {res}")
        return None
    if job.sub == "radius":
        got = out["radius_estimate"]
        got = math.inf if got == "inf" else got
        want = prob.oracle.radius if prob.oracle is not None else free_form_radius(prob)
        if not close(got, want, 1e-6):
            raise CheckFailed(f"{job.argv}: radius {got} expected {want}")
        return None
    if job.sub == "scan-resonance":
        got = tuple(sorted((q1, q2) for q1, q2, _ in out["hits"]))
        if got != tuple(sorted(prob.hits)):
            raise CheckFailed(f"{job.argv}: hits {got[:5]} expected {sorted(prob.hits)[:5]}")
        return None
    if job.sub == "classify":
        got = [complex(*out["conic"][k]) for k in ("cA", "cB", "cC", "cD", "cE", "cF")]
        want = prob.conic_coeffs()
        if any(abs(g - w) > 1e-12 * max(1.0, abs(w)) for g, w in zip(got, want)):
            raise CheckFailed(f"{job.argv}: conic {got} expected {want}")
        if out["class"]["discriminant_class"] != discriminant_class(want[0].real, want[1].real, want[2].real):
            raise CheckFailed(f"{job.argv}: class {out['class']}")
        return None
    if job.sub == "euler":
        A, B, C, D, E, F = job.extra["coeffs"]
        coeffs = (A, B, C, D - A, E - C, F)
        for r, r_im, s, s_im in out["monomial_exponents"]:
            if abs(conic_value(coeffs, complex(r, r_im), complex(s, s_im))) > 1e-9 * max(1.0, abs(r), abs(s)) ** 2:
                raise CheckFailed(f"{job.argv}: exponent ({r}, {s}) off the conic")
        if not out["monomial_exponents"]:
            raise CheckFailed(f"{job.argv}: no monomial exponents")
        if out["class"]["discriminant_class"] != discriminant_class(A, B, C):
            raise CheckFailed(f"{job.argv}: class {out['class']}")
        return None
    if job.sub == "transform-prepare":
        order = job.extra["order"]
        for key, poly, axis in (("f", job.extra["A"], 0), ("g", job.extra["C"], 1)):
            coef = [0j] * (order + 1)
            for q1, q2, re, im in out[key]:
                if (q1, q2)[1 - axis] != 0:
                    raise CheckFailed(f"{job.argv}: {key} is not univariate")
                coef[(q1, q2)[axis]] = complex(re, im)
            gap = preparation_defect(poly, coef)
            if not gap <= 1e-10:
                raise CheckFailed(f"{job.argv}: preparation identity off by {gap:.3e}")
        return None
    raise CheckFailed(f"no check for {job.sub}")


def discriminant_class(A, B, C):
    disc = B * B - 4.0 * A * C
    if abs(disc) <= TOL * max(1.0, abs(A), abs(B), abs(C)) ** 2:
        return "parabolic"
    return "elliptic" if disc < 0 else "hyperbolic"


def _mul(p, q, order):
    out = [0j] * (order + 1)
    for i, a in enumerate(p[: order + 1]):
        for j, b in enumerate(q[: order + 1 - i]):
            out[i + j] += a * b
    return out


def preparation_defect(poly, f):
    """Largest coefficient of A(t) (f + t f')^2 - A(0) f^2, which vanishes to
    the truncation order when t f(t) makes the leading factor A constant."""
    order = len(f) - 1
    h = [(n + 1) * v for n, v in enumerate(f)]
    lhs = _mul(poly, _mul(h, h, order), order)
    rhs = [poly[0] * v for v in _mul(f, f, order)]
    if f[0] != 1:
        return math.inf
    return max(abs(u - v) for u, v in zip(lhs, rhs))
