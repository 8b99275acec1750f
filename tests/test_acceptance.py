"""Acceptance gate: fifteen end-to-end criteria with pinned tolerances.

Each criterion records exactly one PASS/FAIL line (echoed in the terminal
summary by conftest.py), then asserts.
"""

import math
import random
import time

from frobpde import catalog
from frobpde.errors import ResonantPoint
from frobpde.euler import EulerPDE, classical_solution, euler_coords, integral_points
from frobpde.expr_parser import parse_expr, to_series
from frobpde.frobenius import (
    RegularSingularPDE,
    prepare_coordinates,
    radius_estimate,
    solve,
)
from frobpde.indicial import classify, resonance_scan
from frobpde.multiseries import CSeries2, cauchy_mul
from helpers import max_abs_diff
from oracles import special_relation_check
from frobpde.verify import apply_operator, residual_max


#: one line per criterion, echoed by conftest.py in the terminal summary
LINES = []


def report(number, description, ok):
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:2d}: {verdict} - {description}"
    LINES.append((number, line))
    print(line)
    assert ok, f"acceptance criterion {number} failed: {description}"


def make_pde(A, B, C, a, b, c, params=None, order=12):
    series = [to_series(parse_expr(t), params or {}, order) for t in (a, b, c)]
    return RegularSingularPDE(A, B, C, *series)


# -- criterion 1 -------------------------------------------------------------

# The ten Euler examples: PDE six-tuple, expanded conic (denominators cleared),
# discriminant class, degeneracy flag.
EULER_EXAMPLES = [
    ((4, 0, 9, -36, 45, 100), (4, 0, 9, -40, 36, 100), "elliptic", False),
    ((36, 0, 9, -72, 15, 82), (36, 0, 9, -108, 6, 82), "elliptic", True),
    ((9, 0, 4, 27, -5, 25), (9, 0, 4, 18, -9, 25), "elliptic", False),
    ((1, 0, 1, -1, -1, 1), (1, 0, 1, -2, -2, 1), "elliptic", False),
    ((1, 0, -2, 7, 2, 9), (1, 0, -2, 6, 4, 9), "hyperbolic", False),
    ((9, 0, -16, 99, -144, -31), (9, 0, -16, 90, -128, -31), "hyperbolic", True),
    ((0, 0, 2, 5, 10, -7), (0, 0, 2, 5, 8, -7), "parabolic", False),
    ((1, 2, 1, 1, 1, -1), (1, 2, 1, 0, 0, -1), "parabolic", True),
    ((0, 0, 3, 0, 10, -6), (0, 0, 3, 0, 7, -6), "parabolic", True),
    ((0, 0, 3, 0, 1, 1), (0, 0, 3, 0, -2, 1), "parabolic", True),
]


def test_criterion_01_euler_conics():
    start = time.perf_counter()
    ok = True
    for coeffs, expected, cls, degenerate in EULER_EXAMPLES:
        conic = EulerPDE(*coeffs).conic()
        got = [z.real for z in conic.coefficients()]
        scale = max(abs(v) for v in expected)
        if any(abs(g - e) > 1e-12 * scale for g, e in zip(got, expected)):
            ok = False
        verdict = classify(conic)
        if verdict.discriminant_class != cls or verdict.degenerate != degenerate:
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(1, f"ten Euler indicial conics + classes ({elapsed:.3f}s)", ok)


# -- criterion 2 -------------------------------------------------------------


def test_criterion_02_bessel_I():
    start = time.perf_counter()
    pde = make_pde(1, 2, 1, "1", "1", "x^2", order=40)
    sol = solve(pde, 0, 0, 40)
    ok = True
    for n in range(41):
        for q1 in range(n + 1):
            Q = (q1, n - q1)
            if Q[1] == 0 and Q[0] % 2 == 0:
                m = Q[0] // 2
                expect = (-1) ** m / (4.0 ** m * math.factorial(m) ** 2)
                if abs(sol.get(Q) - expect) > 1e-10 * abs(expect):
                    ok = False
            elif sol.get(Q) != 0:
                ok = False
    x = 0.5
    direct = sum(
        (-1) ** m / (4.0 ** m * math.factorial(m) ** 2) * x ** (2 * m) for m in range(21)
    )
    from frobpde.verify import eval_solution

    if abs(eval_solution(sol, x, 0.7) - direct) > 1e-12:
        ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(2, f"Bessel I closed form + evaluation ({elapsed:.3f}s)", ok)


# -- criterion 3 -------------------------------------------------------------


def test_criterion_03_bessel_II():
    pde = make_pde(1, 0, 1, "1", "1", "x*y", order=40)
    sol = solve(pde, 0, 0, 40)
    ok = True
    for n in range(1, 21):
        expect = (-1) ** n / (2.0 ** n * math.factorial(n) ** 2)
        if abs(sol.get((n, n)) - expect) > 1e-10 * abs(expect):
            ok = False
    if any(Q[0] != Q[1] for Q in sol.coeffs):
        ok = False
    report(3, "Bessel II diagonal closed form, diagonal support", ok)


# -- criterion 4 -------------------------------------------------------------


def test_criterion_04_airy():
    ok = True
    for name in ("airy_I", "airy_II"):
        ent = catalog.entry(name)
        sol = catalog.solve_entry(ent, 0.5, 0.5, 30)
        for n in range(31):
            for q1 in range(n + 1):
                Q = (q1, n - q1)
                cf = catalog.closed_form_coeff(ent, 0.5, 0.5, Q)
                if abs(sol.get(Q) - cf) > 1e-10 * max(1.0, abs(cf)):
                    ok = False
    rng = random.Random(4)
    for _ in range(20):
        x = rng.uniform(0.05, 0.8)
        y = rng.uniform(0.05, 0.8)
        if special_relation_check("airy_I_vs_ode", x, y) > 1e-9:
            ok = False
        if special_relation_check("airy_II_vs_ode", x, y) > 1e-9:
            ok = False
    report(4, "Airy I/II products + ODE identities at 20 points", ok)


# -- criterion 5 -------------------------------------------------------------


def test_criterion_05_hermite_I():
    ok = True
    for m in range(5):
        lam = 2 * (2 * m + 1)
        ent = catalog.entry("hermite_I", lam=lam)
        sol = catalog.solve_entry(ent, 0.5, 0.5, 2 * m + 12)
        for n in range(2 * m + 12 + 1):
            for q1 in range(n + 1):
                Q = (q1, n - q1)
                cf = catalog.closed_form_coeff(ent, 0.5, 0.5, Q)
                if abs(sol.get(Q) - cf) > 1e-10 * max(1.0, abs(cf)):
                    ok = False
        for n in range(m + 1, (2 * m + 12) // 2 + 1):
            if abs(sol.get((2 * n, 0))) > 1e-12:
                ok = False
    report(5, "Hermite I truncation for lam = 2(2m+1) and product formula", ok)


# -- criterion 6 -------------------------------------------------------------


def test_criterion_06_laguerre():
    ok = True
    for lam in range(7):
        sol = catalog.solve_entry(catalog.entry("laguerre_I", lam=lam), 0, 0, 12)
        if any(abs(sol.get((n, 0))) > 1e-13 for n in range(lam + 1, 13)):
            ok = False
    sol2 = catalog.solve_entry(catalog.entry("laguerre_I", lam=2), 0, 0, 12)
    expect = {0: 1.0, 1: -2.0, 2: 0.5}
    for n, v in expect.items():
        if abs(sol2.get((n, 0)) - v) > 1e-14:
            ok = False
    for m in range(1, 5):
        lam = 2 * (m - 1)
        sol = catalog.solve_entry(catalog.entry("laguerre_II", lam=lam), 0, 0, 14)
        if any(abs(sol.get((k, k))) > 1e-13 for k in range(m + 1, 8)):
            ok = False
    report(6, "Laguerre I/II polynomial truncations, lam=2 gives {1,-2,1/2}", ok)


# -- criterion 7 -------------------------------------------------------------


def test_criterion_07_chebyshev_I():
    ok = True
    for p in (1, -1, 3, -3, 5, -5):
        ent = catalog.entry("chebyshev_I", p=p)
        sol = catalog.solve_entry(ent, 0.5, 0.5, 16)
        for (q1, q2), v in sol.coeffs.items():
            if q1 + q2 >= abs(p) + 1 and abs(v) > 1e-12:
                ok = False
        for n in range(17):
            for q1 in range(n + 1):
                Q = (q1, n - q1)
                cf = catalog.closed_form_coeff(ent, 0.5, 0.5, Q)
                if abs(sol.get(Q) - cf) > 1e-10 * max(1.0, abs(cf)):
                    ok = False
    report(7, "Chebyshev I truncation at |Q| = |p|+1 and product formula", ok)


# -- criterion 8 -------------------------------------------------------------


def test_criterion_08_multi_term_models():
    ok = True
    for name, params in (
        ("hermite_II", {"lam": 6}),
        ("legendre_II", {"lam": 0.7}),
        ("chebyshev_II", {"p": 2.5}),
        ("legendre_I", {"lam": 0.7}),
    ):
        ent = catalog.entry(name, **params)
        sol = catalog.solve_entry(ent, 0.5, 0.5, 20)
        for n in range(21):
            for q1 in range(n + 1):
                Q = (q1, n - q1)
                cf = catalog.closed_form_coeff(ent, 0.5, 0.5, Q)
                if abs(sol.get(Q) - cf) > 1e-10 * max(1.0, abs(cf)):
                    ok = False
    report(8, "Hermite/Legendre/Chebyshev II bespoke recurrences, Legendre I products", ok)


# -- criterion 9 -------------------------------------------------------------


def test_criterion_09_disturbed_heat():
    ent = catalog.entry("disturbed_heat", a=1)
    sol = catalog.solve_entry(ent, 0.5, 0.25, 30)
    ok = True
    for n in range(31):
        for q1 in range(n + 1):
            Q = (q1, n - q1)
            cf = catalog.closed_form_coeff(ent, 0.5, 0.25, Q)
            if abs(sol.get(Q) - cf) > 1e-10 * max(1.0, abs(cf)):
                ok = False
    if sol.convergence.any:
        ok = False
    report(9, "disturbed heat diagonal closed form with no convergence condition", ok)


# -- criterion 10 ------------------------------------------------------------


def test_criterion_10_resonance():
    pde = make_pde(1, 2, 1, "0", "0", "-x^3", order=50)
    ok = False
    try:
        solve(pde, 0, 0, 10)
    except ResonantPoint as exc:
        ok = {tuple(Q) for Q, _ in exc.hits} == {(1, 0), (0, 1)}
    rep = resonance_scan(pde.conic(), 0.5, 0.5, 50)
    ok = ok and rep.hits == () and rep.nonresonant_up_to == 50
    report(10, "sigma=0 refusal with unit-layer hits; sigma=1 clean to N=50", ok)


# -- criterion 11 ------------------------------------------------------------


def _random_pde(rng, order):
    A = rng.uniform(0.5, 2.0)
    C = rng.uniform(0.5, 2.0)
    B = rng.uniform(-0.9, 0.9) * 2.0 * math.sqrt(A * C)  # definite quadratic part
    tables = []
    for const in (A, C, 0.0):
        table = {(0, 0): const}
        for _ in range(rng.randrange(0, 4)):
            q1 = rng.randrange(0, 3)
            q2 = rng.randrange(0, 3)
            if (q1, q2) == (0, 0):
                continue
            table[(q1, q2)] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        tables.append(CSeries2(order, table))
    return RegularSingularPDE(A, B, C, *tables)


def _brute_solve(pde, r0, s0, N):
    """Layer-by-layer solve driven purely by the independent operator path."""
    conic = pde.conic()
    table = {(0, 0): 1.0 + 0j}
    for n in range(1, N + 1):
        for q1 in range(n + 1):
            table[(q1, n - q1)] = 0j
        out = apply_operator(pde, r0, s0, table)
        for q1 in range(n + 1):
            Q = (q1, n - q1)
            table[Q] = -out.get(Q, 0j) / conic.evaluate(r0 + Q[0], s0 + Q[1])
    return table


def test_criterion_11_oracle_equivalence():
    rng = random.Random(11)
    ok = True
    for _ in range(200):
        N = rng.randrange(4, 9)
        pde = _random_pde(rng, N)
        sol = solve(pde, 0, 0, N)
        brute = _brute_solve(pde, 0, 0, N)
        scale = max(1.0, max(abs(v) for v in brute.values()))
        diff = max(abs(sol.get(Q) - v) for Q, v in brute.items())
        if diff > 1e-12 * scale:
            ok = False
        if residual_max(pde, sol).max_residual > 1e-10:
            ok = False
    report(11, "200 random PDEs: engine vs operator-application solve + residuals", ok)


# -- criterion 12 ------------------------------------------------------------


def _conic_value_int(conic, r, s):
    A, B, C, D, E, F = conic
    return A * r * r + B * r * s + C * s * s + D * r + E * s + F


def test_criterion_12_diophantine():
    rng = random.Random(12)
    ok = True
    for _ in range(50):
        A = rng.choice([v for v in range(-20, 21) if v != 0])
        C = rng.choice(range(1, 21)) * (1 if A > 0 else -1)
        fam = integral_points("elliptic", A=A, C=C)
        for r, s in fam.points:
            if not isinstance(r, int) or _conic_value_int(fam.conic, r, s) != 0:
                ok = False
    for _ in range(50):
        a = rng.choice([v for v in range(-10, 11) if v != 0])
        b = rng.randrange(-10, 11)
        sign = rng.choice((1, -1))
        A, B, C = sign * a * a, sign * 2 * a * b, sign * b * b
        fam = integral_points("parabolic", A=A, B=B, C=C)
        for t in range(-5, 6):
            r, s = fam.lines[0].point(t)
            if not isinstance(r, int) or _conic_value_int(fam.conic, r, s) != 0:
                ok = False
    for _ in range(50):
        A = rng.randrange(-20, 21)
        B = rng.choice([v for v in range(-20, 21) if v != 0])
        fam = integral_points("hyperbolic", A=A, B=B)
        for r, s in fam.all_points(span=5):
            if not isinstance(r, int) or _conic_value_int(fam.conic, r, s) != 0:
                ok = False
    report(12, "integral-point families exact for 50 draws per family", ok)


# -- criterion 13 ------------------------------------------------------------


def test_criterion_13_euler_coordinates():
    a = 1.5
    ok = (
        euler_coords((a * a, 0, 0, 0, -1, 0), "to_euler") == (a * a, 0, 0, a * a, -1, 0)
        and euler_coords((a * a, 0, -1, 0, 0, 0), "to_euler") == (a * a, 0, -1, a * a, -1, 0)
        and euler_coords((1, 0, 1, 0, 0, 0), "to_euler") == (1, 0, 1, 1, 1, 0)
    )
    grid = [(0.05 + 0.9 * i / 9, 0.05 + 0.9 * j / 9) for i in range(10) for j in range(10)]
    for kind in ("heat", "wave_sin_sin", "wave_sin_cos", "laplace_grow", "laplace_decay"):
        sol = classical_solution(kind, n=2, L=1.0, a=0.8)
        for x, y in grid:
            if abs(sol.residual(x, y)) > 1e-9:
                ok = False
        for y in (0.2, 0.9):
            if abs(sol(0.0, y)) > 1e-12 or abs(sol(1.0, y)) > 1e-12:
                ok = False
    report(13, "Euler-coordinate triples and classical family residuals", ok)


# -- criterion 14 ------------------------------------------------------------


def test_criterion_14_radius():
    # divergent example: (n^2 - n - 1/2) a_n = (n+1) a_{n+1}
    a = [1.0]
    for n in range(60):
        a.append((n * n - n - 0.5) * a[n] / (n + 1))
    divergent = radius_estimate({(n, 0): a[n] for n in range(61)}, order=60)

    pde = make_pde(1, 2, 1, "1", "1", "x^2", order=40)
    bessel = radius_estimate(solve(pde, 0, 0, 40))

    ok_geometric = True
    for rho in (0.5, 3.0):
        est = radius_estimate({(n, 0): rho ** (-n) for n in range(41)}, order=40)
        if abs(est - rho) > 0.05 * rho:
            ok_geometric = False

    ok = divergent < 1e-2 and bessel > 10.0 and ok_geometric
    report(
        14,
        f"radius estimates: divergent={divergent:.3e} (<1e-2), "
        f"bessel={bessel:.1f} (>10), geometric within 5%={ok_geometric}",
        ok,
    )


# -- criterion 15 ------------------------------------------------------------


def _prep_identity_defect(series_A, f):
    order = series_A.order
    xfprime = CSeries2(order, {(q1, q2): v * q1 for (q1, q2), v in f.coeffs.items()})
    w = f + xfprime
    lhs = cauchy_mul(series_A, cauchy_mul(w, w))
    rhs = cauchy_mul(CSeries2(order, {(0, 0): series_A.constant_term()}), cauchy_mul(f, f))
    return max_abs_diff(lhs, rhs)


def test_criterion_15_preparation():
    rng = random.Random(15)
    ok = True
    for _ in range(20):
        tableA = {(0, 0): rng.uniform(0.5, 2.0)}
        tableC = {(0, 0): rng.uniform(0.5, 2.0)}
        for k in range(1, rng.randrange(1, 6)):
            tableA[(k, 0)] = rng.uniform(-0.4, 0.4)
        for k in range(1, rng.randrange(1, 6)):
            tableC[(0, k)] = rng.uniform(-0.4, 0.4)
        A = CSeries2(12, tableA)
        C = CSeries2(12, tableC)
        f, g = prepare_coordinates(A, C)
        if _prep_identity_defect(A, f) > 1e-12:
            ok = False
        if _prep_identity_defect(C.transpose(), g.transpose()) > 1e-12:
            ok = False
    f, g = prepare_coordinates(CSeries2(12, {(0, 0): 3.0}), CSeries2(12, {(0, 0): 0.5}))
    if f != CSeries2.one(12) or g != CSeries2.one(12):
        ok = False
    report(15, "preparation transform identity for 20 random unit series", ok)
