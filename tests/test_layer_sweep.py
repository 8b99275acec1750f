"""The layer sweep of `solve` and the row windows of `resonance_scan` against
the per-point references in helpers.py: the same coefficient bits in the same
key order, the same certificates and the same refusals."""

import cmath
import math
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frobpde import catalog
from frobpde.errors import BasePointNotOnConic, OutsideEstimatedDomain, ResonantPoint
from frobpde.expr_parser import parse_expr, to_series
from frobpde.frobenius import RegularSingularPDE, radius_estimate, solve
from frobpde.indicial import IndicialConic, resonance_scan
from frobpde.multiseries import CSeries2, index_key, layer_sweep, norm
from frobpde.verify import _operator_sums, eval_solution, residual_max
from helpers import CATALOG_MODELS, COMPLEX_MODELS, bits, count_line, reference_scan, reference_solve


def scan_bits(report):
    return (report.r0, report.s0, report.bound, report.nonresonant_up_to,
            [(Q, mag.hex()) for Q, mag in report.hits])


def outcome(fn, pde, r0, s0, N, policy):
    """Coefficient bits and certificate of a solve, or the refusal.  A
    solution takes its table unchecked, so the table must already hold what
    a CSeries2 would: no zero, no non-finite value, keys in canonical order."""
    try:
        sol = fn(pde, r0, s0, N, resonance_policy=policy)
    except ResonantPoint as exc:
        return "resonant", str(exc), exc.hits
    except ValueError as exc:  # overflow: the sweep names the index, the reference does not
        assert str(exc).startswith("non-finite coefficient")
        return "non-finite"
    assert all(v != 0 and cmath.isfinite(v) for v in sol.coeffs.values())
    assert_read_order(sol)
    assert max(map(norm, sol.coeffs)) <= N
    return bits(sol), scan_bits(sol.resonance_certificate), sol.order, sol.terminates


def assert_read_order(sol):
    """A solution is read in the order it is stored, which is the canonical one:
    its items are those the base class sorts, and its value has the bits of
    their terms v x^q1 y^q2 summed in that order, whether or not `evaluate`
    tabulates the powers."""
    assert list(sol.coeffs) == sorted(sol.coeffs, key=index_key)
    assert sol.items() == CSeries2.items(sol)
    for x, y in ((0.3, 0.7), (1.5, -0.5 + 2j)):
        got, want = sol.evaluate(x, y), 0j
        for (q1, q2), v in CSeries2.items(sol):
            want += v * x ** q1 * y ** q2
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def assert_same(pde, r0, s0, N, policy):
    got = outcome(solve, pde, r0, s0, N, policy)
    assert got == outcome(reference_solve, pde, r0, s0, N, policy)
    return got


@pytest.mark.parametrize("N", [20, 40])
@pytest.mark.parametrize("name, params", CATALOG_MODELS)
def test_catalog_models(name, params, N):
    ent = catalog.entry(name, **params)
    pde = catalog.make_pde(ent, N)
    r0, s0 = catalog.default_point(ent)
    got = assert_same(pde, r0, s0, N, catalog.resonance_policy(ent))
    assert got[0][0][0] == (0, 0)  # solved, not refused
    conic = pde.conic()
    assert scan_bits(resonance_scan(conic, r0, s0, N)) == scan_bits(reference_scan(conic, r0, s0, N))


@pytest.mark.parametrize("N", [80, 160])
@pytest.mark.parametrize("name, params", CATALOG_MODELS)
def test_catalog_scans(name, params, N):
    ent = catalog.entry(name, **params)
    conic = catalog.make_pde(ent, 4).conic()  # the conic reads only the constant terms
    r0, s0 = catalog.default_point(ent)
    assert scan_bits(resonance_scan(conic, r0, s0, N)) == scan_bits(reference_scan(conic, r0, s0, N))


def catalog_scan(name, params):
    ent = catalog.entry(name, **params)
    return catalog.make_pde(ent, 4).conic(), *catalog.default_point(ent)


#: |P| evaluations of a catalog scan, by N, where they are not 1
EVALUATIONS = {"disturbed_heat": {40: 16, 80: 24, 160: 34}}


@pytest.mark.parametrize("N", [40, 80, 160])
@pytest.mark.parametrize("name, params", CATALOG_MODELS)
def test_scan_evaluations_grow_linearly(name, params, N):
    # the row windows evaluate P O(N + hits) times, where every shift is N (N + 3) / 2
    count, report = count_line("mag = abs(", resonance_scan, *catalog_scan(name, params), N)
    assert 0 < count <= 2 * (N + len(report.hits))
    assert count == EVALUATIONS.get(name, {}).get(N, 1)


@pytest.mark.parametrize("name, params", CATALOG_MODELS)
def test_scan_rows_constant_in_N_on_line_pairs(name, params):
    # a conic whose discriminant does not depend on q1 has root lines t_i = t0_i - beta q1:
    # the scan computes a window only on the rows near them and on the top rows
    rows = [count_line("a = R0 + q1", resonance_scan, *catalog_scan(name, params), N)[0] for N in (40, 80, 160)]
    if name in ("bessel_II", "disturbed_heat"):  # r^2 + s^2 and r^2 - s: every row
        assert rows == [41, 81, 161]
    else:
        assert rows[0] == rows[1] == rows[2] <= 6


def catalog_solve(name, params, N):
    """The arguments of solve for a catalog model at order N, as (pde, r0, s0, N)."""
    ent = catalog.entry(name, **params)
    return catalog.make_pde(ent, N), *catalog.default_point(ent), N


def swept(name, params, N, policy="strict"):
    """(layers the sweep of a catalog solve computes, the solution)."""
    return count_line("rhs = {}", layer_sweep, *catalog_solve(name, params, N),
                      via=lambda *args: solve(*args, resonance_policy=policy))


@pytest.mark.parametrize("name, params, N, layers", [
    ("legendre_II", {"lam": 0.7}, 40, 20),  # |m| = 2: the odd layers hold no coefficient
    ("bessel_I", {"nu": 0}, 80, 40),
    ("airy_I", {}, 80, 26),  # |m| = 3
    ("airy_II", {}, 80, 26),
    ("laguerre_I", {"lam": 1.3}, 80, 80),
])
def test_sweep_steps_by_the_gcd_of_the_degrees(name, params, N, layers):
    count, sol = swept(name, params, N)
    assert count == layers == N // math.gcd(*(m1 + m2 for m1, m2 in sol.coeffs))
    assert not sol.terminates


#: (model, parameters, last nonzero layer, largest |m|, layers swept) of polynomial solutions at N = 40
TERMINATING = [
    ("hermite_I", {"lam": 42}, 20, 2, 11),
    ("hermite_I", {"lam": 50}, 24, 2, 13),
    ("hermite_I", {"lam": 62}, 30, 2, 16),
    ("laguerre_I", {"lam": 25}, 25, 1, 26),
    ("chebyshev_I", {"p": 25}, 24, 2, 13),
]


@pytest.mark.parametrize("name, params, last, reach, layers", TERMINATING)
def test_terminating_series(name, params, last, reach, layers):
    # the sweep stops once the d layers past the last nonzero one are empty, d the largest |m|:
    # the same table as the reference, the exact solution, so the radius is +inf and no point warns
    count, sol = swept(name, params, 40)
    assert count == layers and max(map(norm, sol.coeffs)) == last and sol.terminates
    assert bits(sol) == assert_same(*catalog_solve(name, params, 40), "strict")[0]
    assert solve(*catalog_solve(name, params, 80)).coeffs == sol.coeffs
    # known at the first order that reaches the d empty layers
    assert [solve(*catalog_solve(name, params, last + reach + k)).terminates for k in (-1, 0)] == [False, True]
    assert radius_estimate(sol) == math.inf
    assert math.isfinite(radius_estimate(dict(sol.coeffs), order=40))  # a plain table cannot know d
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eval_solution(sol, 3, 0.5)


#: the markers of the per-axis table lines of the sweep, of P for the divide of solve, and of the residual
TABLE_LINES = [("support = [(*m[:3]", layer_sweep), ("rs, ss = [r0 + q1", IndicialConic.divider),
               ("r_of, s_of = [q1 + r0", _operator_sums)]
#: catalog models whose cleared support spans a plane, and rays with a symbol (a denominator q != 1)
PLANES, SYMBOLIC_RAYS = ("hermite_II", "legendre_II", "chebyshev_II"), ("legendre_I", "chebyshev_I")


def counted_verification(marker, fn, name, params, N=40):
    """Executions of the line of fn that holds marker in a solve and residual of a catalog model."""
    pde, r0, s0, N = catalog_solve(name, params, N)
    policy = catalog.resonance_policy(catalog.entry(name, **params))
    return count_line(marker, fn, pde, r0, s0, N, via=lambda *args: residual_max(
        pde, solve(*args, resonance_policy=policy)))[0]


@pytest.mark.parametrize("name, params", CATALOG_MODELS)
def test_per_axis_tables_only_on_planes(name, params):
    # a support on a ray reaches each q1 and q2 once: the divide and the residual build no table
    # there, and the sweep builds one only for a symbol, whose pieces it tabulates anyway
    counts = [counted_verification(marker, fn, name, params) for marker, fn in TABLE_LINES]
    assert counts == ([1, 1, 1] if name in PLANES else [1, 0, 0] if name in SYMBOLIC_RAYS else [0, 0, 0])


#: the markers of the lines that take the sums of the sweep and of the residual to floats
FLOAT_LINES = [("r, s, d0, symbol, support, zero = r.real", layer_sweep),
               ("A, B, C, r0, s0, zero = A.real", _operator_sums)]


@pytest.mark.parametrize("name, params", CATALOG_MODELS + COMPLEX_MODELS)
def test_floats_only_on_real_planes(name, params):
    # the sweep and the residual sum real data on a plane in floats; a ray, or complex data, stays
    # complex; both agree with the reference bit for bit
    counts = [counted_verification(marker, fn, name, params) for marker, fn in FLOAT_LINES]
    real = not any(complex(v).imag for v in params.values())
    assert counts == ([1, 1] if name in PLANES and real else [0, 0])
    if not real:
        assert_same(*catalog_solve(name, params, 20), catalog.resonance_policy(catalog.entry(name, **params)))


def test_count_line_names_a_missing_or_repeated_marker():
    with pytest.raises(ValueError, match=r"'no such text' is on 0 lines of frobpde.verify._operator_sums"):
        count_line("no such text", _operator_sums)
    with pytest.raises(ValueError, match=r"'fv \* t' is on 2 lines of frobpde.verify._operator_sums"):
        count_line("fv * t", _operator_sums)


@pytest.mark.parametrize("name, params", CATALOG_MODELS)
def test_per_coefficient_loop_only_on_rays_without_symbol(name, params):
    # the sweep has three loops: a symbol, a table without one, and each Q on its own
    count = counted_verification("+ ((i + r) * am", layer_sweep, name, params)
    assert (count > 0) == (name not in PLANES + SYMBOLIC_RAYS)


def underflowing_pde(eps, N):
    """A, B, C = 1, 2, 1 with a = b = -2 eps x^2 / (1 - eps x^2) and c = 2.99 eps x^2 / (1 - eps x^2):
    at (1/2, 1/2) the coefficients fall below the float range, while the radius is 1 / sqrt(eps)."""
    return text_pde(1, 2, 1, [f"-2*{eps}*x^2/(1 - {eps}*x^2)"] * 2 + [f"2.99*{eps}*x^2/(1 - {eps}*x^2)"], N)


@pytest.mark.parametrize("eps, N, radius", [("1e-20", 34, 1.04264e10), ("1e-20", 40, 1.04071e10),
                                            ("1e-40", 20, 1.08265e20)])
def test_underflow_is_not_termination(eps, N, radius):
    # the sweep stops after layers emptied by underflow, with the same table as the reference;
    # the weights that reached them are not 0, so the series does not terminate and the radius
    # is the plain table's estimate
    sol = solve(underflowing_pde(eps, N), 0.5, 0.5, N)
    assert bits(sol) == assert_same(underflowing_pde(eps, N), 0.5, 0.5, N, "strict")[0]
    assert max(map(norm, sol.coeffs)) < N and not sol.terminates
    assert radius_estimate(sol) == radius_estimate(dict(sol.coeffs), order=N) == pytest.approx(radius, rel=1e-5)


@pytest.mark.parametrize("eps, N", [("1e-20", 66), ("1e-20", 80), ("1e-40", 34), ("1e-40", 40)])
def test_underflowed_top_half_is_not_an_entire_series(eps, N):
    # every top-half layer underflowed to 0: the estimate reads the table up to its last nonzero
    # layer, near 1 / sqrt(eps), where a plain table still gives +inf
    sol = solve(underflowing_pde(eps, N), 0.5, 0.5, N)
    assert not sol.terminates and not any(sol.layer_sums()[N // 2:])
    assert radius_estimate(sol) == pytest.approx(1 / math.sqrt(float(eps)), rel=0.1)
    assert radius_estimate(dict(sol.coeffs), order=N) == math.inf


@pytest.mark.parametrize("N, x, y", [(34, 1.2e10, 1), (40, 2e10, 0.5)])
def test_evaluation_beyond_the_float_range_of_the_powers(N, x, y):
    # x^q1 overflows on the top layers of the eps = 1e-20 series, whose terms are finite
    sol = solve(underflowing_pde("1e-20", N), 0.5, 0.5, N)
    with pytest.warns(OutsideEstimatedDomain):
        assert cmath.isfinite(eval_solution(sol, x, y))


# -- hypothesis-drawn PDEs -----------------------------------------------------

small_int = st.integers(-3, 3)
small_complex = st.builds(complex, small_int, st.sampled_from([0, 0, 0, 1, -2]))
half = st.integers(-4, 4).map(lambda k: k / 2)
value = st.one_of(
    small_int.map(complex),
    st.builds(complex, st.floats(-2, 2, allow_subnormal=False), st.floats(-2, 2, allow_subnormal=False)),
)
monomial = st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda m: 1 <= m[0] + m[1] <= 6)
terms = st.dictionaries(monomial, value, max_size=4)


def over(num, den):
    """num / den as `to_series` keeps a fraction, unexpanded: `cleared` reads it."""
    return num if den is None else object.__new__(CSeries2)._set(num.order, fraction=(num, den))


@st.composite
def sparse_pdes(draw):
    """A PDE with sparse random a, b, c (off-axis monomials included), each
    over a drawn denominator 1 + ... or over none, so that the cleared
    support has monomials with q_m != 0 too, and small integer conic data,
    so that lattice points often hit the conic exactly, and a base point
    (r0, s0) on it."""
    N = draw(st.integers(1, 14))
    A, B, C = draw(small_complex), draw(small_complex), draw(small_complex)
    a0, b0 = draw(small_int), draw(small_int)
    r0, s0 = draw(half), draw(half)
    c0 = -IndicialConic(A, B, C, a0 - A, b0 - C, 0).evaluate(r0, s0)
    series = []
    for const in (a0, b0, c0):
        coeffs = draw(terms)
        coeffs[(0, 0)] = const
        den = draw(st.one_of(st.none(), st.dictionaries(monomial, value, min_size=1, max_size=2)))
        series.append(over(CSeries2(N, coeffs), den and CSeries2(N, {**den, (0, 0): 1})))
    policy = draw(st.sampled_from(["strict", "skip_removable", "skip_removable", "skip_removable"]))
    return RegularSingularPDE(A, B, C, *series), r0, s0, N, policy


def text_pde(A, B, C, texts, N):
    return RegularSingularPDE(A, B, C, *(to_series(parse_expr(t), {}, N) for t in texts))


@settings(max_examples=300, deadline=None)
@given(sparse_pdes())
# a support that spans a plane, with q = 1 - x: the removable hit (1, 1) is reached, on real
# data, so summed in floats
@example((text_pde(1, 0, -1, ["1 + 0.1*x*y + 0.5*x", "-1 + 0.2*x*y", "-0.3*x*y/(1 - x)"], 8), 1, 1, 8,
          "skip_removable"))
# the same plane with a complex A, summed in complex numbers: (1, 1) is then no hit
@example((text_pde(1 + 0.5j, 0, -1, ["1 + 0.1*x*y + 0.5*x", "-1 + 0.2*x*y", "-0.3*x*y/(1 - x)"], 8), 1, 1, 8,
          "skip_removable"))
# a real support on a plane with a complex conic (D = 0.5i): P is complex, so the sums are too
@example((text_pde(1, 0, -1, ["1 + 0.5*i + 0.1*x*y + 0.5*x", "-1 + 0.2*x*y", "-0.5*i - 0.3*x*y"], 8), 1, 1, 8,
          "strict"))
@example((text_pde(1, 2, 1, ["1/(1 - x)", "1", "x/(1 - x)"], 12), 0, 0, 12, "strict"))  # the ray q = 1 - x
@example((text_pde(1, 0, 1, ["1 + x*y", "1", "0.5*x*y/(1 - x*y)"], 12), 0, 0, 12, "strict"))  # the diagonal
@example((text_pde(1, 0, 1, ["1", "1", "0"], 6), 0, 0, 6, "strict"))  # no support: the table is D_(0,0)
@example((text_pde(1, 0, 1, ["1 + y^3", "1", "x^3 - x*y^2"], 12), 0, 0, 12, "strict"))  # every |m| = 3
# D_(n,0) = (-1e-100)^n / n!^2 underflows to 0 past layer 3: the sweep stops, yet the series does not terminate
@example((text_pde(1, 2, 1, ["1", "1", "1e-100*x"], 10), 0, 0, 10, "strict"))
def test_random_sparse_pdes(case):
    assert_same(*case)


# -- degenerate conics with many hits ------------------------------------------

LINE_CONICS = [
    ((1, 0, -1, 0, 0, 0), 0, 0),  # r^2 - s^2: the diagonal
    ((1, -2, 1, 0, 0, 0), 1 + 2j, 1 + 2j),  # (r - s)^2, complex base point
    ((0, 1, 0, 0, 0, 0), 0, 0),  # rs: both axes
    ((0, 0, 0, 1, -1, 0), 0.5, 0.5),  # the line r = s
    ((0, 0, 0, 0, 0, 0), 0.3, -0.7),  # P = 0: every shift
    ((1, 0, 0, 0, -1, 0), 0.5, 0.25),  # r^2 - s: the disturbed heat parabola
]


@pytest.mark.parametrize("coeffs, r0, s0", LINE_CONICS)
def test_scan_on_line_conics(coeffs, r0, s0):
    conic = IndicialConic(*(complex(c) for c in coeffs))
    got = resonance_scan(conic, r0, s0, 30)
    assert got.hits
    assert scan_bits(got) == scan_bits(reference_scan(conic, r0, s0, 30))


def diagonal_pde(extra_c, a_x=0.5):
    """(r - s)(r + s) = 0 at (1, 1): every diagonal shift (k, k) is a hit.
    The support x, xy reaches (i + j, j).  At P = (0, 0) the xy weight
    0.1 + 0.2 - 0.3 is 5.6e-17, so (1, 1) is a removable hit that the sweep
    reaches; with D_(1,1) = 0 no later diagonal shift is reached."""
    N = 8
    a = CSeries2(N, {(0, 0): 1, (1, 1): 0.1, (1, 0): a_x})
    b = CSeries2(N, {(0, 0): -1, (1, 1): 0.2})
    c = CSeries2(N, {(1, 1): -0.3, **extra_c})
    return RegularSingularPDE(1, 0, -1, a, b, c)


def test_removable_diagonal_hits():
    got = assert_same(diagonal_pde({}), 1, 1, 8, "skip_removable")
    assert len(got[1][4]) == 4  # hits at (1,1) .. (4,4), all passed through
    keys = [Q for Q, _, _ in got[0]]
    assert (1, 1) not in keys and (2, 1) in keys and (8, 0) in keys


def test_nonremovable_hit_refused_at_same_shift():
    pde = diagonal_pde({(2, 2): 5})
    got = assert_same(pde, 1, 1, 8, "skip_removable")
    assert got[0] == "resonant"
    assert got[1].startswith("resonant shift Q=(2, 2) at ((1+0j), (1+0j)) with nonzero")
    assert assert_same(pde, 1, 1, 8, "strict")[0] == "resonant"


def test_removable_hit_relative_to_scale():
    # D_(1,0) = -1e10/3 sets the scale; the y term carries it to (1, 1),
    # where |e_Q| = 3.3e-6 is above tol but below tol * scale: removable
    got = assert_same(diagonal_pde({(0, 1): 1e-15}, a_x=1e10), 1, 1, 8, "skip_removable")
    keys = [Q for Q, _, _ in got[0]]
    assert (1, 0) in keys and (1, 1) not in keys


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(complex, st.floats(-5, 5), st.floats(-5, 5)), min_size=8, max_size=8),
       st.integers(1, 25))
def test_scan_every_value(values, N):
    # with tol = 1e300 every shift is a hit, so every |P| is compared
    conic = IndicialConic(*values[:6])
    r0, s0 = values[6:]
    got = resonance_scan(conic, r0, s0, N, tol=1e300)
    assert len(got.hits) == N * (N + 3) // 2
    assert scan_bits(got) == scan_bits(reference_scan(conic, r0, s0, N, tol=1e300))


# -- conics with planted hits ----------------------------------------------------
# Random conics almost never meet the lattice, so these are built to vanish at
# the base point and at one or two drawn shifts.  The row windows of
# resonance_scan must find every hit of the scan over all shifts.

point = st.one_of(
    half.map(complex),
    st.builds(complex, half, half),
    st.sampled_from([1e8, 1e8 + 0.5, -3e7 + 0.5j]),
    st.builds(complex, st.floats(-4, 4), st.floats(-4, 4)),
)


def expand(A, B, C, D, E, r0, s0, k):
    """k (A u^2 + B uv + C v^2 + D u + E v) in u = r - r0, v = s - s0, as an IndicialConic."""
    coeffs = (A, B, C, D - 2 * A * r0 - B * s0, E - B * r0 - 2 * C * s0,
              A * r0 * r0 + B * r0 * s0 + C * s0 * s0 - D * r0 - E * s0)
    return IndicialConic(*(k * complex(c) for c in coeffs))


def parallel_lines(p, q, c, r0, s0, k):
    """k (p u + q v)(p u + q v + c): the lines through (r0, s0) and through the shifts with p q1 + q q2 = -c."""
    return expand(p * p, 2 * p * q, q * q, c * p, c * q, r0, s0, k)


@st.composite
def planted_conics(draw):
    """A u^2 + B uv + C v^2 + D u + E v in u = r - r0, v = s - s0, expanded:
    zero at (r0, s0) and, with D and E solved for, at one or two shifts."""
    N = draw(st.integers(1, 30))
    kind = draw(st.sampled_from(["general", "parabolic", "linear rows", "parallel lines"]))
    if kind == "parabolic":  # k (p u + q v)^2: a double root on every row
        p, q, k = draw(small_int), draw(small_int), draw(st.sampled_from([1, -2, 0.5]))
        A, B, C = k * p * p, 2 * k * p * q, k * q * q
    elif kind == "parallel lines":  # (p u + q v)(p u + q v + c): roots affine in q1, with a complex slope p / q
        p, q = draw(small_complex), draw(small_complex)
        A, B, C = p * p, 2 * p * q, q * q
    else:
        A, B = draw(small_int), draw(small_int)
        C = 0 if kind == "linear rows" else draw(small_int)  # C = 0: P is linear in s where lin != 0
    D, E = draw(small_int), draw(small_int)
    shift = st.tuples(st.integers(0, N), st.integers(0, N)).filter(lambda Q: 1 <= sum(Q) <= N)
    (a1, b1), (a2, b2) = draw(shift), draw(shift)
    quad1, quad2 = A * a1 * a1 + B * a1 * b1 + C * b1 * b1, A * a2 * a2 + B * a2 * b2 + C * b2 * b2
    det = a1 * b2 - a2 * b1
    if kind == "parallel lines":  # the second line through the first shift
        c = -(p * a1 + q * b1)
        D, E = c * p, c * q
    elif det and draw(st.booleans()):  # through both shifts
        D, E = (-quad1 * b2 + quad2 * b1) / det, (-quad2 * a1 + quad1 * a2) / det
    elif b1:  # through the first
        E = -(quad1 + D * a1) / b1
    else:
        D = -quad1 / a1
    r0, s0 = draw(point), draw(point)
    k = draw(st.sampled_from([1, -1, 1j, 2 - 3j, 1e-6, 1e6]))
    tol = draw(st.sampled_from([1e-9, 1e-3, 0.0, 1e-9, 1e-3, 1e300]))
    return expand(A, B, C, D, E, r0, s0, k), r0, s0, N, tol


def scan_outcome(scan, conic, r0, s0, N, tol):
    try:
        return scan_bits(scan(conic, r0, s0, N, tol))
    except BasePointNotOnConic as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(planted_conics())
# P = 1e-12: solve_for_s raises NoSolution on every row, yet every shift hits
@example((IndicialConic(0j, 0j, 0j, 0j, 0j, 1e-12 + 0j), 0.5, 0.5, 12, 1e-9))
# |cC| = 1e-300: the window spans every row at tol = 1e-9, and tol / |cC|
# overflows at tol = 1e300
@example((IndicialConic(1 + 0j, 0j, 1e-300 + 0j, 0j, -1 + 0j, 0j), 0, 0, 25, 1e-9))
@example((IndicialConic(1 + 0j, 0j, 1e-300 + 0j, 0j, -1 + 0j, 0j), 0, 0, 25, 1e300))
# 1e300 s^2 + 1e160 s: the discriminant overflows, so both roots are inf,
# yet P(r, 0) = 0 on every row
@example((IndicialConic(0j, 0j, 1e300 + 0j, 0j, 1e160 + 0j, 0j), 0, 0, 30, 1e-9))
# r0 = 1e8: terms near 1e16, so the computed roots and |P| carry rounding
@example((IndicialConic(1 + 0j, 0j, -1 + 0j, -2e8 + 0j, 0j, 1e16 + 0j), 1e8, 0, 20, 1e-3))
@example((IndicialConic(1 + 0j, -2 + 0j, 1 + 0j, -2e8 + 1 + 0j, 2e8 - 1 + 0j, 1e16 - 1e8 + 0j),
          1e8, 0, 20, 1e-9))
# uv + v^2 - u - 4v at r0 = 1e8 + 0.1: lin = cB r + cE nearly cancels on row 4,
# where the hit (4, 2) lies
@example((IndicialConic(0j, 1 + 0j, 1 + 0j, -1 + 0j, -100000004.1 + 0j, 100000000.1 + 0j),
          100000000.1, 0, 20, 1e-3))
# the line pair (r + s)(r + s - 1) at r0 = 1e8: d0 is formed from terms near 1e16
@example((IndicialConic(1 + 0j, 2 + 0j, 1 + 0j, -1 + 0j, -1 + 0j, 0j), 1e8, -1e8, 20, 30.0))
# coefficients spread over 2^+-600: cC and cE underflow in the conic times
# unit_scale, and every shift of row 0 hits
@example((IndicialConic(2.0 ** 600 + 0j, 0j, 2.0 ** -600 + 0j, -3.5 * 2.0 ** 600 + 0j, -2.0 ** -600 + 0j, 0j),
          0, 0, 12, 1e-9))
# 2^-500 (s - 1)(s - 2) on row 0 beside 2^500 r^2: the discriminant of the
# conic times unit_scale underflows to 0, yet (0, 1) hits
@example((IndicialConic(2.0 ** 500 + 0j, 0j, 2.0 ** -500 + 0j, 0j, -3 * 2.0 ** -500 + 0j, 2 * 2.0 ** -500 + 0j),
          0, 1, 10, 1e-200))
# cC = 0 and cE, cF lose bits in the conic times unit_scale, which moves the
# root of row 0 from s0 = 99999 to 100004.1; (0, 1) hits
@example((IndicialConic(2.0 ** 500 + 0j, 0j, 0j, 0j, 2.0 ** -560 * (1 + 2.0 ** -14) + 0j,
                        -99999 * 2.0 ** -560 * (1 + 2.0 ** -14) + 0j), 0, 99999, 10, 1.5 * 2.0 ** -560))
# (u - 3)(u + 3v) at r0 = 0.1, cC = 0: lin rounds to 0 on row 3, every shift of which hits
@example((IndicialConic(1 + 0j, 3 + 0j, 0j, -3.2 + 0j, -9.3 + 0j, 0.31000000000000005 + 0j), 0.1, 0, 12, 1e-9))
# parallel lines at r0 = 1e8: terms near 1e16 leave the hits (0, 3) and (3, 0) of the layer q1 + q2 = 3
@example((parallel_lines(1, 1, -3, 1e8, 0, 1), 1e8, 0, 20, 1e-3))
# a complex slope beta = p / q = (1 - i) / 2 of the root lines
@example((parallel_lines(1, 1 + 1j, -3 - 1j, 0.5, 0.5j, 1), 0.5, 0.5j, 20, 1e-9))
# p = 0, so uB = 0: the roots do not move from row to row, and every row has a hit at q2 = 3
@example((parallel_lines(0, 1, -3, 0.5, 0.25, 1), 0.5, 0.25, 20, 1e-9))
# the conic times 2^60 and 2^-60, with hits at (1, 2), (3, 1) and (5, 0)
@example((parallel_lines(1, 2, -5, 0.5, 0.25, 2.0 ** 60), 0.5, 0.25, 20, 1e-9))
@example((parallel_lines(1, 2, -5, 0.5, 0.25, 2.0 ** -60), 0.5, 0.25, 20, 1e-27))
# the second line q1 + q2 = 30.01 lies just beyond the end of every row, within its window
@example((parallel_lines(1, 1, -30.01, 0.5, 0.25, 1), 0.5, 0.25, 30, 1.0))
# P = 3e-309 (1 + i) s^2 + s: 1 / (2 cC) has finite parts, yet its magnitude is beyond the float range
@example((IndicialConic(0j, 0j, 3e-309 + 3e-309j, 0j, 1 + 0j, 0j), 0, 0, 5, 1e-9))
def test_planted_hits(case):
    got = scan_outcome(resonance_scan, *case)
    assert got == scan_outcome(reference_scan, *case)
