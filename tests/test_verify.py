import ast
import hashlib
import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frobpde import catalog, cli, multiseries
from frobpde.cli import _dump
from frobpde.errors import OutsideEstimatedDomain
from frobpde.expr_parser import parse_expr, to_series
from frobpde.frobenius import FrobeniusSolution, RegularSingularPDE, prepare_coordinates, radius_estimate, solve
from frobpde.multiseries import CSeries2, cauchy_mul
from frobpde.verify import _operator_sums, apply_operator, eval_solution, residual_max
from helpers import CATALOG_MODELS, COMPLEX_MODELS, count_line


def make_pde(A, B, C, a, b, c, order=12):
    series = [to_series(parse_expr(t), {}, order) for t in (a, b, c)]
    return RegularSingularPDE(A, B, C, *series)


BESSEL = make_pde(1, 2, 1, "1", "1", "x^2", order=20)


EXPRESSIONS = ["0", "1", "-2.5", "x", "x^2 - 0.25", "1 + x*y", "3*x - y^2 + 0.5*x*y", "1/(1 - x)",
               "(2 + y)/(1 - x*y)", "x/(2 - y)", "1/(1 - x - y)^2", "0.5/(3 - x) - 0.25/(0.5 - x^2)"]
NUMBERS = st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False)
REALS = st.floats(-4, 4, allow_nan=False).map(complex)


def docstring_operator(pde, r0, s0, S):
    """q T2 + (q a) Sx + (q b) Sy + (q c) S from `pde.cleared()`, each term a
    `cauchy_mul` and the four added with `+`."""
    A, B, C = complex(pde.A), complex(pde.B), complex(pde.C)
    r0, s0 = complex(r0), complex(s0)
    t2, sx, sy = {}, {}, {}
    for (q1, q2), d in S.coeffs.items():
        rr, ss = q1 + r0, q2 + s0
        t2[(q1, q2)] = (A * rr * (rr - 1) + B * rr * ss + C * ss * (ss - 1)) * d
        sx[(q1, q2)] = rr * d
        sy[(q1, q2)] = ss * d
    weighted = [CSeries2(S.order, t) for t in (t2, sx, sy)] + [S]
    q, qa, qb, qc = (cauchy_mul(f, g) for f, g in zip(pde.cleared(), weighted))
    return q + qa + qb + qc


@st.composite
def operator_cases(draw):
    """An operator case whose A, B, C, r0 and s0 are all complex or all real,
    as are the values of its table (the texts are real)."""
    M = draw(st.integers(0, 6))
    texts = draw(st.lists(st.sampled_from(EXPRESSIONS), min_size=3, max_size=3))
    order = M + draw(st.integers(0, 2))
    coefficients = [to_series(parse_expr(t), {}, order) for t in texts]
    numbers, values = draw(st.sampled_from([NUMBERS, REALS])), draw(st.sampled_from([NUMBERS, REALS]))
    pde = RegularSingularPDE(*(draw(numbers) for _ in "ABC"), *coefficients)
    keys = st.tuples(st.integers(0, M), st.integers(0, M)).filter(lambda Q: Q[0] + Q[1] <= M)
    S = CSeries2(M, draw(st.dictionaries(keys, values, max_size=12)))
    return pde, draw(numbers), draw(numbers), S


def table_case(texts, keys, r0=0.5 - 0.25j, s0=-1.5):
    """An operator case on the PDE with a, b, c = texts and a table with a
    value at each of the keys: the values vary in sign and size, and every
    fifth has real part -0.0."""
    keys = list(keys)
    M = max(q1 + q2 for q1, q2 in keys)
    pde = RegularSingularPDE(1.5, -0.5 + 1j, 2, *(to_series(parse_expr(t), {}, M) for t in texts))
    S = CSeries2(M, {(q1, q2): complex(-0.0 if k % 5 == 0 else (q1 - 2.5 * q2) / 7, (-1) ** k / (1 + k))
                     for k, (q1, q2) in enumerate(keys)})
    return pde, r0, s0, S


RAY = table_case(["1/(1 - x)", "x/(2 - y)", "x^2 - 0.25"], [(k, 0) for k in range(31)])
LATTICE = table_case(["1 + x*y", "3*x - y^2 + 0.5*x*y", "1/(1 - x - y)^2"],
                     [(q1, n - q1) for n in range(13) for q1 in range(n + 1)])
# q = (1 - x*y)(1 - x) and q a = (2 + y)(1 - x) have several monomials each
SEVERAL = table_case(["(2 + y)/(1 - x*y)", "1/(1 - x)", "0.5/(3 - x) - 0.25/(0.5 - x^2)"],
                     [(q1, n - q1) for n in range(9) for q1 in range(0, n + 1, 2)], r0=2j, s0=0.75)
# cleared polynomials on the diagonal, with a table on it and with one that fills the lattice
DIAGONAL_TEXTS = ["1/(1 - x*y)", "2 + x*y", "0.5*x^2*y^2 - 1"]
DIAGONAL = table_case(DIAGONAL_TEXTS, [(k, k) for k in range(16)])
DIAGONAL_LATTICE = table_case(DIAGONAL_TEXTS, [(q1, n - q1) for n in range(11) for q1 in range(n + 1)])


def real_parts(case):
    """The operator case with the real parts of A, B, C, r0, s0 and the table."""
    pde, r0, s0, S = case
    pde = pde._replace(A=complex(pde.A).real, B=complex(pde.B).real, C=complex(pde.C).real)
    return pde, complex(r0).real, complex(s0).real, CSeries2(S.order, {Q: v.real for Q, v in S.coeffs.items()})


REAL_LATTICE, REAL_SEVERAL = real_parts(LATTICE), real_parts(SEVERAL)


class TestApplyOperator:
    def test_conic_on_monomial(self):
        # applying L to x^r y^s alone returns P(r+q1, s+q2) at each index
        pde = BESSEL
        conic = pde.conic()
        out = apply_operator(pde, 0.25, -0.25, {(0, 0): 1.0})
        # L[x^{1/4} y^{-1/4}] = P(1/4, -1/4) + the c-series perturbation at (2,0)
        assert out.get((0, 0), 0j) == pytest.approx(conic.evaluate(0.25, -0.25))

    def test_engine_solution_annihilated(self):
        sol = solve(BESSEL, 0, 0, 20)
        out = apply_operator(BESSEL, 0, 0, sol)
        bad = [v for v in out.values() if abs(v) > 1e-12]
        assert bad == []

    def test_wrong_table_not_annihilated(self):
        out = apply_operator(BESSEL, 0, 0, {(0, 0): 1.0, (2, 0): 1.0})
        assert abs(out[(2, 0)]) > 1.0

    def test_order_mismatch_refused(self):
        pde = make_pde(1, 2, 1, "1", "1", "x^2", order=3)
        with pytest.raises(ValueError):
            apply_operator(pde, 0, 0, {(5, 0): 1.0})

    def test_zero_outputs_not_stored(self):
        # P(0, 0) = 0 for Bessel: only the x^2 of c is left
        assert apply_operator(BESSEL, 0, 0, CSeries2(2, {(0, 0): 1.0})) == {(2, 0): 1}

    def test_overflow_refused(self):
        # refused as a CSeries2 refuses it: T2 d = 2e308 at (2, 0) is beyond the float range
        with pytest.raises(ValueError, match=r"non-finite coefficient \(inf"):
            apply_operator(BESSEL, 0, 0, {(2, 0): 1e308})

    @given(operator_cases())
    @example(RAY)
    @example(LATTICE)
    @example(SEVERAL)
    @example(DIAGONAL)
    @example(DIAGONAL_LATTICE)
    @example(REAL_LATTICE)
    @example(REAL_SEVERAL)
    @settings(max_examples=150, deadline=None)
    def test_equals_the_docstring_formula(self, case):
        # value for value, not approximately: the summation order is pinned
        pde, r0, s0, S = case
        assert apply_operator(pde, r0, s0, S) == docstring_operator(pde, r0, s0, S).coeffs

    @pytest.mark.parametrize("case, tabulated", [(RAY, 0), (LATTICE, 1), (SEVERAL, 1), (DIAGONAL, 0),
                                                 (DIAGONAL_LATTICE, 1)])
    def test_per_axis_tables_where_q1_repeats(self, case, tabulated):
        # with more d_Q than values of q1 the factors of one axis are tabulated, whatever the support
        assert count_line("r_of, s_of = [q1 + r0", _operator_sums, *case, via=apply_operator)[0] == tabulated


def layer_maxima(table, order):
    """max |v| over each layer of a table, 0.0 on a layer without a value."""
    maxima = [0.0] * (order + 1)
    for (q1, q2), v in table.items():
        maxima[q1 + q2] = max(maxima[q1 + q2], abs(v))
    return maxima


def assert_maxima_of_apply_operator(pde, sol):
    """residual_max reports the layer maxima of apply_operator's table, bit for bit."""
    rep = residual_max(pde, sol)
    want = layer_maxima(apply_operator(pde, sol.r0, sol.s0, sol), sol.order)
    assert [(n, v.hex()) for n, v in rep.per_layer.items()] == [(n, v.hex()) for n, v in enumerate(want)]
    assert rep.max_residual.hex() == max(want).hex() and rep.checked_up_to == sol.order


#: the accumulation lines of the residual: into a list of slots on a plane, into a dict on a ray
ACCUMULATION = ["acc[key + shift] += fv * t", "acc[key] = get(key, 0j) + fv * t"]


class TestResidualMax:
    @pytest.mark.parametrize("N", [20, 40])
    @pytest.mark.parametrize("name, params", CATALOG_MODELS + COMPLEX_MODELS)
    def test_layer_maxima_of_apply_operator(self, name, params, N):
        ent = catalog.entry(name, **params)
        assert_maxima_of_apply_operator(catalog.make_pde(ent, N), catalog.solve_entry(ent, N=N))

    @given(operator_cases())
    @example(LATTICE)
    @example(REAL_LATTICE)
    @example(REAL_SEVERAL)
    @example((*REAL_LATTICE[:3], LATTICE[3]))  # a complex table on real data: no floats
    @settings(max_examples=100, deadline=None)
    def test_layer_maxima_on_operator_cases(self, case):
        # complex and real tables, on rays and on planes: the dict, and the list of slots in complex
        # numbers and in floats
        pde, r0, s0, S = case
        assert_maxima_of_apply_operator(pde, FrobeniusSolution(r0, s0, S.order, S.coeffs, None, None))

    @pytest.mark.parametrize("case", [(BESSEL, 0, 0, CSeries2(2, {(2, 0): 1e308})),
                                      (*REAL_LATTICE[:3], CSeries2(12, {**REAL_LATTICE[3].coeffs, (3, 4): 1e308}))])
    def test_overflow_refused_as_apply_operator_refuses(self, case):
        # a ray sums in a dict, a real plane in floats: either refuses as apply_operator does
        pde, r0, s0, S = case
        with pytest.raises(ValueError, match="non-finite coefficient") as want:
            apply_operator(pde, r0, s0, S)
        with pytest.raises(ValueError) as got:
            residual_max(pde, FrobeniusSolution(r0, s0, S.order, S.coeffs, None, None))
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("name, params, exponent", [("bessel_I", {"nu": 0}, 1), ("disturbed_heat", {"a": 1}, 1),
                                                        ("hermite_II", {"lam": 1.3}, 2),
                                                        ("legendre_II", {"lam": 0.7}, 2)])
    def test_work_grows_as_stated(self, name, params, exponent):
        # the products the residual sums: at most one per monomial of a cleared polynomial and
        # coefficient, and O(N) on a ray, O(N^2) where the solution fills the lattice
        steps = []
        for N in (20, 40, 80):
            ent = catalog.entry(name, **params)
            pde, sol = catalog.make_pde(ent, N), catalog.solve_entry(ent, N=N)
            steps.append(sum(count_line(line, _operator_sums, pde, sol, via=residual_max)[0] for line in ACCUMULATION))
            assert 0 < steps[-1] <= sum(len(f.coeffs) for f in pde.cleared()) * len(sol.coeffs)
        assert all(abs(math.log2(b / a) - exponent) < 0.1 for a, b in zip(steps, steps[1:])), steps

    def test_engine_output_verifies(self):
        sol = solve(BESSEL, 0, 0, 20)
        rep = residual_max(BESSEL, sol)
        assert rep.checked_up_to == 20
        assert rep.max_residual < 1e-10
        assert set(rep.per_layer) == set(range(21))

    def test_json(self):
        sol = solve(BESSEL, 0, 0, 12)
        data = json.loads(_dump(residual_max(BESSEL, sol)))
        assert data["checked_up_to"] == 12
        assert "max_residual" in data

    @pytest.mark.parametrize("name, params", CATALOG_MODELS)
    def test_corrupted_coefficient_flagged(self, name, params):
        # a 1e-3 error in one middle-layer coefficient, stored or not, must
        # show in the residual of every model, rational coefficients included
        N = 30
        ent = catalog.entry(name, **params)
        sol = catalog.solve_entry(ent, N=N)
        pde = catalog.make_pde(ent, N)
        assert residual_max(pde, sol).max_residual < 1e-12
        coeffs = dict(sol.coeffs)
        coeffs[(15, 0)] = sol.get((15, 0)) + 1e-3
        bad = FrobeniusSolution(sol.r0, sol.s0, N, coeffs, sol.resonance_certificate, sol.convergence)
        assert residual_max(pde, bad).max_residual > 1e-6

    @pytest.mark.parametrize("name, params", CATALOG_MODELS)
    def test_stored_order_not_trusted(self, name, params):
        # the residual sorts its input itself: a solution stored out of order gives the same table
        ent = catalog.entry(name, **params)
        sol = catalog.solve_entry(ent, N=20)
        pde = catalog.make_pde(ent, 20)
        shuffled = FrobeniusSolution(sol.r0, sol.s0, 20, dict(reversed(sol.coeffs.items())),
                                     sol.resonance_certificate, sol.convergence)
        assert list(shuffled.coeffs) != list(sol.coeffs) or len(sol.coeffs) == 1
        got, want = apply_operator(pde, sol.r0, sol.s0, shuffled), apply_operator(pde, sol.r0, sol.s0, sol)
        assert [(Q, v.real.hex(), v.imag.hex()) for Q, v in got.items()] == [
            (Q, v.real.hex(), v.imag.hex()) for Q, v in want.items()]


class TestEvalSolution:
    def test_matches_direct_sum(self):
        sol = solve(make_pde(1, 2, 1, "1", "1", "x^2", order=40), 0, 0, 40)
        x = 0.5
        direct = sum(
            (-1) ** n / (4.0 ** n * math.factorial(n) ** 2) * x ** (2 * n) for n in range(21)
        )
        assert eval_solution(sol, x, 0.9) == pytest.approx(direct, abs=1e-12)

    def test_prefactor(self):
        sol = solve(BESSEL, 1, -1, 12)
        x, y = 0.5, 2.0
        plain = sum(v * x ** q1 * y ** q2 for (q1, q2), v in sol.coeffs.items())
        assert eval_solution(sol, x, y) == pytest.approx(x / y * plain, rel=1e-12)

    def test_domain_warning(self):
        # the coefficients carry 1/(1 - x^2): radius 1 (estimated 1.00002)
        import warnings

        sol = catalog.solve_entry(catalog.entry("legendre_I", lam=0.7), 0.5, 0.5, 40)
        with pytest.warns(OutsideEstimatedDomain):
            eval_solution(sol, 1.5, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eval_solution(sol, 0.5, 0.5)

    def test_no_warning_inside(self):
        import warnings

        sol = solve(BESSEL, 0, 0, 12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eval_solution(sol, 0.1, 0.1)

    def test_positive_quadrant_only(self):
        sol = solve(BESSEL, 0, 0, 12)
        with pytest.raises(ValueError):
            eval_solution(sol, -0.5, 0.5)


class TestIndependentOfTheEngine:
    def test_imports(self):
        # the residual check shares nothing with the recurrence it checks but
        # the table rule of a series: no layer sweep, no resonance scan, no
        # precomputed P
        tree = ast.parse((Path(__file__).parent.parent / "src" / "frobpde" / "verify.py").read_text())
        relative, absolute = {}, []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                relative.setdefault(node.module, set()).update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                absolute.append(node.module)
            elif isinstance(node, ast.Import):
                absolute += [alias.name for alias in node.names]
        assert not [m for m in absolute if m.split(".")[0] == "frobpde"]
        assert relative["multiseries"] == {"CSeries2", "checked_table", "norm"}
        assert relative["frobenius"] == {"radius_estimate"}
        assert "indicial" not in relative and "indicial" not in relative.get(None, ())


class TestWorkDoneOnce:
    #: sha256 of the (Q, real hex, imag hex) triples of the expanded a, b, c,
    #: the tables that to_series formed eagerly before it kept fractions
    TABLES = {"legendre_II": "6908d1f85bed3b9e4126fce335191228e2613f230523ad4e6e1c60bf1cba1c84",
              "chebyshev_II": "acebcdba752ff50f85fd6c8562e35c585e5019033675383fec268e9debd3e1ee"}

    @staticmethod
    def recorder(calls):
        """A function that runs fn(*args, **kwargs) and appends to calls the
        (function, entries) of each run of reciprocal, CSeries2.__init__ (its
        input) and checked_table (its output), wherever they are imported."""
        def count(frame, event, arg):
            if event == "call" and frame.f_code is multiseries.reciprocal.__code__:
                calls.append(("reciprocal", 0))
            elif event == "call" and frame.f_code is CSeries2.__init__.__code__:
                calls.append(("constructor", len(frame.f_locals["coeffs"] or ())))
            elif event == "return" and frame.f_code is multiseries.checked_table.__code__:
                calls.append(("check", len(arg or ())))

        def counted(fn, *args, **kwargs):
            sys.setprofile(count)
            try:
                return fn(*args, **kwargs)
            finally:
                sys.setprofile(None)
        return counted

    @pytest.mark.parametrize("name, params", [("legendre_II", {"lam": 0.7}), ("chebyshev_II", {"p": 0.7})])
    def test_dense_verified_solve(self, name, params):
        # a verified solve reads only the cleared polynomials and the table the
        # sweep checked: no fraction is expanded and no large table checked
        # again, by the constructor or by the table rule (`checked_table`)
        calls = []
        counted = self.recorder(calls)
        N = 40
        ent = catalog.entry(name, **params)
        pde = counted(catalog.make_pde, ent, N)  # parse and to_series
        r0, s0 = catalog.default_point(ent)
        sol = counted(solve, pde, r0, s0, N, resonance_policy=catalog.resonance_policy(ent))
        assert len(sol.coeffs) >= 200
        counted(residual_max, pde, sol)
        counted(radius_estimate, sol)
        counted(eval_solution, sol, 0.1, 0.1)
        # none, the residual's either: residual_max refuses a non-finite sum by itself
        assert [kind for kind, n in calls if kind == "reciprocal" or n >= 200] == []
        calls.clear()
        a = counted(getattr, pde.a, "coeffs")  # a later read expands, once, and checks the product once
        assert [kind for kind, _ in calls] == ["reciprocal", "check"]
        assert counted(getattr, pde.a, "coeffs") is a and len(calls) == 2
        triples = [(Q, v.real.hex(), v.imag.hex()) for f in pde[3:] for Q, v in f.coeffs.items()]
        assert hashlib.sha256(repr(triples).encode()).hexdigest() == self.TABLES[name]

    def test_items_packed_once(self, capsys):
        # the residual sorts only a table out of order, and the evaluation and the CLI read it as
        # stored: a verified solve packs no keys for the sort of `CSeries2.items`
        packing = "W = self.order + 1"
        ent = catalog.entry("legendre_II", lam=0.7)
        pde = catalog.make_pde(ent, 40)

        def verified(pde, r0, s0, N):
            sol = solve(pde, r0, s0, N)
            residual_max(pde, sol)
            radius_estimate(sol)
            return eval_solution(sol, 0.1, 0.1)
        assert count_line(packing, CSeries2.items, pde, *catalog.default_point(ent), 40, via=verified)[0] == 0
        path = Path(__file__).parent / "golden" / "problems" / "legendre_II_40.json"
        count, code = count_line(packing, CSeries2.items, ["solve", str(path)], via=cli.main)
        assert (count, code) == (0, 0) and len(json.loads(capsys.readouterr().out)["coeffs"]) > 200

    def test_prepare_coordinates(self):
        # each axis is a power and a sweep, whose tables the sweeps checked: no constructor runs
        A = CSeries2(24, {(0, 0): 2.0, (1, 0): 0.5, (3, 0): -0.25})
        C = CSeries2(24, {(0, 0): 0.5, (0, 2): 0.125})
        calls = []
        f, g = self.recorder(calls)(prepare_coordinates, A, C)
        assert [kind for kind, _ in calls] == []
        assert (len(f.coeffs), len(g.coeffs)) == (25, 13)  # g is even in y
        assert all(type(v) is complex for h in (f, g) for v in h.coeffs.values())
