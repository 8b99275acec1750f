import ast
import inspect
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frobpde import catalog
from frobpde.errors import MissingParameter
from frobpde.expr_parser import parse_expr, to_series
from frobpde.frobenius import radius_estimate
from frobpde.indicial import IndicialConic
from frobpde.verify import residual_max
from helpers import CATALOG_MODELS
from oracles import special_relation_check


def agree(name, pt=None, N=14, tol=1e-12, **params):
    """max |engine - closed form| over every index up to N."""
    ent = catalog.entry(name, **params)
    r0, s0 = pt if pt else catalog.default_point(ent)
    sol = catalog.solve_entry(ent, r0, s0, N)
    worst = 0.0
    for n in range(N + 1):
        for q1 in range(n + 1):
            Q = (q1, n - q1)
            worst = max(worst, abs(sol.get(Q) - catalog.closed_form_coeff(ent, r0, s0, Q)))
    return worst


class TestEntryPlumbing:
    def test_list_entries(self):
        names = [e["name"] for e in catalog.list_entries()]
        assert len(names) == 13
        assert "bessel_I" in names and "disturbed_heat" in names

    def test_missing_parameter(self):
        with pytest.raises(MissingParameter):
            catalog.entry("bessel_I")

    def test_unknown_entry(self):
        with pytest.raises(ValueError):
            catalog.entry("weber")

    def test_oracle_refuses_a_name_outside_the_catalog(self):
        with pytest.raises(KeyError):
            catalog.closed_form_coeff(catalog.CatalogEntry("weber", ()), 0.5, 0.5, (2, 0))

    def test_unknown_parameter(self):
        with pytest.raises(ValueError):
            catalog.entry("airy_I", nu=1)

    def test_make_pde_order_floor(self):
        with pytest.raises(ValueError):
            catalog.make_pde(catalog.entry("airy_I"), 2)

    def test_list_entries_are_fresh(self):
        # the parameter names are read once per model; callers get copies
        first = catalog.list_entries()
        index = next(i for i, e in enumerate(first) if e["name"] == "legendre_II")
        first[index]["params"].append("extra")
        first[index]["params"].remove("lam")
        assert catalog.list_entries()[index]["params"] == ["lam"]
        assert catalog.entry("legendre_II", lam=0.7).params == (("lam", 0.7 + 0j),)

    def test_normalized_flag(self):
        listed = {e["name"]: e["normalized"] for e in catalog.list_entries()}
        assert listed["legendre_I"] is True
        assert listed["bessel_I"] is False


LISTED = {e["name"]: e for e in catalog.list_entries()}
#: k / 1000 for |k| <= 3000: no product of three of them leaves the normal range
MILLI = st.integers(-3000, 3000).map(lambda k: k / 1000)


class TestStoredFacts:
    """The default point and the conic string stored with each model follow
    from its equation, whatever the value of its parameter."""

    @pytest.mark.parametrize("name", catalog.NAMES)
    @given(value=MILLI, r=MILLI, s=MILLI)
    @example(value=0.5, r=0.3, s=-0.7)
    @example(value=-1.5, r=0.3, s=-0.7)
    @settings(max_examples=30, deadline=None)
    def test_point_and_conic_follow_from_the_equation(self, name, value, r, s):
        params = {p: value for p in LISTED[name]["params"]}
        ent = catalog.entry(name, **params)
        conic = catalog.make_pde(ent, 4).conic()
        size = IndicialConic(*map(abs, conic))  # its value is the sum of the magnitudes of the terms
        r0, s0 = catalog.default_point(ent)
        assert abs(conic.evaluate(r0, s0)) <= 1e-14 * size.evaluate(abs(r0), abs(s0))
        stored = to_series(parse_expr(LISTED[name]["conic"]), {**params, "r": r, "s": s}, 0)
        assert abs(stored.constant_term() - conic.evaluate(r, s)) <= 1e-14 * size.evaluate(abs(r), abs(s))

    @pytest.mark.parametrize("nu", [0.5, -0.5, 1.3, 2j, -1.5 + 0.5j])
    def test_bessel_points_solve(self, nu):
        # (nu, 0) with Re r >= 0, where P = n(n + 2 nu) on layer n of bessel_I
        for name in ("bessel_I", "bessel_II"):
            ent = catalog.entry(name, nu=nu)
            r0, s0 = catalog.default_point(ent)
            assert (r0.real, s0) == (abs(complex(nu).real), 0.0)
            assert agree(name, N=12, nu=nu) < 1e-12


class TestClosedFormAgreement:
    def test_bessel_I(self):
        assert agree("bessel_I", nu=0) < 1e-12
        assert agree("bessel_I", pt=(0.75, 0.75), nu=1.5) < 1e-12

    def test_bessel_II(self):
        assert agree("bessel_II", nu=0) < 1e-12
        ent = catalog.entry("bessel_II", nu=0)
        assert catalog.closed_form_coeff(ent, 0, 0, (3, 3)) == pytest.approx(-1 / 288)

    def test_airy(self):
        assert agree("airy_I") < 1e-12
        assert agree("airy_II") < 1e-12

    def test_hermite(self):
        assert agree("hermite_I", lam=6) < 1e-12
        assert agree("hermite_II", lam=6) < 1e-12

    def test_legendre(self):
        assert agree("legendre_I", lam=0.7) < 1e-12
        assert agree("legendre_II", lam=0.7) < 1e-12

    def test_chebyshev(self):
        assert agree("chebyshev_I", p=2.5) < 1e-12
        assert agree("chebyshev_II", p=2.5) < 1e-12

    @pytest.mark.parametrize("name, params", [m for m in CATALOG_MODELS if m[0].startswith(("legendre", "chebyshev"))])
    def test_rational_models_at_order_80(self, name, params):
        # solved on the cleared denominator 1 - x^2 or 1 - xy: every layer
        # within 1e-14 of its largest closed-form coefficient
        N = 80
        ent = catalog.entry(name, **params)
        sol = catalog.solve_entry(ent, N=N)
        for n in range(N + 1):
            layer = [(q1, n - q1) for q1 in range(n + 1)]
            exact = [catalog.closed_form_coeff(ent, sol.r0, sol.s0, Q) for Q in layer]
            err = max(abs(sol.get(Q) - v) for Q, v in zip(layer, exact))
            assert err <= 1e-14 * max(abs(v) for v in exact), n

    def test_laguerre(self):
        assert agree("laguerre_I", lam=1.3) < 1e-12
        assert agree("laguerre_II", lam=1.3) < 1e-12

    def test_disturbed_heat(self):
        assert agree("disturbed_heat", pt=(0.5, 0.25), a=1) < 1e-12

    @pytest.mark.parametrize(
        "name,params",
        [
            ("bessel_I", {"nu": 0}),
            ("airy_II", {}),
            ("hermite_II", {"lam": 3.0}),
            ("legendre_II", {"lam": 0.7}),
            ("chebyshev_I", {"p": 2.5}),
            ("laguerre_II", {"lam": 1.3}),
            ("disturbed_heat", {"a": 1}),
        ],
    )
    def test_residuals_vanish(self, name, params):
        ent = catalog.entry(name, **params)
        if name == "disturbed_heat":
            r0, s0 = 0.5, 0.25
        else:
            r0, s0 = catalog.default_point(ent)
        sol = catalog.solve_entry(ent, r0, s0, 14)
        pde = catalog.make_pde(ent, 14)
        assert residual_max(pde, sol).max_residual < 1e-10


class TestOracleBits:
    """The closed-form values to the bit at a complex point, so that a
    reassociated factor shows: the agreement gates above allow 1e-12."""

    POINT = (0.3 + 0.2j, -0.1 + 0.4j)

    @pytest.mark.parametrize("name, on_ray, re, im, off_ray", [
        ("bessel_I", (8, 0), "0x1.287adbfcf5963p-19", "-0x1.1c7bc2166c54bp-18", (7, 0)),
        ("bessel_II", (4, 4), "0x1.fbff8c7324942p-16", "-0x1.c2391ebd64976p-15", (5, 3)),
        ("airy_I", (9, 0), "0x1.3e229ad1680a9p-15", "-0x1.484bed5c3b4d5p-15", (8, 1)),
        ("airy_II", (6, 3), "0x1.3e229ad1680a9p-15", "-0x1.484bed5c3b4d5p-15", (7, 2)),
        ("hermite_I", (8, 0), "0x1.4748e7b5a0ae4p-9", "0x1.9c18efd8beb6cp-9", (6, 2)),
        ("legendre_I", (8, 0), "-0x1.092a52c3e12b9p-4", "0x1.b90746436fbe7p-5", (6, 2)),
        ("chebyshev_I", (8, 0), "-0x1.c2a8e66996708p-6", "0x1.a62420f2ec6a4p-8", (6, 2)),
        ("laguerre_I", (7, 0), "0x1.622d8538bfd26p-21", "0x1.fbbcdfac8ec34p-21", (6, 1)),
        ("laguerre_II", (4, 4), "-0x1.f15e22cabd6b6p-17", "0x1.203b9f285d480p-14", (3, 5)),
        ("disturbed_heat", (4, 4), "0x1.9dbbf21758b0bp-5", "0x1.0e48d4f791259p-5", (4, 3)),
    ])
    def test_ray_model_bits(self, name, on_ray, re, im, off_ray):
        ent = catalog.entry(name, **{p: 0.7 + 0.3j for p in LISTED[name]["params"]})
        value = catalog.closed_form_coeff(ent, *self.POINT, on_ray)
        assert (value.real.hex(), value.imag.hex()) == (re, im)
        zero = catalog.closed_form_coeff(ent, *self.POINT, off_ray)
        assert (type(zero), zero.real.hex(), zero.imag.hex()) == (complex, "0x0.0p+0", "0x0.0p+0")


#: what the generic engine is made of: an oracle that read one of these would check the engine against itself
ENGINE_NAMES = {"frobenius", "RegularSingularPDE", "to_series", "parse_expr", "_tokenize"}


def names_read(node):
    """The loaded names and the attributes read anywhere under an AST node."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


class TestOracleIndependence:
    TREE = ast.parse(inspect.getsource(catalog))

    def top(self, name):
        """The module-level def or assignment of name in catalog.py."""
        for node in self.TREE.body:
            if getattr(node, "name", None) == name or name in [t.id for t in getattr(node, "targets", ())]:
                return node

    @pytest.mark.parametrize("name", ["closed_form_coeff", "_RAYS", "_bespoke_table"])
    def test_oracle_reads_no_engine_name(self, name):
        assert names_read(self.top(name)) & ENGINE_NAMES == set()

    def test_checker_sees_the_engine_in_the_solver(self):
        assert names_read(self.top("make_pde")) & ENGINE_NAMES == {"RegularSingularPDE", "to_series", "parse_expr"}
        assert names_read(self.top("solve_entry")) & ENGINE_NAMES == {"frobenius"}


class TestRadiusStability:
    """The radius estimate must not depend on rounding in the coefficients:
    the engine solve and the closed-form table give the same estimate.  The
    entire series whose ratios are polynomial in 1/n (bessel_I at nu = 0,
    laguerre_I at sigma = 0) extrapolate to a rate at rounding level; there
    an unguarded estimate flips between large finite values and +inf."""

    @pytest.mark.parametrize(
        "name, params, pt",
        [
            ("bessel_I", {"nu": 0}, (0.0, 0.0)),
            ("bessel_I", {"nu": 1.3}, (0.4, 0.9)),
            ("bessel_II", {"nu": 1}, (0.6, 0.8)),
            ("airy_I", {}, (0.5, 0.5)),
            ("airy_II", {}, (0.5, 0.5)),
            ("hermite_I", {"lam": 1.3}, (0.5, 0.5)),
            ("hermite_II", {"lam": 0.7}, (0.5, 0.5)),
            ("legendre_I", {"lam": 0.7}, (0.5, 0.5)),
            ("legendre_II", {"lam": 0.7}, (0.5, 0.5)),
            ("chebyshev_I", {"p": 0.7}, (0.5, 0.5)),
            ("chebyshev_II", {"p": 0.7}, (0.5, 0.5)),
            ("laguerre_I", {"lam": 1.7}, (0.0, 0.0)),
            ("laguerre_I", {"lam": 1.7}, (0.3, -0.3)),
            ("laguerre_II", {"lam": 1.3}, (0.0, 0.0)),
            ("disturbed_heat", {"a": 1}, (0.5, 0.25)),
        ],
    )
    def test_engine_matches_closed_form(self, name, params, pt):
        N = 40
        ent = catalog.entry(name, **params)
        engine = radius_estimate(catalog.solve_entry(ent, *pt, N))
        table = {}
        for n in range(N + 1):
            for q1 in range(n + 1):
                v = catalog.closed_form_coeff(ent, *pt, (q1, n - q1))
                if v != 0:
                    table[(q1, n - q1)] = v
        oracle = radius_estimate(table, order=N)
        if math.isinf(engine) or math.isinf(oracle):
            assert engine == oracle
        else:
            assert engine == pytest.approx(oracle, rel=1e-6)


class TestTruncations:
    def test_legendre_polynomial(self):
        # at sigma = 1 odd lam gives the odd Legendre polynomial truncation:
        # the step factor (2k-1)(2k) - lam(lam+1) vanishes at k = (lam+1)/2
        for lam in (1, 3, 5):
            ent = catalog.entry("legendre_I", lam=lam)
            sol = catalog.solve_entry(ent, 0.5, 0.5, 16)
            cut = (lam + 1) // 2
            assert all(abs(sol.get((2 * n, 0))) < 1e-12 for n in range(cut, 9))
            if cut > 1:
                assert abs(sol.get((2 * (cut - 1), 0))) > 1e-6

    def test_chebyshev_truncates_past_p(self):
        for p in (1, 3, 5):
            ent = catalog.entry("chebyshev_I", p=p)
            sol = catalog.solve_entry(ent, 0.5, 0.5, 16)
            for (q1, q2), v in sol.coeffs.items():
                if q1 + q2 >= p + 1:
                    assert abs(v) < 1e-12

    def test_laguerre_I_polynomials(self):
        for lam in range(0, 7):
            ent = catalog.entry("laguerre_I", lam=lam)
            sol = catalog.solve_entry(ent, 0.0, 0.0, 12)
            assert all(abs(sol.get((n, 0))) < 1e-13 for n in range(lam + 1, 13))
            assert abs(sol.get((lam, 0))) > 0 or lam == 0

    def test_laguerre_II_even(self):
        for m in range(1, 5):
            lam = 2 * (m - 1)
            ent = catalog.entry("laguerre_II", lam=lam)
            sol = catalog.solve_entry(ent, 0.0, 0.0, 14)
            assert all(abs(sol.get((k, k))) < 1e-13 for k in range(m + 1, 8))

    def test_type_II_even_layers_only(self):
        for name, params in (
            ("hermite_II", {"lam": 3.0}),
            ("legendre_II", {"lam": 0.7}),
            ("chebyshev_II", {"p": 2.5}),
        ):
            ent = catalog.entry(name, **params)
            sol = catalog.solve_entry(ent, 0.5, 0.5, 11)
            odd = [Q for Q in sol.coeffs if (Q[0] + Q[1]) % 2 == 1]
            assert odd == []


@pytest.mark.filterwarnings("error")  # the Airy series converge on (0, 1)^2: no domain warning
class TestSpecialRelations:
    @pytest.mark.parametrize("name", ["airy_I_vs_ode", "airy_II_vs_ode"])
    def test_identity_small(self, name):
        for x, y in [(0.1, 0.1), (0.3, 0.2), (0.5, 0.7), (0.7, 0.4)]:
            assert special_relation_check(name, x, y) < 1e-9

    def test_unknown_identity(self):
        with pytest.raises(ValueError):
            special_relation_check("weber_vs_ode", 0.1, 0.1)

    def test_domain(self):
        with pytest.raises(ValueError):
            special_relation_check("airy_I_vs_ode", 1.5, 0.1)
