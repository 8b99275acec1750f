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
        assert catalog.entry("legendre_I", lam=2).normalized
        assert not catalog.entry("bessel_I", nu=0).normalized


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


class TestSpecialRelations:
    @pytest.mark.parametrize("name", ["airy_I_vs_ode", "airy_II_vs_ode"])
    def test_identity_small(self, name):
        for x, y in [(0.1, 0.1), (0.3, 0.2), (0.5, 0.7), (0.7, 0.4)]:
            assert catalog.special_relation_check(name, x, y) < 1e-9

    def test_unknown_identity(self):
        with pytest.raises(ValueError):
            catalog.special_relation_check("weber_vs_ode", 0.1, 0.1)

    def test_domain(self):
        with pytest.raises(ValueError):
            catalog.special_relation_check("airy_I_vs_ode", 1.5, 0.1)
