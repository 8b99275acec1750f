"""Frobenius engine for regular-singular PDEs.

The PDE shape is A x^2 z_xx + B xy z_xy + C y^2 z_yy + x a(x,y) z_x
+ y b(x,y) z_y + c(x,y) z = 0 with constant A, B, C and analytic a, b, c.
Solutions are sought as x^r0 y^s0 (1 + sum_{|Q|>=1} D_Q x^q1 y^q2) with
(r0, s0) on the indicial conic; each layer of coefficients is obtained by
dividing the convolution term e_Q by P(r0+q1, s0+q2).  Fractions a, b, c
are solved on the PDE times their common denominator q, q(0, 0) = 1.
"""

import cmath
import math
from collections import namedtuple
from functools import reduce

from .errors import ResonantPoint, ZeroConstantTerm
from .indicial import DEFAULT_TOL, IndicialConic, resonance_scan, unit_scale
from .multiseries import CSeries2, _power, cauchy_mul, index_key, layer_sweep, spans_plane


class RegularSingularPDE(namedtuple("RegularSingularPDE", "A B C a b c")):
    """A, B, C: complex leading coefficients
    a, b, c: CSeries2 of one truncation order"""

    __slots__ = ()

    def __new__(cls, A, B, C, a, b, c):
        if not (a.order == b.order == c.order):
            raise ValueError("a, b, c must share one truncation order")
        return super().__new__(cls, A, B, C, a, b, c)

    @classmethod
    def _make(cls, iterable):  # _replace too: check like the constructor
        return cls(*iterable)

    @property
    def order(self):
        return self.a.order

    def conic(self):
        a0, b0, c0 = self.a.constant_term(), self.b.constant_term(), self.c.constant_term()
        return IndicialConic.from_euler(self.A, self.B, self.C, a0, b0, c0)

    def cleared(self):
        """(q, q a, q b, q c): q the product of the distinct denominators in
        the `fraction` slots of a, b, c (1 if none; no common factor is
        cancelled) and the polynomials that replace a, b, c in q times the PDE."""
        fractions = [f.fraction or (f, None) for f in (self.a, self.b, self.c)]
        dens = []
        for _, den in fractions:
            if den is not None and den not in dens:
                dens.append(den)
        polys = [reduce(cauchy_mul, [d for d in dens if d != den], num) for num, den in fractions]
        return (reduce(cauchy_mul, dens, CSeries2.one(self.order)), *polys)


class ConvergenceReport(
    namedtuple(
        "ConvergenceReport",
        "parabolic_real_type elliptic_condition hyperbolic_condition general_sufficient",
    )
):
    __slots__ = ()

    @property
    def any(self):
        return any(self)


def convergence_report(A, B, C):
    """Evaluate the four sufficient convergence hypotheses on (A, B, C).

    parabolic of real type: B = 2 sqrt(A) sqrt(C) with Re(sqrt(A) sqrt(C)) > 0.
    The square-root branch ambiguity does not affect the condition, so both
    sign choices are tried.  The remaining three conditions are the B = 0
    elliptic/hyperbolic hypotheses and the general sufficient condition
    ||B||^2/2 + Re(A conj C) > 0, Re(A conj B) > 0, Re(B conj C) > 0, all on
    (A, B, C) times unit_scale; equalities to DEFAULT_TOL max(|A|, |B|, |C|).
    """
    unit = unit_scale((A, B, C))
    A, B, C = complex(A) * unit, complex(B) * unit, complex(C) * unit
    scale = max(abs(A), abs(B), abs(C))
    w = cmath.sqrt(A) * cmath.sqrt(C)
    parabolic = False
    for signed in (w, -w):
        if abs(B - 2.0 * signed) <= DEFAULT_TOL * scale and signed.real > 0:
            parabolic = True
    b_zero = abs(B) <= DEFAULT_TOL * scale
    re_ac = (A * C.conjugate()).real
    elliptic = b_zero and re_ac > 0
    hyperbolic = b_zero and re_ac < 0
    general = (
        abs(B) ** 2 / 2.0 + re_ac > 0
        and (A * B.conjugate()).real > 0
        and (B * C.conjugate()).real > 0
    )
    return ConvergenceReport(parabolic, elliptic, hyperbolic, general)


class FrobeniusSolution(CSeries2):
    """x^r0 y^s0 sum D_Q x^q1 y^q2: the coefficient series (D_{0,0} = 1) with
    its exponent pair, the resonance scan it was solved under, the convergence
    report of its leading coefficients, whether it terminates (every D_Q past
    the table is 0) and, once made, its radius_estimate.  The table is taken
    as its own, unchecked: one as `layer_sweep` returns it, with no zero or
    non-finite value, keys in canonical order."""

    __slots__ = ("r0", "s0", "resonance_certificate", "convergence", "terminates", "_radius")

    def __init__(self, r0, s0, order, coeffs, resonance_certificate, convergence, terminates=False):
        self._set(order, coeffs, slots=dict(r0=r0, s0=s0, resonance_certificate=resonance_certificate,
                                            convergence=convergence, terminates=terminates, _radius=None).items())

    def items(self):
        """Coefficients in the order of the table, canonical as the sweep writes it."""
        return list(self.coeffs.items())


def solve(pde, r0, s0, N, tol=DEFAULT_TOL, resonance_policy="strict"):
    """Run the Frobenius recurrence up to order N <= pde.order at a conic point (r0, s0).

    resonance_policy "strict" refuses whenever the resonance scan reports any
    hit.  Policy "skip_removable" proceeds through hits whose convolution term
    e_Q also vanishes (the division 0*D_Q = 0 is then solved by D_Q = 0, a
    valid formal-solution choice, as in the disturbed heat model) and still
    refuses when e_Q is substantially nonzero.  The scan result is attached to
    the solution as its resonance certificate either way; an (r0, s0) off
    the conic is refused by the scan with BasePointNotOnConic.

    The recurrence is that of the PDE times the common denominator q of a,
    b, c (`RegularSingularPDE.cleared`): its conic is P as q(0, 0) = 1, and
    monomial m of q adds q_m T(p', q') to the weights (`layer_sweep`).
    The layers are swept in order over the lattice points reachable from
    the support: D_Q is computed only where some nonzero D_P and support
    monomial m give P + m = Q.  Everywhere else e_Q = 0 exactly, so D_Q = 0
    (at a hit too), and the solution terminates when the sweep says so.  P
    is `conic.evaluate`, from per-axis tables on a support that spans a
    plane (`IndicialConic.divider`).  The first coefficient that
    overflows to inf or nan is refused with ValueError.

    The engine is indifferent to the convergence conditions: it computes
    formal solutions even when no sufficient condition holds.
    """
    if N < 1:
        raise ValueError("order N must be >= 1")
    if N > pde.order:  # a, b, c would be truncated below the table
        raise ValueError(f"order N = {N} exceeds the order {pde.order} of the PDE series")
    if resonance_policy not in ("strict", "skip_removable"):
        raise ValueError(f"unknown resonance policy {resonance_policy!r}")
    r0 = complex(r0)
    s0 = complex(s0)
    conic = pde.conic()
    certificate = resonance_scan(conic, r0, s0, N, tol)
    hit_set = set(certificate.hit_indices())
    if hit_set and resonance_policy == "strict":
        raise ResonantPoint(
            f"resonant point ({r0}, {s0}): P vanishes at shifts {sorted(hit_set)}",
            certificate.hits,
        )

    polys = pde.cleared()
    monomials = sorted(set().union(*(f.coeffs for f in polys)) - {(0, 0)}, key=index_key)
    support = [(*m, *(f.get(m) for f in polys)) for m in monomials]  # (m1, m2, q_m, a_m, b_m, c_m)
    divide = conic.divider(r0, s0, N, spans_plane(monomials))
    scale = 1.0

    def divide_at_hits(q1, q2, e):
        nonlocal scale
        if (q1, q2) in hit_set:
            if abs(e) <= tol * scale:
                return 0
            raise ResonantPoint(
                f"resonant shift Q={(q1, q2)} at ({r0}, {s0}) with nonzero "
                f"convolution term |e_Q| = {abs(e):.3e}: no Frobenius "
                "solution with this exponent pair",
                certificate.hits,
            )
        d = divide(q1, q2, e)
        if abs(d) > scale:
            scale = abs(d)
        return d

    table, terminates = layer_sweep(support, r0, s0, N, 1.0 + 0j, divide_at_hits if hit_set else divide, conic)
    return FrobeniusSolution(r0, s0, N, table, certificate, convergence_report(pde.A, pde.B, pde.C), terminates)


_RATIO_FIT_DEGREE = 2
_RATIO_MONOTONE_TOL = 1e-9
_RATE_FLOOR = 1e-8


def radius_estimate(sol, order=None):
    """Bidisc convergence-radius estimate from layer sums d_n = sum |D_Q|.

    Estimates 1 / limsup d_n^{1/n} by the ratio method of Domb and Sykes.
    The period p of the layer sums is the gcd of the gaps between nonzero
    layers (2 for Bessel and Hermite, 3 for Airy).  Over the top half of
    the layers, n in [N/2, N] on that progression, the ratios
    R_n = (d_n / d_{n-p})^{1/p} are fitted by a least-squares quadratic in
    1/n; its value at 1/n = 0 is the growth rate, and the estimate is its
    reciprocal.  A quadratic follows the 1/n^2 drift of the ratios of the
    rational-coefficient models, where a line misses the radius by a few
    1e-3 at N = 40; a cubic amplifies rounding in the ratios five times more.

    Two guards keep the extrapolation honest:
    - an intercept below 1e-8 times the largest ratio is rounding noise
      around zero (ratios c/n, as for Bessel): the series is entire and the
      estimate is +inf;
    - ratios that are not monotone to within a relative 1e-9 have no trend
      to extrapolate (complex-conjugate singularities make them oscillate).
      For them, as for fewer than three ratios or a zero layer on the
      progression, the rate is e^beta, with beta the least-squares slope
      of log d_n against n over the nonzero top-half layers.

    Returns the +inf sentinel for a FrobeniusSolution that terminates, when
    every top-half layer vanishes or the rate is zero or underflows, and 0.0
    when it overflows.  Accepts a CSeries2 (a FrobeniusSolution is one) or a
    plain {(q1, q2): coefficient} table, truncated at `order` (default: its
    highest layer, the estimate that a FrobeniusSolution keeps).

    A FrobeniusSolution that does not terminate, yet whose top-half layers
    all vanish, holds coefficients that underflowed to 0: its estimate is
    that of the table cut at its last nonzero layer, when that layer is at
    least 10, and +inf below.  It reads only the layers that did not
    underflow, so it is as good as a solve to that order.
    """
    if isinstance(sol, FrobeniusSolution) and order is None:
        if sol._radius is None:  # with an order given, this call skips the cache
            object.__setattr__(sol, "_radius", radius_estimate(sol, sol.order))
        return sol._radius
    if not isinstance(sol, CSeries2) or order not in (None, sol.order):
        table = getattr(sol, "coeffs", sol)
        sol = CSeries2(max((q1 + q2 for q1, q2 in table), default=0) if order is None else order, table)
    sums = sol.layer_sums()
    N = sol.order
    if N < 10:
        raise ValueError("radius_estimate needs order N >= 10")
    if isinstance(sol, FrobeniusSolution) and sol.terminates:
        return math.inf
    if not any(sums[n] > 0.0 for n in range(N // 2, N + 1)):
        last = max((n for n, d in enumerate(sums) if d), default=0)
        return radius_estimate(sol.coeffs, last) if isinstance(sol, FrobeniusSolution) and last >= 10 else math.inf
    rate = _ratio_rate(sums, N)
    if rate is None:
        rate = _log_linear_rate(sums, N)
    if rate == math.inf:
        return 0.0
    return 1.0 / rate if rate >= 1e-300 else math.inf


def _ratio_rate(sums, N):
    """Growth rate from ratios extrapolated to 1/n = 0, or None when the
    ratios do not allow it."""
    nonzero = [n for n, d in enumerate(sums) if d > 0.0]
    first = nonzero[0]
    p = 0
    for n in nonzero:
        p = math.gcd(p, n - first)
    if p == 0:
        return None
    window = [n for n in range(N // 2, N + 1) if (n - first) % p == 0 and n - p >= first]
    if len(window) <= _RATIO_FIT_DEGREE or any(sums[n] == 0.0 or sums[n - p] == 0.0 for n in window):
        return None
    ratios = [(sums[n] / sums[n - p]) ** (1.0 / p) for n in window]
    steps = list(zip(ratios, ratios[1:]))
    if not (
        all(b >= a * (1.0 - _RATIO_MONOTONE_TOL) for a, b in steps)
        or all(b <= a * (1.0 + _RATIO_MONOTONE_TOL) for a, b in steps)
    ):
        return None
    coeffs, mid, half = _lstsq([1.0 / n for n in window], ratios, _RATIO_FIT_DEGREE)
    t0 = -mid / half  # 1/n = 0
    rate = sum(c * t0 ** k for k, c in enumerate(coeffs))
    return rate if rate > _RATE_FLOOR * max(ratios) else 0.0


def _log_linear_rate(sums, N):
    """e^beta for the least-squares slope beta of log d_n over the nonzero
    top-half layers."""
    window = [(n, sums[n]) for n in range(N // 2, N + 1) if sums[n] > 0.0]
    if len(window) == 1:
        n, d = window[0]
        return d ** (1.0 / n)
    coeffs, _, half = _lstsq([float(n) for n, _ in window], [math.log(d) for _, d in window], 1)
    beta = coeffs[1] / half
    try:
        return math.exp(beta)
    except OverflowError:
        return math.inf


def _lstsq(xs, ys, degree):
    """(c, mid, half): the least-squares polynomial of the given degree
    through (xs, ys) is sum c_k t^k in t = (x - mid) / half, which maps the
    abscissae onto [-1, 1] and keeps the normal equations well conditioned."""
    mid = (max(xs) + min(xs)) / 2
    half = (max(xs) - min(xs)) / 2
    powers = [[1.0] * len(xs), [(x - mid) / half for x in xs]]
    for _ in range(2 * degree - 1):
        powers.append([a * b for a, b in zip(powers[-1], powers[1])])
    moments = [sum(p) for p in powers]
    m = degree + 1
    rows = [moments[i:i + m] + [sum(a * y for a, y in zip(powers[i], ys))] for i in range(m)]
    for k in range(m):  # Gauss-Jordan elimination with partial pivoting
        pivot = max(range(k, m), key=lambda i: abs(rows[i][k]))
        rows[k], rows[pivot] = rows[pivot], rows[k]
        for i in range(m):
            if i != k:
                f = rows[i][k] / rows[k][k]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
    return [rows[k][m] / rows[k][k] for k in range(m)], mid, half


def prepare_coordinates(A_of_x, C_of_y):
    """Preparation transform making variable leading coefficients constant.

    Given unit series A(x) and C(y), returns (f, g) with f(0) = g(0) = 1 such
    that the substitution xi = x f(x), eta = y g(y) replaces A(x), C(y) by
    their values at the origin:  A(x) x^2 (f + x f')^2 = A(0) (x f)^2 up to
    truncation, and the same for g.  That is x f' = (w - 1) f with
    w = (A/A(0))^(-1/2).
    """
    f = _prepare_one(A_of_x, axis="x")
    g = _prepare_one(C_of_y.transpose(), axis="y").transpose()
    return f, g


def _prepare_one(series, axis):
    """w = (A/a0)^(-1/2) from w(0) = 1 exactly, then the layer sweep of
    x f' = (w - 1) f from f(0) = 1."""
    for (q1, q2) in series.coeffs:
        if q2 != 0:
            raise ValueError(f"coefficient series for {axis} must be univariate")
    if series.constant_term() == 0:
        raise ZeroConstantTerm("leading coefficient vanishes at the origin")
    w = _power(series, -0.5, 1.0 + 0j)
    support = [(m1, 0, 0, 0, 0, -v) for (m1, _), v in w.items() if m1]
    table, _ = layer_sweep(support, 0, 0, series.order, 1.0 + 0j, lambda q1, q2, e: -e / q1)
    return object.__new__(CSeries2)._set(series.order, table)
