"""Indicial conics: construction, classification, point solving, resonance."""

import cmath
import math
from collections import namedtuple

from .errors import BasePointNotOnConic, ComplexCoefficients, NoSolution
from .multiseries import index_key

#: resonance / on-conic tolerance (absolute)
DEFAULT_TOL = 1e-9

#: allowances of the resonance scan: m for rounding, far above the few unit
#: roundoffs of |P|, of the row coefficients and of the discriminant,
#: 2 sqrt(m) for the roots, and u for underflow, far above 2^-1074
_ROUNDING, _ROOT_ROUNDING, _UNDERFLOW = 2.0 ** -44, 2.0 ** -21, 2.0 ** -1000

#: sentinel returned by solve_for_s when the equation degenerates to 0 = 0
ALL_SOLUTIONS = object()


class IndicialConic(namedtuple("IndicialConic", "cA cB cC cD cE cF")):
    """P(r, s) = cA r^2 + cB rs + cC s^2 + cD r + cE s + cF."""

    __slots__ = ()

    def evaluate(self, r, s):
        cA, cB, cC, cD, cE, cF = self
        return cA * r * r + cB * r * s + cC * s * s + cD * r + cE * s + cF

    def divider(self, r0, s0, N, tabulate):
        """divide(q1, q2, e) = -e / P(r0 + q1, s0 + q2) for 0 <= q1, q2 <= N,
        P summed as `evaluate` sums it; with tabulate, from the factors of one
        axis formed once per value, for the many Q of a plane that share them."""
        if not tabulate:
            return lambda q1, q2, e: -e / self.evaluate(r0 + q1, s0 + q2)
        cA, cB, cC, cD, cE, cF = self
        rs, ss = [r0 + q1 for q1 in range(N + 1)], [s0 + q2 for q2 in range(N + 1)]
        Ar, Br, Dr = [cA * r * r for r in rs], [cB * r for r in rs], [cD * r for r in rs]
        Cs, Es = [cC * s * s for s in ss], [cE * s for s in ss]
        return lambda q1, q2, e: -e / (Ar[q1] + Br[q1] * ss[q2] + Cs[q2] + Dr[q1] + Es[q2] + cF)

    def coefficients(self):
        return tuple(self)

    @staticmethod
    def from_euler(A, B, C, D, E, F):
        """Conic of an Euler PDE: same quadratic part, D-A and E-C linear part.
        The Def. 6.1 shape gives its conic with D, E, F = a(0,0), b(0,0), c(0,0)."""
        return IndicialConic(
            complex(A), complex(B), complex(C),
            complex(D) - complex(A), complex(E) - complex(C), complex(F),
        )


class ConicClass(namedtuple("ConicClass", "discriminant_class degenerate degenerate_kind")):
    """discriminant_class: elliptic | parabolic | hyperbolic
    degenerate_kind: none | two_crossing_lines | parallel_or_repeated_lines"""

    __slots__ = ()


def unit_scale(numbers):
    """The power of two that brings m, the largest real or imaginary part of
    the numbers in magnitude, into [1/2, 1): exact to multiply by, 1 for m = 0,
    and at most 2^1023, which leaves a subnormal m below 1/2."""
    m = max(max(abs(z.real), abs(z.imag)) for z in numbers)
    return math.ldexp(1.0, min(1023, -math.frexp(m)[1]))


def classify(conic, tol=DEFAULT_TOL):
    """Classification by the discriminant sign and the 3x3 determinant.

    Only real conics are classified; genuinely complex coefficients are
    refused.  The tests run on the conic times unit_scale, relative to its own
    coefficients: the imaginary parts against the largest one, the discriminant
    against the largest quadratic one squared, the determinant against the cube.
    """
    unit = unit_scale(conic)
    coeffs = [z * unit for z in conic]
    scale = max(map(abs, coeffs))
    if scale == 0:
        raise ValueError("all conic coefficients are zero")
    if max(abs(z.imag) for z in coeffs) > tol * scale:
        raise ComplexCoefficients("classification requires real conic coefficients")
    A, B, C, D, E, F = (z.real for z in coeffs)

    disc = B * B - 4.0 * A * C
    if abs(disc) <= tol * max(abs(A), abs(B), abs(C)) ** 2:
        discriminant_class = "parabolic"
        disc_zero = True
    else:
        discriminant_class = "elliptic" if disc < 0 else "hyperbolic"
        disc_zero = False

    det3 = (
        A * (C * F - E * E / 4.0)
        - (B / 2.0) * (B * F / 2.0 - E * D / 4.0)
        + (D / 2.0) * (B * E / 4.0 - C * D / 2.0)
    )
    degenerate = abs(det3) <= tol * scale ** 3
    if not degenerate:
        kind = "none"
    elif disc_zero:
        kind = "parallel_or_repeated_lines"
    else:
        kind = "two_crossing_lines"
    return ConicClass(discriminant_class, degenerate, kind)


def solve_for_s(conic, r):
    """Roots s of P(r, s) = 0 for fixed r.

    Returns the 0, 1 or 2 roots within the float range sorted by (real, imag),
    ALL_SOLUTIONS when the equation degenerates to 0 = 0, and raises
    NoSolution when it degenerates to a nonzero constant.  A row whose
    discriminant overflows, or whose lin^2 and 4 quad const both fall below the
    normal range, is first multiplied by its unit_scale, which keeps the roots.
    """
    r = complex(r)
    quad = conic.cC
    lin = conic.cB * r + conic.cE
    const = conic.cA * r * r + conic.cD * r + conic.cF
    if quad == 0 == lin:
        if const == 0:
            return ALL_SOLUTIONS
        raise NoSolution(f"P({r}, s) = {const} has no root in s")
    return sorted(filter(cmath.isfinite, _roots(quad, lin, const)), key=lambda z: (z.real, z.imag))


def _roots(quad, lin, const):
    """The roots of solve_for_s, unsorted, a root beyond the float range as inf or nan."""
    if quad == 0:
        return [-const / lin]
    square, product = lin * lin, 4.0 * quad * const
    disc = square - product
    if not cmath.isfinite(disc) or (abs(square.real) < 2.0 ** -1022 > abs(square.imag)
                                    and abs(product.real) < 2.0 ** -1022 > abs(product.imag)):
        unit = unit_scale((quad, lin, const))
        if quad * unit == 0 == lin * unit:  # both underflow: from the unscaled row, where nothing does
            if lin == 0:  # quad s^2 = -const
                s1 = cmath.sqrt(-const) / cmath.sqrt(quad)
                return [s1, -s1]
            h = lin / (2.0 * quad)  # s = -h +- sqrt(h^2 - const / quad), with h^2 quad = h lin / 2
            s1 = cmath.sqrt(h * lin / 2.0 - const) / cmath.sqrt(quad)
            return [s1 - h, -s1 - h]
        quad, lin, const = quad * unit, lin * unit, const * unit
        if quad == 0:  # underflowed: linear to float precision, the other root beyond the float range
            return [-const / lin]
        disc = lin * lin - 4.0 * quad * const
    if disc == 0:
        return [-lin / (2.0 * quad)]
    root = cmath.sqrt(disc)
    return [(-lin + root) / (2.0 * quad), (-lin - root) / (2.0 * quad)]


class ResonanceReport(namedtuple("ResonanceReport", "r0 s0 bound hits nonresonant_up_to")):
    """hits: ((q1, q2), |P(r0+q1, s0+q2)|) pairs in canonical order"""

    __slots__ = ()

    def hit_indices(self):
        return [Q for Q, _ in self.hits]


def resonance_scan(conic, r0, s0, N, tol=DEFAULT_TOL):
    """Scan all shifts Q in N^2 \\ {0} with |Q| <= N for conic returns.

    A hit at Q means |P(r0+q1, s0+q2)| < tol (a number >= 0), i.e. the
    Frobenius recurrence would divide by (numerically) zero there.

    On row r = r0 + q1, P = cC s^2 + lin s + const is evaluated only at the
    q2 within w of Re(s_i - s0), for its roots s_i with |Im(s_i - s0)| < w.
    |P|, lin and const round by less than m T, m = 2^-44 and T a bound of the
    magnitudes of the six terms of P, so a hit is within sqrt((tol + m T) /
    |cC|), or (tol + m T) / |lin| when cC = 0, of a root.  The roots are
    those of c, the conic times unit_scale, on which lin = l0 + cB q1 and the
    discriminant is d0 + d1 q1 + d2 q1^2, all four formed once: one square
    root a row (one in all when d1 = d2 = 0), or -const / lin when cC = 0.
    With a = |r0| + q1 and u = 2^-1000 for underflow in c and on c (its parts
    are below 1), the discriminant rounds by less than m D + u (a^2 + a + 1),
    D = (|cB| a + |cE|)^2 + 4 |cC| ((|cA| a + |cD|) a + |cF|) the magnitudes
    of its terms on c, and a root by less than its square root over |2 cC|.
    w takes that twice, plus 2 sqrt(m) sum |s_i| for the rest of the rounding
    of the roots; when cC = 0, u (a + S + 1)^2 / |lin| on c, S >= |s|, for
    underflow.  A row is evaluated whole when P is constant in s and when w
    is not finite or spans the row.  When cC != 0 and d1 = d2 = 0 (a pair of
    parallel lines), each root moves on a line, s_i - s0 = t0_i - beta q1
    with beta = cB / (2 cC), so for one W >= every row's w the rows whose
    window can admit a q2 form an interval per root, found once; the scan
    visits those and the top rows where 2 W spans the row, O(1) rows for
    any N on the line-pair models, and no other.
    Each |P| is conic.evaluate(r, s), so the hits and their magnitudes are
    those of a scan of every shift, bit for bit.
    """
    if N < 1:
        raise ValueError("scan bound N must be >= 1")
    if not tol >= 0:
        raise ValueError(f"tolerance must be a number >= 0, got {tol!r}")
    r0, s0 = complex(r0), complex(s0)
    base = conic.evaluate(r0, s0)
    if not abs(base) < tol:  # a NaN point is not on the conic
        raise BasePointNotOnConic(
            f"({r0}, {s0}) is not on the conic: |P| = {abs(base):.3e} >= {tol:.3e}"
        )
    aA, aB, aC, aD, aE, aF = mags = [math.hypot(z.real, z.imag) for z in conic]
    R0, S = math.hypot(r0.real, r0.imag), math.hypot(s0.real, s0.imag) + N  # S bounds |s|
    BSD, CSEF = aB * S + aD, (aC * S + aE) * S + aF  # T = (aA a + BSD) a + CSEF
    unit = unit_scale(conic)
    uA, uB, uC, uD, uE, uF = (z * unit for z in conic)  # c
    l0, k0, k1 = uB * r0 + uE, (uA * r0 + uD) * r0 + uF, 2.0 * uA * r0 + uD  # lin, const, dconst/dr at q1 = 0
    if uC:
        d0, d1, d2 = l0 * l0 - 4.0 * uC * k0, 2.0 * l0 * uB - 4.0 * uC * k1, uB * uB - 4.0 * uA * uC
        root, half = cmath.sqrt(d0), 0.5 / uC
        bA, bB, bC, bD, bE, bF = (x * unit for x in mags)
        D2, D1, D0 = (_ROUNDING * t + _UNDERFLOW for t in (  # m D + u (a^2 + a + 1) = (D2 a + D1) a + D0
            bB * bB + 4.0 * bC * bA, 2.0 * bB * bE + 4.0 * bC * bD, bE * bE + 4.0 * bC * bF))
    rows = range(N + 1)
    if uC and not (d1 or d2):  # each root moves on a line: t = s_i - s0 = t0 - beta q1, with t0 at q1 = 0
        a = R0 + N  # so W >= the w of every row: the largest a, |s_i - s0| <= aS, and twice that for rounding
        aR, aL, aU, aH, aS = (math.hypot(z.real, z.imag) for z in (root, l0, uB, half, s0))
        aS += (aR + aL + aU * N) * aH
        W = 2.0 * (2.0 * _ROOT_ROUNDING * aS + math.sqrt((tol + _ROUNDING * ((aA * a + BSD) * a + CSEF)) / aC)
                   + math.sqrt((D2 * a + D1) * a + D0) / bC)
        beta, t0s = uB * half, ((root - l0) * half - s0, (-root - l0) * half - s0)
        if math.isfinite(W) and all(map(cmath.isfinite, (beta,) + t0s)):
            rows = set(range(max(0, math.ceil(max(0.0, N - 2.0 * W)) - 1), N + 1))  # 2 W >= last: evaluated whole
            for t0 in t0s:  # the rows with -W <= Re t <= N - q1 + W and |Im t| <= W, and one more at each end
                lo, hi = 0.0, float(N)
                for k, b in ((beta.real, t0.real + W), (1.0 - beta.real, N + W - t0.real),
                             (beta.imag, W + t0.imag), (-beta.imag, W - t0.imag)):  # k q1 <= b
                    if k:
                        lo, hi = (lo, min(hi, b / k)) if k > 0 else (max(lo, b / k), hi)
                    elif b < 0:
                        hi = -math.inf
                if lo <= hi + 1:
                    rows.update(range(max(0, math.ceil(lo) - 1), min(N, math.floor(hi) + 1) + 1))
    hits = []
    for q1 in rows:
        r, first, last, w = r0 + q1, (0 if q1 else 1), N - q1, math.inf
        a = R0 + q1  # bounds |r|
        slack = tol + _ROUNDING * ((aA * a + BSD) * a + CSEF)
        lin = l0 + uB * q1
        try:
            if uC:
                root = cmath.sqrt(d0 + (d1 + d2 * q1) * q1) if d1 or d2 else root
                roots = ((root - lin) * half, (-root - lin) * half)
                w = (_ROOT_ROUNDING * (abs(roots[0]) + abs(roots[1])) + math.sqrt(slack / aC)
                     + math.sqrt((D2 * a + D1) * a + D0) / bC)
            else:
                roots = (-(k0 + (k1 + uA * q1) * q1) / lin,)
                w = _ROOT_ROUNDING * abs(roots[0]) + (slack * unit + _UNDERFLOW * (a + S + 1) ** 2) / abs(lin)
        except (ZeroDivisionError, OverflowError):  # P constant in s, or a root beyond the float range
            pass
        if 2 * w < last:  # never for a w that is not finite
            q2s = set()
            for s in roots:
                t = s - s0
                if abs(t.imag) < w and first - w <= t.real <= last + w:
                    q2s.update(range(max(first, math.floor(t.real - w)), min(last, math.ceil(t.real + w)) + 1))
        else:
            q2s = range(first, last + 1)
        for q2 in q2s:
            mag = abs(conic.evaluate(r, s0 + q2))
            if mag < tol:
                hits.append(((q1, q2), mag))
    hits.sort(key=lambda hit: index_key(hit[0]))
    return ResonanceReport(r0, s0, N, tuple(hits), sum(hits[0][0]) - 1 if hits else N)
