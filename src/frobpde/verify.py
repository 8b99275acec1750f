"""Independent residual checking and numeric evaluation of solutions.

apply_operator builds q L[x^r0 y^s0 sum d_Q X^Q] / (x^r0 y^s0) by direct
series multiplication -- a code path deliberately separate from the engine's
incremental recurrence, so that agreement between the two is meaningful.
q, the common denominator of a, b and c, is a unit: q L[z] vanishes through
layer N exactly when L[z] does.
"""

import cmath
import math
import warnings
from collections import namedtuple

from .errors import OutsideEstimatedDomain
from .frobenius import radius_estimate
from .multiseries import CSeries2, convolve, norm


def apply_operator(pde, r0, s0, coeffs):
    """Coefficient table of q L applied to x^r0 y^s0 sum d_Q X^Q.

    The output coefficient at Q equals P(r0+q1, s0+q2) d_Q + e_Q.  Computed
    here as q T2 + (q a) Sx + (q b) Sy + (q c) S (`RegularSingularPDE.cleared`),
    each product a `convolve` summed in full before the next is added: T2 has
    the pure second-order weights A(q1+r)(q1+r-1) + B(q1+r)(q2+s)
    + C(q2+s)(q2+s-1) and Sx, Sy, S are the shifted/unshifted coefficient
    series.  `coeffs` is a CSeries2 (a FrobeniusSolution is one), computed to
    its order, or a plain {(q1, q2): d} table, computed to its highest layer.
    """
    r0 = complex(r0)
    s0 = complex(s0)
    S = coeffs
    if not isinstance(S, CSeries2):
        S = CSeries2(max(map(norm, coeffs), default=0), coeffs)
    M = S.order
    if pde.order < M:
        raise ValueError("pde series order must be >= coefficient table order")
    A, B, C = complex(pde.A), complex(pde.B), complex(pde.C)
    t2, sx, sy = {}, {}, {}
    for (q1, q2), d in S.coeffs.items():
        rr, ss = q1 + r0, q2 + s0
        t2[(q1, q2)] = (A * rr * (rr - 1) + B * rr * ss + C * ss * (ss - 1)) * d
        sx[(q1, q2)] = rr * d
        sy[(q1, q2)] = ss * d
    out = {}
    for f, g in zip(pde.cleared(), (t2, sx, sy, S.coeffs)):
        for key, v in convolve(f.coeffs, g, M).items():
            out[key] = out.get(key, 0j) + v
    return CSeries2(M, out).coeffs


class ResidualReport(namedtuple("ResidualReport", "max_residual per_layer checked_up_to")):
    """per_layer: layer norm -> max |residual coefficient|"""

    __slots__ = ()


def residual_max(pde, solution):
    """Residual report of a FrobeniusSolution over every layer up to its order.

    q, a, b and c have no negative exponents, so layer n of q L[z] involves
    only the D_Q with |Q| <= n: no layer up to the truncation order gets a
    contribution from beyond it, and none is skipped.
    """
    out = apply_operator(pde, solution.r0, solution.s0, solution)
    per_layer = {n: 0.0 for n in range(solution.order + 1)}
    for Q, v in out.items():
        n = norm(Q)
        per_layer[n] = max(per_layer[n], abs(v))
    return ResidualReport(max(per_layer.values()), per_layer, solution.order)


def eval_solution(solution, x, y, check_domain=True):
    """Numeric value x^r0 y^s0 * partial sum at a point with x, y > 0.

    Complex exponents use the principal logarithm, exp(r0 ln x + s0 ln y).
    When the radius estimator produces a finite bidisc and (x, y) is not
    strictly inside it, an OutsideEstimatedDomain warning is emitted and the
    partial sum is evaluated anyway.
    """
    if not (x > 0 and y > 0):
        raise ValueError("eval_solution is defined for x > 0 and y > 0 only")
    if check_domain and solution.order >= 10:
        rad = radius_estimate(solution)
        if math.isfinite(rad) and max(x, y) >= rad:
            warnings.warn(
                f"point ({x}, {y}) is outside the estimated bidisc of radius {rad:.3g}",
                OutsideEstimatedDomain,
                stacklevel=2,
            )
    prefactor = cmath.exp(complex(solution.r0) * math.log(x) + complex(solution.s0) * math.log(y))
    return prefactor * solution.evaluate(x, y)
