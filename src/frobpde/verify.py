"""Independent residual checking and numeric evaluation of solutions.

apply_operator builds q L[x^r0 y^s0 sum d_Q X^Q] / (x^r0 y^s0) by direct
series multiplication -- a code path deliberately separate from the engine's
incremental recurrence, so that agreement between the two is meaningful: it
shares no layer sweep and no precomputed P with `frobenius.solve`.
q, the common denominator of a, b and c, is a unit: q L[z] vanishes through
layer N exactly when L[z] does.

The four products are summed on integer keys q1 (M + 1) + q2, M the order of
the table, over one list of the weighted d_Q sorted by layer, in the order of
four `cauchy_mul` calls added with `+`, and equal to their sum bit for bit.
"""

import cmath
import math
import warnings
from collections import namedtuple
from operator import itemgetter

from .errors import OutsideEstimatedDomain
from .frobenius import radius_estimate
from .multiseries import CSeries2, norm


def apply_operator(pde, r0, s0, coeffs):
    """Coefficient table of q L applied to x^r0 y^s0 sum d_Q X^Q.

    The output coefficient at Q equals P(r0+q1, s0+q2) d_Q + e_Q.  Computed
    here as q T2 + (q a) Sx + (q b) Sy + (q c) S (`RegularSingularPDE.cleared`),
    where T2 has the pure second-order weights A(q1+r)(q1+r-1) + B(q1+r)(q2+s)
    + C(q2+s)(q2+s-1) and Sx, Sy, S are the shifted/unshifted coefficient
    series.  `coeffs` is a CSeries2 (a FrobeniusSolution is one), computed
    to its order M, or a plain {(q1, q2): d} table, computed to its highest
    layer M.

    Summation order, the same as four `cauchy_mul` products added with `+`:
    at each Q, each product f g is summed from 0j over the monomials m of f
    in their stored order, and the four products are added to the output in
    turn, q T2 first.  A product whose f has one monomial has a one-term sum
    0j + z, which adds to the output o as o + (0j + z).  That equals o + z
    bit for bit: 0j + z differs from z only in a part that is -0.0, and no
    part of o is -0.0 (o starts as 0j plus a term, and a sum of floats is
    -0.0 only when both are).  So such an f adds straight into the output,
    and an f with more monomials sums into a table of its own first.  For a
    monomial m the d_Q with |Q| > M - |m| fall off the table; the list of d_Q
    is sorted by layer, so the pass over it stops at the first of them.
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
    W = M + 1  # Q is packed as q1 W + q2, one to one as q2 <= M
    terms = []  # (packed Q, |Q|, T2, Sx, Sy, S) of each d_Q, by ascending |Q|
    for (q1, q2), d in S.coeffs.items():
        rr, ss = q1 + r0, q2 + s0
        t2 = (A * rr * (rr - 1) + B * rr * ss + C * ss * (ss - 1)) * d
        terms.append((q1 * W + q2, q1 + q2, t2, rr * d, ss * d, d))
    terms.sort(key=itemgetter(1))
    out = {}
    for j, f in enumerate(pde.cleared(), 2):
        # a one-monomial f adds straight into out (see the docstring)
        acc = out if len(f.coeffs) == 1 else {}
        get = acc.get
        for (m1, m2), fv in f.coeffs.items():
            shift, room = m1 * W + m2, M - m1 - m2
            for t in terms:
                if t[1] > room:
                    break
                key = t[0] + shift
                acc[key] = get(key, 0j) + fv * t[j]
        if acc is not out:
            for key, v in acc.items():
                out[key] = out.get(key, 0j) + v
    return CSeries2(M, {divmod(key, W): v for key, v in out.items()}).coeffs


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
    for (q1, q2), v in out.items():
        n, a = q1 + q2, abs(v)
        if a > per_layer[n]:  # max(per_layer[n], a) without the call
            per_layer[n] = a
    return ResidualReport(max(per_layer.values()), per_layer, solution.order)


def eval_solution(solution, x, y):
    """Numeric value x^r0 y^s0 * partial sum at a point with x, y > 0.

    Complex exponents use the principal logarithm, exp(r0 ln x + s0 ln y).
    When the radius estimator produces a finite bidisc and (x, y) is not
    strictly inside it, an OutsideEstimatedDomain warning is emitted and the
    partial sum is evaluated anyway.
    """
    if not (x > 0 and y > 0):
        raise ValueError("eval_solution is defined for x > 0 and y > 0 only")
    if solution.order >= 10:
        rad = radius_estimate(solution)
        if math.isfinite(rad) and max(x, y) >= rad:
            warnings.warn(
                f"point ({x}, {y}) is outside the estimated bidisc of radius {rad:.3g}",
                OutsideEstimatedDomain,
                stacklevel=2,
            )
    prefactor = cmath.exp(complex(solution.r0) * math.log(x) + complex(solution.s0) * math.log(y))
    return prefactor * solution.evaluate(x, y)
