"""Independent residual checking and numeric evaluation of solutions.

apply_operator builds q L[x^r0 y^s0 sum d_Q X^Q] / (x^r0 y^s0) by direct
series multiplication -- a code path deliberately separate from the engine's
incremental recurrence, so that agreement between the two is meaningful: it
shares no layer sweep and no precomputed P with `frobenius.solve`.
q, the common denominator of a, b and c, is a unit: q L[z] vanishes through
layer N exactly when L[z] does.

The four products are summed on integer keys q1 (M + 1) + q2, M the order of
the table, over columns of the weighted d_Q sorted by layer, in the order of
four `cauchy_mul` calls added with `+`, and equal to their sum bit for bit.
"""

import cmath
import math
import warnings
from bisect import bisect_right
from collections import namedtuple
from itertools import repeat

from .errors import OutsideEstimatedDomain
from .frobenius import radius_estimate
from .multiseries import CSeries2, checked_table, norm


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
    and so does the first f, as the empty output takes 0j + v = v for a sum
    v from 0j.  Any other f sums into a table of its own first.

    The d_Q are sorted once, by layer, into columns: the packed keys, |Q|,
    and T2, Sx, Sy, S; with more d_Q than values of q1, which a ray never
    has, their factors that depend on one axis are tabulated per value.  For
    a monomial m the d_Q with |Q| > M - |m| fall off the table, so its pass
    runs over the columns cut with bisect at that room.  The output keeps
    the table rule of a series (`checked_table`): zero outputs are not
    stored and a non-finite one is refused with ValueError.
    """
    r0 = complex(r0)
    s0 = complex(s0)
    S = coeffs if isinstance(coeffs, CSeries2) else CSeries2(max(map(norm, coeffs), default=0), coeffs)
    M = S.order
    if pde.order < M:
        raise ValueError("pde series order must be >= coefficient table order")
    A, B, C = complex(pde.A), complex(pde.B), complex(pde.C)
    W = M + 1  # Q is packed as q1 W + q2, one to one as q2 <= M
    items = CSeries2.items(S)  # by ascending |Q|, sorted here: the check does not trust the stored order
    keys = [q1 * W + q2 for (q1, q2), _ in items]
    norms = [q1 + q2 for (q1, q2), _ in items]
    if len(items) > W:  # some d_Q share q1 (and q2): the factors of one axis, once per value
        r_of, s_of = [q1 + r0 for q1 in range(W)], [q2 + s0 for q2 in range(W)]
        Ar, Br = [A * rr * (rr - 1) for rr in r_of], [B * rr for rr in r_of]
        Cs = [C * ss * (ss - 1) for ss in s_of]
        T2 = [(Ar[q1] + Br[q1] * s_of[q2] + Cs[q2]) * d for (q1, q2), d in items]
        Sx, Sy = [r_of[q1] * d for (q1, _), d in items], [s_of[q2] * d for (_, q2), d in items]
    else:
        T2, Sx, Sy = [], [], []
        for (q1, q2), d in items:
            rr, ss = q1 + r0, q2 + s0
            T2.append((A * rr * (rr - 1) + B * rr * ss + C * ss * (ss - 1)) * d)
            Sx.append(rr * d)
            Sy.append(ss * d)
    columns = (T2, Sx, Sy, [d for _, d in items])
    out = {}
    for f, column in zip(pde.cleared(), columns):
        # a one-monomial f, and the first f, add straight into out (see the docstring)
        acc = out if len(f.coeffs) == 1 or not out else {}
        get = acc.get
        for (m1, m2), fv in f.coeffs.items():
            shift, cut = m1 * W + m2, bisect_right(norms, M - m1 - m2)
            for key, t in zip(keys[:cut], column[:cut]):
                key += shift
                acc[key] = get(key, 0j) + fv * t
        if acc is not out:
            for key, v in acc.items():
                out[key] = out.get(key, 0j) + v
    return checked_table(zip(map(divmod, out, repeat(W)), out.values()))


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
