"""Independent residual checking and numeric evaluation of solutions.

apply_operator builds q L[x^r0 y^s0 sum d_Q X^Q] / (x^r0 y^s0) by direct
series multiplication -- a code path deliberately separate from the engine's
incremental recurrence, so that agreement between the two is meaningful: it
shares no layer sweep and no precomputed P with `frobenius.solve`.
q, the common denominator of a, b and c, is a unit: q L[z] vanishes through
layer N exactly when L[z] does.

The four products are summed on integer keys |Q| (M + 1) + q1, M the order
of the table, over columns of the weighted d_Q sorted by layer, in the order
of four `cauchy_mul` calls added with `+`, and equal to their sum bit for bit.
"""

import cmath
import math
import warnings
from bisect import bisect_left
from collections import namedtuple
from itertools import chain
from operator import add, gt

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
    part of o is -0.0 (o starts as 0j, and a sum of floats is -0.0 only when
    both are).  So such an f adds straight into the output, and so does the
    first f, as the empty output takes 0j + v = v for a sum v from 0j.  Any
    other f sums into slots of its own first; adding 0j to a slot it did not
    reach leaves the slot as it is.

    Q is packed as |Q| W + q1, W = M + 1.  The d_Q are read in stored order,
    which one pass checks to be ascending in these keys; only a table that
    is not is sorted.  Their weights form columns: T2, Sx, Sy and S.  With
    more d_Q than values of q1, which a ray never has, the factors that
    depend on one axis are tabulated per value, and the sums go to a list
    of W^2 slots; otherwise to a dict.  For a monomial m the d_Q with
    |Q| > M - |m| fall off the table, so its pass runs over the columns cut
    with bisect at that room; it adds at most one term to each key, so the
    order inside a layer does not change a value.  The output keeps the
    table rule of a series (`checked_table`): zero outputs are not stored
    and a non-finite one is refused with ValueError.
    """
    W, out = _operator_sums(pde, r0, s0, coeffs, False)
    pairs = out.items() if isinstance(out, dict) else [(k, v) for k, v in enumerate(out) if v]
    return checked_table(((k % W, k // W - k % W), v) for k, v in pairs)


def _operator_sums(pde, r0, s0, coeffs, floats):
    """(W, out): the sums of `apply_operator` on the keys |Q| W + q1, W = M + 1,
    in a list of W^2 slots (0 where nothing is added) when the d_Q outnumber
    the values of q1, else in a dict.  With floats, a list holds the real
    parts as floats when the data are real (`residual_max`)."""
    r0, s0 = complex(r0), complex(s0)
    S = coeffs if isinstance(coeffs, CSeries2) else CSeries2(max(map(norm, coeffs), default=0), coeffs)
    M = S.order
    if pde.order < M:
        raise ValueError("pde series order must be >= coefficient table order")
    A, B, C = complex(pde.A), complex(pde.B), complex(pde.C)
    W = M + 1  # one to one as q1 <= M; a monomial m shifts a key by |m| W + m1
    keys, items = [(q1 + q2) * W + q1 for q1, q2 in S.coeffs], list(S.coeffs.items())
    if any(map(gt, keys, keys[1:])):  # sorted here only if need be: the check does not trust the stored order
        keys, items = zip(*sorted(zip(keys, items)))
    plane, polys, zero = len(items) > W, [f.coeffs for f in pde.cleared()], 0j  # plane: some d_Q share q1
    if floats and plane and not any(z.imag for z in chain((A, B, C, r0, s0), *map(dict.values, polys),
                                                          S.coeffs.values())):
        A, B, C, r0, s0, zero = A.real, B.real, C.real, r0.real, s0.real, 0.0
        items = [(Q, d.real) for Q, d in items]
        polys = [{m: v.real for m, v in f.items()} for f in polys]
    if plane:  # the factors that depend on one axis, once per value
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
    out = [zero] * (W * W) if plane else {}
    for k, (f, column) in enumerate(zip(polys, columns)):
        # the first f, and a one-monomial f, add straight into out (see apply_operator)
        acc = out if k == 0 or len(f) == 1 else [zero] * len(out) if plane else {}
        for (m1, m2), fv in f.items():
            shift, cut = (m1 + m2) * W + m1, bisect_left(keys, (W - m1 - m2) * W)
            if plane:
                for key, t in zip(keys[:cut], column[:cut]):
                    acc[key + shift] += fv * t
                continue
            get = acc.get
            for key, t in zip(keys[:cut], column[:cut]):
                key += shift
                acc[key] = get(key, 0j) + fv * t
        if acc is not out and plane:
            out[:] = map(add, out, acc)
        elif acc is not out:
            for key, v in acc.items():
                out[key] = out.get(key, 0j) + v
    return W, out


class ResidualReport(namedtuple("ResidualReport", "max_residual per_layer checked_up_to")):
    """per_layer: layer norm -> max |residual coefficient|"""

    __slots__ = ()


def residual_max(pde, solution):
    """Residual report of a FrobeniusSolution over every layer up to its order.

    q, a, b and c have no negative exponents, so layer n of q L[z] involves
    only the D_Q with |Q| <= n: no layer up to the truncation order gets a
    contribution from beyond it, and none is skipped.

    The sums are those of `apply_operator`, and a non-finite one is refused
    with its ValueError.  On a list of slots each layer's maximum is read
    off its slice.  There, when A, B, C, r0, s0, every coefficient of the
    cleared polynomials and every d_Q have zero imaginary part, the sums run
    in floats with the same bits: the real part of each complex product is
    the float product up to the sign of a zero, and its imaginary part is
    a zero; every sum starts from +0.0, so it is never -0.0, and the complex
    sum is (float sum, +0.0), whose |.| is that of the float sum.
    """
    W, out = _operator_sums(pde, solution.r0, solution.s0, solution, True)
    if isinstance(out, dict):
        per_layer = [0.0] * W
        for key, v in checked_table(out.items()).items():
            n, a = key // W, abs(v)
            if a > per_layer[n]:  # max(per_layer[n], a) without the call
                per_layer[n] = a
    else:
        per_layer, total = [], 0.0
        for n in range(W):
            mags = list(map(abs, out[n * W:n * W + n + 1]))
            per_layer.append(max(mags))
            total += sum(mags)
        if not math.isfinite(total):  # refused as apply_operator refuses it, unless only the total overflowed
            apply_operator(pde, solution.r0, solution.s0, solution)
    return ResidualReport(max(per_layer), dict(enumerate(per_layer)), solution.order)


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
