"""Truncated bivariate power series over the complex numbers.

A series of order N stores coefficients for multi-indices Q = (q1, q2) with
|Q| = q1 + q2 <= N in a sparse table.  Absent key means zero; exact zeros are
never stored, so equality of tables is structural.  The canonical iteration
order is ascending norm, then ascending q1.
"""

import cmath
import math
from itertools import filterfalse

from .errors import ZeroConstantTerm


def norm(Q):
    return Q[0] + Q[1]


def index_key(Q):
    """Sort key realizing the canonical order: ascending norm, then q1."""
    return (Q[0] + Q[1], Q[0])


def checked_table(pairs):
    """The table rule of a series: the (Q, z) pairs as a table without exact
    zeros, the first non-finite z refused with ValueError."""
    table = {Q: z for Q, z in pairs if z}
    for bad in filterfalse(cmath.isfinite, table.values()):
        raise ValueError(f"non-finite coefficient {bad!r}")
    return table


class CSeries2:
    """Immutable truncated bivariate power series with complex coefficients.
    `fraction` is the pair (num, den) of polynomials, den(0, 0) = 1, that
    `to_series` made the series from; None (den = 1) on any other.  Such a
    series has no table until `coeffs` is first read, which expands it as
    cauchy_mul(num, reciprocal(den))."""

    __slots__ = ("order", "coeffs", "fraction")

    def __init__(self, order, coeffs=None):
        if order < 0:
            raise ValueError("order must be nonnegative")
        table = {}
        for Q, v in (coeffs or {}).items():
            q1, q2 = Q
            if q1 < 0 or q2 < 0:
                raise ValueError(f"negative exponent in index {Q}")
            if q1 + q2 <= order:
                table[(q1, q2)] = complex(v)
        self._set(order, checked_table(table.items()))

    def _set(self, order, coeffs=None, fraction=None, slots=()):
        """Sets the slots to a table taken as it is, or to a fraction (num, den),
        and the slots of a subclass from (name, value) pairs; returns self."""
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "fraction", fraction)
        if fraction is None:
            object.__setattr__(self, "coeffs", coeffs)
        for name, value in slots:
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("CSeries2 is immutable")

    def __setstate__(self, state):  # unpickling and copy bypass __setattr__
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def __getattr__(self, name):  # the normal lookup failed: serves the table of a fraction, once
        if name != "coeffs" or self.fraction is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        num, den = self.fraction
        object.__setattr__(self, "coeffs", mul_tables(num.coeffs, reciprocal(den).coeffs, self.order))
        return self.coeffs

    # -- constructors ------------------------------------------------------

    @staticmethod
    def one(order):
        return CSeries2(order, {(0, 0): 1.0})

    # -- basic queries -----------------------------------------------------

    def get(self, Q):
        return self.coeffs.get(Q, 0j)

    def constant_term(self):
        if self.fraction is None:
            return self.coeffs.get((0, 0), 0j)
        num, den = self.fraction  # the sum that cauchy_mul forms at (0, 0), without the expansion
        return 0j + num.constant_term() * (1.0 / den.constant_term()) or 0j

    def items(self):
        """Coefficients in canonical order."""
        W = self.order + 1  # (|Q|, q1) packed as |Q| W + q1, one to one as q1 <= order
        return [kv for _, kv in sorted(zip([(q1 + q2) * W + q1 for q1, q2 in self.coeffs], self.coeffs.items()))]

    def layer_sums(self):
        """d_n = sum of coefficient magnitudes on each lattice layer."""
        sums = [0.0] * (self.order + 1)
        for (q1, q2), v in self.coeffs.items():
            sums[q1 + q2] += abs(v)
        return sums

    def __eq__(self, other):
        if not isinstance(other, CSeries2):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self):
        terms = [f"({q1},{q2}):{v}" for (q1, q2), v in self.items()]
        return f"{type(self).__name__}(order={self.order}, {{{', '.join(terms)}}})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, CSeries2):
            return NotImplemented
        order = min(self.order, other.order)
        out = dict(self.coeffs)
        for Q, v in other.coeffs.items():
            out[Q] = out.get(Q, 0j) + v
        return CSeries2(order, out)

    def __neg__(self):
        return object.__new__(CSeries2)._set(self.order, {Q: -v for Q, v in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, CSeries2):
            return NotImplemented
        return self + (-other)

    def transpose(self):
        """Swap the roles of x and y."""
        return object.__new__(CSeries2)._set(self.order, {(q2, q1): v for (q1, q2), v in self.coeffs.items()})

    # -- evaluation and serialization --------------------------------------

    def evaluate(self, x, y):
        """Partial-sum value at (x, y), summed in the order of `items`.  With
        more terms than values of q1, which a ray never has, x**q1 and y**q2
        are formed once per value, unless one leaves the float range; then,
        as on a ray, a term whose powers leave it is formed by `_far_term`."""
        items, W = self.items(), self.order + 1
        if len(items) > W:
            try:
                xs, ys = [x ** k for k in range(W)], [y ** k for k in range(W)]
            except OverflowError:
                pass
            else:
                total = 0j
                for (q1, q2), v in items:
                    total += v * xs[q1] * ys[q2]
                return total
        total = 0j
        for (q1, q2), v in items:
            try:
                total += v * (x ** q1) * (y ** q2)
            except OverflowError:
                total += _far_term(v, x, q1, y, q2)
        return total


def _far_term(v, x, q1, y, q2):
    """v x^q1 y^q2 from v, x and y scaled by powers of two to parts below 1
    in magnitude, scaled back part by part: finite where the term is, and a
    part beyond the float range is inf of its sign."""
    z, e = 1.0, 0
    for w, q in ((complex(v), 1), (complex(x), q1), (complex(y), q2)):
        k = math.frexp(abs(w.real) + abs(w.imag))[1]
        z *= complex(math.ldexp(w.real, -k), math.ldexp(w.imag, -k)) ** q
        e += k * q
    parts = []
    for t in (z.real, z.imag):
        try:
            parts.append(math.ldexp(t, e))
        except OverflowError:
            parts.append(math.copysign(math.inf, t))
    return complex(*parts)


def cauchy_mul(f, g):
    """Full convolution product, truncated at min(order(f), order(g)), as `mul_tables` forms it."""
    order = min(f.order, g.order)
    return object.__new__(CSeries2)._set(order, mul_tables(f.coeffs, g.coeffs, order))


def mul_tables(f, g, order):
    """The table of the product of tables f and g, truncated at order: each
    coefficient summed from 0j over the tables in their dict order, f outer
    and g inner; zero sums are kept until the table rule drops them."""
    out = {}
    for (p1, p2), fv in f.items():
        if p1 + p2 > order:
            continue
        for (r1, r2), gv in g.items():
            q1, q2 = p1 + r1, p2 + r2
            if q1 + q2 > order:
                continue
            key = (q1, q2)
            out[key] = out.get(key, 0j) + fv * gv
    return checked_table(out.items())


# -- the layer sweep ---------------------------------------------------------
# Every recurrence of the package is one Euler-type equation solved at the
# origin: coefficient Q reads P(Q) D_Q + e_Q = 0, where e_Q convolves the
# support monomials m != (0, 0) with the layers below |Q|.


def spans_plane(monomials):
    """Whether two of the monomials (m1, m2, ...), none of them (0, 0), are not collinear."""
    return len(monomials) > 1 and any(m[0] * monomials[0][1] - m[1] * monomials[0][0] for m in monomials[1:])


def layer_sweep(support, r, s, order, d0, divide, symbol=None):
    """(table, terminates): the coefficient table {(q1, q2): D_Q} up to
    |Q| = order, in canonical order, with D_(0,0) = d0 and
    D_Q = divide(q1, q2, e_Q) on every later layer, and whether every D_Q
    past the table is 0.

    support lists (m1, m2, t_m, a_m, b_m, c_m) for the monomials m != (0, 0)
    in canonical order.  Each nonzero D_P below layer |Q| and monomial m
    with P + m = Q add the weight w_m(P) = t_m T(p', q') + p' a_m + q' b_m
    + c_m, with p' = p1 + r and q' = p2 + s, times D_P to e_Q, so every e_Q
    sums its terms in canonical monomial order, starting from +0j.
    symbol is the indicial conic (A, B, C, D, E, F) of an equation whose
    divide is -e_Q / P, as `solve` passes it, and
    T(p', q') = A p'(p'-1) + B p'q' + C q'(q'-1) its second-order symbol;
    a monomial with t_m = 0 does not evaluate it.
    On a support that spans a plane or has a symbol, p' a_m and q' b_m are
    tabulated per q1 and q2; on a ray with no symbol each Q computes them.

    On a plane with a symbol, when r, s, d0, the conic and the support have
    zero imaginary parts, e_Q is summed in floats with the same bits: the
    real part of each complex product is the float product up to the sign
    of a zero, and its imaginary part is a zero; each sum starts from +0.0,
    so it is never -0.0, and the complex e_Q is (float e_Q, +0.0).  divide
    receives that complex(e_Q), and P is real, so D_Q has a zero imaginary
    part: the table keeps the complex quotient, and the sums read its real
    part.  A ray stays complex.

    `divide` is called only at the Q that some nonzero prior reaches, in
    ascending q1 within each layer; everywhere else e_Q = 0, so D_Q = 0.
    Only layers on multiples of the gcd of the |m| are reached, and after d
    empty layers, d the largest |m|, every later e_Q is 0: the sweep stops.
    The series terminates when the table holds those d layers and every
    weight that reached them is exactly 0, not a product or a quotient that
    underflowed.  Zero coefficients (d0 too) are not stored, and the first
    one that is inf or nan is refused with ValueError, d0 after the sweep.
    """
    sizes = [m[0] + m[1] for m in support] or [0]  # ascending
    step, reach = math.gcd(*sizes) or order + 1, sizes[-1]  # no support: no layer past 0
    symbolic, plane = any(m[2] for m in support), spans_plane(support)
    table, zero = {(0, 0): d0}, 0j
    floats = symbol is not None and plane and [(m1, m2, t.real, a.real, b.real, c.real)
                                               for m1, m2, t, a, b, c in support]
    real = floats == support and not any(z.imag for z in (r, s, d0, *symbol))  # then the sums run in floats
    if real:
        r, s, d0, symbol, support, zero = r.real, s.real, d0.real, [z.real for z in symbol[:3]], floats, 0.0
    tabulate = symbolic or plane
    if tabulate:
        ps, qs = [i + r for i in range(order + 1)], [j + s for j in range(order + 1)]
        support = [(*m[:3], [p * m[3] for p in ps], [q * m[4] for q in qs], m[5]) for m in support]
    if symbolic:  # the pieces of T for each q1 and q2, summed as in T
        A, B, C = symbol[:3]
        Ap = [A * p * (p - 1) for p in ps]
        Bp = [B * p for p in ps]
        Cq = [C * q * (q - 1) for q in qs]
    rows = [[(0, d0)]] + [[]] * order  # rows[n]: (q1, D_Q) of the nonzero D_Q of layer n, ascending q1
    last = 0
    for n in range(step, order + 1, step):
        if n > last + reach:  # layers n - d .. n - 1 are empty
            break
        rhs = {}  # q1 -> e_Q of layer n
        for m1, m2, tm, am, bm, cm in support:
            k = n - m1 - m2
            if k < 0:
                break
            if tm:
                for i, d in rows[k]:
                    w = tm * (Ap[i] + Bp[i] * qs[k - i] + Cq[k - i]) + am[i] + bm[k - i] + cm
                    rhs[i + m1] = rhs.get(i + m1, zero) + w * d
            elif tabulate:
                for i, d in rows[k]:
                    rhs[i + m1] = rhs.get(i + m1, zero) + (am[i] + bm[k - i] + cm) * d
            else:
                for i, d in rows[k]:
                    rhs[i + m1] = rhs.get(i + m1, 0j) + ((i + r) * am + (k - i + s) * bm + cm) * d
        row = rows[n] = []
        for q1 in sorted(rhs):
            d = divide(q1, n - q1, rhs[q1] + 0j if real else rhs[q1])  # e + 0j = complex(e), as e != -0.0
            if d:
                if not cmath.isfinite(d):
                    raise ValueError(f"non-finite coefficient D_({q1},{n - q1}) (layer {n}): {d!r}")
                table[(q1, n - q1)] = d
                row.append((q1, d.real if real else d))
        if row:
            last = n

    terminates = last + reach <= order
    for m1, m2, tm, am, bm, cm in support if terminates else ():  # every weight that reached the d layers
        for k in range(max(0, last + 1 - m1 - m2), last + 1):
            for i, _ in rows[k]:  # w_m at P = (i, k - i), formed as the loops above form it
                if tm:
                    w = tm * (Ap[i] + Bp[i] * qs[k - i] + Cq[k - i]) + am[i] + bm[k - i] + cm
                else:
                    w = am[i] + bm[k - i] + cm if tabulate else (i + r) * am + (k - i + s) * bm + cm
                terminates = terminates and w == 0
    return table if d0 and cmath.isfinite(d0) else checked_table(table.items()), terminates


# -- series operations as Euler-type solves ----------------------------------
# With theta = x d/dx + y d/dy, g = f^alpha solves f theta(g) = alpha
# theta(f) g and g = exp(f) solves theta(g) = theta(f) g.  Both are
# first-order equations whose indicial conic is a multiple of r + s, which
# vanishes at no shift Q != 0, so the layer sweep at r = s = 0 computes g.


def _power(f, alpha, g0):
    """g0 (f/f0)^alpha.  Coefficient Q of f theta(g) = alpha theta(f) g
    reads f0 |Q| g_Q + sum_{m != 0} (|Q-m| - alpha |m|) f_m g_{Q-m} = 0:
    J. C. P. Miller's formula for the powers of a series."""
    f0 = f.constant_term()
    support = [(m1, m2, 0, v, v, -alpha * (m1 + m2) * v) for (m1, m2), v in f.items() if m1 + m2]
    table, _ = layer_sweep(support, 0, 0, f.order, g0, lambda q1, q2, e: -e / (f0 * (q1 + q2)))
    return object.__new__(CSeries2)._set(f.order, table)


def reciprocal(f):
    """Multiplicative inverse of a unit series, to the same order."""
    f0 = f.constant_term()
    if f0 == 0:
        raise ZeroConstantTerm("reciprocal of a series with zero constant term")
    return _power(f, -1, 1.0 / f0)


def sqrt_series(f):
    """Principal square root of a unit series, to the same order."""
    f0 = f.constant_term()
    if f0 == 0:
        raise ZeroConstantTerm("sqrt of a series with zero constant term")
    return _power(f, 0.5, cmath.sqrt(f0))


def exp_series(f):
    """exp of a series, to the same order.  Coefficient Q of
    theta(g) = theta(f) g reads |Q| g_Q = sum_{m != 0} |m| f_m g_{Q-m}."""
    support = [(m1, m2, 0, 0, 0, -(m1 + m2) * v) for (m1, m2), v in f.items() if m1 + m2]
    table, _ = layer_sweep(support, 0, 0, f.order, cmath.exp(f.constant_term()), lambda q1, q2, e: -e / (q1 + q2))
    return object.__new__(CSeries2)._set(f.order, table)
