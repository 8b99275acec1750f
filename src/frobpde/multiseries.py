"""Truncated bivariate power series over the complex numbers.

A series of order N stores coefficients for multi-indices Q = (q1, q2) with
|Q| = q1 + q2 <= N in a sparse table.  Absent key means zero; exact zeros are
never stored, so equality of tables is structural.  The canonical iteration
order is ascending norm, then ascending q1.
"""

import cmath
import math

from .errors import ZeroConstantTerm


def norm(Q):
    return Q[0] + Q[1]


def index_key(Q):
    """Sort key realizing the canonical order: ascending norm, then q1."""
    return (Q[0] + Q[1], Q[0])


class CSeries2:
    """Immutable truncated bivariate power series with complex coefficients.
    `fraction` is the pair (num, den) of polynomials, den(0, 0) = 1, that
    `to_series` expanded the series from; None (den = 1) on any other."""

    __slots__ = ("order", "coeffs", "fraction")

    def __init__(self, order, coeffs=None):
        if order < 0:
            raise ValueError("order must be nonnegative")
        table = {}
        if coeffs:
            for Q, v in coeffs.items():
                q1, q2 = Q
                if q1 < 0 or q2 < 0:
                    raise ValueError(f"negative exponent in index {Q}")
                if q1 + q2 > order:
                    continue
                z = complex(v)
                if z != 0:
                    table[(q1, q2)] = z
        if not all(map(cmath.isfinite, table.values())):
            bad = next(z for z in table.values() if not cmath.isfinite(z))
            raise ValueError(f"non-finite coefficient {bad!r}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", table)
        object.__setattr__(self, "fraction", None)

    def __setattr__(self, name, value):
        raise AttributeError("CSeries2 is immutable")

    def __setstate__(self, state):  # unpickling and copy bypass __setattr__
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value, order):
        return CSeries2(order, {(0, 0): value})

    @staticmethod
    def one(order):
        return CSeries2(order, {(0, 0): 1.0})

    @staticmethod
    def variable(name, order):
        if name == "x":
            return CSeries2(order, {(1, 0): 1.0})
        if name == "y":
            return CSeries2(order, {(0, 1): 1.0})
        raise ValueError(f"unknown variable {name!r}")

    # -- basic queries -----------------------------------------------------

    def get(self, Q):
        return self.coeffs.get(Q, 0j)

    def constant_term(self):
        return self.coeffs.get((0, 0), 0j)

    def items(self):
        """Coefficients in canonical order."""
        return sorted(self.coeffs.items(), key=lambda kv: index_key(kv[0]))

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
        return CSeries2(self.order, {Q: -v for Q, v in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, CSeries2):
            return NotImplemented
        return self + (-other)

    def transpose(self):
        """Swap the roles of x and y."""
        return CSeries2(self.order, {(q2, q1): v for (q1, q2), v in self.coeffs.items()})

    # -- evaluation and serialization --------------------------------------

    def evaluate(self, x, y):
        """Partial-sum value at (x, y), summed in canonical order."""
        total = 0j
        for (q1, q2), v in self.items():
            total += v * (x ** q1) * (y ** q2)
        return total


def cauchy_mul(f, g):
    """Full convolution product, truncated at min(order(f), order(g)): each
    coefficient summed from 0j over the tables in their dict order, f outer
    and g inner; zero sums are kept until CSeries2 drops them."""
    order = min(f.order, g.order)
    out = {}
    for (p1, p2), fv in f.coeffs.items():
        if p1 + p2 > order:
            continue
        for (r1, r2), gv in g.coeffs.items():
            q1, q2 = p1 + r1, p2 + r2
            if q1 + q2 > order:
                continue
            key = (q1, q2)
            out[key] = out.get(key, 0j) + fv * gv
    return CSeries2(order, out)


# -- the layer sweep ---------------------------------------------------------
# Every recurrence of the package is one Euler-type equation solved at the
# origin: coefficient Q reads P(Q) D_Q + e_Q = 0, where e_Q convolves the
# support monomials m != (0, 0) with the layers below |Q|.


def layer_sweep(support, r, s, order, d0, divide, symbol=None):
    """Coefficient table {(q1, q2): D_Q} up to |Q| = order, in canonical
    order, with D_(0,0) = d0 and D_Q = divide(q1, q2, e_Q) on every later
    layer.

    support lists (m1, m2, t_m, a_m, b_m, c_m) for the monomials m != (0, 0)
    in canonical order.  Each nonzero D_P below layer |Q| and monomial m
    with P + m = Q add the weight t_m T(p', q') + p' a_m + q' b_m + c_m,
    with p' = p1 + r and q' = p2 + s, times D_P to e_Q, so every e_Q sums
    its terms in canonical monomial order, starting from +0j.
    T(p', q') = A p'(p'-1) + B p'q' + C q'(q'-1) is the second-order symbol
    of symbol = (A, B, C); a monomial with t_m = 0 does not evaluate it.

    `divide` is called only at the Q that some nonzero prior reaches, in
    ascending q1 within each layer; everywhere else e_Q = 0, so D_Q = 0.
    Zero coefficients are not stored, and the first one that overflows to
    inf or nan is refused with ValueError.
    """
    if any(m[2] for m in support):  # the pieces of T for each q1 and q2, summed as in T
        A, B, C = symbol
        ps = [i + r for i in range(order + 1)]
        qs = [j + s for j in range(order + 1)]
        Ap = [A * p * (p - 1) for p in ps]
        Bp = [B * p for p in ps]
        Cq = [C * q * (q - 1) for q in qs]
    rows = [[(0, d0)]]  # rows[n]: (q1, D_Q) of the nonzero D_Q of layer n, ascending q1
    for n in range(1, order + 1):
        rhs = {}  # q1 -> e_Q of layer n
        for m1, m2, tm, am, bm, cm in support:
            k = n - m1 - m2
            if k < 0:
                break
            if tm:
                for i, d in rows[k]:
                    p, q = ps[i], qs[k - i]
                    w = tm * (Ap[i] + Bp[i] * q + Cq[k - i]) + p * am + q * bm + cm
                    rhs[i + m1] = rhs.get(i + m1, 0j) + w * d
            else:
                for i, d in rows[k]:
                    rhs[i + m1] = rhs.get(i + m1, 0j) + ((i + r) * am + (k - i + s) * bm + cm) * d
        row = []
        for q1 in sorted(rhs):
            d = divide(q1, n - q1, rhs[q1])
            if d == 0:
                continue
            if not (math.isfinite(d.real) and math.isfinite(d.imag)):
                raise ValueError(f"non-finite coefficient D_({q1},{n - q1}) (layer {n}): {d!r}")
            row.append((q1, d))
        rows.append(row)
    return {(q1, n - q1): d for n, row in enumerate(rows) for q1, d in row}


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
    table = layer_sweep(support, 0, 0, f.order, g0, lambda q1, q2, e: -e / (f0 * (q1 + q2)))
    return CSeries2(f.order, table)


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
    table = layer_sweep(support, 0, 0, f.order, cmath.exp(f.constant_term()), lambda q1, q2, e: -e / (q1 + q2))
    return CSeries2(f.order, table)
