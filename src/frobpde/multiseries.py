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


def layer(n):
    """All multi-indices of norm n in canonical order."""
    return [(q1, n - q1) for q1 in range(n + 1)]


def indices_up_to(N):
    for n in range(N + 1):
        yield from layer(n)


def _check_finite(z):
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"non-finite coefficient {z!r}")


class CSeries2:
    """Immutable truncated bivariate power series with complex coefficients."""

    __slots__ = ("order", "coeffs")

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
                _check_finite(z)
                if z != 0:
                    table[(q1, q2)] = z
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", table)

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
    def zero(order):
        return CSeries2(order, {})

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

    def __hash__(self):
        return hash((self.order, frozenset(self.coeffs.items())))

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

    def scale(self, scalar):
        z = complex(scalar)
        return CSeries2(self.order, {Q: z * v for Q, v in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, CSeries2):
            return cauchy_mul(self, other)
        return self.scale(other)

    __rmul__ = __mul__

    def truncate(self, order):
        return CSeries2(order, self.coeffs)

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

    def to_json_array(self):
        return [[q1, q2, v.real, v.imag] for (q1, q2), v in self.items()]

    @staticmethod
    def from_json_array(data, order):
        return CSeries2(order, {(q1, q2): complex(re, im) for q1, q2, re, im in data})


def cauchy_mul(f, g):
    """Full convolution product, truncated at min(order(f), order(g))."""
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


def reciprocal(f):
    """Multiplicative inverse of a unit series, to the same order."""
    f0 = f.constant_term()
    if f0 == 0:
        raise ZeroConstantTerm("reciprocal of a series with zero constant term")
    inv0 = 1.0 / f0
    out = {(0, 0): inv0}
    higher = {Q: v for Q, v in f.coeffs.items() if Q != (0, 0)}
    for Q in indices_up_to(f.order):
        if Q == (0, 0):
            continue
        q1, q2 = Q
        acc = 0j
        for (p1, p2), fv in higher.items():
            if p1 <= q1 and p2 <= q2:
                prev = out.get((q1 - p1, q2 - p2))
                if prev is not None:
                    acc += fv * prev
        if acc != 0:
            out[Q] = -inv0 * acc
    return CSeries2(f.order, out)


def sqrt_series(f):
    """Principal square root of a unit series, to the same order."""
    f0 = f.constant_term()
    if f0 == 0:
        raise ZeroConstantTerm("sqrt of a series with zero constant term")
    g0 = cmath.sqrt(f0)
    out = {(0, 0): g0}
    for Q in indices_up_to(f.order):
        if Q == (0, 0):
            continue
        q1, q2 = Q
        acc = 0j
        for (p1, p2), gv in out.items():
            if (p1, p2) == (0, 0):
                continue
            if p1 <= q1 and p2 <= q2 and (p1, p2) != (q1, q2):
                partner = out.get((q1 - p1, q2 - p2))
                if partner is not None and (q1 - p1, q2 - p2) != (0, 0):
                    acc += gv * partner
        gq = (f.get(Q) - acc) / (2.0 * g0)
        if gq != 0:
            out[Q] = gq
    return CSeries2(f.order, out)


def exp_series(f):
    """exp of a series, to the same order."""
    f0 = f.constant_term()
    g = f - CSeries2.constant(f0, f.order)  # zero constant term
    result = CSeries2.one(f.order)
    term = CSeries2.one(f.order)
    for k in range(1, f.order + 1):
        term = cauchy_mul(term, g).scale(1.0 / k)
        if not term.coeffs:
            break
        result = result + term
    if f0 != 0:
        result = result.scale(cmath.exp(f0))
    return result


def antiderivative_x(f):
    """Term-wise antiderivative in x with zero constant of integration."""
    out = {}
    for (q1, q2), v in f.coeffs.items():
        if q1 + 1 + q2 <= f.order:
            out[(q1 + 1, q2)] = v / (q1 + 1)
    return CSeries2(f.order, out)


def divide_by_x(f):
    """Exact shift x^{q1} -> x^{q1-1}; requires every term to contain x."""
    for (q1, q2) in f.coeffs:
        if q1 == 0:
            raise ValueError("series has a term without a factor of x")
    return CSeries2(f.order, {(q1 - 1, q2): v for (q1, q2), v in f.coeffs.items()})
