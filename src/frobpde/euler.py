"""Euler-type PDEs: monomial solutions, Euler coordinates, classical
boundary families, and the integral-point families of the Diophantine
theorem.

The operator is A x^2 z_xx + B xy z_xy + C y^2 z_yy + D x z_x + E y z_y + F z.
"""

import math
from collections import namedtuple

from .errors import ConstraintViolated
from .indicial import DEFAULT_TOL, IndicialConic


class EulerPDE(namedtuple("EulerPDE", "A B C D E F")):
    __slots__ = ()

    def __new__(cls, A, B, C, D, E, F):
        if all(complex(v) == 0 for v in (A, B, C, D, E, F)):
            raise ValueError("Euler PDE needs at least one nonzero coefficient")
        return super().__new__(cls, A, B, C, D, E, F)

    @classmethod
    def _make(cls, iterable):  # _replace too: check like the constructor
        return cls(*iterable)

    def conic(self):
        return IndicialConic.from_euler(*self)


def monomial_check(pde, r, s):
    """True iff x^r y^s formally solves the Euler PDE (conic membership)."""
    return abs(pde.conic().evaluate(r, s)) < DEFAULT_TOL


def real_monomial_pair(r, s, x, y):
    """The two real solutions built from a complex monomial exponent pair.

    With r = r1 + i r2, s = s1 + i s2 and x, y > 0:
        u1 = x^r1 y^s1 (cos(r2 ln x) cos(s2 ln y) - sin(r2 ln x) sin(s2 ln y))
        u2 = x^r1 y^s1 (cos(r2 ln x) sin(s2 ln y) + sin(r2 ln x) cos(s2 ln y))
    which are the real and imaginary parts of x^r y^s.
    """
    if not (x > 0 and y > 0):
        raise ValueError("real_monomial_pair is defined for x > 0 and y > 0 only")
    r = complex(r)
    s = complex(s)
    mag = x ** r.real * y ** s.real
    alpha = r.imag * math.log(x)
    beta = s.imag * math.log(y)
    u1 = mag * (math.cos(alpha) * math.cos(beta) - math.sin(alpha) * math.sin(beta))
    u2 = mag * (math.cos(alpha) * math.sin(beta) + math.sin(alpha) * math.cos(beta))
    return (u1, u2)


def euler_coords(pde, direction):
    """Coefficient map of the substitution x = e^u, y = e^v.

    direction "to_constant" maps an Euler six-tuple to the constant-coefficient
    operator it becomes in Euler coordinates: (A,B,C,D,E,F) -> (A,B,C,D-A,E-C,F).
    direction "to_euler" is the inverse.  Accepts an EulerPDE or a six-tuple and
    returns a six-tuple.
    """
    coeffs = tuple(pde)
    if len(coeffs) != 6:
        raise ValueError("expected six coefficients")
    A, B, C, D, E, F = coeffs
    if direction == "to_constant":
        return (A, B, C, D - A, E - C, F)
    if direction == "to_euler":
        return (A, B, C, D + A, E + C, F)
    raise ValueError(f"unknown direction {direction!r}")


# ---------------------------------------------------------------------------
# Integral points of the three Diophantine families
# ---------------------------------------------------------------------------


class LatticeLine(namedtuple("LatticeLine", "base direction")):
    """Integer points base + t * direction, t in Z."""

    __slots__ = ()

    def point(self, t):
        return (self.base[0] + t * self.direction[0], self.base[1] + t * self.direction[1])


class IntegerPointFamily(namedtuple("IntegerPointFamily", "family conic points lines")):
    """conic: six integers (A', B', C', D', E', F') the points satisfy
    points: isolated integer points
    lines: LatticeLine instances"""

    __slots__ = ()

    def all_points(self, span=3):
        out = list(self.points)
        for line in self.lines:
            out.extend(line.point(t) for t in range(-span, span + 1))
        return out


def _ext_gcd(a, b):
    """(g, u, v) with a u + b v = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def _require_int(name, value):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConstraintViolated(f"{name} must be an integer, got {value!r}")
    return value


def integral_points(family, A=None, B=None, C=None):
    """Integer solutions of the three Diophantine conic families.

    elliptic(A, C), AC > 0: the conic (Ar + A)^2 + (Cs + C)^2 = (AC)^2 with
        the four points (-1 +- C, -1), (-1, -1 +- A).
    parabolic(A, B, C), B^2 = 4AC, A != 0: the double line (2Ar + Bs + 2A)^2 = 0,
        solved as the lattice line 2Ar + Bs = -2A via extended gcd.
    hyperbolic(A, B), B != 0: A r^2 + B rs + B s - A = 0, whose integer points
        are the line r = -1 (s free) plus the lattice line Ar + Bs = A.
    """
    if family == "elliptic":
        _require_int("A", A)
        _require_int("C", C)
        if A * C <= 0:
            raise ConstraintViolated(f"elliptic family needs AC > 0, got A={A}, C={C}")
        conic = (A * A, 0, C * C, 2 * A * A, 2 * C * C, A * A + C * C - A * A * C * C)
        points = ((-1 + C, -1), (-1 - C, -1), (-1, -1 + A), (-1, -1 - A))
        return IntegerPointFamily("elliptic", conic, points, ())
    if family == "parabolic":
        _require_int("A", A)
        _require_int("B", B)
        _require_int("C", C)
        if B * B != 4 * A * C:
            raise ConstraintViolated(f"parabolic family needs B^2 = 4AC, got {B}^2 != 4*{A}*{C}")
        if A == 0:
            raise ConstraintViolated("parabolic family needs A != 0")
        conic = (4 * A * A, 4 * A * B, B * B, 8 * A * A, 4 * A * B, 4 * A * A)
        g, u, v = _ext_gcd(2 * A, B)
        k = (-2 * A) // g  # g divides 2A, so this is exact
        line = LatticeLine((u * k, v * k), (B // g, (-2 * A) // g))
        return IntegerPointFamily("parabolic", conic, (), (line,))
    if family == "hyperbolic":
        _require_int("A", A)
        _require_int("B", B)
        if B == 0:
            raise ConstraintViolated("hyperbolic family needs B != 0")
        conic = (A, B, 0, 0, B, -A)
        vertical = LatticeLine((-1, 0), (0, 1))  # r = -1, s free
        g, u, v = _ext_gcd(A, B)
        k = A // g
        slanted = LatticeLine((u * k, v * k), (B // g, -A // g))
        return IntegerPointFamily("hyperbolic", conic, (), (vertical, slanted))
    raise ConstraintViolated(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# Classical boundary-value families (heat / wave / Laplace)
# ---------------------------------------------------------------------------


def _exp_factor(rate, y):
    """(Y, Y', Y'') of Y = exp(rate y)."""
    e = math.exp(rate * y)
    return e, rate * e, rate * rate * e


def _wave_factor(w, y, cosine):
    """(Y, Y', Y'') of Y = cos(w y) or sin(w y)."""
    s, c = math.sin(w * y), math.cos(w * y)
    return (c, -w * s, -w * w * c) if cosine else (s, w * c, -w * w * s)


#: kind -> ((k, a, y) -> (Y, Y', Y'') at y, a -> (c_xx, c_y, c_yy) of the PDE
#: c_xx z_xx + c_y z_y + c_yy z_yy = 0 that u = sin(kx) Y(y) solves)
_CLASSICAL = {
    "heat": (lambda k, a, y: _exp_factor(-((a * k) ** 2), y), lambda a: (a * a, -1.0, 0.0)),
    "wave_sin_sin": (lambda k, a, y: _wave_factor(a * k, y, False), lambda a: (-a * a, 0.0, 1.0)),
    "wave_sin_cos": (lambda k, a, y: _wave_factor(a * k, y, True), lambda a: (-a * a, 0.0, 1.0)),
    "laplace_grow": (lambda k, a, y: _exp_factor(k, y), lambda a: (1.0, 0.0, 1.0)),
    "laplace_decay": (lambda k, a, y: _exp_factor(-k, y), lambda a: (1.0, 0.0, 1.0)),
}


class ClassicalSolution:
    """Closed-form product solution u = sin(kx) Y(y), k = n pi / L, with
    analytic derivatives.

    residual(x, y) substitutes the exact partials into the constant-coefficient
    PDE the family solves (heat: a^2 z_xx = z_y; wave: z_yy = a^2 z_xx;
    Laplace: z_xx + z_yy = 0).
    """

    def __init__(self, kind, n, L, a):
        self.kind = kind
        self.a = a
        self.k = n * math.pi / L

    def _y(self, y):
        return _CLASSICAL[self.kind][0](self.k, self.a, y)

    def __call__(self, x, y):
        return math.sin(self.k * x) * self._y(y)[0]

    # analytic partial derivatives ----------------------------------------

    def fx(self, x, y):
        return self.k * math.cos(self.k * x) * self._y(y)[0]

    def fxx(self, x, y):
        return -self.k ** 2 * self(x, y)

    def fy(self, x, y):
        return math.sin(self.k * x) * self._y(y)[1]

    def fyy(self, x, y):
        return math.sin(self.k * x) * self._y(y)[2]

    def residual(self, x, y):
        cxx, cy, cyy = _CLASSICAL[self.kind][1](self.a)
        return cxx * self.fxx(x, y) + cy * self.fy(x, y) + cyy * self.fyy(x, y)


def classical_solution(kind, n, L, a=1.0):
    """Closed-form boundary family member; vanishes at x = 0 and x = L."""
    if kind not in _CLASSICAL:
        raise ValueError(f"unknown kind {kind!r}; expected one of {tuple(_CLASSICAL)}")
    if not (n >= 1 and L > 0 and a > 0):
        raise ValueError("need n >= 1, L > 0, a > 0")
    return ClassicalSolution(kind, n, L, a)
