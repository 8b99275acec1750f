"""Helpers shared by the tests: series helpers, the catalog models, the
per-point references for the engine and the resonance scan, exact
references for the series operations and for `to_series`, the series
reference for `to_series`, the character-by-character reference for the
expression tokenizer and a pointwise evaluator of expression ASTs."""

import inspect
import math
import operator
import re
import sys
from fractions import Fraction

from frobpde.errors import (
    BasePointNotOnConic,
    DivisionBySeriesWithZeroConstantTerm,
    ExprSyntaxError,
    ResonantPoint,
    UnboundParameter,
)
from frobpde.frobenius import FrobeniusSolution, convergence_report
from frobpde.indicial import DEFAULT_TOL, ResonanceReport
from frobpde.multiseries import CSeries2, cauchy_mul, index_key, norm, reciprocal

#: every catalog model, with the parameters the tests solve it at
CATALOG_MODELS = [
    ("bessel_I", {"nu": 0}),
    ("bessel_II", {"nu": 0}),
    ("airy_I", {}),
    ("airy_II", {}),
    ("hermite_I", {"lam": 1.3}),
    ("hermite_II", {"lam": 1.3}),
    ("legendre_I", {"lam": 0.7}),
    ("legendre_II", {"lam": 0.7}),
    ("chebyshev_I", {"p": 0.7}),
    ("chebyshev_II", {"p": 0.7}),
    ("laguerre_I", {"lam": 1.3}),
    ("laguerre_II", {"lam": 1.3}),
    ("disturbed_heat", {"a": 1}),
]
#: catalog models at complex parameters: the three planes and a ray
COMPLEX_MODELS = [
    ("hermite_II", {"lam": 1.3 + 0.5j}),
    ("legendre_II", {"lam": 0.7 - 0.2j}),
    ("chebyshev_II", {"p": 0.7 + 0.1j}),
    ("bessel_I", {"nu": 0.5 + 0.5j}),
]


def max_abs_diff(f, g):
    """Largest coefficient difference up to the common order."""
    order = min(f.order, g.order)
    keys = {Q for Q in f.coeffs if norm(Q) <= order}
    keys |= {Q for Q in g.coeffs if norm(Q) <= order}
    return max((abs(f.get(Q) - g.get(Q)) for Q in keys), default=0.0)


# -- references for the layer sweep ------------------------------------------
# The engine and the resonance scan as they were before the layer sweep:
# every Q of every layer, e_Q gathered over the whole sorted support from a
# prior table that holds zeros too, and P evaluated with conic.evaluate at
# every point.  The recurrence is that of the cleared PDE (the PDE times the
# common denominator q of a, b and c), whose support monomials with q_m != 0
# add q_m T(p', q') to the first-order weight.  solve and resonance_scan must
# reproduce them bit for bit.


def reference_support(cleared):
    """The monomials m != (0, 0) of the cleared PDE, in canonical order."""
    return sorted(set().union(*(f.coeffs for f in cleared)) - {(0, 0)}, key=index_key)


def reference_weight(pde, cleared, r, s, m, P):
    """w_m(P), the factor of D_P in e_(P+m), of the cleared PDE `cleared` = (q, q a, q b, q c)."""
    cq, ca, cb, cc = cleared
    A, B, C = pde.A, pde.B, pde.C
    i, j = P
    if cq.get(m):
        p, q = i + r, j + s
        return cq.get(m) * (A * p * (p - 1) + B * p * q + C * q * (q - 1)) + p * ca.get(m) + q * cb.get(m) + cc.get(m)
    return (i + r) * ca.get(m) + (j + s) * cb.get(m) + cc.get(m)


def reference_rhs(pde, cleared, r, s, Q, prior):
    """e_Q of the cleared PDE, summed over its support in canonical order;
    every D_P it touches must be in `prior`."""
    q1, q2 = Q
    e = 0j
    for m in reference_support(cleared):
        if m[0] <= q1 and m[1] <= q2:
            P = (q1 - m[0], q2 - m[1])
            e += reference_weight(pde, cleared, r, s, m, P) * prior[P]
    return e


def reference_scan(conic, r0, s0, N, tol=DEFAULT_TOL):
    """Resonance scan that calls conic.evaluate at every shift."""
    r0 = complex(r0)
    s0 = complex(s0)
    base = conic.evaluate(r0, s0)
    if abs(base) >= tol:
        raise BasePointNotOnConic(
            f"({r0}, {s0}) is not on the conic: |P| = {abs(base):.3e} >= {tol:.3e}"
        )
    hits = []
    for n in range(1, N + 1):
        for q1 in range(n + 1):
            q2 = n - q1
            mag = abs(conic.evaluate(r0 + q1, s0 + q2))
            if mag < tol:
                hits.append(((q1, q2), mag))
    nonres = N if not hits else sum(hits[0][0]) - 1
    return ResonanceReport(r0, s0, N, tuple(hits), nonres)


def reference_solve(pde, r0, s0, N, tol=DEFAULT_TOL, resonance_policy="strict"):
    """The per-Q recurrence over every lattice point, with the full prior
    table (zeros included)."""
    r0 = complex(r0)
    s0 = complex(s0)
    conic = pde.conic()
    certificate = reference_scan(conic, r0, s0, N, tol)
    hit_set = set(certificate.hit_indices())
    if hit_set and resonance_policy == "strict":
        raise ResonantPoint(
            f"resonant point ({r0}, {s0}): P vanishes at shifts {sorted(hit_set)}",
            certificate.hits,
        )
    cleared = pde.cleared()
    table = {(0, 0): 1.0 + 0j}
    scale = 1.0
    for n in range(1, N + 1):
        for q1 in range(n + 1):
            Q = (q1, n - q1)
            e = reference_rhs(pde, cleared, r0, s0, Q, table)
            if Q in hit_set:
                if abs(e) <= tol * scale:
                    table[Q] = 0j
                    continue
                raise ResonantPoint(
                    f"resonant shift Q={Q} at ({r0}, {s0}) with nonzero "
                    f"convolution term |e_Q| = {abs(e):.3e}: no Frobenius "
                    "solution with this exponent pair",
                    certificate.hits,
                )
            d = -e / conic.evaluate(r0 + Q[0], s0 + Q[1])
            table[Q] = d
            if abs(d) > scale:
                scale = abs(d)
    report = convergence_report(pde.A, pde.B, pde.C)
    # a solution takes its table as it is: drop the zeros (the 0j at hits too) as the sweep does
    coeffs = CSeries2(N, table).coeffs
    # it terminates when the table holds the d layers past its last nonzero one, d the largest
    # |m|, and every weight from a nonzero D_P into them is exactly 0
    support, last = reference_support(cleared), max(map(norm, coeffs))
    terminates = last + max(map(norm, support), default=0) <= N and not any(
        reference_weight(pde, cleared, r0, s0, m, P) for P in coeffs for m in support if norm(P) + norm(m) > last)
    return FrobeniusSolution(r0, s0, N, coeffs, certificate, report, terminates)


#: the line of `multiseries.mul_tables` that adds one term to a coefficient of a product
PRODUCT_TERM = "out[key] = out.get(key, 0j) + fv * gv"


def count_line(marker, fn, *args, via=None):
    """(executions of the one line of fn that holds the text marker, result),
    counted by a line tracer while fn(*args), or via(*args) when given, runs."""
    lines, start = inspect.getsourcelines(fn)
    targets = [start + i for i, text in enumerate(lines) if marker in text]
    if len(targets) != 1:
        raise ValueError(f"the marker {marker!r} is on {len(targets)} lines of {fn.__module__}.{fn.__qualname__}, "
                         "not on exactly one")
    [target] = targets
    count = 0

    def on_line(frame, event, arg):
        nonlocal count
        count += event == "line" and frame.f_lineno == target
        return on_line

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: on_line if frame.f_code is fn.__code__ else None)
    try:
        result = (via or fn)(*args)
    finally:
        sys.settrace(previous)
    return count, result


def bits(series):
    """Keys in stored order with the exact bits of each coefficient."""
    return [(Q, v.real.hex(), v.imag.hex()) for Q, v in series.coeffs.items()]


# -- exact references for the series operations -------------------------------
# The series operations as they were before they ran on the layer sweep, in
# exact rational arithmetic and independent of Miller's formula: a triangular
# solve for the reciprocal, the self-convolution for the square root and
# sum f^k / k! for exp.  Series are {(q1, q2): Fraction} tables up to `order`.


def exact_mul(f, g, order):
    out = {}
    for (p1, p2), u in f.items():
        for (m1, m2), v in g.items():
            if p1 + p2 + m1 + m2 <= order:
                Q = (p1 + m1, p2 + m2)
                out[Q] = out.get(Q, 0) + u * v
    return out


def _later_indices(order):
    return [(q1, n - q1) for n in range(1, order + 1) for q1 in range(n + 1)]


def exact_reciprocal(f, order):
    """Triangular solve of f g = 1."""
    f0 = f[(0, 0)]
    g = {(0, 0): 1 / f0}
    for q1, q2 in _later_indices(order):
        acc = sum(
            (v * g[(q1 - m1, q2 - m2)] for (m1, m2), v in f.items()
             if (m1, m2) != (0, 0) and m1 <= q1 and m2 <= q2),
            Fraction(0),
        )
        g[(q1, q2)] = -acc / f0
    return g


def exact_sqrt(f, order):
    """Self-convolution solve of g g = f for f(0) = 1."""
    assert f[(0, 0)] == 1
    g = {(0, 0): Fraction(1)}
    for q1, q2 in _later_indices(order):
        acc = sum(
            (g[(p1, p2)] * g[(q1 - p1, q2 - p2)] for p1 in range(q1 + 1) for p2 in range(q2 + 1)
             if (p1, p2) not in ((0, 0), (q1, q2))),
            Fraction(0),
        )
        g[(q1, q2)] = (f.get((q1, q2), 0) - acc) / 2
    return g


def exact_exp(f, order):
    """sum_k f^k / k! for f(0) = 0."""
    assert f.get((0, 0), 0) == 0
    term = {(0, 0): Fraction(1)}
    g = dict(term)
    for k in range(1, order + 1):
        term = {Q: v / k for Q, v in exact_mul(term, f, order).items()}
        for Q, v in term.items():
            g[Q] = g.get(Q, 0) + v
    return g


def exact_prepare(A, order):
    """f = exp(int (w - 1)/x dx) with w = sqrt(A(0)/A(x)), for a univariate
    table A in x."""
    a0 = A[(0, 0)]
    w = exact_sqrt({Q: a0 * v for Q, v in exact_reciprocal(A, order).items()}, order)
    h = {(q1 + 1, 0): w.get((q1 + 1, 0), 0) / (q1 + 1) for q1 in range(order)}
    return exact_exp(h, order)


def exact_series(ast, params, order):
    """The value of an expression AST over real dyadic literals and
    parameters, as an exact table; ZeroDivisionError when a divisor
    vanishes at the origin."""
    kind = ast[0]
    if kind in ("num", "param"):
        return {(0, 0): Fraction(ast[1] if kind == "num" else params[ast[1]])}
    if kind == "var":
        return {(1, 0) if ast[1] == "x" else (0, 1): Fraction(1)}
    if kind == "neg":
        return {Q: -v for Q, v in exact_series(ast[1], params, order).items()}
    if kind == "pow":
        base, out = exact_series(ast[1], params, order), {(0, 0): Fraction(1)}
        for _ in range(ast[2]):
            out = exact_mul(out, base, order)
        return out
    f, g = exact_series(ast[1], params, order), exact_series(ast[2], params, order)
    if kind == "mul":
        return exact_mul(f, g, order)
    if kind == "div":
        if not g.get((0, 0)):
            raise ZeroDivisionError("divisor vanishes at the origin")
        return exact_mul(f, exact_reciprocal(g, order), order)
    sign = 1 if kind == "add" else -1
    return {Q: f.get(Q, 0) + sign * g.get(Q, 0) for Q in f.keys() | g.keys()}


def dense_to_series(ast, params, order):
    """`to_series` as it was before it kept fractions: every node a dense
    series, every division a product with the reciprocal of the divisor."""
    kind = ast[0]
    if kind in ("num", "param", "i", "var"):
        return _leaf_series(ast, params, order)
    if kind == "neg":
        return -dense_to_series(ast[1], params, order)
    if kind == "pow":
        base = dense_to_series(ast[1], params, order)
        result = CSeries2.one(order)
        for _ in range(ast[2]):
            result = cauchy_mul(result, base)
        return result
    f, g = dense_to_series(ast[1], params, order), dense_to_series(ast[2], params, order)
    if kind == "add":
        return f + g
    if kind == "sub":
        return f - g
    return cauchy_mul(f, g if kind == "mul" else reciprocal(g))


def _leaf_series(ast, params, order):
    """The series of a leaf of an AST: a number, i, a variable or a bound parameter."""
    kind = ast[0]
    if kind == "var":
        return CSeries2(order, {(1, 0) if ast[1] == "x" else (0, 1): 1.0})
    if kind == "param" and ast[1] not in params:
        raise UnboundParameter(f"parameter {ast[1]!r} is not bound")
    return CSeries2(order, {(0, 0): ast[1] if kind == "num" else 1j if kind == "i" else params[ast[1]]})


def _reference_power(f, k):
    """f^k by squaring over the bits of k from the top, as `expr_parser._int_power` forms it."""
    g = CSeries2.one(f.order)
    for i, bit in enumerate(f"{k:b}"):
        if i:
            g = cauchy_mul(g, g)
        if bit == "1":
            g = cauchy_mul(g, f)
    return g


def _reference_product(f, g):
    """f g, with None standing for 1."""
    return f if g is None else g if f is None else cauchy_mul(f, g)


def reference_fraction(ast, params, order):
    """`expr_parser._fraction` as it was before it evaluated on plain tables:
    (num, den) series, den(0, 0) = 1 or den None for 1, every node a CSeries2
    summed and negated by the series operations."""
    kind = ast[0]
    if kind in ("num", "param", "i", "var"):
        return _leaf_series(ast, params, order), None
    if kind == "neg":
        num, den = reference_fraction(ast[1], params, order)
        return -num, den
    if kind == "pow":
        num, den = reference_fraction(ast[1], params, order)
        return _reference_power(num, ast[2]), None if den is None else _reference_power(den, ast[2])
    (n1, d1), (n2, d2) = reference_fraction(ast[1], params, order), reference_fraction(ast[2], params, order)
    if kind == "mul":
        return cauchy_mul(n1, n2), _reference_product(d1, d2)
    if kind == "div":
        c = n2.constant_term()
        if c == 0:
            raise DivisionBySeriesWithZeroConstantTerm("division by a series with zero constant term")
        if d2 is None and len(n2.coeffs) == 1:
            return cauchy_mul(n1, CSeries2(order, {(0, 0): 1 / c})), d1
        num, den = _reference_product(n1, d2), _reference_product(d1, n2)
        if c != 1:
            num = CSeries2(order, {Q: v / c for Q, v in num.coeffs.items()})
            den = CSeries2(order, {**{Q: v / c for Q, v in den.coeffs.items()}, (0, 0): 1})
        return num, den
    if d1 != d2:
        n1, n2, d1 = _reference_product(n1, d2), _reference_product(n2, d1), _reference_product(d1, d2)
    return (n1 + n2 if kind == "add" else n1 - n2), d1


def layer_relative_error(series, exact):
    """max over the layers n of max_Q |D_Q - exact_Q| / max_Q |exact_Q|, Q on
    layer n.  A layer whose exact coefficients all vanish is measured
    against the largest exact coefficient."""
    top = max(abs(v) for v in exact.values())
    worst = 0.0
    for n in range(series.order + 1):
        layer = [(q1, n - q1) for q1 in range(n + 1)]
        scale = max(abs(exact.get(Q, 0)) for Q in layer) or top
        err = max(math.hypot(Fraction(series.get(Q).real) - exact.get(Q, 0), series.get(Q).imag) for Q in layer)
        worst = max(worst, err / float(scale))
    return worst


# -- pointwise evaluation of an AST ---------------------------------------------

_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv}


def evaluate_ast(ast, params, x, y):
    """The value of an expression AST at the point (x, y), straight from the tree."""
    kind = ast[0]
    if kind in ("num", "param"):
        return ast[1] if kind == "num" else params[ast[1]]
    if kind in ("i", "var"):
        return 1j if kind == "i" else x if ast[1] == "x" else y
    if kind == "neg":
        return -evaluate_ast(ast[1], params, x, y)
    if kind == "pow":
        return evaluate_ast(ast[1], params, x, y) ** ast[2]
    return _BINARY[kind](evaluate_ast(ast[1], params, x, y), evaluate_ast(ast[2], params, x, y))


# -- reference for the tokenizer ----------------------------------------------
# The expression tokenizer as it was before it became one regular expression:
# a scan that skips whitespace by str.isspace and tries a number (of ASCII
# digits), then an identifier, then an operator at each position.

_NUM_RE = re.compile(r"(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def reference_tokenize(text):
    """(kind, text, offset) triples ending with ("end", "", len(text)), or
    the ExprSyntaxError of the first character that starts no token."""
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _NUM_RE.match(text, pos)
        if m:
            tokens.append(("number", m.group(0), pos))
            pos = m.end()
            continue
        m = _IDENT_RE.match(text, pos)
        if m:
            tokens.append(("ident", m.group(0), pos))
            pos = m.end()
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", text, pos)
    tokens.append(("end", "", n))
    return tokens
