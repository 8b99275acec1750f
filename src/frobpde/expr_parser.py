"""Pratt parser for coefficient expressions in x and y.

Grammar: decimal literals, the imaginary unit `i`, variables `x`/`y`,
identifiers (parameters), `+ - * / ^`, unary minus and parentheses.  `*` may
be left implicit between a literal or closing paren and a variable/paren,
e.g. "2x", "lam*(lam+1)x^2", "(1-x)(1+x)".  Precedence, tightest first:
`^` (right-associative, nonnegative integer exponents up to
_MAX_EXPONENT) > unary minus > `* /` > `+ -`.  Nesting is capped at
_MAX_NESTING levels.

ASTs are plain tuples:
    ("num", float) ("i",) ("var", "x"|"y") ("param", name)
    ("add"|"sub"|"mul"|"div", lhs, rhs) ("neg", e) ("pow", base, int)
"""

import math
import re

from .errors import DivisionBySeriesWithZeroConstantTerm, ExprSyntaxError, UnboundParameter
from .multiseries import CSeries2, checked_table, mul_tables

#: one token per match; whitespace matches no alternative, so finditer skips
#: it, and `other` is any character that starts no token
_TOKEN_RE = re.compile(
    r"(?P<number>(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])|(?P<other>\S)|(?P<end>\Z)"
)

# binding powers
_BP_ADD = 10
_BP_MUL = 20
_BP_NEG = 30
_BP_POW = 40

#: largest exponent, checked before any power is formed: from 2^1024 on a
#: power of any number of magnitude >= 2 overflows
_MAX_EXPONENT = 1024

#: deepest nesting, counted as the parser goes: each open call of
#: parse_expression or parse_exponent is a level, and so is each level of the
#: tree being built under it; so neither the parser nor the tree walks of
#: _fraction and pretty come near Python's recursion limit
_MAX_NESTING = 300


def _tokenize(text):
    """(kind, text, offset) tuples; kind is "number", "ident", "end" or the operator character itself."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, tok = m.lastgroup, m.group()
        if kind == "other":
            raise ExprSyntaxError(f"unexpected character {tok!r}", text, m.start())
        tokens.append((tok if kind == "op" else kind, tok, m.start()))
    return tokens


def _underflows(text, value):
    """Whether number literal `text` has a nonzero mantissa but reads as 0.0."""
    return value == 0 and bool(text.lower().partition("e")[0].strip("0."))


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # open calls of parse_expression and parse_exponent

    def too_deep(self, offset):
        """Refuses the token at offset: it and the open calls exceed _MAX_NESTING levels."""
        raise ExprSyntaxError(f"expression nests deeper than {_MAX_NESTING} levels", self.text, offset)

    def parse_expression(self, min_bp=0):
        """(AST, its height) of the expression ahead, as far as its operators bind tighter than min_bp."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            self.too_deep(self.tokens[self.pos][2])
        node, height = self.parse_prefix()
        while True:
            kind, _, offset = self.tokens[self.pos]
            if kind == "^" and _BP_POW > min_bp:
                self.pos += 1
                node, rhs_height = ("pow", node, self.parse_exponent()), 0
            elif kind in ("*", "/") and _BP_MUL > min_bp:
                self.pos += 1
                rhs, rhs_height = self.parse_expression(_BP_MUL)
                node = ("mul" if kind == "*" else "div", node, rhs)
            elif kind in ("ident", "(") and _BP_MUL > min_bp:
                # implicit multiplication: "2x", "(1-x)(1+x)", "lam(lam+1)"
                rhs, rhs_height = self.parse_expression(_BP_MUL)
                node = ("mul", node, rhs)
            elif kind in ("+", "-") and _BP_ADD > min_bp:
                self.pos += 1
                rhs, rhs_height = self.parse_expression(_BP_ADD)
                node = ("add" if kind == "+" else "sub", node, rhs)
            else:
                self.depth -= 1
                return node, height
            height = max(height, rhs_height) + 1
            if self.depth + height > _MAX_NESTING:
                self.too_deep(offset)

    def parse_exponent(self):
        kind, text, offset = self.tokens[self.pos]
        self.depth += 1
        if self.depth > _MAX_NESTING:
            self.too_deep(offset)
        if kind != "number":
            raise ExprSyntaxError("exponent must be a nonnegative integer literal", self.text, offset)
        value = float(text)
        if value <= _MAX_EXPONENT:
            if value != int(value) or _underflows(text, value):
                raise ExprSyntaxError("exponent must be a nonnegative integer literal", self.text, offset)
            self.pos += 1
            value = int(value)
            if self.tokens[self.pos][0] == "^":  # right-associative exponent tower
                self.pos += 1
                value = value ** self.parse_exponent()  # both at most _MAX_EXPONENT
        if value > _MAX_EXPONENT:
            raise ExprSyntaxError(f"exponent must be at most {_MAX_EXPONENT}", self.text, offset)
        self.depth -= 1
        return value

    def parse_prefix(self):
        """(AST, its height) of a value: a leaf has height 0."""
        kind, text, offset = self.tokens[self.pos]
        self.pos += 1
        if kind == "number":
            value = float(text)
            if math.isinf(value):  # the literal overflows: no sign is part of it
                raise ExprSyntaxError(f"number {text} is beyond the float range", self.text, offset)
            if _underflows(text, value):
                raise ExprSyntaxError(f"number {text} is below the float range", self.text, offset)
            return ("num", value), 0
        if kind == "ident":
            if text == "i":
                return ("i",), 0
            if text in ("x", "y"):
                return ("var", text), 0
            return ("param", text), 0
        if kind == "-":
            node, height = self.parse_expression(_BP_NEG)
            return ("neg", node), height + 1  # within the cap: the operand was one call deeper
        if kind == "(":
            node_height = self.parse_expression(0)
            kind, text, offset = self.tokens[self.pos]
            if kind != ")":
                raise ExprSyntaxError(f"expected ')', found {text or 'end of input'!r}", self.text, offset)
            self.pos += 1
            return node_height
        raise ExprSyntaxError(f"expected a value, found {text or 'end of input'!r}", self.text, offset)


def parse_expr(text):
    """Parse an expression into an AST tuple."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", text or "", 0)
    parser = _Parser(text)
    node, _ = parser.parse_expression(0)
    kind, rest, offset = parser.tokens[parser.pos]
    if kind != "end":
        raise ExprSyntaxError(f"unexpected trailing input {rest!r}", text, offset)
    return node


def pretty(ast):
    """Render an AST back to text; parse_expr(pretty(t)) == t when the text
    it writes, with a pair of parentheses per level at most, nests within
    _MAX_NESTING."""

    def render(node, parent_bp):
        kind = node[0]
        if kind == "num":
            v = node[1]
            return repr(int(v)) if v == int(v) and abs(v) < 1e15 else repr(v)
        if kind == "i":
            return "i"
        if kind in ("var", "param"):
            return node[1]
        if kind in ("add", "sub"):
            op = " + " if kind == "add" else " - "
            text = render(node[1], _BP_ADD - 1) + op + render(node[2], _BP_ADD)
            return f"({text})" if parent_bp >= _BP_ADD else text
        if kind in ("mul", "div"):
            op = "*" if kind == "mul" else "/"
            text = render(node[1], _BP_MUL - 1) + op + render(node[2], _BP_MUL)
            return f"({text})" if parent_bp >= _BP_MUL else text
        if kind == "neg":  # --x, not -(-x): the parser reads both as the same tree
            text = "-" + render(node[1], 0 if node[1][0] == "neg" else _BP_NEG)
            return f"({text})" if parent_bp >= _BP_NEG else text
        if kind == "pow":
            base = render(node[1], _BP_POW)
            if node[1][0] == "pow":  # avoid re-reading (b^m)^n as a b^(m^n) tower
                base = f"({base})"
            return base + "^" + str(node[2])
        raise ValueError(f"unknown node kind {kind!r}")

    return render(ast, 0)


def to_series(ast, params, order):
    """Evaluate an AST to a CSeries2, binding parameters to complex values.

    The AST is evaluated as a fraction num/den of truncated polynomials,
    den(0, 0) = 1, kept as the pair in the `fraction` slot of a series that
    expands it with one reciprocal when its `coeffs` are first read; without
    a division the series is num itself.  Common factors are never
    cancelled, so x/x is refused like 1/x.  Each node is a plain table,
    summed and negated as CSeries2 `+`, `-` and unary `-` do and multiplied
    by `mul_tables`, so the series has the bits that those operations give."""
    num, den = _fraction(ast, params, order)
    if den is None:
        return object.__new__(CSeries2)._set(order, num)
    num, den = (object.__new__(CSeries2)._set(order, table) for table in (num, den))
    return object.__new__(CSeries2)._set(order, fraction=(num, den))


def _times(f, g, order):
    """f g, with None standing for 1."""
    return f if g is None else g if f is None else mul_tables(f, g, order)


def _int_power(f, k, order):
    """f^k by squaring, over the bits of k from the top: about 2 log2(k)
    products, k up to k = 3, with the bits of 1 f f f one factor at a time,
    as a product's bits depend on its factors' values, not their zeros' signs."""
    g = {(0, 0): 1 + 0j}
    for i, bit in enumerate(f"{k:b}"):
        if i:  # the top bit squares 1
            g = mul_tables(g, g, order)
        if bit == "1":
            g = mul_tables(g, f, order)
    return g


def _leaf(Q, value, order):
    """The table of value x^q1 y^q2, as the CSeries2 constructor forms it."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return checked_table([(Q, complex(value))] if Q[0] + Q[1] <= order else ())


def _fraction(ast, params, order):
    """(num, den) tables of truncated polynomials, den(0, 0) = 1 or den None for 1."""
    kind = ast[0]
    if kind == "num":
        return _leaf((0, 0), ast[1], order), None
    if kind == "i":
        return _leaf((0, 0), 1j, order), None
    if kind == "var":
        if ast[1] not in ("x", "y"):
            raise ValueError(f"unknown variable {ast[1]!r}")
        return _leaf((1, 0) if ast[1] == "x" else (0, 1), 1.0, order), None
    if kind == "param":
        if ast[1] not in params:
            raise UnboundParameter(f"parameter {ast[1]!r} is not bound")
        return _leaf((0, 0), params[ast[1]], order), None
    if kind == "neg":
        num, den = _fraction(ast[1], params, order)
        return {Q: -v for Q, v in num.items()}, den
    if kind == "pow":
        num, den = _fraction(ast[1], params, order)
        return _int_power(num, ast[2], order), None if den is None else _int_power(den, ast[2], order)
    if kind not in ("add", "sub", "mul", "div"):
        raise ValueError(f"unknown node kind {kind!r}")
    (n1, d1), (n2, d2) = _fraction(ast[1], params, order), _fraction(ast[2], params, order)
    if kind == "mul":
        return mul_tables(n1, n2, order), _times(d1, d2, order)
    if kind == "div":
        c = n2.get((0, 0), 0j)
        if c == 0:
            raise DivisionBySeriesWithZeroConstantTerm("division by a series with zero constant term")
        if d2 is None and len(n2) == 1:  # a constant: multiply by its inverse
            return mul_tables(n1, _leaf((0, 0), 1 / c, order), order), d1
        num, den = _times(n1, d2, order), _times(d1, n2, order)
        if c != 1:  # den(0, 0) = c: divide it out, and pin a complex c/c to 1
            num = checked_table([(Q, v / c) for Q, v in num.items()])
            den = checked_table({**{Q: v / c for Q, v in den.items()}, (0, 0): 1 + 0j}.items())
        return num, den
    if d1 != d2:
        n1, n2, d1 = _times(n1, d2, order), _times(n2, d1, order), _times(d1, d2, order)
    if kind == "sub":  # n1 + (-n2)
        n2 = {Q: -v for Q, v in n2.items()}
    out = dict(n1)  # summed as CSeries2 `+` sums: from 0j where n1 has no term
    for Q, v in n2.items():
        out[Q] = out.get(Q, 0j) + v
    return checked_table(out.items()), d1
