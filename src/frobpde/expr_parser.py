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
from collections import namedtuple

from .errors import DivisionBySeriesWithZeroConstantTerm, ExprSyntaxError, UnboundParameter
from .multiseries import CSeries2, cauchy_mul, reciprocal

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

#: kind is "number", "ident", "end" or the operator character itself
_Token = namedtuple("_Token", "kind text offset")


def _line_col(text, offset):
    line = text.count("\n", 0, offset) + 1
    last_nl = text.rfind("\n", 0, offset)
    return line, offset - last_nl  # 1-based column


def _err(text, offset, message, expected=()):
    line, col = _line_col(text, offset)
    raise ExprSyntaxError(message, offset, line, col, expected)


def _tokenize(text):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, tok = m.lastgroup, m.group()
        if kind == "other":
            _err(text, m.start(), f"unexpected character {tok!r}")
        tokens.append(_Token(tok if kind == "op" else kind, tok, m.start()))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # open calls of parse_expression and parse_exponent

    def nest(self, tok, height=0):
        """height, refused at tok when it and the open calls exceed _MAX_NESTING levels."""
        if self.depth + height > _MAX_NESTING:
            _err(self.text, tok.offset, f"expression nests deeper than {_MAX_NESTING} levels")
        return height

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            _err(self.text, tok.offset, f"expected {kind!r}, found {tok.text or 'end of input'!r}", {kind})
        return self.advance()

    def parse_expression(self, min_bp=0):
        """(AST, its height) of the expression ahead, as far as its operators bind tighter than min_bp."""
        self.depth += 1
        self.nest(self.peek())
        node, height = self.parse_prefix()
        while True:
            tok = self.peek()
            if tok.kind == "^" and _BP_POW > min_bp:
                self.advance()
                node, rhs_height = ("pow", node, self.parse_exponent()), 0
            elif tok.kind in ("*", "/") and _BP_MUL > min_bp:
                self.advance()
                rhs, rhs_height = self.parse_expression(_BP_MUL)
                node = ("mul" if tok.kind == "*" else "div", node, rhs)
            elif tok.kind in ("ident", "(") and _BP_MUL > min_bp:
                # implicit multiplication: "2x", "(1-x)(1+x)", "lam(lam+1)"
                rhs, rhs_height = self.parse_expression(_BP_MUL)
                node = ("mul", node, rhs)
            elif tok.kind in ("+", "-") and _BP_ADD > min_bp:
                self.advance()
                rhs, rhs_height = self.parse_expression(_BP_ADD)
                node = ("add" if tok.kind == "+" else "sub", node, rhs)
            else:
                self.depth -= 1
                return node, height
            height = self.nest(tok, max(height, rhs_height) + 1)

    def parse_exponent(self):
        tok = self.peek()
        self.depth += 1
        self.nest(tok)
        if tok.kind != "number":
            _err(self.text, tok.offset, "exponent must be a nonnegative integer literal", {"number"})
        value = float(tok.text)
        if value <= _MAX_EXPONENT:
            if value != int(value):
                _err(self.text, tok.offset, "exponent must be a nonnegative integer literal", {"number"})
            self.advance()
            value = int(value)
            if self.peek().kind == "^":  # right-associative exponent tower
                self.advance()
                value = value ** self.parse_exponent()  # both at most _MAX_EXPONENT
        if value > _MAX_EXPONENT:
            _err(self.text, tok.offset, f"exponent must be at most {_MAX_EXPONENT}", {"number"})
        self.depth -= 1
        return value

    def parse_prefix(self):
        """(AST, its height) of a value: a leaf has height 0."""
        tok = self.advance()
        if tok.kind == "number":
            value = float(tok.text)
            if math.isinf(value):  # the literal overflows: no sign is part of it
                _err(self.text, tok.offset, f"number {tok.text} is beyond the float range")
            return ("num", value), 0
        if tok.kind == "ident":
            if tok.text == "i":
                return ("i",), 0
            if tok.text in ("x", "y"):
                return ("var", tok.text), 0
            return ("param", tok.text), 0
        if tok.kind == "-":
            node, height = self.parse_expression(_BP_NEG)
            return ("neg", node), height + 1  # within the cap: the operand was one call deeper
        if tok.kind == "(":
            node_height = self.parse_expression(0)
            self.expect(")")
            return node_height
        _err(
            self.text,
            tok.offset,
            f"expected a value, found {tok.text or 'end of input'!r}",
            {"number", "ident", "-", "("},
        )


def parse_expr(text):
    """Parse an expression into an AST tuple."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0, 1, 1, {"number", "ident", "-", "("})
    parser = _Parser(text)
    node, _ = parser.parse_expression(0)
    tok = parser.peek()
    if tok.kind != "end":
        _err(text, tok.offset, f"unexpected trailing input {tok.text!r}", {"end"})
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
    den(0, 0) = 1, expanded with one reciprocal that keeps (num, den) in its
    `fraction` slot; without a division the series is num itself.  Common
    factors are never cancelled, so x/x is refused like 1/x."""
    num, den = _fraction(ast, params, order)
    series = num if den is None else cauchy_mul(num, reciprocal(den))
    object.__setattr__(series, "fraction", None if den is None else (num, den))
    return series


def _times(f, g):
    """f g, with None standing for 1."""
    return f if g is None else g if f is None else cauchy_mul(f, g)


def _power(f, k):
    """f^k by squaring, over the bits of k from the top: about 2 log2(k)
    products, k up to k = 3, with the bits of 1 f f f one factor at a time,
    as a product's bits depend on its factors' values, not their zeros' signs."""
    g = CSeries2.one(f.order)
    for i, bit in enumerate(f"{k:b}"):
        if i:  # the top bit squares 1
            g = cauchy_mul(g, g)
        if bit == "1":
            g = cauchy_mul(g, f)
    return g


def _fraction(ast, params, order):
    """(num, den) of truncated polynomials, den(0, 0) = 1 or den None for 1."""
    kind = ast[0]
    if kind == "num":
        return CSeries2.constant(ast[1], order), None
    if kind == "i":
        return CSeries2.constant(1j, order), None
    if kind == "var":
        return CSeries2.variable(ast[1], order), None
    if kind == "param":
        if ast[1] not in params:
            raise UnboundParameter(f"parameter {ast[1]!r} is not bound")
        return CSeries2.constant(params[ast[1]], order), None
    if kind == "neg":
        num, den = _fraction(ast[1], params, order)
        return -num, den
    if kind == "pow":
        num, den = _fraction(ast[1], params, order)
        return _power(num, ast[2]), None if den is None else _power(den, ast[2])
    if kind not in ("add", "sub", "mul", "div"):
        raise ValueError(f"unknown node kind {kind!r}")
    (n1, d1), (n2, d2) = _fraction(ast[1], params, order), _fraction(ast[2], params, order)
    if kind == "mul":
        return cauchy_mul(n1, n2), _times(d1, d2)
    if kind == "div":
        c = n2.constant_term()
        if c == 0:
            raise DivisionBySeriesWithZeroConstantTerm("division by a series with zero constant term")
        if d2 is None and len(n2.coeffs) == 1:  # a constant: multiply by its inverse
            return cauchy_mul(n1, CSeries2.constant(1 / c, order)), d1
        num, den = _times(n1, d2), _times(d1, n2)
        if c != 1:  # den(0, 0) = c: divide it out, and pin a complex c/c to 1
            num = CSeries2(order, {Q: v / c for Q, v in num.coeffs.items()})
            den = CSeries2(order, {**{Q: v / c for Q, v in den.coeffs.items()}, (0, 0): 1})
        return num, den
    if d1 != d2:
        n1, n2, d1 = _times(n1, d2), _times(n2, d1), _times(d1, d2)
    return (n1 + n2 if kind == "add" else n1 - n2), d1
