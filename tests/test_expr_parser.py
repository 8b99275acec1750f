import copy
import math
import pickle
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frobpde import catalog
from frobpde.errors import (
    DivisionBySeriesWithZeroConstantTerm,
    ExprSyntaxError,
    FrobPDEError,
    UnboundParameter,
)
from frobpde.expr_parser import _MAX_NESTING, _int_power, _tokenize, parse_expr, pretty, to_series
from frobpde.multiseries import CSeries2, cauchy_mul, mul_tables, reciprocal
from helpers import (
    CATALOG_MODELS,
    PRODUCT_TERM,
    bits,
    count_line,
    dense_to_series,
    exact_mul,
    exact_reciprocal,
    exact_series,
    max_abs_diff,
    reference_fraction,
    reference_tokenize,
)


def ev(text, params=None, order=6):
    return to_series(parse_expr(text), params or {}, order)


class TestParsing:
    def test_atoms(self):
        assert parse_expr("2") == ("num", 2.0)
        assert parse_expr("x") == ("var", "x")
        assert parse_expr("i") == ("i",)
        assert parse_expr("lam") == ("param", "lam")

    def test_precedence(self):
        assert parse_expr("1 + 2*x") == ("add", ("num", 1.0), ("mul", ("num", 2.0), ("var", "x")))
        # unary minus binds tighter than * : -x^2 is -(x^2)
        assert parse_expr("-x^2") == ("neg", ("pow", ("var", "x"), 2))

    def test_power_right_associative_tower(self):
        assert parse_expr("x^2^3") == ("pow", ("var", "x"), 8)

    def test_implicit_multiplication(self):
        assert parse_expr("2x") == ("mul", ("num", 2.0), ("var", "x"))
        assert parse_expr("(1-x)(1+x)") == parse_expr("(1-x)*(1+x)")
        assert parse_expr("lam(lam+1)x^2") == parse_expr("lam*(lam+1)*x^2")

    def test_scientific_notation(self):
        assert parse_expr("1.5e-3") == ("num", 1.5e-3)

    def test_nonnegative_integer_exponents_only(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("x^(-1)")
        with pytest.raises(ExprSyntaxError):
            parse_expr("x^1.5")
        with pytest.raises(ExprSyntaxError):
            parse_expr("x^y")


class TestErrors:
    @pytest.mark.parametrize("text, offset", [
        ("x^2^2^2^2^2", 4),  # 2^(2^(2^2)) = 65536 is refused before 2^65536 is formed
        ("x^1e400", 2),  # a float literal beyond the float range
        ("x^9^9^9", 4),  # 9^9 = 387420489 is refused before 9^387420489 is formed
        ("x^1e9", 2),  # would multiply out a list of 10^9 factors
        ("(1+x+y)^3000", 8),
        ("x^2^11", 2),
    ])
    def test_exponent_above_the_cap_refused_quickly(self, text, offset):
        start = time.perf_counter()
        with pytest.raises(ExprSyntaxError, match="exponent must be at most 1024") as info:
            to_series(parse_expr(text), {}, 20)
        assert time.perf_counter() - start < 1.0
        assert info.value.offset == offset

    def test_exponent_at_the_cap_accepted(self):
        assert parse_expr("x^2^10") == parse_expr("x^1024") == ("pow", ("var", "x"), 1024)
        assert ev("(1-x/2)^1024", order=3).get((1, 0)) == -512

    @pytest.mark.parametrize("nested", [
        lambda k: "(" * (k - 1) + "x" + ")" * (k - 1),
        lambda k: "-" * (k - 1) + "x",
        lambda k: "x" + "^1" * (k - 1),
        lambda k: "+".join(["x"] * k),  # each operator is one more level of the tree
    ], ids=["parentheses", "unary-minus", "tower", "sum"])
    def test_nesting_at_the_cap_parses_and_one_more_level_is_refused(self, nested):
        # at the cap the parser, pretty and to_series stay well inside the recursion limit
        text = nested(_MAX_NESTING)
        ast = parse_expr(text)
        assert parse_expr(pretty(ast)) == ast and ev(text, order=2)
        with pytest.raises(ExprSyntaxError, match=f"nests deeper than {_MAX_NESTING} levels"):
            parse_expr(nested(_MAX_NESTING + 1))

    def test_nesting_refused_at_the_token_that_goes_too_deep(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr("(" * 600 + "1" + ")" * 600)
        assert info.value.column == _MAX_NESTING + 1  # the first "(" one level too deep

    @pytest.mark.parametrize("text, column", [("1e400*x", 1), ("x/1e400", 3), ("2 + 0.5e309", 5)])
    def test_number_beyond_the_float_range_refused(self, text, column):
        # 1e400 used to read as inf: x/1e400 came out as the zero series
        with pytest.raises(ExprSyntaxError, match="is beyond the float range") as info:
            parse_expr(text)
        assert (info.value.line, info.value.column) == (1, column)

    @pytest.mark.parametrize("text, column", [("1e-400*x", 1), ("x/1e-400", 3), ("2 + 0.5e-330", 5), ("2.4e-324", 1)])
    def test_number_below_the_float_range_refused(self, text, column):
        # 1e-400 used to read as 0.0: 1e-400*x came out as the zero series
        with pytest.raises(ExprSyntaxError, match="is below the float range") as info:
            parse_expr(text)
        assert (info.value.line, info.value.column) == (1, column)

    @pytest.mark.parametrize("text, value", [("0e-400", 0.0), ("0.000", 0.0), ("00.0E+5", 0.0), ("5e-324", 5e-324)])
    def test_zero_and_the_smallest_subnormal_parse(self, text, value):
        assert parse_expr(text) == ("num", value)

    @pytest.mark.parametrize("text", ["x^1e-400", "x^0.1", "x^2.5e-330"])
    def test_exponent_that_is_not_an_integer_refused(self, text):
        # x^1e-400 used to read as x^0, the constant 1, while x^1e-5 was refused
        with pytest.raises(ExprSyntaxError, match="exponent must be a nonnegative integer literal") as info:
            parse_expr(text)
        assert (info.value.line, info.value.column) == (1, 3)

    @pytest.mark.parametrize("text", ["x^0", "x^0e5", "x^0.0e-400"])
    def test_zero_exponent_parses(self, text):
        assert parse_expr(text) == ("pow", ("var", "x"), 0)

    def test_empty(self):
        for text in ("", "   ", None):
            with pytest.raises(ExprSyntaxError, match="empty expression at line 1, column 1"):
                parse_expr(text)

    def test_unknown_node_kind_refused(self):
        # a tree that parse_expr does not make: pretty and to_series name its kind
        tree = ("add", ("var", "x"), ("sqrt", ("var", "y")))
        with pytest.raises(ValueError, match="unknown node kind 'sqrt'"):
            pretty(tree)
        with pytest.raises(ValueError, match="unknown node kind 'sqrt'"):
            to_series(tree, {}, 4)

    def test_unknown_variable_refused(self):
        # a tree that parse_expr does not make: x and y are the only variables
        with pytest.raises(ValueError, match="unknown variable 'z'"):
            to_series(("var", "z"), {}, 2)

    def test_location_one_based(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr("1 + $")
        assert info.value.line == 1
        assert info.value.column == 5
        assert info.value.offset == 4

    def test_multiline_location(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr("1 +\n  )")
        assert info.value.line == 2
        assert info.value.column == 3

    def test_unclosed_parenthesis(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr("(1")
        assert str(info.value) == "expected ')', found 'end of input' at line 1, column 3"
        assert (info.value.offset, info.value.line, info.value.column) == (2, 1, 3)

    def test_offset_counts_characters(self):
        # the no-break space is one character and two bytes of UTF-8
        with pytest.raises(ExprSyntaxError, match="expected a value, found '\\)'") as info:
            parse_expr("x\u00a0+ )")
        assert (info.value.offset, info.value.line, info.value.column) == (4, 1, 5)

    def test_trailing_input(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("1 1 +")

    @pytest.mark.parametrize("text", ["\u0663x^\u0662", "\uff11 + x"])  # Arabic-Indic 3 and 2, fullwidth 1
    def test_number_literals_are_ascii(self, text):
        with pytest.raises(ExprSyntaxError, match="unexpected character") as info:
            parse_expr(text)
        assert (info.value.line, info.value.column) == (1, 1)


#: digits (one of them not ASCII), the literal characters . e E, letters,
#: operators, ASCII and Unicode whitespace, and characters that start no token
_TOKEN_CHARS = st.sampled_from(list("0123456789\u0663.eEixyaZ_+-*/^()")
                               + [" ", "\t", "\n", "\x1c", "\u00a0", "$", "\u00e9", "\u03bb"])


class TestTokenizer:
    @given(st.text(_TOKEN_CHARS, max_size=24))
    @settings(max_examples=400, deadline=None)
    @example("1.e5e+3 .5x__9 \x1c2E-7(")
    @example("1 +\n  \u03bb")
    @example(" \u00a0")
    def test_same_tokens_and_errors_as_the_reference(self, text):
        try:
            expected = reference_tokenize(text)
        except ExprSyntaxError as ref:
            with pytest.raises(ExprSyntaxError) as info:
                _tokenize(text)
            assert (str(info.value), info.value.offset) == (str(ref), ref.offset)
        else:
            assert [tuple(tok) for tok in _tokenize(text)] == expected


class TestEvaluation:
    def test_polynomial(self):
        f = ev("x^2 - 2*x*y + y^2")
        assert f == CSeries2(6, {(2, 0): 1.0, (1, 1): -2.0, (0, 2): 1.0})

    def test_imaginary_unit(self):
        assert ev("2 + 3*i").constant_term() == 2 + 3j

    def test_params(self):
        f = ev("lam*(lam+1)*x", {"lam": 2.0})
        assert f.get((1, 0)) == pytest.approx(6.0)

    def test_unbound_param(self):
        with pytest.raises(UnboundParameter):
            ev("lam*x")

    def test_division_geometric(self):
        f = ev("1/(1-x*y)", order=8)
        for n in range(5):
            assert f.get((n, n)) == pytest.approx(1.0)

    def test_division_zero_constant_refused(self):
        with pytest.raises(DivisionBySeriesWithZeroConstantTerm):
            ev("1/(x+y)")

    def test_power_by_squaring(self):
        f = ev("(1+x+y)^1024", order=20)
        assert f.get((20, 0)) == pytest.approx(math.comb(1024, 20), rel=1e-12)
        assert f.get((10, 10)) == pytest.approx(math.comb(1024, 20) * math.comb(20, 10), rel=1e-12)
        # up to the cube, the same bits as one factor at a time, signed zeros included
        g = CSeries2(5, {(0, 0): complex(-0.0, 1.5), (1, 0): complex(0.1, -0.0), (0, 2): -3 + 0.7j})
        for k in range(4):
            one_at_a_time = CSeries2.one(5)
            for _ in range(k):
                one_at_a_time = cauchy_mul(one_at_a_time, g)
            assert bits(CSeries2(5, _int_power(g.coeffs, k, 5))) == bits(one_at_a_time)

    def test_rational_normalization(self):
        # (1-x^2) * [x^2/(1-x^2)] == x^2 up to the truncation order
        f = ev("x^2/(1-x^2)", order=10)
        prod = cauchy_mul(ev("1-x^2", order=10), f)
        assert max_abs_diff(prod, ev("x^2", order=10)) < 1e-12


_ATOMS = ("x", "y", "2", "3", "0.5", "lam", "i")
_KINDS = ("atom", "add", "sub", "mul", "neg", "pow", "paren")
#: the widened set: zeros of both signs and a literal whose cube overflows
_WIDE_ATOMS = _ATOMS + ("0", "-0.0", "1e200")


@st.composite
def exprs(draw, depth=3, atoms=_ATOMS, kinds=_KINDS, max_power=3):
    if depth == 0:
        return draw(st.sampled_from(atoms))
    kind = draw(st.sampled_from(kinds))
    if kind == "atom":
        return draw(st.sampled_from(atoms))

    def operand():
        return draw(exprs(depth - 1, atoms, kinds, max_power))

    if kind in ("add", "sub", "mul", "div"):
        op = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[kind]
        return f"{operand()} {op} {operand()}"
    if kind == "unit":  # a divisor that is a unit, so the quotient is a fraction
        return f"{operand()} / (1 - x*({operand()}))"
    if kind == "neg":
        return f"-({operand()})"
    if kind == "pow":
        return f"({operand()})^{draw(st.integers(0, max_power))}"
    return f"({operand()})"


class TestProperties:
    @given(exprs())
    @settings(max_examples=80, deadline=None)
    def test_pretty_round_trip(self, text):
        ast = parse_expr(text)
        assert parse_expr(pretty(ast)) == ast

    @given(exprs(), exprs())
    @settings(max_examples=60, deadline=None)
    def test_sum_homomorphism(self, t1, t2):
        params = {"lam": 1.5}
        lhs = to_series(parse_expr(f"({t1}) + ({t2})"), params, 4)
        rhs = to_series(parse_expr(t1), params, 4) + to_series(parse_expr(t2), params, 4)
        assert max_abs_diff(lhs, rhs) < 1e-9

    @given(exprs(), exprs())
    @settings(max_examples=60, deadline=None)
    def test_product_homomorphism(self, t1, t2):
        params = {"lam": 1.5}
        lhs = to_series(parse_expr(f"({t1}) * ({t2})"), params, 4)
        rhs = cauchy_mul(to_series(parse_expr(t1), params, 4), to_series(parse_expr(t2), params, 4))
        scale = 1 + max((abs(v) for v in rhs.coeffs.values()), default=0.0)
        assert max_abs_diff(lhs, rhs) < 1e-9 * scale


def _outcome(fn, *args):
    """fn(*args), or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError, FrobPDEError) as exc:
        return type(exc), str(exc)


def _table_bits(ast, params, order):
    """The bits of to_series: its fraction slots, None for den = 1, and its coefficients."""
    series = to_series(ast, params, order)
    return series.fraction and [bits(f) for f in series.fraction], _outcome(bits, series)


def _reference_bits(ast, params, order):
    """The bits that `_table_bits` reads, from the series reference."""
    num, den = reference_fraction(ast, params, order)
    if den is None:
        return None, bits(num)
    return [bits(num), bits(den)], _outcome(lambda: bits(cauchy_mul(num, reciprocal(den))))


#: parameter values: real, complex, with a signed zero, and one whose square overflows
_LAMS = st.sampled_from([1.5, 0.7 - 0.2j, complex(-0.0, 1.0), complex(1e200, -1.0)]) | st.complex_numbers(
    max_magnitude=1e6, allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize("name, params", CATALOG_MODELS, ids=[name for name, _ in CATALOG_MODELS])
def test_to_series_work_does_not_grow_with_the_order(name, params):
    # the polynomials of a catalog model's a, b, c have fixed degrees, and a
    # fraction is not expanded, so the products of to_series sum the same
    # number of terms at every order
    texts, bound = catalog._SPECS[name]["abc"], dict(catalog.entry(name, **params).params)
    counts = [count_line(PRODUCT_TERM, mul_tables, N, via=lambda N: [to_series(parse_expr(t), bound, N) for t in texts])[0]
              for N in (20, 40, 80)]
    assert counts[0] == counts[1] == counts[2]


class TestTableEvaluation:
    """to_series evaluates on plain tables with the bits of the series
    reference: stored key order, signed zeros, both fraction slots and
    every refusal."""

    @given(exprs(atoms=_WIDE_ATOMS, kinds=_KINDS + ("div", "unit"), max_power=5), _LAMS, st.integers(0, 8))
    @example("(1e200)^3", 1.5, 4)
    @example("lam*(lam+1)*x^2/(1-x^2)", 0.7, 16)
    @example("(x - lam) / (lam + y) - -0.0 * i", 0.7 - 0.2j, 6)
    @settings(max_examples=300, deadline=None)
    def test_same_bits_as_the_series_reference(self, text, lam, order):
        ast = parse_expr(text)
        params = {"lam": lam}
        assert _outcome(_table_bits, ast, params, order) == _outcome(_reference_bits, ast, params, order)

    def test_overflow_refused_at_its_first_value(self):
        # 1e200 squared is the first product beyond the float range
        with pytest.raises(ValueError, match=r"^non-finite coefficient \(inf\+0j\)$"):
            ev("(1e200)^3")


# -- fractions ------------------------------------------------------------------
# Expressions whose divisors are fixed units or vanish at the origin by
# construction, so that whether a divisor is a unit never depends on rounding.
# The literals are dyadic, so num and den are exact unless the units 3 - x or
# 1 - 0.1xy bring rounding in.

_ATOMS_Q = st.sampled_from(["x", "y", "2", "0.5", "-1.5", "0.25", "lam"])
_UNITS = st.sampled_from(["(1 - x*y)", "(1 - x)", "(2 + y)", "(1 - 0.5*x + y^2)", "(0.5 - x^2)",
                          "(1 + x)^2", "(-1 + 0.25*x*y)", "((1 - x)/(2 + y))", "(3 - x)", "(1 - 0.1*x*y)"])
_ROUNDING_UNITS = ("(3 - x)", "0.1")
#: unit roundoff of binary64
U = 2.0 ** -53


@st.composite
def rational_exprs(draw, depth=3):
    if depth == 0:
        return draw(_ATOMS_Q)
    kind = draw(st.sampled_from(["atom", "add", "sub", "mul", "div", "div", "zero_div", "neg", "pow"]))
    if kind == "atom":
        return draw(_ATOMS_Q)
    lhs = draw(rational_exprs(depth=depth - 1))
    if kind in ("add", "sub", "mul"):
        op = {"add": "+", "sub": "-", "mul": "*"}[kind]
        return f"({lhs}) {op} ({draw(rational_exprs(depth=depth - 1))})"
    if kind == "div":
        return f"({lhs}) / {draw(_UNITS)}"
    if kind == "zero_div":  # a divisor that vanishes at the origin
        other = draw(rational_exprs(depth=depth - 1))
        return f"({lhs}) / " + draw(st.sampled_from([f"(x*({other}))", f"(({other}) - ({other}))", "y^2", "(x - y)"]))
    if kind == "neg":
        return f"-({lhs})"
    return f"({lhs})^{draw(st.integers(0, 3))}"


def expanded(series):
    """Whether the table of a series is formed: the slot reads without expanding."""
    try:
        CSeries2.coeffs.__get__(series)
    except AttributeError:
        return False
    return True


def _exact(series):
    return {Q: Fraction(v.real) for Q, v in series.coeffs.items()}


def _absolute(series):
    return CSeries2(series.order, {Q: abs(v) for Q, v in series.coeffs.items()})


class TestFractions:
    PARAMS = {"lam": 0.75}

    @given(rational_exprs(), st.integers(4, 8))
    @example("((x) / (1 - x*y))^2 - (y) / (2 + y)", 6)  # a power and a sum of fractions
    @example("(2 - (y) / ((1 - x)/(2 + y)))^3", 5)
    @settings(max_examples=150, deadline=None)
    def test_fraction_against_exact_expansion(self, text, order):
        ast = parse_expr(text)
        try:
            exact = exact_series(ast, self.PARAMS, order)
        except ZeroDivisionError:
            with pytest.raises(DivisionBySeriesWithZeroConstantTerm):
                to_series(ast, self.PARAMS, order)
            return
        series = to_series(ast, self.PARAMS, order)
        if series.fraction is None:  # den = 1: the series is the polynomial itself
            assert bits(series) == bits(dense_to_series(ast, self.PARAMS, order))
            return
        num, den = series.fraction
        assert den.get((0, 0)) == 1
        quotient = exact_mul(_exact(num), exact_reciprocal(_exact(den), order), order)
        if not any(unit in text for unit in _ROUNDING_UNITS):  # num and den are exact
            assert {Q: v for Q, v in quotient.items() if v} == {Q: v for Q, v in exact.items() if v}
        # one reciprocal and one product away from num/den: within a few ulp
        # of the magnitudes they sum, |num| |r| |den| |r| with r = 1/den
        r = _absolute(reciprocal(den))
        bound = cauchy_mul(cauchy_mul(_absolute(num), _absolute(den)), r)
        for Q, v in cauchy_mul(den, series).coeffs.items():
            assert abs(v - num.get(Q)) <= 8 * U * bound.get(Q).real
        bound = cauchy_mul(bound, r)
        for Q in series.coeffs.keys() | quotient.keys():
            assert abs(Fraction(series.get(Q).real) - quotient.get(Q, 0)) <= 8 * U * bound.get(Q).real

    @given(rational_exprs(), st.integers(4, 8))
    @example("((x) / (1 - x*y))^2 - (y) / (2 + y)", 6)
    @example("-(y) / (1 - x)", 4)  # a numerator without a constant term
    @settings(max_examples=150, deadline=None)
    def test_expansion_on_first_read(self, text, order):
        # the constant term before the table is formed, and the table once
        # it is, have the bits of the product that to_series used to form
        try:
            series = to_series(parse_expr(text), self.PARAMS, order)
        except DivisionBySeriesWithZeroConstantTerm:
            return
        if series.fraction is None:
            return
        num, den = series.fraction
        want = cauchy_mul(num, reciprocal(den))
        z, w = series.constant_term(), want.constant_term()
        assert (z.real.hex(), z.imag.hex()) == (w.real.hex(), w.imag.hex())
        assert not expanded(series)
        assert bits(series) == bits(want)
        assert expanded(series)

    def test_unexpanded_series_copies_and_pickles(self):
        for clone in (copy.copy, lambda f: pickle.loads(pickle.dumps(f))):
            series = ev("-2*x^2/(1-x*y) + 3", order=8)
            assert not expanded(series)
            twin = clone(series)
            assert twin.fraction == series.fraction and twin == series and bits(twin) == bits(series)

    def test_expansion_beyond_the_float_range_refused_when_read(self):
        series = ev("1/(1 - 1e10*x)", order=40)  # x^31 and up overflow
        assert series.constant_term() == 1
        with pytest.raises(ValueError, match="non-finite coefficient"):
            series.coeffs

    def test_polynomial_expressions_carry_no_denominator(self):
        for text in ("x^2 - 2*x*y + y^2", "lam*(lam+1)*x^2", "(1 - x)^3*(2 + y)", "x/2 + y/0.5"):
            ast = parse_expr(text)
            series = to_series(ast, self.PARAMS, 8)
            assert series.fraction is None
            assert bits(series) == bits(dense_to_series(ast, self.PARAMS, 8))

    def test_fraction_slot(self):
        series = ev("-2*x^2/(1-x*y) + 3", order=8)
        num, den = series.fraction
        assert num == ev("-2*x^2 + 3*(1-x*y)", order=8)
        assert den == ev("1 - x*y", order=8)
        half = ev("1/(2 - x)", order=8)  # den(0, 0) is normalized to 1
        assert half.fraction == (ev("0.5", order=8), ev("1 - 0.5*x", order=8))
        assert (series + half).fraction is None  # only to_series fills it

    @pytest.mark.parametrize("text", ["x/x", "1/(x-x)", "(1 - x)/(x*(1 - x))", "y/(1/(1-x) - 1)"])
    def test_common_factors_never_cancelled(self, text):
        with pytest.raises(DivisionBySeriesWithZeroConstantTerm):
            ev(text)
