"""Command-line front end.

Subcommands: classify, solve, scan-resonance, euler, catalog list|solve,
verify, transform (euler-coordinates | prepare-coordinates), radius.

Exit codes: 0 success, 1 input error (bad JSON, schema violation, expression
syntax, unknown flags), 2 a mathematical refusal, `errors.Refusal` (resonant
point, off-conic point, unsatisfiable constraints).

Payloads are deterministic: no timestamps, canonical coefficient order, every
number printed with 17 significant digits.  `--meta` writes a timestamped
record to stderr, keeping stdout byte-identical for identical inputs.

The handlers of catalog, euler and transform euler-coordinates import
`catalog` and `euler` themselves, so the other subcommands start without them.
"""

import argparse
import json
import math
import re
import sys
from collections import namedtuple

from . import __version__
from .errors import BasePointNotOnConic, ConstraintViolated, FrobPDEError, NoSolution, Refusal, SchemaError
from .expr_parser import parse_expr, to_series
from .frobenius import RegularSingularPDE, prepare_coordinates, radius_estimate, solve
from .indicial import ALL_SOLUTIONS, DEFAULT_TOL, classify, resonance_scan, solve_for_s
from .verify import residual_max


# ---------------------------------------------------------------------------
# Deterministic JSON emission with 17 significant digits: a complex number
# is written as [re, im] and a record as an object of its fields
# ---------------------------------------------------------------------------


def _dump(obj):
    if isinstance(obj, float):
        return format(obj, ".17g") if math.isfinite(obj) else json.dumps(str(obj))
    if obj is None or isinstance(obj, (str, bool, int)):
        return json.dumps(obj)
    if isinstance(obj, complex):
        return _dump((obj.real, obj.imag))
    if hasattr(obj, "_asdict"):
        return _dump(obj._asdict())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_dump(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_dump(v)}" for k, v in obj.items()) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(args, payload, header=None, rows=None):
    """Write payload as JSON, or under --format csv the header and rows.  A
    CSV has fixed headers and finite numbers only (a CSeries2 refuses
    non-finite coefficients and a hit magnitude is below tol), so no field
    is quoted."""
    if getattr(args, "format", "json") == "csv":
        lines = [header, *([_dump(v) for v in row] for row in rows)]
        sys.stdout.write("".join(",".join(line) + "\n" for line in lines))
    else:
        sys.stdout.write(_dump(payload) + "\n")


def _rows(series):
    """Coefficient rows [q1, q2, re, im] in canonical order."""
    return [[q1, q2, v.real, v.imag] for (q1, q2), v in series.items()]


def _scan_json(report):
    """A resonance report with its hits flat, as [q1, q2, |P|]."""
    return {**report._asdict(), "hits": [[q1, q2, mag] for (q1, q2), mag in report.hits]}


def _solution_json(sol):
    """Exponents, order, coefficient rows, resonance report, and the
    convergence report with its member "any"."""
    convergence = sol.convergence
    return {
        "r0": sol.r0,
        "s0": sol.s0,
        "order": sol.order,
        "coeffs": _rows(sol),
        "resonance": _scan_json(sol.resonance_certificate),
        "convergence": {**convergence._asdict(), "any": convergence.any},
    }


# ---------------------------------------------------------------------------
# Problem loading
# ---------------------------------------------------------------------------


class ProblemSpec(namedtuple("ProblemSpec", "pde point tol")):
    """pde: RegularSingularPDE, truncated at the problem order
    point: "auto" or (complex, complex)"""

    __slots__ = ()


#: the float range; json reads NaN, Infinity and integers of any size
_FLOAT_MAX = sys.float_info.max


def _json_number(value, pointer):
    """A JSON member as a complex: a number or an [re, im] pair, refused at pointer unless finite."""
    parts = value if isinstance(value, list) and len(value) == 2 else [value]
    if not all(type(v) in (int, float) and -_FLOAT_MAX <= v <= _FLOAT_MAX for v in parts):
        raise SchemaError("expected a finite number or [re, im] pair", pointer)
    return complex(*parts)


def _arg_number(value, pointer):
    """An argument, a string or a float, as a complex, refused at pointer unless it parses and is finite."""
    try:
        z = complex(value)
    except ValueError:
        raise SchemaError(f"cannot parse number {value!r}", pointer) from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise SchemaError("expected a finite number", pointer)
    return z


_TOP_KEYS = {"A", "B", "C", "a", "b", "c", "params", "point", "order", "tolerances"}


def load_problem(path):
    """Read, validate and resolve a problem JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except RecursionError:
            raise SchemaError("JSON nests too deeply", "") from None
    if not isinstance(raw, dict):
        raise SchemaError("problem file must contain a JSON object", "")
    for key in raw:
        if key not in _TOP_KEYS:
            raise SchemaError(f"unknown member {key!r}", f"/{key}")
    for key in ("A", "B", "C", "a", "b", "c", "order"):
        if key not in raw:
            raise SchemaError(f"missing required member {key!r}", "")

    A, B, C = (_json_number(raw[key], f"/{key}") for key in "ABC")

    order = raw["order"]
    if type(order) is not int or order < 1:
        raise SchemaError("order must be an integer >= 1", "/order")

    params = {}
    if "params" in raw:
        if not isinstance(raw["params"], dict):
            raise SchemaError("params must be an object", "/params")
        for name, value in raw["params"].items():
            params[name] = _json_number(value, f"/params/{name}")

    series = []
    for key in ("a", "b", "c"):
        text = raw[key]
        if not isinstance(text, str):
            raise SchemaError(f"{key} must be an expression string", f"/{key}")
        series.append(to_series(parse_expr(text), params, order))

    point = raw.get("point", "auto")
    if point != "auto":
        if not (isinstance(point, list) and len(point) == 2):
            raise SchemaError('point must be "auto" or a [r, s] pair', "/point")
        point = tuple(_json_number(v, f"/point/{i}") for i, v in enumerate(point))

    tol = DEFAULT_TOL
    if "tolerances" in raw:
        tols = raw["tolerances"]
        if not isinstance(tols, dict):
            raise SchemaError("tolerances must be an object", "/tolerances")
        for key, value in tols.items():
            if key != "tol":
                raise SchemaError(f"unknown tolerance {key!r}", f"/tolerances/{key}")
            if type(value) not in (int, float) or not 0 < value <= _FLOAT_MAX:
                raise SchemaError("tol must be a positive finite number", "/tolerances/tol")
            tol = float(value)

    return ProblemSpec(RegularSingularPDE(A, B, C, *series), point, tol)


def _r_candidates(conic, count):
    """(r, roots) for the first `count` values of r in 0, 1/2, -1/2, 1, -1,
    3/2, ..., with the solve_for_s roots in their fixed order.  An r without
    a root is skipped; when every s is a root, s = 0 stands for them."""
    for k in range(count):
        r = 0.0 if k == 0 else ((k + 1) // 2) * 0.5 * (1 if k % 2 else -1)
        try:
            roots = solve_for_s(conic, r)
        except NoSolution:
            continue
        yield r, [0j] if roots is ALL_SOLUTIONS else roots


def _resolve_point(spec):
    """The problem point, or for "auto" a deterministic search: the first
    candidate of _r_candidates whose resonance scan up to the problem order
    is clean."""
    if spec.point != "auto":
        return spec.point
    conic = spec.pde.conic()
    for r, roots in _r_candidates(conic, 81):
        for s in roots:
            try:
                report = resonance_scan(conic, r, s, spec.pde.order, spec.tol)
            except BasePointNotOnConic:
                continue
            if not report.hits:
                return complex(r), complex(s)
    raise NoSolution("auto point search found no nonresonant conic point")


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_classify(args):
    conic = load_problem(args.problem).pde.conic()
    result = classify(conic)  # the problem's tol is a resonance tolerance
    _emit(args, {"conic": conic, "class": result})


def _solved(args):
    """(pde, solution) for the problem file at its resolved point."""
    spec = load_problem(args.problem)
    r0, s0 = _resolve_point(spec)
    return spec.pde, solve(spec.pde, r0, s0, spec.pde.order, tol=spec.tol,
                           resonance_policy=args.resonance_policy)


def _emit_solution(args, sol):
    payload = _solution_json(sol)
    _emit(args, payload, ("q1", "q2", "re", "im"), payload["coeffs"])


def _cmd_solve(args):
    _emit_solution(args, _solved(args)[1])


def _cmd_scan(args):
    spec = load_problem(args.problem)
    r0, s0 = _resolve_point(spec)
    payload = _scan_json(resonance_scan(spec.pde.conic(), r0, s0, spec.pde.order, spec.tol))
    _emit(args, payload, ("q1", "q2", "magnitude"), payload["hits"])


def _cmd_verify(args):
    report = residual_max(*_solved(args))
    _emit(args, {"residual": report}, ("layer", "max_abs_residual"), sorted(report.per_layer.items()))


def _cmd_radius(args):
    sol = _solved(args)[1]
    estimate = radius_estimate(sol)
    _emit(args, {"r0": sol.r0, "s0": sol.s0, "order": sol.order, "radius_estimate": estimate})


def _is_integral(z):
    """An exact integer of the input: a double of 2^53 or more may be a rounded one."""
    return z.imag == 0 and abs(z.real) < 2 ** 53 and z.real == int(z.real)


def _cmd_euler(args):
    from .euler import EulerPDE, integral_points

    if not 0 < args.tol <= _FLOAT_MAX:
        raise SchemaError("tol must be a positive finite number", "--tol")
    coeffs = [_arg_number(getattr(args, name), name) for name in "ABCDEF"]
    pde = EulerPDE(*coeffs)
    conic = pde.conic()
    payload = {"conic": conic, "class": classify(conic, args.tol)}

    samples = []
    for r, roots in _r_candidates(conic, 9):
        samples += [[r, 0.0, s.real, s.imag] for s in roots]
        if len(samples) >= 4:
            break
    payload["monomial_exponents"] = samples

    families = {}
    if all(_is_integral(z) for z in coeffs[:3]):
        A, B, C = (int(z.real) for z in coeffs[:3])
        for family in ("elliptic", "parabolic", "hyperbolic"):
            try:
                families[family] = integral_points(family, A=A, B=B, C=C)
            except ConstraintViolated:
                pass
    payload["integral_point_families"] = families
    _emit(args, payload)


def _cmd_catalog_list(args):
    from . import catalog

    _emit(args, catalog.list_entries())


def _parse_param(text):
    if "=" not in text:
        raise SchemaError(f"--param needs name=value, got {text!r}", "/params")
    name, _, value = text.partition("=")
    return name, _arg_number(value, f"/params/{name}")


def _cmd_catalog_solve(args):
    from . import catalog

    params = dict(_parse_param(p) for p in args.param or [])
    ent = catalog.entry(args.name, **params)
    r0 = s0 = None  # "auto": the entry's default point
    if args.point != "auto":
        parts = args.point.split(",")
        if len(parts) != 2:
            raise SchemaError('--point needs "r,s" or "auto"', "/point")
        r0, s0 = (_arg_number(p, f"/point/{i}") for i, p in enumerate(parts))
    _emit_solution(args, catalog.solve_entry(ent, r0, s0, args.order))


def _cmd_transform(args):
    if args.what == "euler-coordinates":
        if len(args.values) != 6:
            raise SchemaError("euler-coordinates needs six coefficients A B C D E F", "")
        from .euler import euler_coords

        coeffs = [_arg_number(v, name) for name, v in zip("ABCDEF", args.values)]
        out = euler_coords(coeffs, args.direction)
        _emit(args, {"direction": args.direction, "coefficients": out})
        return
    # prepare-coordinates
    if args.A is None or args.C is None:
        raise SchemaError("prepare-coordinates needs --A and --C expressions", "")
    A_series = to_series(parse_expr(args.A), {}, args.order)
    C_series = to_series(parse_expr(args.C), {}, args.order)  # written in y
    f, g = prepare_coordinates(A_series, C_series)
    _emit(args, {"f": _rows(f), "g": _rows(g)})


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


class _CLIUsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads -1e-3 and the pair -0.5,0 as options; no option name
        # starts with a digit or a dot
        self._negative_number_matcher = re.compile(r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?(?:,.*)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _CLIUsageError(message)


_PROBLEM = ("problem", {})
_POLICY = ("--resonance-policy", {"choices": ("strict", "skip_removable"), "default": "strict"})
_FORMAT = ("--format", {"choices": ("json", "csv"), "default": "json"})

#: name -> (help, handler or a nested table, arguments in order); each parser
#: that runs a handler takes --meta after its arguments
_COMMANDS = {
    "classify": ("indicial conic and its classification", _cmd_classify, [_PROBLEM]),
    "solve": ("run the Frobenius recurrence", _cmd_solve, [_PROBLEM, _POLICY, _FORMAT]),
    "scan-resonance": ("resonance scan at the problem point", _cmd_scan, [_PROBLEM, _FORMAT]),
    "euler": ("Euler PDE report: conic, class, integral points", _cmd_euler,
              [*((name, {"type": float}) for name in "ABCDEF"), ("--tol", {"type": float, "default": DEFAULT_TOL})]),
    "catalog": ("named models", {
        "list": ("list catalog entries", _cmd_catalog_list, []),
        "solve": ("solve a catalog entry", _cmd_catalog_solve, [
            ("name", {}),
            ("--param", {"action": "append", "metavar": "NAME=VALUE"}),
            ("--order", {"type": int, "default": 20}),
            ("--point", {"default": "auto", "help": '"r,s" or "auto" (entry default)'}),
            _FORMAT,
        ]),
    }, []),
    "verify": ("independent residual check of a solve", _cmd_verify, [_PROBLEM, _POLICY, _FORMAT]),
    "transform": ("coordinate transforms", _cmd_transform, [
        ("what", {"choices": ("euler-coordinates", "prepare-coordinates")}),
        ("values", {"nargs": "*", "help": "six coefficients for euler-coordinates"}),
        ("--direction", {"choices": ("to_constant", "to_euler"), "default": "to_constant"}),
        ("--A", {"help": "leading series in x for prepare-coordinates"}),
        ("--C", {"help": "leading series in y for prepare-coordinates"}),
        ("--order", {"type": int, "default": 12}),
    ]),
    "radius": ("solve and estimate the convergence radius", _cmd_radius, [_PROBLEM, _POLICY]),
}


def _add_commands(parser, table, dest, argv):
    """Add the subparsers of table: only the one that argv[0] names, if it
    names one, else all of them (for --help and the usage errors).  A lone
    subparser keeps the usage of all of them with its metavar."""
    lone = bool(argv) and argv[0] in table
    sub = parser.add_subparsers(dest=dest, required=True,
                                metavar="{" + ",".join(table) + "}" if lone else None)
    for name in [argv[0]] if lone else table:
        help_text, run, arguments = table[name]
        p = sub.add_parser(name, help=help_text)
        for arg, kwargs in arguments:
            p.add_argument(arg, **kwargs)
        if isinstance(run, dict):
            _add_commands(p, run, f"{name}_command", argv[1:] if lone else [])
        else:
            p.add_argument("--meta", action="store_true", help="write a timestamped record to stderr")
            p.set_defaults(func=run)


def build_parser(argv):
    """The parser of argv, holding only the subparsers that argv names."""
    parser = _ArgumentParser(prog="frobpde", description=__doc__.splitlines()[0])
    _add_commands(parser, _COMMANDS, "command", argv)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv).parse_args(argv)
    except _CLIUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        args.func(args)
    except Refusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (FrobPDEError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.meta:
        from datetime import datetime, timezone

        stamp = datetime.now(timezone.utc).isoformat()
        print(_dump({"timestamp": stamp, "tool": "frobpde", "version": __version__}), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
