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


def _emit_json(obj):
    sys.stdout.write(_dump(obj) + "\n")


def _emit_csv(header, rows):
    """Fixed headers and finite numbers only (a CSeries2 refuses non-finite
    coefficients and a hit magnitude is below tol), so no field is quoted."""
    lines = [header] + [[_dump(v) for v in row] for row in rows]
    sys.stdout.write("".join(",".join(line) + "\n" for line in lines))


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


def _is_finite(value):
    """A real number in the float range (json reads NaN, Infinity and
    integers of any size)."""
    return -sys.float_info.max <= value <= sys.float_info.max


def _is_tol(value):
    """A tolerance is a positive finite number."""
    return value > 0 and _is_finite(value)


def _finite(value, pointer):
    """complex(value) for a float or a string, refused at pointer unless it parses and is finite."""
    try:
        z = complex(value)
    except ValueError:
        raise SchemaError(f"cannot parse number {value!r}", pointer) from None
    if not (_is_finite(z.real) and _is_finite(z.imag)):
        raise SchemaError("expected a finite number", pointer)
    return z


def _complex_member(value, pointer):
    parts = value if isinstance(value, list) and len(value) == 2 else [value]
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) and _is_finite(v) for v in parts):
        raise SchemaError("expected a finite number or [re, im] pair", pointer)
    return complex(*parts)


_TOP_KEYS = {"A", "B", "C", "a", "b", "c", "params", "point", "order", "tolerances"}


def load_problem(path):
    """Read, validate and resolve a problem JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise SchemaError("problem file must contain a JSON object", "")
    for key in raw:
        if key not in _TOP_KEYS:
            raise SchemaError(f"unknown member {key!r}", f"/{key}")
    for key in ("A", "B", "C", "a", "b", "c", "order"):
        if key not in raw:
            raise SchemaError(f"missing required member {key!r}", "")

    A = _complex_member(raw["A"], "/A")
    B = _complex_member(raw["B"], "/B")
    C = _complex_member(raw["C"], "/C")

    order = raw["order"]
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise SchemaError("order must be an integer >= 1", "/order")

    params = {}
    if "params" in raw:
        if not isinstance(raw["params"], dict):
            raise SchemaError("params must be an object", "/params")
        for name, value in raw["params"].items():
            params[name] = _complex_member(value, f"/params/{name}")

    series = []
    for key in ("a", "b", "c"):
        text = raw[key]
        if not isinstance(text, str):
            raise SchemaError(f"{key} must be an expression string", f"/{key}")
        series.append(to_series(parse_expr(text), params, order))

    point = "auto"
    if "point" in raw:
        p = raw["point"]
        if p == "auto":
            point = "auto"
        elif isinstance(p, list) and len(p) == 2:
            point = (_complex_member(p[0], "/point/0"), _complex_member(p[1], "/point/1"))
        else:
            raise SchemaError('point must be "auto" or a [r, s] pair', "/point")

    tol = DEFAULT_TOL
    if "tolerances" in raw:
        tols = raw["tolerances"]
        if not isinstance(tols, dict):
            raise SchemaError("tolerances must be an object", "/tolerances")
        for key, value in tols.items():
            if key != "tol":
                raise SchemaError(f"unknown tolerance {key!r}", f"/tolerances/{key}")
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not _is_tol(value):
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
    _emit_json({"conic": conic, "class": result})


def _solved(args):
    """(pde, solution) for the problem file at its resolved point."""
    spec = load_problem(args.problem)
    r0, s0 = _resolve_point(spec)
    return spec.pde, solve(spec.pde, r0, s0, spec.pde.order, tol=spec.tol,
                           resonance_policy=args.resonance_policy)


def _emit_solution(sol, fmt):
    if fmt == "csv":
        _emit_csv(("q1", "q2", "re", "im"), _rows(sol))
    else:
        _emit_json(_solution_json(sol))


def _cmd_solve(args):
    _emit_solution(_solved(args)[1], args.format)


def _cmd_scan(args):
    spec = load_problem(args.problem)
    r0, s0 = _resolve_point(spec)
    report = resonance_scan(spec.pde.conic(), r0, s0, spec.pde.order, spec.tol)
    if args.format == "csv":
        _emit_csv(("q1", "q2", "magnitude"), [(q1, q2, m) for (q1, q2), m in report.hits])
    else:
        _emit_json(_scan_json(report))


def _cmd_verify(args):
    report = residual_max(*_solved(args))
    if args.format == "csv":
        _emit_csv(("layer", "max_abs_residual"), sorted(report.per_layer.items()))
    else:
        _emit_json({"residual": report})


def _cmd_radius(args):
    sol = _solved(args)[1]
    estimate = radius_estimate(sol)
    _emit_json({"r0": sol.r0, "s0": sol.s0, "order": sol.order, "radius_estimate": estimate})


def _is_integral(z):
    """An exact integer of the input: a double of 2^53 or more may be a rounded one."""
    return z.imag == 0 and abs(z.real) < 2 ** 53 and z.real == int(z.real)


def _cmd_euler(args):
    from .euler import EulerPDE, integral_points

    if not _is_tol(args.tol):
        raise SchemaError("tol must be a positive finite number", "--tol")
    coeffs = [_finite(getattr(args, name), name) for name in "ABCDEF"]
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
    A, B, C = coeffs[0], coeffs[1], coeffs[2]
    if all(_is_integral(z) for z in (A, B, C)):
        iA, iB, iC = int(A.real), int(B.real), int(C.real)
        for family, kwargs in (
            ("elliptic", {"A": iA, "C": iC}),
            ("parabolic", {"A": iA, "B": iB, "C": iC}),
            ("hyperbolic", {"A": iA, "B": iB}),
        ):
            try:
                families[family] = integral_points(family, **kwargs)
            except ConstraintViolated:
                pass
    payload["integral_point_families"] = families
    _emit_json(payload)


def _cmd_catalog_list(args):
    from . import catalog

    _emit_json(catalog.list_entries())


def _parse_param(text):
    if "=" not in text:
        raise SchemaError(f"--param needs name=value, got {text!r}", "/params")
    name, _, value = text.partition("=")
    return name, _finite(value, f"/params/{name}")


def _cmd_catalog_solve(args):
    from . import catalog

    params = dict(_parse_param(p) for p in args.param or [])
    ent = catalog.entry(args.name, **params)
    r0 = s0 = None  # "auto": the entry's default point
    if args.point != "auto":
        parts = args.point.split(",")
        if len(parts) != 2:
            raise SchemaError('--point needs "r,s" or "auto"', "/point")
        r0, s0 = (_finite(p, f"/point/{i}") for i, p in enumerate(parts))
    _emit_solution(catalog.solve_entry(ent, r0, s0, args.order), args.format)


def _cmd_transform(args):
    if args.what == "euler-coordinates":
        if len(args.values) != 6:
            raise SchemaError("euler-coordinates needs six coefficients A B C D E F", "")
        from .euler import euler_coords

        coeffs = [_finite(v, name) for name, v in zip("ABCDEF", args.values)]
        out = euler_coords(coeffs, args.direction)
        _emit_json({"direction": args.direction, "coefficients": out})
        return
    # prepare-coordinates
    if args.A is None or args.C is None:
        raise SchemaError("prepare-coordinates needs --A and --C expressions", "")
    A_series = to_series(parse_expr(args.A), {}, args.order)
    C_series = to_series(parse_expr(args.C), {}, args.order)  # written in y
    f, g = prepare_coordinates(A_series, C_series)
    _emit_json({"f": _rows(f), "g": _rows(g)})


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


def _add_common(parser, fmt=True, solves=False):
    if solves:
        parser.add_argument("--resonance-policy", choices=("strict", "skip_removable"), default="strict")
    if fmt:
        parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--meta", action="store_true", help="write a timestamped record to stderr")


def build_parser():
    parser = _ArgumentParser(prog="frobpde", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="indicial conic and its classification")
    p.add_argument("problem")
    _add_common(p, fmt=False)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("solve", help="run the Frobenius recurrence")
    p.add_argument("problem")
    _add_common(p, solves=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("scan-resonance", help="resonance scan at the problem point")
    p.add_argument("problem")
    _add_common(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("euler", help="Euler PDE report: conic, class, integral points")
    for name in ("A", "B", "C", "D", "E", "F"):
        p.add_argument(name, type=float)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    _add_common(p, fmt=False)
    p.set_defaults(func=_cmd_euler)

    p = sub.add_parser("catalog", help="named models")
    catsub = p.add_subparsers(dest="catalog_command", required=True)
    pl = catsub.add_parser("list", help="list catalog entries")
    _add_common(pl, fmt=False)
    pl.set_defaults(func=_cmd_catalog_list)
    ps = catsub.add_parser("solve", help="solve a catalog entry")
    ps.add_argument("name")
    ps.add_argument("--param", action="append", metavar="NAME=VALUE")
    ps.add_argument("--order", type=int, default=20)
    ps.add_argument("--point", default="auto", help='"r,s" or "auto" (entry default)')
    _add_common(ps)
    ps.set_defaults(func=_cmd_catalog_solve)

    p = sub.add_parser("verify", help="independent residual check of a solve")
    p.add_argument("problem")
    _add_common(p, solves=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("transform", help="coordinate transforms")
    p.add_argument("what", choices=("euler-coordinates", "prepare-coordinates"))
    p.add_argument("values", nargs="*", help="six coefficients for euler-coordinates")
    p.add_argument("--direction", choices=("to_constant", "to_euler"), default="to_constant")
    p.add_argument("--A", help="leading series in x for prepare-coordinates")
    p.add_argument("--C", help="leading series in y for prepare-coordinates")
    p.add_argument("--order", type=int, default=12)
    _add_common(p, fmt=False)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("radius", help="solve and estimate the convergence radius")
    p.add_argument("problem")
    _add_common(p, fmt=False, solves=True)
    p.set_defaults(func=_cmd_radius)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
    if getattr(args, "meta", False):
        from datetime import datetime, timezone

        stamp = datetime.now(timezone.utc).isoformat()
        print(_dump({"timestamp": stamp, "tool": "frobpde", "version": __version__}), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
