"""frobpde: Frobenius-type series solutions of second-order linear PDEs with
regular singularities -- indicial conics, resonance scans, the coefficient
recurrence and convergence certification.  The named models and the
Euler-type PDEs are imported by module name: `from frobpde import catalog`.
The names of `verify` load it when first read."""

__version__ = "0.1.0"

from .errors import (
    BasePointNotOnConic,
    ComplexCoefficients,
    ConstraintViolated,
    DivisionBySeriesWithZeroConstantTerm,
    ExprSyntaxError,
    FrobPDEError,
    MissingParameter,
    NoSolution,
    OutsideEstimatedDomain,
    Refusal,
    ResonantPoint,
    SchemaError,
    UnboundParameter,
    ZeroConstantTerm,
)
from .multiseries import (
    CSeries2,
    cauchy_mul,
    exp_series,
    index_key,
    norm,
    reciprocal,
    sqrt_series,
)
from .expr_parser import parse_expr, pretty, to_series
from .indicial import (
    ALL_SOLUTIONS,
    DEFAULT_TOL,
    ConicClass,
    IndicialConic,
    ResonanceReport,
    classify,
    resonance_scan,
    solve_for_s,
)
from .frobenius import (
    ConvergenceReport,
    FrobeniusSolution,
    RegularSingularPDE,
    convergence_report,
    prepare_coordinates,
    radius_estimate,
    solve,
)

#: the names of `verify`, which loads on the first read of one, so that the
#: CLI subcommands that run no check do not compile it
_VERIFY_NAMES = ("ResidualReport", "apply_operator", "eval_solution", "residual_max")


def __getattr__(name):  # PEP 562: called only for names the module does not define
    if name in _VERIFY_NAMES:
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
