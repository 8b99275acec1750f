"""frobpde: Frobenius-type series solutions of second-order linear PDEs with
regular singularities -- indicial conics, resonance scans, the coefficient
recurrence, convergence certification, and a catalog of named models."""

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
from .euler import (
    ClassicalSolution,
    EulerPDE,
    IntegerPointFamily,
    LatticeLine,
    classical_solution,
    euler_coords,
    integral_points,
    monomial_check,
    real_monomial_pair,
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
from .catalog import (
    CatalogEntry,
    closed_form_coeff,
    default_point,
    entry,
    list_entries,
    make_pde,
    solve_entry,
    special_relation_check,
)
from .verify import (
    ResidualReport,
    apply_operator,
    eval_solution,
    residual_max,
)
