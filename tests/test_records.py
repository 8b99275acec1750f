"""The result and input records: validation on construction, immutability,
a pinned repr and the JSON form the CLI writes."""

import json

import pytest

from frobpde.catalog import CatalogEntry
from frobpde.cli import ProblemSpec, _dump
from frobpde.euler import EulerPDE, IntegerPointFamily, LatticeLine
from frobpde.expr_parser import parse_expr, to_series
from frobpde.frobenius import ConvergenceReport, RegularSingularPDE
from frobpde.indicial import ConicClass, IndicialConic, ResonanceReport
from frobpde.verify import ResidualReport


def series(text, order=4):
    return to_series(parse_expr(text), {}, order)


PDE = RegularSingularPDE(1, 2, 1, series("1"), series("1"), series("x^2"))

#: one record of each type with the name of one of its fields
RECORDS = [
    (IndicialConic(1 + 0j, 0j, 1, 0, 0, -25), "cF"),
    (ConicClass("elliptic", False, "none"), "degenerate"),
    (ResonanceReport(0j, 0j, 4, (), 4), "hits"),
    (PDE, "A"),
    (ConvergenceReport(True, False, False, True), "general_sufficient"),
    (EulerPDE(1, 0, 0, 1, -1, 0), "F"),
    (LatticeLine((0, 0), (1, 1)), "base"),
    (IntegerPointFamily("elliptic", (1, 0, 1, 0, 0, -25), ((5, 0),), ()), "points"),
    (CatalogEntry("bessel_I", (("nu", 0j),)), "params"),
    (ResidualReport(0.0, {0: 0.0}, 0), "max_residual"),
    (ProblemSpec(PDE, "auto", 1e-9), "tol"),
]


def test_unequal_truncation_orders_are_refused():
    with pytest.raises(ValueError, match="one truncation order"):
        RegularSingularPDE(1, 0, 1, series("1", 4), series("1", 5), series("1", 4))


def test_all_zero_euler_pde_is_refused():
    with pytest.raises(ValueError, match="at least one nonzero coefficient"):
        EulerPDE(0, 0j, 0.0, 0, 0, 0)


def test_replace_checks_like_the_constructor():
    pde = RegularSingularPDE(1, 0, 1, series("1"), series("1"), series("1"))
    with pytest.raises(ValueError, match="one truncation order"):
        pde._replace(b=series("1", 5))
    with pytest.raises(ValueError, match="at least one nonzero coefficient"):
        EulerPDE(1, 0, 0, 0, 0, 0)._replace(A=0)


@pytest.mark.parametrize("record, name", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_fields_cannot_be_set(record, name):
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_repr_names_every_field():
    assert repr(IndicialConic(1 + 0j, 0j, 1, 0, 0, -25)) == (
        "IndicialConic(cA=(1+0j), cB=0j, cC=1, cD=0, cE=0, cF=-25)"
    )


#: the library records whose fields hold plain values, not series
PLAIN = [r for r, _ in RECORDS if not isinstance(r, (RegularSingularPDE, ProblemSpec))]


@pytest.mark.parametrize("record", PLAIN, ids=[type(r).__name__ for r in PLAIN])
def test_cli_writes_a_record_as_an_object_of_its_fields(record):
    assert list(json.loads(_dump(record))) == list(record._fields)


def test_cli_refuses_to_write_an_unknown_type():
    with pytest.raises(TypeError, match="cannot serialize set"):
        _dump({"hits": {(1, 0)}})
