"""The package's records: immutable, compared by value, picklable, and
checked at construction as before they became named tuples."""

import math
import pickle

import pytest

from gfkernel import IntegralResult, MacdonaldOrders, Params, QuadratureSpec
from gfkernel.errors import DomainError
from gfkernel.harness import (
    Axis,
    Profile,
    ResidualReport,
    TranslateReport,
    TvReport,
    gaussian_profile,
)
from gfkernel.selfcheck import CriterionResult

AXIS = Axis("x", 0.1, 10.0, 9, "log")
RECORDS = [
    QuadratureSpec(), IntegralResult(1.0, 0.0, 3), Params(0.75, 4.0 / 3.0),
    MacdonaldOrders(0.125, 1.625),
    AXIS, gaussian_profile(1.0),
    ResidualReport(1j, 1j, 0.0, 0.0, 0.0, 0.0), TvReport(1.0, 0.0, 0.0, 0),
    TranslateReport(1j, 0.0), CriterionResult("c01", "stub", True, "ok", 0.5),
]


@pytest.mark.parametrize("rec", RECORDS, ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned(rec):
    with pytest.raises(AttributeError):
        setattr(rec, rec._fields[0], getattr(rec, rec._fields[0]))
    with pytest.raises(AttributeError):
        rec.extra = 1


def test_records_compare_by_value():
    assert QuadratureSpec() == QuadratureSpec(1e-10, 1e-9, 12)
    assert QuadratureSpec(rel_tol=1e-7) != QuadratureSpec()
    assert Params(0.75, 4.0 / 3.0) == Params(k=0.75, a=4.0 / 3.0)
    assert hash(Params(0.5, 2.0)) == hash(Params(0.5, 2.0))
    assert Params(0.5, 2.0) != Params(0.5, 1.0)
    assert AXIS == Axis("x", 0.1, 10.0, count=9, spacing="log")
    assert MacdonaldOrders(0.5, 1.5) == MacdonaldOrders(nu=1.5, mu=0.5)


def test_params_derives_its_orders_from_k_and_a():
    k, a = 0.75, 4.0 / 3.0
    p = Params(k, a)
    assert (p.mu_m, p.nu_m, p.w) == ((2.0 * k - 1.0) / a, (2.0 * k + 1.0) / a, 2.0 * k + a - 2.0)
    assert repr(Params(0.5, 2.0)) == "Params(k=0.5, a=2.0, mu_m=0.0, nu_m=1.0, w=1.0)"


# tv-sweep hands the spec (and its workers rebuild the parameters) across
# processes
@pytest.mark.parametrize("rec", [QuadratureSpec(abs_tol=1e-9, rel_tol=1e-7, max_levels=8),
                                 Params(0.75, 4.0 / 3.0), Params(0.0, 3.0)],
                         ids=["spec", "params", "params-k0"])
@pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(rec, protocol):
    back = pickle.loads(pickle.dumps(rec, protocol))
    assert type(back) is type(rec) and back == rec


@pytest.mark.parametrize("make", [
    lambda: QuadratureSpec(abs_tol=0.0),
    lambda: QuadratureSpec(rel_tol=-1e-9),
    lambda: QuadratureSpec(max_levels=3),
    lambda: Params(-0.1, 2.0),
    lambda: Params(0.5, 0.0),
    lambda: Params(math.nan, 1.0),
    lambda: Params(0.5, math.inf),
    lambda: Params(0.0, 0.5),                 # w = -1.5
    lambda: MacdonaldOrders(-0.5, 1.0),
    lambda: MacdonaldOrders(0.5, -0.75),
    lambda: Axis("x", 0.0, 1.0, 0),
    lambda: Axis("x", 1.0, 0.0, 5),
    lambda: Axis("x", 0.0, 1.0, 3, "cubic"),
    lambda: Axis("x", 0.0, 1.0, 3, "log"),
    lambda: Profile(abs, 0.0),
    lambda: Profile(abs, math.inf, "inf", True),
], ids=range(16))
def test_checked_records_refuse_bad_input(make):
    with pytest.raises(DomainError):
        make()


def test_params_checks_in_order():
    # k is checked before a, and both before the weight exponent
    with pytest.raises(DomainError, match="multiplicity"):
        Params(-1.0, -1.0)
    with pytest.raises(DomainError, match="deformation"):
        Params(0.0, -1.0)
    with pytest.raises(DomainError, match="weight exponent"):
        Params(0.0, 0.5)
