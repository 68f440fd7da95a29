"""The value classes behave as the frozen dataclasses they replace: built
positionally or by keyword with their defaults, equal and hashed by their
fields within one class, printed as their fields, immutable (but
``CheckData``) and copied by ``replace``.  ``ThetaSpec``, and so an
``ABinding`` holding one, copies and pickles too, also from streams that
name it at its former home, the series module."""

import copy
import pickle
from fractions import Fraction

import pytest

from thetaquot import numeric, series, values
from thetaquot.catalog import CheckData, EntryReport, ResidualRecord
from thetaquot.mining import ABinding, NumericCheck
from thetaquot.recognize import IntPoly
from thetaquot.values import ThetaSpec, replace


def test_positional_keyword_and_default_fields():
    a = EntryReport("t", "pass", (), None, "")
    b = EntryReport(id="t", verdict="pass", residuals=(), series_order=None, notes="")
    assert a == b and a.remined is None
    assert ABinding(ThetaSpec(1, 4), 12).qscale == 1
    with pytest.raises(TypeError):
        NumericCheck(1, 60)  # no residual
    with pytest.raises(TypeError):
        NumericCheck(1, 60, "0", "extra")
    with pytest.raises(TypeError):
        NumericCheck(1, 60, r=2)  # r twice
    with pytest.raises(TypeError):
        NumericCheck(1, 60, "0", rr=2)


def test_equal_and_hashed_only_within_a_class():
    a, b = NumericCheck(Fraction(1), 60, "1e-60"), NumericCheck(1, 60, "1e-60")
    assert a == b and hash(a) == hash(b)
    assert a != NumericCheck(1, 60, "2e-60")
    # same field values in another class, or as a tuple, are not equal
    assert IntPoly((1, 60, "1e-60")) != a and a != (Fraction(1), 60, "1e-60")
    assert len({a, b, ResidualRecord("r=1", 60, "1e-60", True)}) == 2


def test_repr_lists_the_fields():
    assert repr(NumericCheck(Fraction(1, 2), 60, "1e-60")) == (
        "NumericCheck(r=Fraction(1, 2), digits=60, residual='1e-60')"
    )


def test_immutable_but_check_data():
    poly = IntPoly((1, -2))
    with pytest.raises(AttributeError):
        poly.coeffs = (1,)
    with pytest.raises(AttributeError):
        del poly.coeffs
    with pytest.raises(AttributeError):
        poly.other = 1  # no __dict__ either
    data, other = CheckData(), CheckData()
    data.records.append(ResidualRecord("r=1", 60, "1e-60", True))
    data.series_ok = False
    assert other.records == [] and other.series_ok
    assert CheckData(series_order=5).series_order == 5
    with pytest.raises(TypeError):
        hash(data)


def test_replace_runs_the_constructor_again():
    u = ABinding(ThetaSpec(1, 4), 12)
    assert replace(u, power=-12) == ABinding(ThetaSpec(1, 4), -12)
    assert u.power == 12
    with pytest.raises(ValueError, match="qscale"):
        replace(u, qscale=Fraction(0))
    with pytest.raises(TypeError):
        replace(u, scale=2)


def test_copy_and_pickle_keep_the_value():
    check = NumericCheck(Fraction(1, 2), 60, "1e-60")
    assert copy.copy(check) == check == pickle.loads(pickle.dumps(check))
    data = CheckData([ResidualRecord("r=1", 60, "1e-60", True)], 7)
    assert copy.deepcopy(data) == data


@pytest.mark.parametrize(
    "value", [ThetaSpec(Fraction(1, 2), 4), ABinding(ThetaSpec(8, 6), 6, Fraction(2))],
    ids=["ThetaSpec", "ABinding"],
)
def test_theta_spec_copies_and_pickles(value):
    # values holds them, and series and numeric import the same objects
    assert values.ThetaSpec is series.ThetaSpec is numeric.ThetaSpec
    assert values.MAX_TERMS is series.MAX_TERMS is numeric.MAX_TERMS
    # a stream as written when series defined ThetaSpec
    stream = pickle.dumps(value, protocol=0)
    old = stream.replace(b"cthetaquot.values\nThetaSpec", b"cthetaquot.series\nThetaSpec")
    assert old != stream
    spec = value if isinstance(value, ThetaSpec) else value.spec
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value)),
                 pickle.loads(old)):
        assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)
        twin_spec = twin if isinstance(twin, ThetaSpec) else twin.spec
        assert twin_spec.delta == spec.delta
        with pytest.raises(AttributeError, match="immutable"):
            twin_spec.a = 0
