"""Verdicts with teeth: every planted fault turns its verdict.

Each fault is planted by monkeypatching, never by editing the package.  A
closed form with one side off by a relative 10^(-d+12) must fail at every
point it is checked at, and the same side off by 10^(-d-20) must still
pass, so the suite pins both edges of the gap the pass rule sits in.  A
recognized polynomial with one coefficient off by one must fail the
certificate that accepted the true one.  A passing polynomial entry with
one coefficient off by one must fail its series check and every numeric
residual.  Table 1's series certificate must refuse a u cut one grid row
short of its window, and pass one cut at it."""

import math
from fractions import Fraction

import pytest

from thetaquot import catalog, mining
from thetaquot.catalog import catalog_ids, get_entry, verify_entry
from thetaquot.mining import BivarIntPoly
from thetaquot.modular import p2_A14, q_A14, s_n
from thetaquot.numeric import big_real, eval_A, nome_from_r
from thetaquot.recognize import IntPoly, _certify, recognize
from thetaquot.series import ThetaSpec
from thetaquot.values import replace

DIGITS = 60
ORDER = 60
CLOSED_FORMS = [eid for eid in catalog_ids() if get_entry(eid).kind == "closed_form"]
PASSING_CLOSED_FORMS = [
    eid for eid in CLOSED_FORMS if get_entry(eid).status_expectation == "expected_pass"
]


def plant(monkeypatch, exponent: int) -> None:
    """Every closed form's left side times (1 + 10^exponent).

    The closed forms record lhs - rhs with the sides as its terms, so the
    planted residual is lhs (1 + eps) - rhs.  thm3_instance records only
    |lhs - rhs|, so its check is replaced by one with the same sides."""
    record = catalog._record

    def eps(digits):
        return big_real(Fraction(1, 10 ** -exponent), digits)

    def planted_record(data, label, digits, residual, *terms):
        if terms:
            residual = residual + terms[0] * eps(digits)
        return record(data, label, digits, residual, *terms)

    def planted_thm3(x, digits):
        lhs = q_A14(s_n(x, 2, digits)) * (1 + eps(digits))
        return abs(lhs - p2_A14(q_A14(x)))

    monkeypatch.setattr(catalog, "_record", planted_record)
    monkeypatch.setattr(catalog, "check_theorem3_instance", planted_thm3)


def test_every_closed_form_is_covered():
    assert len(CLOSED_FORMS) == 14
    assert "thm3_instance" in CLOSED_FORMS and "eq45" in CLOSED_FORMS


@pytest.mark.parametrize("eid", CLOSED_FORMS)
def test_a_side_off_by_1e_minus_d_plus_12_fails_at_every_point(monkeypatch, eid):
    plant(monkeypatch, -DIGITS + 12)
    report = verify_entry(eid, DIGITS, ORDER)
    assert len(report.residuals) == 3
    assert not any(rec.passed for rec in report.residuals), report.residuals
    assert report.verdict in ("fail", "flagged")


@pytest.mark.parametrize("eid", PASSING_CLOSED_FORMS)
def test_a_side_off_by_1e_minus_d_minus_20_still_passes(monkeypatch, eid):
    plant(monkeypatch, -DIGITS - 20)
    report = verify_entry(eid, DIGITS, ORDER)
    assert all(rec.passed for rec in report.residuals), report.residuals
    assert report.verdict == "pass"


def values(digits):
    """Algebraic values carried at twice the digits and 20 more, as the
    certificate re-evaluates at twice the working precision."""
    wide = 2 * digits + 20
    a24 = eval_A(ThetaSpec(1, 4), nome_from_r(1, wide), wide) ** 24
    return [
        (big_real(2, wide) ** Fraction(1, 6), 6),  # x^6 - 2
        (3 - 2 * big_real(2, wide).sqrt(), 4),  # x^2 - 6x + 1
        (a24, 2),  # x - 8
        (big_real(Fraction(3, 7), wide), 2),  # 7x - 3
    ]


@pytest.mark.parametrize("digits", [60, 200])
def test_a_coefficient_off_by_one_fails_the_certificate(digits):
    for x, d_max in values(digits):
        poly = recognize(x, d_max, digits)
        assert _certify(poly, x, digits)
        for i in range(len(poly.coeffs)):
            for delta in (1, -1):
                coeffs = list(poly.coeffs)
                coeffs[i] += delta
                assert not _certify(IntPoly(tuple(coeffs)), x, digits), (poly, i, delta)


@pytest.mark.parametrize("eid", ["table1", "table3", "table4"])
def test_a_polynomial_coefficient_off_by_one_fails_everywhere(monkeypatch, eid):
    entry = get_entry(eid)
    assert entry.kind == "poly_relation"
    assert verify_entry(eid, DIGITS, ORDER, [1, 2, 3]).verdict == "pass"
    for k, (i, j, c) in enumerate(entry.poly.terms):
        for delta in (1, -1):
            terms = list(entry.poly.terms)
            terms[k] = (i, j, c + delta)
            planted = replace(entry, poly=BivarIntPoly(tuple(terms)))
            monkeypatch.setattr(catalog, "get_entry", lambda _, planted=planted: planted)
            report = verify_entry(eid, DIGITS, ORDER, [1, 2, 3])
            assert report.verdict == "fail" and report.series_order is None, (k, delta)
            assert not any(rec.passed for rec in report.residuals), (k, delta)


@pytest.mark.parametrize("short", [0, 1], ids=["at the window", "one row short"])
def test_table1_certificate_needs_u_through_its_window(short):
    # table 1's certified rows: its degree-6 matrix, sized from the declared
    # shapes of its bindings, and EXTRA_ORDERS more
    entry = get_entry("table1")
    shapes = [entry.u_binding.shape, mining.get_v_binding(entry.v_binding).shape]
    rows = 7 ** 2 + 10 + mining._valuation_spread(shapes, 6) + mining.EXTRA_ORDERS
    assert rows == 96
    u, v = mining.build_binding_series(entry.u_binding, entry.v_binding, Fraction(rows))
    # the window ends at floor(b) + rows, b the least leading exponent of the
    # relation's monomials, so u must be known that far past b
    (lu, _), (lv, _) = shapes
    base = min(i * lu + j * lv for i, j, _ in entry.poly.terms)
    cut = u.truncate(lu + math.floor(base) + rows - base - Fraction(short, u.denom))
    if short:
        with pytest.raises(mining.InsufficientTruncation):
            mining._first_nonzero(entry.poly, cut, v, rows)
    else:
        assert mining._first_nonzero(entry.poly, cut, v, rows) is None
