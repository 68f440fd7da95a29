"""Catalog verification: entry outcomes, the errata pair, re-mining
fallbacks, convention determination, and report structure."""

import sys
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from thetaquot import catalog, numeric
from thetaquot.catalog import (
    catalog_ids,
    get_entry,
    remine_entry,
    verify_all,
    verify_entry,
    verify_entry_with_fallback,
)
from thetaquot.mining import MiningError, validate
from thetaquot.numeric import singular_modulus
from thetaquot.recognize import recognize
from thetaquot.series import invert_unit, modulus_series, rescale, theta_series
from thetaquot.values import replace


def residual_values(report):
    with mp.workdps(40):
        return [mpmath.mpf(rec.residual) for rec in report.residuals]


class TestEntryBasics:
    def test_catalog_contains_expected_ids(self):
        ids = set(catalog_ids())
        expected = {
            "eq11_s0", "eq11_s1", "eq11_s2", "eq12_s0", "eq12_s1", "eq13",
            "eq15_as_printed", "eq15_corrected", "thm1", "eq18", "thm2",
            "eq27", "thm3_instance", "eq32", "table1", "table2", "table3",
            "table4", "table5", "eq45", "jtp_consistency",
            "prefactor_consistency",
        }
        assert expected == ids

    def test_unknown_id(self):
        with pytest.raises(KeyError, match="unknown catalog entry"):
            verify_entry("nope")

    def test_statements_are_nonempty(self):
        for eid in catalog_ids():
            assert get_entry(eid).statement


class TestClosedFormEntries:
    def test_thm1_at_r2_with_exact_inner_factor(self):
        rep = verify_entry("thm1", digits=60, r_list=(2,))
        assert rep.verdict == "pass"
        with mp.workdps(40):
            assert mpmath.mpf(rep.residuals[0].residual) < mpmath.mpf("1e-50")
        # the inner factor 4(1-k^2)/k collapses to the integer 8 at r=2
        ep = singular_modulus(2, 60)
        inner = 4 * (1 - ep.k ** 2) / ep.k
        assert recognize(inner, 1, 50).coeffs == (-8, 1)

    def test_eq13_at_r1(self):
        rep = verify_entry("eq13", digits=60, r_list=(1,))
        assert rep.verdict == "pass"
        with mp.workdps(40):
            assert mpmath.mpf(rep.residuals[0].residual) < mpmath.mpf("1e-50")

    def test_eq15_pair_documents_the_erratum(self):
        printed = verify_entry("eq15_as_printed", digits=60, r_list=(1,))
        corrected = verify_entry("eq15_corrected", digits=60, r_list=(1,))
        assert printed.verdict == "flagged"
        assert corrected.verdict == "pass"
        with mp.workdps(40):
            # at r=1 the printed form misses by |16 - 8| = 8
            assert mpmath.mpf(printed.residuals[0].residual) > mpmath.mpf("0.1")
            assert mpmath.mpf(corrected.residuals[0].residual) < mpmath.mpf("1e-50")

    def test_eq45_exactly_one_convention(self):
        rep = verify_entry("eq45", digits=60, r_list=(1, 2))
        assert rep.verdict == "pass"
        # the reciprocal quotient wins, and only its records are kept
        assert "theta3_sq_ratio(q5,q)" in rep.notes
        assert "theta3_sq_ratio(q,q5)" not in rep.notes
        assert [rec.label for rec in rep.residuals] == ["r=1", "r=2"]
        with mp.workdps(40):
            assert all(v < mpmath.mpf("1e-30") for v in residual_values(rep))
        # the losing convention M = theta3(q)^2 / theta3(q^5)^2 fails the
        # series already at q^1
        t3 = theta_series(1, 0, 10, alternating=False)
        m5 = t3 ** 2 * invert_unit(rescale(t3, 5) ** 2)
        m = modulus_series(10)
        resid = (5 * m5 - 1) ** 5 * (1 - m5) - 256 * m * (1 - m) * m5
        assert resid.leading() == (1, -8192)

    def test_thm3_instance(self):
        rep = verify_entry("thm3_instance", digits=60)
        assert rep.verdict == "pass"
        assert [rec.label for rec in rep.residuals] == [
            "x=0.3", "x=1/sqrt2", "x=0.6",
        ]


class TestSeriesEntries:
    def test_eq32(self):
        rep = verify_entry("eq32", digits=40, M=100)
        assert rep.verdict == "pass"
        assert rep.series_order >= 100

    def test_jtp_consistency(self):
        rep = verify_entry("jtp_consistency", digits=50)
        assert rep.verdict == "pass"
        assert rep.series_order >= 200

    @pytest.mark.parametrize("digits", [100, 200])
    def test_jtp_consistency_two_paths_at_high_precision(self, digits):
        # the (8,6) series must be long enough for the numeric two-path
        # comparison to hold at every precision, not just 60 digits
        rep = verify_entry("jtp_consistency", digits=digits)
        assert rep.verdict == "pass"
        assert [rec.residual for rec in rep.residuals] == [f"1.0e-{digits}"]

    def test_prefactor_consistency(self):
        rep = verify_entry("prefactor_consistency", digits=40)
        assert rep.verdict == "pass"


class TestPolyEntries:
    def test_table4_series_and_numeric(self):
        rep = verify_entry("table4", digits=60, M=150, r_list=(1, 2))
        assert rep.verdict == "pass"
        assert rep.series_order == 150
        for val in residual_values(rep):
            assert val < mpmath.mpf("1e-40")

    def test_table1_passes_as_printed(self):
        rep = verify_entry("table1", digits=60, M=150, r_list=(1, 2))
        assert rep.verdict == "pass"
        assert rep.series_order == 150

    def test_table3_passes_as_printed(self):
        rep = verify_entry("table3", digits=60, M=150, r_list=(1, 2))
        assert rep.verdict == "pass"

    def test_table2_printed_fails_both_routes(self):
        rep = verify_entry("table2", digits=60, M=150, r_list=(1, 2))
        assert rep.verdict == "flagged"
        assert rep.series_order is None
        assert all(not rec.passed for rec in rep.residuals)

    def test_table5_printed_pairing_fails(self):
        rep = verify_entry("table5", digits=60, M=150, r_list=(1, 2))
        assert rep.verdict == "flagged"
        assert rep.series_order is None

    def test_series_and_numeric_verdicts_agree(self):
        for eid in ("table1", "table2", "table3", "table4", "table5"):
            rep = verify_entry(eid, digits=50, M=100, r_list=(1,))
            series_good = rep.series_order is not None
            numeric_good = all(rec.passed for rec in rep.residuals)
            assert series_good == numeric_good


class TestRemine:
    def test_table2_remine_halves_the_powers(self):
        rel = remine_entry("table2", digits=60)
        printed = get_entry("table2").poly
        halved = {(i // 2, j): c for i, j, c in printed.terms}
        mined = {(i, j): c for i, j, c in rel.poly.terms}
        assert mined == halved

    def test_remined_relation_revalidates(self):
        rel = remine_entry("table2", digits=60)
        again = validate(rel, digits=60)
        assert again.poly == rel.poly


@pytest.fixture(scope="module")
def report():
    return verify_all(digits=60, M=150, r_list=(1, 2, 3))


class TestVerifyAll:
    def test_no_unexpected_failures(self, report):
        assert report.failures() == []

    def test_expected_passing_set(self, report):
        verdicts = {e.id: e.verdict for e in report.entries}
        for eid in (
            "thm1", "thm2", "eq11_s0", "eq11_s1", "eq11_s2", "eq12_s0",
            "eq12_s1", "eq13", "eq15_corrected", "eq18", "eq27",
            "table1", "table3", "table4", "eq32", "eq45",
            "jtp_consistency", "prefactor_consistency", "thm3_instance",
        ):
            assert verdicts[eid] == "pass", eid
        for eid in ("eq15_as_printed", "table2", "table5"):
            assert verdicts[eid] == "flagged", eid

    def test_failing_poly_entries_carry_passing_replacements(self, report):
        by_id = {e.id: e for e in report.entries}
        for eid in ("table2", "table5"):
            remined = by_id[eid].remined
            assert remined is not None
            again = validate(remined, digits=60)
            assert again.poly == remined.poly

    def test_table5_remine_recovers_printed_polynomial(self, report):
        by_id = {e.id: e for e in report.entries}
        assert by_id["table5"].remined.poly == get_entry("table5").poly
        assert by_id["table5"].remined.u_binding.qscale == 4

    def test_report_json_shape(self, report):
        obj = report.to_json_obj()
        assert set(obj) == {"run", "entries"}
        assert obj["run"] == {"digits": 60, "order": 150, "rs": ["1", "2", "3"]}
        for e in obj["entries"]:
            assert set(e) == {
                "id", "verdict", "series_order", "residuals", "notes", "remined"
            }
            for rec in e["residuals"]:
                assert set(rec) == {"r", "digits", "residual"}

    def test_determinism(self, report):
        again = verify_all(digits=60, M=150, r_list=(1, 2, 3))
        assert again.to_json() == report.to_json()

    def test_one_modulus_computation_per_point(self, report, monkeypatch):
        # every closed form and modulus binding at one (r, digits) shares
        # one point; s_n, whose r is irrational, calls the kernel itself
        kernel = numeric.singular_modulus
        seen = []

        def counting(r, digits):
            seen.append((r, digits))
            return kernel(r, digits)

        # at every binding of the kernel, as the benchmark's tracer wraps it
        for name, mod in list(sys.modules.items()):
            if name.startswith("thetaquot"):
                if getattr(mod, "singular_modulus", None) is kernel:
                    monkeypatch.setattr(mod, "singular_modulus", counting)
        numeric._cached_point.cache_clear()
        try:
            again = verify_all()
        finally:
            numeric._cached_point.cache_clear()
        assert again.to_json() == report.to_json()
        points = [(r, digits) for r, digits in seen if isinstance(r, Fraction)]
        assert len(points) == len(set(points))
        # r = 1, 2, 3, and 4r for the m_q2_squared binding's k_4r
        assert set(points) == {(Fraction(r), 60) for r in (1, 2, 3, 4, 8, 12)}
        # the rest are s_n's, one at each of thm3_instance's three x-points
        assert len(seen) - len(points) == 3


class TestVerifyPath:
    # closed forms checked at every r of the run; thm3_instance uses x-points
    PER_R = [
        eid for eid in catalog_ids()
        if get_entry(eid).kind == "closed_form" and eid != "thm3_instance"
    ]

    def test_remine_failure_turns_the_entry_to_fail(self, monkeypatch):
        def boom(*args, **kwargs):
            raise MiningError("boom")

        monkeypatch.setattr(catalog, "remine_entry", boom)
        rep = verify_entry_with_fallback("table2", 60, 60)
        assert rep.verdict == "fail"
        assert rep.remined is None
        assert rep.notes.endswith("re-mining failed: boom")

    def test_failing_expected_pass_entry_stays_a_failure(self, monkeypatch):
        # only the flagged tables 2 and 5 carry re-mining recipes, so a
        # failing table1 is reported as a failure, with no replacement
        failing = replace(
            get_entry("table1"), check=lambda *args: catalog.CheckData(series_ok=False)
        )
        monkeypatch.setitem(catalog._CATALOG, "table1", failing)
        rep = verify_entry_with_fallback("table1", 60, 60, (1,))
        assert rep.verdict == "fail"
        assert rep.remined is None
        assert catalog.Report(60, 60, (Fraction(1),), (rep,)).failures() == ["table1"]

    def test_closed_forms_cover_thirteen_entries(self):
        assert len(self.PER_R) == 13

    @pytest.mark.parametrize("eid", PER_R)
    def test_records_follow_the_r_list(self, eid):
        rep = verify_entry(eid, digits=40, r_list=(2, Fraction(1, 2)))
        assert [rec.label for rec in rep.residuals] == ["r=2", "r=1/2"]
        assert all(rec.digits == 40 for rec in rep.residuals)


class TestToleranceScaling:
    @pytest.mark.parametrize("eid", ["eq13", "thm1", "eq27"])
    def test_doubling_digits_shrinks_residuals(self, eid):
        low = verify_entry(eid, digits=40, r_list=(1, 2))
        high = verify_entry(eid, digits=80, r_list=(1, 2))
        with mp.workdps(40):
            for lo, hi in zip(residual_values(low), residual_values(high)):
                assert hi < lo or (hi == 0 and lo == 0)
