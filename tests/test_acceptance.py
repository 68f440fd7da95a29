"""Acceptance suite: one test (or tightly scoped group) per criterion, each
printing a pass/fail line.  Tolerances are pinned here, not configurable.

Criterion 8 includes one deliberately failing test: the printed table-2
polynomial paired with the sixth power of the (8,6) quotient is refuted by
exact series arithmetic and 60-digit numerics (the relation holds with the
third power instead; the re-mined replacement is asserted separately).
That test is expected to stay red; the README's "Known red test" section
carries the analysis.
"""

import math
import random
from fractions import Fraction as F

import mpmath
import pytest
from mpmath import mp

from thetaquot.catalog import remine_entry, verify_entry
from thetaquot.mining import (
    ABinding,
    BivarIntPoly,
    MinedRelation,
    ValidationFailed,
    build_binding_series,
    mine,
    validate,
)
from thetaquot.modular import check_theorem3_instance, landen_k4
from thetaquot.numeric import (
    BigReal,
    big_real,
    eval_A,
    eval_eta,
    eval_theta,
    nome_from_r,
    real_eval_series,
    singular_modulus,
)
from thetaquot.recognize import NotFound, recognize, recognize_rational
from thetaquot.series import (
    A_series,
    A_series_product,
    PuiseuxSeries,
    ThetaSpec,
    exp_series,
    invert_unit,
    modulus_series,
    nome_sqrt_exp_form,
    rescale,
    sqrt_series,
    theta_series,
)


def tol(e: int) -> mpmath.mpf:
    with mp.workdps(30):
        return mpmath.mpf(10) ** e


def report_line(num: int, desc: str, ok: bool = True) -> None:
    print(f"acceptance criterion {num:2d} ({desc}): {'PASS' if ok else 'FAIL'}")


# -- criterion 1: triple-product consistency --------------------------------


def test_c01_triple_product_consistency():
    pairs = [
        ThetaSpec(1, 4), ThetaSpec(1, 3), ThetaSpec(-1, 6), ThetaSpec(-2, 8),
        ThetaSpec(1, 5), ThetaSpec(F(1, 2), 4), ThetaSpec(F(1, 2), 2),
    ]
    for spec in pairs:
        lhs = A_series(spec, 26)
        rhs = A_series_product(spec, 26)
        assert lhs.agrees_with(rhs), spec
        common = lhs.denom * rhs.denom // math.gcd(lhs.denom, rhs.denom)
        known = min(lhs.hi * common // lhs.denom, rhs.hi * common // rhs.denom)
        assert known >= 200, spec
    # the (8,6) quotient carries a negative product exponent; its two
    # construction routes are compared numerically instead
    q = nome_from_r(1, 60)
    direct = eval_A(ThetaSpec(8, 6), q)
    via_series = real_eval_series(A_series(ThetaSpec(8, 6), 50), q).value
    assert abs((direct - via_series).value) < tol(-45)
    report_line(1, "triple-product consistency")


# -- criterion 2: the (2n^2+n) evaluation -----------------------------------


def test_c02_quadratic_alternating_sum_evaluation():
    digits = 60
    for r in (1, 2, 3, F(1, 2)):
        ep = singular_modulus(r, digits)
        lhs = eval_theta(2, 1, ep.q)
        inner = 4 * (1 - ep.k ** 2) / ep.k
        rhs = (
            ep.q ** F(1, 24) * eval_eta(4, ep.q) * inner ** F(1, 12)
        )
        assert abs((lhs - rhs).value) < tol(-50), f"r={r}"
    ep2 = singular_modulus(2, digits)
    inner2 = 4 * (1 - ep2.k ** 2) / ep2.k
    assert recognize_rational(inner2, 50) == 8
    report_line(2, "quadratic-exponent evaluation with exact inner factor 8")


# -- criterion 3: the (2n^2+3n/2) evaluation --------------------------------


def test_c03_half_shift_evaluation():
    digits = 60
    for r in (1, 2):
        ep = singular_modulus(r, digits)
        k = ep.k
        lhs = eval_theta(2, F(3, 2), ep.q)
        inner = (
            4 * (1 - k) ** 4 * (2 + k - 2 * (1 + k).sqrt()) ** 12
            / (k ** 13 * (1 + k) ** 2)
        )
        rhs = ep.q ** F(-11, 96) * eval_eta(4, ep.q) * inner ** F(1, 48)
        assert abs((lhs - rhs).value) < tol(-45), f"r={r}"
    report_line(3, "half-integer-shift evaluation")


# -- criterion 4: even and odd shifted sums ---------------------------------


def test_c04_shifted_square_sums():
    for s in (0, 1, 2):
        rep = verify_entry(f"eq11_s{s}", digits=60, r_list=(1, 2, 3))
        assert rep.verdict == "pass"
        assert all(mpmath.mpf(rec.residual) < tol(-45) for rec in rep.residuals)
    for s in (0, 1):
        rep = verify_entry(f"eq12_s{s}", digits=60, r_list=(1, 2, 3))
        assert rep.verdict == "pass"
        assert all(mpmath.mpf(rec.residual) < tol(-45) for rec in rep.residuals)
    report_line(4, "even/odd shifted theta sums")


# -- criterion 5: the eighth-power eta evaluation ----------------------------


def test_c05_eta_eighth_power():
    rep = verify_entry("eq13", digits=60, r_list=(1, 2))
    assert rep.verdict == "pass"
    assert all(mpmath.mpf(rec.residual) < tol(-50) for rec in rep.residuals)
    report_line(5, "eta eighth-power evaluation")


# -- criterion 6: the (1/2, 2) quotient evaluation ---------------------------


def test_c06_half_two_quotient():
    rep = verify_entry("eq18", digits=60, r_list=(1, 2))
    assert rep.verdict == "pass"
    assert all(mpmath.mpf(rec.residual) < tol(-50) for rec in rep.residuals)
    report_line(6, "(1/2, 2) quotient evaluation")


# -- criterion 7: erratum detection ------------------------------------------


def test_c07_erratum_detection():
    printed = verify_entry("eq15_as_printed", digits=60, r_list=(1,))
    corrected = verify_entry("eq15_corrected", digits=60, r_list=(1,))
    assert printed.verdict != "pass"
    assert mpmath.mpf(printed.residuals[0].residual) > mpmath.mpf("0.1")
    assert corrected.verdict == "pass"
    assert mpmath.mpf(corrected.residuals[0].residual) < tol(-50)
    # the 24th power itself is exactly 8 at r = 1
    a24 = eval_A(ThetaSpec(1, 4), nome_from_r(1, 80), 80) ** 24
    assert recognize_rational(big_real(a24, 60), 60) == 8
    report_line(7, "erratum detection on the 24th-power evaluation")


# -- criterion 8: table polynomials ------------------------------------------


def test_c08_table3_and_table4_polynomials():
    for eid in ("table3", "table4"):
        rep = verify_entry(eid, digits=60, M=150, r_list=(1, 2))
        assert rep.verdict == "pass", eid
        assert rep.series_order == 150
        assert all(mpmath.mpf(rec.residual) < tol(-40) for rec in rep.residuals)
    report_line(8, "table-3/table-4 polynomials as printed")


def test_c08_table2_polynomial_as_printed_with_power_six():
    # Faithful check of the printed table-2 polynomial against
    # u = A(8,6;q)^6, v = k.  This is refuted: the series residual is
    # nonzero and the numeric residual is of order 10^10, because the
    # printed polynomial actually belongs to u = A(8,6;q)^3.  The test is
    # kept as stated and is expected to fail; the certified replacement is
    # covered by test_c08_failing_tables_have_passing_replacements.
    rep = verify_entry("table2", digits=60, M=150, r_list=(1, 2))
    ok = rep.series_order == 150 and all(
        mpmath.mpf(rec.residual) < tol(-40) for rec in rep.residuals
    )
    report_line(8, "table-2 polynomial as printed", ok)
    assert rep.series_order == 150, (
        "printed table-2 polynomial has a nonzero series residual; "
        "it holds for the cube of the quotient, not the sixth power"
    )


def test_c08_failing_tables_have_passing_replacements():
    # table-1 passes as printed; table-2 and table-5 fail as printed and
    # must carry re-mined replacements that pass the same bar
    rep1 = verify_entry("table1", digits=60, M=150, r_list=(1, 2))
    assert rep1.verdict == "pass"
    assert rep1.series_order == 150
    for eid in ("table2", "table5"):
        rel = remine_entry(eid, digits=60)
        again = validate(rel, extra_orders=25, points=(1, 2), digits=60)
        assert again.poly == rel.poly
        assert all(
            mpmath.mpf(chk.residual) < tol(-40) for chk in again.numeric_checks
        )
    report_line(8, "printed-or-remined relation for every table entry")


# -- criterion 9: miner rediscovery ------------------------------------------


def test_c09_miner_rediscovery():
    # expected relation for the (1,4) case, frozen from two independent
    # oracles: the closed-form twelfth-power evaluation (whose 24th power
    # is 16 (1-v)^2 / v, giving u^2 v = 16 (1-v)^2) and its numeric
    # certification at r in {1,2}; the three-term variant u^2 v + 16 v - 16
    # reproduces the refuted printed 24th-power evaluation and fails the
    # same certification (residual 4 at r=1)
    expected14 = BivarIntPoly.normalized(
        [(0, 0, 16), (0, 1, -32), (0, 2, 16), (2, 1, -1)]
    )
    u = A_series(ThetaSpec(1, 4), 62) ** 12
    v = modulus_series(62)
    rel = mine(u, v, 3, 120, u_binding=ABinding(ThetaSpec(1, 4), 12), v_binding="m")
    assert rel.poly == expected14
    three_term = BivarIntPoly.normalized([(2, 1, 1), (0, 1, 16), (0, 0, -16)])
    bad = MinedRelation(
        poly=three_term, degree=2, validated_grid_order=19,
        u_binding=ABinding(ThetaSpec(1, 4), 12), v_binding="m",
    )
    with pytest.raises(ValidationFailed):
        validate(bad, extra_orders=10, points=(1,), digits=40, u=u, v=v)

    expected40 = BivarIntPoly.normalized(
        [(4, 1, -1), (2, 1, -64), (0, 2, 256), (0, 1, -512), (0, 0, 256)]
    )
    u2 = A_series(ThetaSpec(-2, 8), 90) ** 12
    v2 = rescale(modulus_series(45), 2) ** 2
    rel2 = mine(
        u2, v2, 5, 150,
        u_binding=ABinding(ThetaSpec(-2, 8), 12), v_binding="m_q2_squared",
    )
    assert rel2.poly == expected40
    report_line(9, "miner rediscovers the certified relations")


# -- criterion 10: recognizer ------------------------------------------------


def test_c10_recognizer():
    a24 = eval_A(ThetaSpec(1, 4), nome_from_r(1, 80), 80) ** 24
    assert recognize_rational(big_real(a24, 60), 60) == 8
    with mp.workdps(110):
        x = BigReal(mpmath.root(2, 6), 80)
        y = BigReal(3 - 2 * mpmath.sqrt(2), 60)
        p = BigReal(+mpmath.pi, 60)
    assert recognize(x, 6, 80).coeffs == (-2, 0, 0, 0, 0, 0, 1)
    assert recognize(y, 4, 60).coeffs == (1, -6, 1)
    with pytest.raises(NotFound):
        recognize_rational(p, 60, den_bound=10 ** 6)
    report_line(10, "algebraic recognizer")


# -- criterion 11: modular layer ---------------------------------------------


def test_c11_modular_layer():
    digits = 60
    for r in (1, 2):
        q = nome_from_r(r, digits)
        u = eval_A(ThetaSpec(1, 4), q)
        v = eval_A(ThetaSpec(1, 4), q * q)
        assert abs((16 * u ** 8 + u ** 16 * v ** 8 - v ** 16).value) < tol(-45)
        k = singular_modulus(r, digits).k
        k4 = singular_modulus(4 * r, digits).k
        assert abs((landen_k4(k) - k4).value) < tol(-45)
    for x in (
        big_real(F(3, 10), digits),
        big_real(F(1, 2), digits).sqrt(),
        big_real(F(3, 5), digits),
    ):
        assert check_theorem3_instance(x).value < tol(-30)
    report_line(11, "degree-2 modular layer")


# -- criterion 12: the exp-form expansion -------------------------------------


def test_c12_exp_form_series():
    lhs = sqrt_series(modulus_series(52))
    rhs = nome_sqrt_exp_form(52)
    assert lhs.agrees_with(rhs)
    common = lhs.denom * rhs.denom // math.gcd(lhs.denom, rhs.denom)
    known = min(lhs.hi * common // lhs.denom, rhs.hi * common // rhs.denom)
    assert known >= 100
    report_line(12, "divisor-sum exp form of the modulus root")


# -- criterion 13: the degree-5 multiplier convention -------------------------


def eq45_m_form_residual(i: int, j: int, order: int = 30) -> PuiseuxSeries:
    """(5M - 1)^5 (1 - M) - 256 m m' M for M = theta3(q^i)^2 / theta3(q^j)^2."""
    t3 = theta_series(1, 0, order, alternating=False)
    t3sq = {1: t3 ** 2, 5: rescale(t3, 5) ** 2}
    m5 = t3sq[i] * invert_unit(t3sq[j])
    m = modulus_series(order)
    return (5 * m5 - 1) ** 5 * (1 - m5) - 256 * m * (1 - m) * m5


def test_c13_multiplier_convention():
    rep = verify_entry("eq45", digits=60, r_list=(1, 2))
    assert rep.verdict == "pass"
    assert "theta3_sq_ratio(q5,q)" in rep.notes
    # the criterion demands residual < 1e-30 for the winner at both points;
    # only the winner's numerics run
    assert [rec.label for rec in rep.residuals] == ["r=1", "r=2"]
    assert all(mpmath.mpf(rec.residual) < tol(-30) for rec in rep.residuals)
    # the series decides: the winner's residual vanishes, the loser's
    # (M = theta3(q)^2 / theta3(q^5)^2) starts at -8192 q
    assert eq45_m_form_residual(5, 1).is_zero()
    assert eq45_m_form_residual(1, 5).leading() == (1, -8192)
    report_line(13, "degree-5 multiplier convention determined")


# -- criterion 14: property suites --------------------------------------------


def test_c14_property_suites():
    rng = random.Random(1414)

    # ring axioms
    def rnd():
        n = rng.choice([1, 2])
        pairs = [
            (F(rng.randint(-2, 5), n), F(rng.randint(-4, 4)))
            for _ in range(rng.randint(1, 4))
        ]
        return PuiseuxSeries.from_pairs(pairs, order=rng.randint(4, 8))

    for _ in range(10):
        a, b, c = rnd(), rnd(), rnd()
        assert ((a + b) + c).agrees_with(a + (b + c))
        assert (a * (b + c)).agrees_with(a * b + a * c)

    # inversion, square root, exponential contracts
    for _ in range(6):
        unit = PuiseuxSeries.from_pairs(
            [(0, F(rng.randint(1, 7)))]
            + [(k, F(rng.randint(-4, 4))) for k in range(1, 5)],
            order=10,
        )
        assert (unit * invert_unit(unit)).terms() == [(F(0), F(1))]
        square = unit * unit
        assert (sqrt_series(square) * sqrt_series(square)).agrees_with(square)
    upos = PuiseuxSeries.from_pairs([(1, 3), (2, -2)], order=9)
    vpos = PuiseuxSeries.from_pairs([(1, -1), (3, 5)], order=9)
    assert exp_series(upos + vpos).agrees_with(exp_series(upos) * exp_series(vpos))

    # theta symmetry and rescale family
    for _ in range(8):
        a = F(rng.randint(1, 5), rng.choice([1, 2]))
        b = F(rng.randint(-6, 6), rng.choice([1, 2]))
        s = F(rng.randint(1, 3), rng.choice([1, 2]))
        assert theta_series(a, b, 12) == theta_series(a, -b, 12)
        assert rescale(theta_series(a, b, 12), s).agrees_with(
            theta_series(a * s, b * s, 12 * s)
        )

    # numeric precision doubling
    for digits in (30, 60):
        lo = singular_modulus(F(7, 5), digits).k
        hi = singular_modulus(F(7, 5), 2 * digits).k
        assert abs(lo.value - hi.value) < tol(-digits + 5)

    # miner stability under M -> M+40 across the catalog shapes
    stability_cases = [
        (ABinding(ThetaSpec(1, 4), 12), "m", 3, 70),
        (ABinding(ThetaSpec(8, 6), 6), "sqrt_m", 7, 80),
        (ABinding(ThetaSpec(-1, 6), 6), "sqrt_m", 5, 70),
        (ABinding(ThetaSpec(-2, 8), 12), "m_q2_squared", 5, 90),
    ]
    for binding, vname, s_max, q_order in stability_cases:
        polys = []
        for extra in (0, 40):
            u, v = build_binding_series(binding, vname, F(q_order + extra))
            rel = mine(u, v, s_max, None, u_binding=binding, v_binding=vname)
            polys.append(rel.poly)
        assert polys[0] == polys[1], (binding, vname)
    report_line(14, "property suites")
