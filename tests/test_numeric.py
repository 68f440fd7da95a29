"""Arbitrary-precision kernels: AGM elliptic integral, singular modulus,
direct theta/eta/quotient evaluation, and the series-evaluation bridge."""

import math
import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from thetaquot.series import (
    A_series,
    PuiseuxSeries,
    ThetaSpec,
    eta_series,
    modulus_series,
    theta_series,
)
from thetaquot.numeric import (
    GUARD,
    _fold,
    _term_count,
    BigReal,
    agm,
    big_real,
    ellipk,
    eval_A,
    eval_eta,
    eval_eta5,
    eval_h5,
    inverse_modulus,
    last_agm_iterations,
    nome_from_r,
    pi_at,
    real_eval_series,
    residual_str,
    singular_modulus,
    singular_point,
    theta_sum,
)
from thetaquot import numeric
from thetaquot.numeric import POINT_CACHE_SIZE, CertificationError


def mp_tol(digits, guard=10):
    with mp.workdps(30):
        return mpmath.mpf(10) ** (-digits + guard)


class TestBigReal:
    def test_min_precision_enforced(self):
        with pytest.raises(ValueError):
            big_real(1, 10)

    def test_binary_ops_carry_min_digits(self):
        a = big_real(2, 60)
        b = big_real(3, 40)
        assert (a + b).digits == 40
        assert (a * b).digits == 40
        assert (a / b).digits == 40

    def test_fraction_power_principal(self):
        x = big_real(8, 50) ** F(1, 3)
        assert abs(x.value - 2) < mp_tol(50)

    def test_fraction_power_negative_base_rejected(self):
        with pytest.raises(ValueError):
            big_real(-2, 50) ** F(1, 2)

    @staticmethod
    def assert_power_equals_exp_log(x, e, digits):
        # a root and an integer power, against exp(e log x) 20 digits above
        got = big_real(x, digits) ** e
        with mp.workdps(digits + GUARD + 20):
            xv = mpmath.mpf(x.numerator) / x.denominator
            want = mpmath.exp(mpmath.mpf(e.numerator) / e.denominator * mpmath.log(xv))
        assert got.digits == digits
        assert_relative(got.value, want, digits + 5)

    @settings(max_examples=100, deadline=None)
    @given(
        st.fractions(min_value=F(1, 1000), max_value=1000, max_denominator=1000),
        st.fractions(min_value=-30, max_value=30, max_denominator=10 ** 40),
        st.integers(20, 1000),
    )
    # exponents whose bit length the root and the power must carry
    @example(F(1, 2), F(1, 3) - F(1, 2 * 10 ** 30) + F(1, 8 * 10 ** 60), 60)
    @example(F(2, 3), F(10 ** 40 + 1, 10 ** 40 - 3), 60)
    @example(F(7, 5), F(-29 * 10 ** 39 + 7, 10 ** 39 + 1), 60)
    @example(F(999, 1000), F(10 ** 40 - 1, 10 ** 40), 100)
    def test_fraction_power_equals_exp_log(self, x, e, digits):
        self.assert_power_equals_exp_log(x, e, digits)

    @pytest.mark.parametrize("e", [F(1, 24), F(-1, 55)], ids=str)
    def test_fraction_power_where_mpmath_root_loses_bits(self, e):
        # at 815 working digits mpmath.root(x, 55) is off by 1e-766
        self.assert_power_equals_exp_log(F(2, 3), e, 800)

    @pytest.mark.parametrize("e", [F(1, 2), F(1, 96), F(7, 3), F(2)], ids=str)
    def test_fraction_power_of_zero(self, e):
        assert (big_real(0, 40) ** e).value == 0

    def test_round_uses_the_working_precision(self):
        # 10^80 + 1/3 needs 267 bits; mpmath's default 53 would round it to
        # a multiple of 2^213
        x = big_real(F(3 * 10 ** 80 + 1, 3), 100)
        assert round(x) == 10 ** 80
        assert round(x + F(2, 3)) == 10 ** 80 + 1

    def test_round_refuses_an_integer_past_max_fixed_bits(self):
        with pytest.raises(ValueError, match="too large to round"):
            round(BigReal(mpmath.ldexp(1, numeric.MAX_FIXED_BITS + 1), 20))


class TestResidualStr:
    def test_noise_prints_the_floor(self):
        with mp.workdps(75):
            noise = mpmath.mpf("2.7636e-76")
        assert residual_str(BigReal(noise, 60), 60) == "1.0e-60"
        assert residual_str(big_real(0, 60), 60) == "1.0e-60"
        assert residual_str(big_real(0, 200), 200) == "1.0e-200"

    def test_above_the_floor_prints_five_digits(self):
        assert residual_str(BigReal(mpmath.mpf("-1.87564321e10"), 60), 60) == "1.8756e+10"
        assert residual_str(BigReal(mpmath.mpf("1.9e-5"), 60), 60) == "1.9e-5"
        with mp.workdps(75):
            just_above = mpmath.mpf("1.23456e-60")
        assert residual_str(BigReal(just_above, 60), 60) == "1.2346e-60"


class TestEllipk:
    def test_k_at_zero(self):
        k0 = ellipk(0, 50)
        assert abs((k0 - pi_at(50) / 2).value) < mp_tol(50)

    def test_k_at_inverse_sqrt2_against_reference(self):
        # oracle: the hypergeometric route of the reference library
        x = big_real(F(1, 2), 50).sqrt()
        ours = ellipk(x)
        with mp.workdps(70):
            ref = mpmath.ellipk(mpmath.mpf(1) / 2)  # parameter m = k^2
            assert abs(ours.value - ref) < mp_tol(50, 5)
        assert ours.nstr(15).startswith("1.8540746773013")

    def test_monotonic(self):
        assert ellipk(big_real(F(3, 10), 40)) < ellipk(big_real(F(3, 5), 40))

    def test_domain(self):
        with pytest.raises(ValueError):
            ellipk(big_real(1, 40))
        with pytest.raises(ValueError):
            ellipk(big_real(F(-1, 2), 40))
        with pytest.raises(ValueError, match="real"):
            ellipk(BigReal(mpmath.mpc(0, 1), 40))

    def test_agm_iteration_count_is_logarithmic(self):
        rng = random.Random(1123)
        for digits in (30, 60, 120, 240):
            for _ in range(4):
                x = big_real(F(rng.randint(1, 94), 100), digits)
                ellipk(x)
                assert last_agm_iterations() <= 2 * math.log2(digits) + 10


# agm(1, x) iteration counts, then ellipk(x)'s, at 20, 60, 400 and 2000
# digits, as the mpmath-float AGM gave them before it ran on Python ints
AGM_ITERATIONS = {
    F(1, 10 ** 2000): [(16, 0), (18, 0), (20, 0), (23, 0)],
    F(1, 10 ** 300): [(14, 0), (15, 0), (18, 0), (20, 2)],
    F(1, 10 ** 40): [(11, 0), (12, 0), (15, 3), (17, 5)],
    F(1, 10 ** 10): [(9, 1), (10, 2), (13, 5), (15, 7)],
    F(1, 1000): [(8, 3), (9, 4), (11, 6), (13, 9)],
    F(1, 10): [(6, 4), (7, 5), (10, 8), (12, 10)],
    F(1, 2): [(5, 5), (7, 6), (9, 8), (11, 11)],
    F(9, 10): [(5, 6), (6, 7), (8, 9), (11, 11)],
    F(99, 100): [(4, 6), (5, 7), (8, 10), (10, 12)],
    1 - F(1, 10 ** 10): [(2, 8), (3, 9), (6, 12), (8, 14)],
}


class TestAgm:
    @pytest.mark.parametrize(
        "x",
        list(AGM_ITERATIONS),
        ids=lambda x: mpmath.nstr(mpmath.mpf(x.numerator) / x.denominator, 11),
    )
    def test_iteration_counts_are_pinned(self, x):
        got = []
        for digits in (20, 60, 400, 2000):
            xv = big_real(x, digits)
            count = agm(1, xv.value, digits + GUARD)[1]
            ellipk(xv)
            got.append((count, last_agm_iterations()))
        assert got == AGM_ITERATIONS[x]

    @pytest.mark.parametrize("digits", [20, 60, 400])
    @pytest.mark.parametrize(
        "a0, b0",
        [
            (1, "0.5"), (1, "0.999"), (1, "3e-10"), (1, "7e-40"), (1, "1e-300"),
            (1, "2e-2000"), ("2e-2000", 1), ("1e5", "3e-300"), (3, 5),
        ],
        ids=str,
    )
    def test_against_mpmath_agm(self, a0, b0, digits):
        # the limit lies between the last A and B, and the loop stops once
        # they are 10^-(wd-2) max(a0, b0) apart; the oracle runs at 2 wd
        wd = digits + GUARD
        with mp.workdps(wd):
            a0, b0 = mpmath.mpf(a0), mpmath.mpf(b0)
        got, _ = agm(a0, b0, wd)
        with mp.workdps(2 * wd):
            want = mpmath.agm(a0, b0)
            assert abs(got - want) <= mpmath.mpf(10) ** -(wd - 2) * max(a0, b0)

    def test_nonpositive_arguments_rejected(self):
        with pytest.raises(ValueError):
            agm(1, 0, 40)
        with pytest.raises(ValueError):
            agm(-1, 1, 40)

    def test_arguments_just_past_the_spread_bound_rejected(self):
        # mag = -MAX_FIXED_BITS - 1; the check runs before the fixed-point
        # ints of that many bits are made
        tiny = mpmath.ldexp(1, -numeric.MAX_FIXED_BITS - 2)
        for args in ((1, tiny), (tiny, 1)):
            with pytest.raises(ValueError, match="out of the AGM's range"):
                agm(*args, 40)


class TestSingularModulus:
    def test_r1_is_inverse_sqrt2(self):
        ep = singular_modulus(1, 60)
        ref = big_real(F(1, 2), 60).sqrt()
        assert abs((ep.k - ref).value) < mp_tol(60)

    def test_r4_closed_form(self):
        # k_4 = (1 - k'_1)/(1 + k'_1) = 3 - 2 sqrt(2)
        ep = singular_modulus(4, 60)
        with mp.workdps(80):
            ref = 3 - 2 * mpmath.sqrt(2)
            assert abs(ep.k.value - ref) < mp_tol(60)

    def test_pythagorean_invariant(self):
        for r in (1, 2, 3, F(1, 2), F(7, 3)):
            ep = singular_modulus(r, 50)
            resid = abs((ep.k ** 2 + ep.kprime ** 2 - 1).value)
            assert resid < mp_tol(50)
            assert 0 < ep.k.value < 1

    def test_round_trip_through_inverse(self):
        x = big_real(F(3, 10), 50)
        r = inverse_modulus(x)
        back = singular_modulus(r, 50).k
        assert abs((back - x).value) < mp_tol(50)

    def test_nonpositive_r_rejected(self):
        with pytest.raises(ValueError):
            singular_modulus(0, 50)


def same_point(a, b):
    """Field by field, with each BigReal's digits as well as its value."""
    return a.r == b.r and all(
        (x.value, x.digits) == (y.value, y.digits)
        for x, y in ((a.q, b.q), (a.k, b.k), (a.kprime, b.kprime))
    )


@pytest.fixture
def cold_points():
    """An empty memo before and after the test, so no test sees another's
    points (or a stand-in kernel's results)."""
    numeric._cached_point.cache_clear()
    yield
    numeric._cached_point.cache_clear()


def counting_kernel(monkeypatch, kernel=None):
    """Route the memo's requests through a counter; returns the list of
    (r, digits) it was asked for."""
    kernel = kernel or numeric.singular_modulus
    seen = []

    def counting(r, digits):
        seen.append((r, digits))
        return kernel(r, digits)

    monkeypatch.setattr(numeric, "singular_modulus", counting)
    return seen


@pytest.mark.usefixtures("cold_points")
class TestSingularPoint:
    def test_one_shared_point_per_rational(self, monkeypatch):
        seen = counting_kernel(monkeypatch)
        ep = singular_point(1, 60)
        assert singular_point(F(1), 60) is ep
        assert singular_point("1", 60) is ep
        assert seen == [(F(1), 60)]
        assert type(ep.r) is F
        assert same_point(ep, singular_modulus(1, 60))
        assert singular_point(1, 61) is not ep

    def test_independent_of_the_ambient_precision(self):
        with mp.workdps(15):
            low = singular_point(F(7, 3), 60)
        numeric._cached_point.cache_clear()
        with mp.workdps(500):
            high = singular_point(F(7, 3), 60)
        assert low is not high
        assert same_point(low, high)
        assert same_point(low, singular_modulus(F(7, 3), 60))

    def test_a_failed_request_is_not_kept(self, monkeypatch):
        seen = counting_kernel(monkeypatch)
        for _ in range(2):
            with pytest.raises(CertificationError):
                singular_point(F(1, 1000), 60)
        assert seen == [(F(1, 1000), 60)] * 2
        assert numeric._cached_point.cache_info().currsize == 0

    def test_the_memo_is_bounded(self, monkeypatch):
        # a stand-in kernel: the bound is about entries, not their values
        seen = counting_kernel(monkeypatch, lambda r, digits: object())
        for r in range(1, POINT_CACHE_SIZE + 6):
            singular_point(r, 60)
            assert numeric._cached_point.cache_info().currsize <= POINT_CACHE_SIZE
        assert numeric._cached_point.cache_info().currsize == POINT_CACHE_SIZE
        singular_point(POINT_CACHE_SIZE + 5, 60)  # the newest stays
        singular_point(1, 60)  # the oldest was evicted
        assert len(seen) == POINT_CACHE_SIZE + 6


class TestInverseModulus:
    def test_at_symmetric_point(self):
        x = big_real(F(1, 2), 50).sqrt()
        assert abs((inverse_modulus(x) - 1).value) < mp_tol(50)

    def test_inverse_pair(self):
        k2 = singular_modulus(2, 50).k
        assert abs((inverse_modulus(k2) - 2).value) < mp_tol(50)

    def test_half(self):
        x = big_real(F(1, 2), 50)
        r = inverse_modulus(x)
        back = singular_modulus(r, 50).k
        assert abs((back - x).value) < mp_tol(50)

    def test_domain(self):
        with pytest.raises(ValueError):
            inverse_modulus(big_real(1, 40))

    @pytest.mark.parametrize("e", [20, 40])
    def test_small_modulus_against_agm_oracle(self, e):
        # x' = sqrt(1 - x^2) rounds to 1 here, so nothing may form 1 - x'^2
        with mp.workdps(200):
            x = mpmath.mpf(10) ** -e
            want = (mpmath.agm(1, mpmath.sqrt(1 - x * x)) / mpmath.agm(1, x)) ** 2
        got = inverse_modulus(F(1, 10 ** e), 60)
        assert abs(got.value - want) < want * mpmath.mpf(10) ** -62


def brute_theta_value(a, b, q, dps, alternating=True):
    a, b = F(a), F(b)
    with mp.workdps(dps):
        lq = mpmath.log(q)
        total = mpmath.mpf(0)
        for n in range(-40, 41):
            e = a * n * n + b * n
            t = mpmath.exp(mpmath.mpf(e.numerator) / e.denominator * lq)
            total += -t if (alternating and n % 2) else t
        return total


@st.composite
def theta_cases(draw):
    """(a, b) whose vertex -b/(2a) is an integer, a half-integer (Python's
    round-half-even then gives b + 2ac = +a or -a) or anywhere, with
    |vertex| <= 6 so that brute_theta_value's |n| <= 40 covers the sum."""
    a = draw(st.fractions(min_value=1, max_value=6, max_denominator=6))
    c = draw(st.integers(-4, 4))
    kind = draw(st.sampled_from(["integer", "half", "generic"]))
    if kind == "integer":
        b = -2 * a * c
    elif kind == "half":
        b = -2 * a * c + draw(st.sampled_from([a, -a]))
    else:
        b = draw(st.fractions(min_value=-12, max_value=12, max_denominator=6))
    return a, b


def assert_theta_sum_matches_brute(a, b, r, digits, alternating):
    q = nome_from_r(r, digits)
    got = theta_sum(a, b, q, alternating=alternating)
    want = brute_theta_value(a, b, q.value, 2 * digits + 20, alternating)
    c = round(-b / (2 * a))
    e = a * c * c + b * c
    with mp.workdps(2 * digits + 20):
        largest = mpmath.exp(mpmath.log(q.value) * e.numerator / e.denominator)
        if alternating and (b / a).denominator == 1 and (b / a).numerator % 2:
            assert got.value == 0
            assert abs(want) <= mpmath.mpf(10) ** -(2 * digits) * largest
        else:
            assert abs(got.value - want) <= mpmath.mpf(10) ** -digits * largest


class TestThetaSumAgainstBruteForce:
    @settings(max_examples=120, deadline=None)
    @given(
        theta_cases(),
        st.floats(math.log(0.5), math.log(50)).map(lambda e: F(math.exp(e))),
        st.integers(20, 400),
        st.booleans(),
    )
    def test_integer_half_integer_and_generic_vertices(self, ab, r, digits, alt):
        assert_theta_sum_matches_brute(*ab, r, digits, alt)

    @pytest.mark.parametrize(
        "a, b", [(1, 0), (1, 1), (1, -1), (F(5, 2), F(-7, 3))], ids=str
    )
    def test_at_2000_digits(self, a, b):
        assert_theta_sum_matches_brute(a, b, 1, 2000, alternating=False)


def two_sided_walk(up, down, n0, prec):
    """theta_sum's walk before the fold and the taper: n0 steps out by each
    ratio, every product at full precision."""
    step = up * down >> prec
    total = 1 << prec
    for ratio in (up, down):
        term = 1 << prec
        for _ in range(n0):
            term = term * ratio >> prec
            total += term
            ratio = ratio * step >> prec
    return total


@st.composite
def walk_cases(draw):
    """Ratios for _fold as theta_sum makes them, 0 <= |ratio| <= 1 in fixed
    point: up = down when bd = 0, one ratio exactly 1 when bd = +-ad."""
    prec = draw(st.integers(8, 3000))
    n0 = draw(st.integers(1, 80))
    one = 1 << prec
    near_one = st.integers(0, prec).flatmap(lambda k: st.integers(one - (1 << k), one))
    ratio = st.one_of(st.integers(0, one), near_one)
    ad = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["bd = 0", "bd = ad", "bd = -ad", "generic"]))
    if kind == "bd = 0":
        up = down = draw(st.sampled_from([1, -1])) * draw(ratio)
        bd = 0
    elif kind == "generic":
        sign = draw(st.sampled_from([1, -1]))
        up, down = sign * draw(ratio), sign * draw(ratio)
        bd = draw(st.integers(1 - ad, ad - 1).filter(bool))
    else:  # the alternating sum is exactly 0 here, so the walk is plain
        bd = ad if kind == "bd = ad" else -ad
        up, down = (draw(ratio), one) if bd == ad else (one, draw(ratio))
    return up, down, ad, bd, n0, prec


class TestThetaFold:
    @settings(max_examples=300, deadline=None)
    @given(walk_cases())
    def test_fold_equals_the_two_sided_walk(self, case):
        up, down, ad, bd, n0, prec = case
        # a guard of prec bits cuts nothing, which leaves the fold alone
        want = two_sided_walk(up, down, n0, prec)
        assert _fold(up, down, ad, bd, n0, prec, prec) == want

    @settings(max_examples=300, deadline=None)
    @given(walk_cases())
    def test_taper_stays_within_the_walks_floor_budget(self, case):
        up, down, ad, bd, n0, prec = case
        tapered = _fold(up, down, ad, bd, n0, prec, (4 * n0).bit_length() + 4)
        assert abs(tapered - two_sided_walk(up, down, n0, prec)) <= 4 * n0


class TestDirectEvaluation:
    def test_theta_2_1_against_brute_force(self):
        q = nome_from_r(1, 60)
        ours = theta_sum(2, 1, q)
        ref = brute_theta_value(2, 1, q.value, 90)
        assert abs(ours.value - ref) < mp_tol(60)
        assert ours.nstr(15).startswith("0.95670538873109")

    def test_a14_is_eighth_root_of_two(self):
        q = nome_from_r(1, 60)
        a = eval_A(ThetaSpec(1, 4), q)
        with mp.workdps(80):
            ref = mpmath.mpf(2) ** (mpmath.mpf(1) / 8)
            assert abs(a.value - ref) < mp_tol(60)
        assert abs((a ** 24 - 8).value) < mp_tol(60, 12)

    def test_eta_rescale_consistency(self):
        q = nome_from_r(1, 50)
        lhs = eval_eta(4, q)
        rhs = eval_eta(1, q ** 4)
        assert abs((lhs - rhs).value) < mp_tol(50)

    def test_nome_domain(self):
        with pytest.raises(ValueError):
            theta_sum(2, 1, big_real(F(3, 2), 40))
        with pytest.raises(ValueError):
            eval_eta(1, big_real(F(3, 2), 40))

    def test_nonalternating_sum(self):
        q = nome_from_r(2, 50)
        ours = theta_sum(1, 2, q, alternating=False)
        ref = brute_theta_value(1, 2, q.value, 80, alternating=False)
        assert abs(ours.value - ref) < mp_tol(50)

    def test_h5_eta5_consistency_with_series(self):
        q = nome_from_r(1, 50)
        x = q ** 4
        from thetaquot.series import eta5_series, h5_series

        h_num = eval_h5(x)
        h_ser = real_eval_series(h5_series(12), x)
        assert abs((h_num - h_ser).value) < mp_tol(50, 15)
        e_num = eval_eta5(x)
        e_ser = real_eval_series(eta5_series(12), x)
        assert abs((e_num - e_ser).value) < mp_tol(50, 15)


class TestEta5:
    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("power", [1, 4])
    def test_rogers_ramanujan_quotient(self, r, power):
        # eta5 = A(1,5)/A(2,5), the Rogers-Ramanujan continued fraction
        x = nome_from_r(r, 60) ** power
        want = eval_A(ThetaSpec(1, 5), x) / eval_A(ThetaSpec(2, 5), x)
        assert abs((eval_eta5(x) - want).value) < mp_tol(60) * want.value

    @pytest.mark.parametrize("exp10", [60, 100])
    def test_small_nome_does_not_cancel(self, exp10):
        # eta5(q) = q^(1/5) (1 - q + ...) and q is below 10^-30 here; the
        # unrationalized radical lost 7 and 24 of the 30 digits
        got = eval_eta5(big_real(F(1, 10 ** exp10), 30)).value
        with mp.workdps(40):
            assert abs(got * mpmath.mpf(10) ** (exp10 // 5) - 1) < mp_tol(30, 2)


class TestRealEvalSeries:
    def test_modulus_series_matches_singular_modulus(self):
        ep = singular_modulus(1, 60)
        got = real_eval_series(modulus_series(200), ep.q)
        assert abs((got - ep.k ** 2).value) < mp_tol(60, 40)

    def test_constant(self):
        got = real_eval_series(PuiseuxSeries.constant(1), nome_from_r(1, 40))
        assert got.value == 1

    def test_two_path_theta(self):
        q = nome_from_r(2, 50)
        lhs = real_eval_series(theta_series(2, 1, 60), q)
        rhs = theta_sum(2, 1, q)
        assert abs((lhs - rhs).value) < mp_tol(50)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_two_path_agreement_suite(self, r):
        digits = 50
        q = nome_from_r(r, digits)
        cases = [
            (theta_series(2, 1, 70), theta_sum(2, 1, q)),
            (eta_series(4, 70), eval_eta(4, q)),
            (A_series(ThetaSpec(1, 4), 70), eval_A(ThetaSpec(1, 4), q)),
            (modulus_series(70), singular_modulus(r, digits).k ** 2),
        ]
        for ser, direct in cases:
            via_series = real_eval_series(ser, q)
            assert abs((via_series - direct).value) < mp_tol(digits)


class TestPrecisionScaling:
    @pytest.mark.parametrize("digits", [30, 60])
    def test_doubling_agrees_to_lower_precision(self, digits):
        r = F(7, 5)
        low = singular_modulus(r, digits).k
        high = singular_modulus(r, 2 * digits).k
        assert abs(low.value - high.value) < mp_tol(digits, 5)
        klow = ellipk(big_real(F(2, 5), digits))
        khigh = ellipk(big_real(F(2, 5), 2 * digits))
        assert abs(klow.value - khigh.value) < mp_tol(digits, 5)
        alow = eval_A(ThetaSpec(8, 6), nome_from_r(r, digits))
        ahigh = eval_A(ThetaSpec(8, 6), nome_from_r(r, 2 * digits))
        assert abs(alow.value - ahigh.value) < mp_tol(digits, 5)


# The evaluators below are the per-term-exp loops that theta_sum's ratio
# recurrence replaced, kept as oracles and run 20 digits above the code
# under test.


def per_term_theta_sum(a, b, qv, digits, alternating=True):
    """One exp per term over theta_sum's window |n| <= n0."""
    a, b = F(a), F(b)
    wd = digits + GUARD
    with mp.workdps(wd):
        lq = mpmath.log(qv)
        need = wd / (-lq / mpmath.log(10))
        af, bf = float(a), abs(float(b))
        n0 = int((bf + math.sqrt(bf * bf + 4 * af * float(need))) / (2 * af)) + 2
        total = mpmath.mpf(0)
        for n in range(-n0, n0 + 1):
            e = a * n * n + b * n
            term = mpmath.exp(mpmath.mpf(e.numerator) / e.denominator * lq)
            total += -term if (alternating and n % 2) else term
        return total


def product_loop_eta(p, qv, digits):
    """prod (1 - q^(np)), cut once q^(np) is below the working tolerance."""
    p = F(p)
    wd = digits + GUARD
    with mp.workdps(wd):
        lq = mpmath.log(qv)
        eps = mpmath.mpf(10) ** (-wd)
        total = mpmath.mpf(1)
        n = 1
        while True:
            e = p * n
            term = mpmath.exp(mpmath.mpf(e.numerator) / e.denominator * lq)
            if term < eps:
                return total
            total *= 1 - term
            n += 1


def inlined_theta_modulus(qv, digits):
    """k = 4 sqrt(q) (sum_{n>=0} q^(n^2+n))^2 / (1 + 2 sum_{n>=1} q^(n^2))^2."""
    wd = digits + GUARD
    with mp.workdps(wd):
        lq = mpmath.log(qv)
        eps = mpmath.mpf(10) ** (-wd)
        s2 = mpmath.mpf(1)
        n = 1
        while True:
            t = mpmath.exp((n * n + n) * lq)
            s2 += t
            if t < eps:
                break
            n += 1
        s3 = mpmath.mpf(1)
        n = 1
        while True:
            t = 2 * mpmath.exp(n * n * lq)
            s3 += t
            if t < eps:
                break
            n += 1
        return 4 * mpmath.sqrt(qv) * s2 * s2 / (s3 * s3)


def assert_relative(got, want, digits):
    with mp.workdps(digits + GUARD + 20):
        assert abs(got - want) <= mpmath.mpf(10) ** (-digits) * abs(want)


ORACLE_RS = [F(1, 200), F(1, 4), 1, 5, 250]
ORACLE_DIGITS = [20, 60, 400]


class TestRatioRecurrenceOracles:
    @pytest.mark.parametrize("digits", ORACLE_DIGITS)
    @pytest.mark.parametrize("r", ORACLE_RS, ids=str)
    @pytest.mark.parametrize(
        "a, b, alternating",
        [
            (1, 0, False),
            (1, 1, False),
            (1, 2, False),
            (F(5, 2), F(-1, 3), False),
            (2, 1, True),
            (3, -5, True),
            (F(1, 2), F(1, 3), True),
        ],
        ids=str,
    )
    def test_theta_sum(self, a, b, alternating, r, digits):
        q = nome_from_r(r, digits)
        got = theta_sum(a, b, q, alternating=alternating)
        assert got.digits == digits
        want = per_term_theta_sum(a, b, q.value, digits + 20, alternating)
        assert_relative(got.value, want, digits)

    @pytest.mark.parametrize("digits", ORACLE_DIGITS)
    @pytest.mark.parametrize("r", ORACLE_RS, ids=str)
    @pytest.mark.parametrize("p", [1, F(1, 5), 4], ids=str)
    def test_eval_eta(self, p, r, digits):
        q = nome_from_r(r, digits)
        got = eval_eta(p, q)
        assert got.digits == digits
        assert_relative(got.value, product_loop_eta(p, q.value, digits + 20), digits)

    @pytest.mark.parametrize("digits", ORACLE_DIGITS)
    @pytest.mark.parametrize("r", ORACLE_RS, ids=str)
    def test_singular_modulus(self, r, digits):
        ep = singular_modulus(r, digits)
        want = inlined_theta_modulus(ep.q.value, digits + 20)
        assert_relative(ep.k.value, want, digits)

    @pytest.mark.parametrize("qtext", ["0.99", "0.999"])
    def test_eval_eta_near_one(self, qtext):
        # every Euler-sum term is at most 1 while eta(0.999) is 7.4e-713, so
        # the sum must run with that many extra digits
        digits = 60
        with mp.workdps(digits + GUARD):
            q = BigReal(mpmath.mpf(qtext), digits)
        got = eval_eta(1, q)
        with mp.workdps(digits + 20):
            want = mpmath.qp(q.value)
        assert_relative(got.value, want, digits)
        assert got.nstr(digits) == BigReal(want, digits).nstr(digits)


RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=12)


class TestThetaSumWindow:
    @settings(max_examples=300, deadline=None)
    @given(
        RATIONALS.filter(lambda a: a > 0),
        RATIONALS,
        st.floats(-6, 6).map(lambda e: F(10) ** round(e, 2)),
        st.integers(20, 2000),
    )
    def test_float_window_equals_working_precision_window(self, a, b, r, digits):
        # the window n0 was computed from log10(1/q) at working precision;
        # the float form of the same bound must give the same n0
        wd = digits + GUARD
        q = nome_from_r(r, digits)
        with mp.workdps(wd):
            lq = mpmath.log(q.value)
            need = wd / (-lq / mpmath.log(10))
        af, bf = float(a), abs(float(b))
        n0 = int((bf + math.sqrt(bf * bf + 4 * af * float(need))) / (2 * af)) + 2
        assert _term_count(a, b, -float(lq), wd) == n0


class TestThetaSumCancellation:
    # sums far below their largest term: near an odd b/a, where the terms
    # cancel in pairs, and at nomes near 1.  The value at d digits must be
    # the value at 2d + 20 digits rounded to d; the far-below values are
    # those of the Poisson dual (ROADMAP item 1).
    @pytest.mark.parametrize(
        "a, b, qtext, far_below",
        [
            (2, 2 - F(1, 10 ** 30), "0.5", "e-31"),
            (1, 0, "0.999", "e-1069"),
            (2, 1, "0.999", "e-534"),
            (F(1, 2), F(1, 4), "0.99", "e-212"),
            (2, 1, "0.99", "e-53"),
        ],
        ids=str,
    )
    def test_value_survives_doubled_digits(self, a, b, qtext, far_below):
        got = theta_sum(a, b, big_real(qtext, 60))
        want = theta_sum(a, b, big_real(qtext, 140))
        assert got.nstr(60) == want.nstr(60)
        assert got.nstr(60).endswith(far_below)


class TestThetaSumLargestTermFarFromZero:
    # the walk starts at the largest term n = c, the integer nearest
    # -b/(2a); a walk from n = 0 fails here once q^(a + b) is large and
    # q^(2a) small, as at (a, b) = (15, -28), r = 188/25

    @pytest.mark.parametrize("digits", [60, 400])
    def test_pitfall_case(self, digits):
        q = nome_from_r(F(188, 25), digits)
        got = theta_sum(15, -28, q)
        want = per_term_theta_sum(15, -28, q.value, digits + 20)
        assert_relative(got.value, want, digits)

    @settings(max_examples=120, deadline=None)
    @given(
        st.fractions(min_value=F(1, 12), max_value=30, max_denominator=12),
        st.fractions(min_value=-30, max_value=30, max_denominator=12),
        st.floats(math.log(0.25), math.log(400)).map(lambda e: F(math.exp(e))),
        st.integers(20, 2000),
        st.booleans(),
    )
    def test_error_below_largest_term(self, a, b, r, digits, alternating):
        # cancellation below the largest term is the Poisson dual's business,
        # so the bound is 10^-digits of the largest term, not of the sum
        q = nome_from_r(r, digits)
        got = theta_sum(a, b, q, alternating=alternating)
        want = per_term_theta_sum(a, b, q.value, digits + 20, alternating)
        c = round(-b / (2 * a))
        e = a * c * c + b * c
        with mp.workdps(digits + GUARD + 20):
            largest = mpmath.exp(mpmath.log(q.value) * e.numerator / e.denominator)
            assert abs(got.value - want) <= mpmath.mpf(10) ** (-digits) * largest


class TestLogFree:
    # every power of q in the numeric layer is a root and an integer power;
    # the one exp is the nome e^(-pi sqrt r) in nome_from_r

    @pytest.fixture
    def no_log(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("log called in the numeric layer")

        monkeypatch.setattr(mpmath, "log", forbidden)
        return forbidden

    def test_modulus_runs_without_log(self, no_log):
        ep = singular_modulus(F(7, 3), 200)
        assert 0 < ep.k.value < 1

    def test_evaluators_run_without_log_or_exp(self, monkeypatch, no_log):
        q = nome_from_r(F(5, 2), 200)
        monkeypatch.setattr(mpmath, "exp", no_log)
        theta_sum(F(5, 2), F(-7, 3), q)
        eval_eta(F(1, 5), q)
        eval_A(ThetaSpec(F(1, 2), 3), q)
        eval_eta5(q)
        real_eval_series(A_series(ThetaSpec(1, 4), 40), q)
        assert (q ** F(-11, 96)).value > 1


class TestThetaSumExactZero:
    @pytest.mark.parametrize(
        "a, b", [(1, 1), (2, 6), (3, -9), (F(1, 2), F(3, 2)), (F(2, 3), F(2, 3))],
        ids=str,
    )
    def test_alternating_sum_vanishes_when_b_over_a_is_odd(self, a, b):
        q = nome_from_r(1, 60)
        got = theta_sum(a, b, q)
        assert got.value == 0 and got.digits == 60
        # the per-term sum cancels to its rounding noise
        assert abs(per_term_theta_sum(a, b, q.value, 80)) < mp_tol(80, 10)
        assert theta_sum(a, b, q, alternating=False).value > 0

    @pytest.mark.parametrize(
        "a, b", [(1, 0), (1, 2), (2, 1), (2, -4), (F(1, 2), F(1, 4)), (2, F(-6, 5))],
        ids=str,
    )
    def test_other_alternating_sums_do_not_vanish(self, a, b):
        q = nome_from_r(1, 60)
        want = per_term_theta_sum(a, b, q.value, 80)
        assert abs(want) > mp_tol(60, -20)
        assert_relative(theta_sum(a, b, q).value, want, 60)

    @pytest.mark.parametrize("a, p", [(4, 2), (3, 3), (0, 4), (F(3, 2), F(1, 2))])
    def test_eval_A_vanishes_when_p_divides_a(self, a, p):
        assert eval_A(ThetaSpec(a, p), nome_from_r(2, 60)).value == 0
