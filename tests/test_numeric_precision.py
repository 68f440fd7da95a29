"""Every BigReal operation and numeric kernel at its own explicit precision.

numeric.py runs each operation and kernel at its own bit count on Python
ints.  Its values must be the ones mpmath's context gives for the same
formulas, bit for bit, and must not depend on mpmath's ambient precision.
The oracles here are those formulas, evaluated inside ``mp.workdps`` and
``mp.workprec``.  Three kernels are correctly rounded where mpmath is not
always: n-th roots, pi and exp (the nome), and so 10^e at a fractional e.
For them the oracle is mpmath's value where that is correctly rounded, and
mpmath's value at twice the bits, rounded, where it is not
(``rounded_twice``)."""

import math
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec, from_man_exp, mpf_pos, mpf_sqrt, round_nearest

from thetaquot import numeric
from thetaquot.catalog import catalog_ids, verify_entry
from thetaquot.mining import ABinding, BivarIntPoly, MinedRelation, validate
from thetaquot.numeric import (
    GUARD,
    BigReal,
    _fold,
    _term_count,
    agm,
    big_real,
    ellipk,
    eval_A,
    eval_eta,
    eval_eta5,
    inverse_modulus,
    nome_from_r,
    pi_at,
    real_eval_series,
    singular_modulus,
    ten_to,
    theta_sum,
)
from thetaquot.recognize import recognize
from thetaquot.series import A_series, PuiseuxSeries, ThetaSpec

# ---------------------------------------------------------------------------
# oracles: the formulas in mpmath's context
# ---------------------------------------------------------------------------


def ctx_mpf(x, wd):
    """x as an mpf, rounded as ``mpf(x)`` rounds it at wd digits."""
    if isinstance(x, BigReal):
        return x.value
    with mp.workdps(wd):
        if isinstance(x, F):
            return mpf(x.numerator) / x.denominator
        return mpf(x)


def rounded_twice(f, prec, first=None):
    """f() at prec bits as mpmath gives it (or ``first``), unless f() at
    twice the bits, rounded to prec, differs: then mpmath's value at prec
    was not correctly rounded, and the doubled one is the oracle."""
    if first is None:
        with mp.workprec(prec):
            first = f()
    with mp.workprec(2 * prec):
        doubled = mp.make_mpf(mpf_pos(f()._mpf_, prec, round_nearest))
    return first if doubled == first else doubled


def ctx_root(x, n):
    """mpmath's root with one Newton step, at the context's precision."""
    y = mpmath.root(x, n)
    if y:
        y += y * (x / y ** n - 1) / n
    return y


def ctx_power(x, e):
    """x^e at the context's precision: a root, correctly rounded (see
    ``rounded_twice``), and a power."""
    e = F(e)
    if e.denominator == 1:
        return x ** e.numerator
    n = e.denominator
    wp = mp.prec + max(abs(e.numerator), n).bit_length()
    y = rounded_twice(lambda: ctx_root(x, n), wp)
    with mp.workprec(wp):
        y = y ** e.numerator
    return +y


def ctx_pi(prec):
    return rounded_twice(lambda: +mp.pi, prec)


def ctx_neg_log(x):
    man, exp = mpmath.frexp(x)
    with mp.workprec(53):
        return -(math.log1p(float(man - 1)) + exp * math.log(2))


def ctx_agm(a0, b0, wdps):
    ea, eb = mpmath.mag(a0), mpmath.mag(b0)
    bits = dps_to_prec(wdps) + numeric.AGM_GUARD_BITS
    shift = bits - min(ea, eb)
    a, b = (int(mpmath.ldexp(x, shift)) for x in (a0, b0))
    tol = max(a, b) // 10 ** (wdps - 2)
    while abs(a - b) > tol:
        a, b = (a + b) >> 1, math.isqrt(a * b)
        drop = b.bit_length() - bits
        if drop > 0:
            a, b, tol, shift = a >> drop, b >> drop, tol >> drop, shift - drop
    return mpmath.ldexp(a, -shift)


def ctx_theta_sum(a, b, qv, digits, alternating=True, cancel=0):
    a, b = F(a), F(b)
    if alternating and (b / a).denominator == 1 and (b / a).numerator % 2:
        return mpf(0)
    c = round(-b / (2 * a))
    d = math.lcm(a.denominator, b.denominator)
    ad, bd = int(a * d), int((b + 2 * a * c) * d)
    sign = -1 if alternating else 1
    e_head = bd * c - ad * c * c
    while True:
        wd = digits + GUARD + cancel
        n0 = _term_count(a, b + 2 * a * c, ctx_neg_log(qv), wd)
        guard = (4 * n0).bit_length()
        prec = math.ceil(wd * math.log2(10)) + guard
        with mp.workprec(prec + max(abs(e_head), ad + abs(bd)).bit_length()):
            root = ctx_power(qv, F(1, d))
            head = sign ** abs(c) * root ** e_head
            up = sign * int(mpmath.ldexp(root ** (ad + bd), prec))
            down = sign * int(mpmath.ldexp(root ** (ad - bd), prec))
        total = _fold(up, down, ad, bd, n0, prec, guard + 4)
        lost = math.floor((prec - abs(total).bit_length()) * math.log10(2))
        if wd - lost >= digits + GUARD // 2:
            break
        cancel = lost
    with mp.workdps(wd):
        return mpf((total, -prec)) * head


def ctx_eta(p, qv, digits):
    p = F(p)
    cancel = math.ceil(math.pi ** 2 / (6 * float(p) * ctx_neg_log(qv) * math.log(10)))
    total = ctx_theta_sum(3 * p / 2, -p / 2, qv, digits, cancel=cancel)
    with mp.workdps(digits + GUARD):
        return +total


def ctx_A(spec, qv, digits):
    th = ctx_theta_sum(spec.p / 2, spec.p / 2 - spec.a, qv, digits)
    if th == 0:
        return th
    et = ctx_eta(spec.p, qv, digits)
    with mp.workdps(digits + GUARD):
        return ctx_power(qv, spec.delta) * th / et


def ctx_nome(r, digits):
    wd = digits + GUARD
    rv = ctx_mpf(r, wd)
    with mp.workdps(wd):
        t = -ctx_pi(mp.prec) * mpmath.sqrt(rv)
        return rounded_twice(lambda: mpmath.exp(t), mp.prec)


def ctx_singular_modulus(r, digits):
    wd = digits + GUARD
    qv = ctx_nome(r, digits)
    theta2 = ctx_theta_sum(1, 1, qv, digits, alternating=False)
    theta3 = ctx_theta_sum(1, 0, qv, digits, alternating=False)
    with mp.workdps(wd):
        kv = mpmath.sqrt(qv) * (theta2 / theta3) ** 2
        kpv = mpmath.sqrt(1 - kv * kv)
    return kv, kpv


def ctx_ellipk(x, digits):
    wd = digits + GUARD
    xv = ctx_mpf(x, wd)
    with mp.workdps(wd):
        kp = mpmath.sqrt(1 - xv * xv)
        return ctx_pi(mp.prec) / (2 * ctx_agm(mpf(1), kp, wd))


def ctx_inverse_modulus(x, digits):
    wd = digits + GUARD
    xv = ctx_mpf(x, wd)
    with mp.workdps(wd):
        ratio = ctx_agm(1, mpmath.sqrt(1 - xv * xv), wd) / ctx_agm(1, xv, wd)
        return ratio * ratio


def ctx_real_eval_series(u, qv, digits):
    with mp.workdps(digits + GUARD):
        root = ctx_power(qv, F(1, u.denom))
        total = mpf(0)
        for k in sorted(u.nums):
            c = u.nums[k]
            g = math.gcd(c, u.scale)
            total += mpf(c // g) / (u.scale // g) * root ** k
        return total


def raw(x):
    return x.value._mpf_ if isinstance(x, BigReal) else x._mpf_


# ---------------------------------------------------------------------------
# operands
# ---------------------------------------------------------------------------

DIGITS = st.integers(20, 2000)
BIG_INTS = st.integers(-(10 ** 700), 10 ** 700).filter(bool)
FRACTIONS = st.fractions(max_denominator=10 ** 300).filter(bool) | st.builds(
    F, BIG_INTS, st.integers(1, 10 ** 400)
)
LITERALS = st.builds(
    lambda m, e: f"{m}e{e}",
    st.integers(-(10 ** 40), 10 ** 40).filter(bool),
    st.integers(-400, 400),
)
REALS = st.builds(big_real, FRACTIONS | BIG_INTS | LITERALS, st.integers(20, 2100))
OPERANDS = REALS | BIG_INTS | FRACTIONS | LITERALS
OPS = {  # each applied to BigReal operands and, as the oracle, to their mpfs
    "+": lambda x, y: x + y,
    "-": lambda x, y: x - y,
    "*": lambda x, y: x * y,
    "/": lambda x, y: x / y,
    "r+": lambda x, y: y + x,
    "r-": lambda x, y: y - x,
    "r*": lambda x, y: y * x,
    "r/": lambda x, y: y / x,
}


class TestBitIdentityWithTheContext:
    @settings(max_examples=150, deadline=None)
    @given(REALS, OPERANDS, st.sampled_from(sorted(OPS)))
    def test_arithmetic(self, x, other, op):
        digits = min(x.digits, other.digits) if isinstance(other, BigReal) else x.digits
        wd = digits + GUARD
        with mp.workdps(wd):
            want = OPS[op](x.value, ctx_mpf(other, wd))
        got = OPS[op](x, other)
        assert got.digits == digits
        assert raw(got) == want._mpf_
        # a comparison rounds the other operand at x's own digits
        theirs_other = ctx_mpf(other, x.digits + GUARD)
        assert (x < other, x <= other, x > other, x >= other) == (
            x.value < theirs_other,
            x.value <= theirs_other,
            x.value > theirs_other,
            x.value >= theirs_other,
        )
        if not isinstance(other, str):
            assert (x == other) == (x.value == theirs_other)

    @settings(max_examples=150, deadline=None)
    @given(FRACTIONS | BIG_INTS | LITERALS, DIGITS)
    def test_conversion(self, x, digits):
        assert raw(big_real(x, digits)) == ctx_mpf(x, digits + GUARD)._mpf_

    @settings(max_examples=120, deadline=None)
    @given(
        REALS.map(abs),
        st.integers(-60, 60)
        | st.fractions(min_value=-30, max_value=30, max_denominator=10 ** 40),
    )
    def test_powers_roots_and_round(self, x, e):
        wd = x.digits + GUARD
        if x.value or e >= 0:
            with mp.workdps(wd):
                want = x.value ** e if isinstance(e, int) else ctx_power(x.value, e)
            assert raw(x ** e) == want._mpf_
        with mp.workdps(wd):
            assert raw(x.sqrt()) == mpmath.sqrt(x.value)._mpf_
            if mpmath.mag(x.value) <= 100000:
                assert round(x) == int(mpmath.nint(x.value))

    @settings(max_examples=40, deadline=None)
    @given(
        DIGITS,
        st.integers(-2000, 40)
        | st.fractions(min_value=-2000, max_value=0, max_denominator=10 ** 6),
    )
    @example(20, F(-3, 5) * 60)  # recognize's certificate threshold
    @example(20, F(-61, 2))  # the miner's numeric threshold at 61 digits
    def test_constants(self, digits, e):
        assert raw(pi_at(digits)) == ctx_pi(dps_to_prec(digits + GUARD))._mpf_
        with mp.workdps(30):
            want = mpf(10) ** e
        if isinstance(e, F) and e.denominator > 1:
            want = rounded_twice(
                lambda: mpf(10) ** (mpf(e.numerator) / e.denominator), dps_to_prec(30), want
            )
        assert ten_to(e).value._mpf_ == want._mpf_

    @settings(max_examples=40, deadline=None)
    @given(
        st.fractions(min_value=F(1, 10 ** 6), max_value=10 ** 6, max_denominator=10 ** 6)
        | st.integers(1, 10 ** 6),
        DIGITS,
    )
    def test_nome(self, r, digits):
        assert raw(nome_from_r(r, digits)) == ctx_nome(r, digits)._mpf_

    @settings(max_examples=60, deadline=None)
    @given(
        st.fractions(min_value=F(1, 20), max_value=10, max_denominator=20),
        st.fractions(min_value=-12, max_value=12, max_denominator=12).filter(bool),
        st.fractions(min_value=F(1, 100), max_value=100, max_denominator=100),
        st.booleans(),
        st.integers(20, 600),
    )
    @example(F(1), F(0), F(1, 2), False, 2000)
    @example(F(3, 2), F(-1, 2), F(1, 10 ** 4), True, 60)  # eta's cancellation
    def test_theta_sum(self, a, b, r, alternating, digits):
        q = nome_from_r(r, digits)
        got = theta_sum(a, b, q, alternating=alternating)
        assert raw(got) == ctx_theta_sum(a, b, q.value, digits, alternating)._mpf_

    @settings(max_examples=40, deadline=None)
    @given(
        st.fractions(min_value=-12, max_value=12, max_denominator=3),
        st.fractions(min_value=F(1, 4), max_value=12, max_denominator=4),
        st.fractions(min_value=F(1, 20), max_value=20, max_denominator=20),
        st.integers(20, 600),
    )
    def test_eta_and_quotient(self, a, p, r, digits):
        q = nome_from_r(r, digits)
        assert raw(eval_eta(p, q)) == ctx_eta(p, q.value, digits)._mpf_
        spec = ThetaSpec(a, p)
        assert raw(eval_A(spec, q)) == ctx_A(spec, q.value, digits)._mpf_

    @settings(max_examples=25, deadline=None)
    @given(
        st.fractions(min_value=F(1, 50), max_value=50, max_denominator=50), st.integers(20, 2000)
    )
    @example(F(1), 2000)
    def test_singular_modulus(self, r, digits):
        ep = singular_modulus(r, digits)
        kv, kpv = ctx_singular_modulus(r, digits)
        assert (raw(ep.k), raw(ep.kprime)) == (kv._mpf_, kpv._mpf_)

    @settings(max_examples=40, deadline=None)
    @given(st.fractions(min_value=0, max_value=1, max_denominator=10 ** 30), DIGITS)
    def test_agm_kernels(self, x, digits):
        if x < 1:
            assert raw(ellipk(big_real(x, digits))) == ctx_ellipk(x, digits)._mpf_
        if 0 < x < 1:
            xv = ctx_mpf(x, digits + GUARD)
            assert raw(inverse_modulus(x, digits)) == ctx_inverse_modulus(x, digits)._mpf_
            wd = digits + GUARD
            assert raw(agm(1, xv, wd)[0]) == ctx_agm(1, xv, wd)._mpf_
            assert raw(agm(xv, 3, wd)[0]) == ctx_agm(xv, 3, wd)._mpf_

    @pytest.mark.parametrize(
        "u",
        [
            A_series(ThetaSpec(F(2, 3), 5), 10),
            A_series(ThetaSpec(F(2, 3), 5), 60),
            # a coefficient wider than the working precision: its numerator
            # is rounded before the division
            PuiseuxSeries.from_pairs([(0, F(10 ** 125 + 176, 3 ** 25 * 7))], order=1),
        ],
        ids=["A-10", "A-60", "wide"],
    )
    @pytest.mark.parametrize("digits", [20, 60, 2000])
    def test_real_eval_series(self, u, digits):
        q = nome_from_r(F(3, 2), digits)
        assert raw(real_eval_series(u, q)) == ctx_real_eval_series(u, q.value, digits)._mpf_


class TestCorrectlyRounded:
    """The kernels that are correctly rounded, against mpmath at three times
    the bits and 64 more, rounded once: n-th roots of any order, exp at
    any magnitude, and pi.  Every bound their Ziv loops rely on is tested
    through this."""

    @staticmethod
    def rounded(v, prec):
        return mpf_pos(v._mpf_, prec, round_nearest)[1:3]

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 2 ** 4000),
        st.integers(-6000, 2000),
        st.integers(2, 60) | st.integers(2, 10 ** 40),
        st.integers(20, 2500),
    )
    @example(1, -2, 5, 100)  # (1/4)^(1/5)
    @example(3 ** 5, 10, 5, 200)  # (12^5)^(1/5) = 12, exactly
    def test_root(self, man, exp, n, prec):
        with mp.workprec(3 * prec + 64 + n.bit_length()):
            x = mp.make_mpf(from_man_exp(man, exp))
            want = mpmath.exp(mpmath.log(x) / n)
        got = numeric._root(*numeric._round(man, exp, man.bit_length()), n, prec)
        assert got == self.rounded(want, prec)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 3000), st.integers(-60, 14), st.booleans(), st.integers(20, 3000),
        st.randoms(use_true_random=False),
    )
    def test_exp(self, bits, mag, negative, prec, rnd):
        man = rnd.getrandbits(bits) | 1 << bits - 1 | 1
        man = -man if negative else man
        with mp.workprec(3 * prec + 64):
            want = mpmath.exp(mp.make_mpf(from_man_exp(man, mag - bits)))
        assert numeric._exp(man, mag - bits, prec) == self.rounded(want, prec)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 7000))
    def test_pi(self, prec):
        with mp.workprec(3 * prec + 64):
            want = +mp.pi
        assert numeric._pi(prec) == self.rounded(want, prec)


class TestSqrt:
    @settings(max_examples=500, deadline=None)
    @given(
        st.integers(1, 2 ** 3000),
        st.integers(-20000, 20000),
        st.integers(1, 7000),
        st.booleans(),
    )
    @example(1, 0, 53, False)
    @example(1, 1, 53, False)
    @example(2 ** 200 + 1, -7, 100, True)
    def test_equals_mpf_sqrt(self, man, exp, prec, square):
        x = from_man_exp(man * man if square else man, exp)
        _, xman, xexp, _ = x
        _, root, rexp, _ = mpf_sqrt(x, prec, round_nearest)
        assert numeric._sqrt(xman, xexp, prec) == (root, rexp)

    def test_negative_raises(self):
        with pytest.raises(ValueError, match="negative"):
            big_real(-2, 40).sqrt()


class TestNoAmbientPrecision:
    @staticmethod
    def values():
        x = big_real(F(7, 3), 60)
        y = big_real(F(-5, 11), 40)
        q = nome_from_r(2, 60)
        return {
            "theta_sum": theta_sum(F(3, 2), F(1, 2), q),
            "eval_A": eval_A(ThetaSpec(1, 4), q),
            "eval_eta5": eval_eta5(q),
            "singular_modulus": singular_modulus(3, 60).k,
            "ellipk": ellipk(big_real(F(1, 3), 60)),
            "nome_from_r": nome_from_r(F(5, 2), 2000),
            "ops": [x + y, x - y, x * y, x / y, 1 - x, 3 / x, -y, abs(y)],
            "powers": [x ** 7, x ** -3, x ** F(2, 5), x.sqrt()],
            "round": round(x * 10 ** 50),
        }

    @staticmethod
    def raws(values):
        def bits(val):
            if isinstance(val, list):
                return [raw(v) for v in val]
            return val if isinstance(val, int) else raw(val)

        return {name: bits(val) for name, val in values.items()}

    @pytest.mark.parametrize("ambient", [10, 20000])
    def test_same_bits_at_any_ambient_precision(self, ambient):
        want = self.raws(self.values())
        with mp.workprec(ambient):
            got = self.raws(self.values())
        assert got == want

    @staticmethod
    def reports():
        rel = MinedRelation(
            poly=BivarIntPoly.normalized([(0, 0, 16), (0, 1, -32), (0, 2, 16), (2, 1, -1)]),
            degree=2,
            validated_grid_order=19,
            u_binding=ABinding(ThetaSpec(1, 4), 12),
            v_binding="m",
        )
        return {
            "verify_entry": [verify_entry(eid, 60, 60).to_json_obj() for eid in catalog_ids()],
            "validate": validate(rel, digits=60).to_json_obj(),
            "recognize": str(recognize(singular_modulus(3, 60).k, 4)),
        }

    @pytest.mark.parametrize("ambient", [10, 20000])
    def test_same_reports_at_any_ambient_precision(self, ambient):
        # every catalog entry, a relation's certificate and a recognition
        want = self.reports()
        with mp.workprec(ambient):
            got = self.reports()
        assert got == want


@pytest.mark.parametrize("digits", [60, 2000])
def test_negation_and_abs_are_exact(digits):
    # exact at every digit count, though the ambient precision is 53 bits
    assert mp.prec == 53
    q = nome_from_r(2, digits)
    assert (-q).nstr(digits) == "-" + q.nstr(digits)
    assert raw(-(-q)) == raw(q)
    assert raw(abs(-q)) == raw(q)
    assert (-q).digits == abs(q).digits == digits
