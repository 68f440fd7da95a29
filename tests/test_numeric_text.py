"""Text in and out of BigReal, byte for byte against mpmath.

``BigReal.nstr`` must print what ``mpmath.nstr`` prints for the same bits,
and ``big_real`` must parse a string to the bits ``mpf(str)`` gives at the
same working precision.  mpmath is the oracle here; no command of the
package imports it."""

import math
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import from_man_exp

from thetaquot.numeric import GUARD, BigReal, big_real


def real(man: int, exp: int, digits: int = 60) -> BigReal:
    return BigReal(mp.make_mpf(from_man_exp(man, exp)), digits)


def decimal_exponent_to_binary(k: int) -> int:
    return math.floor(k * math.log2(10))


# mantissas from 1 to 7,000 bits, at binary exponents that put the value
# between 10^-70 and 10^80 (both sides of the fixed/scientific switch at
# every n up to 60) or far outside the range of a float
MANTISSAS = st.integers(1, 7000).flatmap(lambda b: st.integers(-(2 ** b), 2 ** b))
DECIMAL_EXPONENTS = st.integers(-70, 80) | st.integers(-3000, 3000) | st.sampled_from(
    [-10 ** 6, 10 ** 6, -(10 ** 20), 10 ** 20]
)


class TestNstr:
    @settings(max_examples=400, deadline=None)
    @given(MANTISSAS, DECIMAL_EXPONENTS, st.integers(1, 60))
    @example(0, 0, 5)
    @example(-1, 0, 1)
    @example(1, -6644, 5)  # 2^-6644, past the 3,500-bit switch of the printer
    def test_equals_mpmath_nstr(self, man, k, n):
        bits = man.bit_length()
        x = real(man, decimal_exponent_to_binary(k) - bits)
        assert x.nstr(n) == mpmath.nstr(x.value, n)

    @pytest.mark.parametrize(
        "text, n",
        [
            ("9.99995", 5),  # carries into a new leading digit: 10.0
            ("9.99995", 1),  # and into the exponent: 1.0e+1
            ("-9.99995", 4),
            ("99999.5", 5),  # 1.0e+5: the carry crosses max_fixed
            ("0.000099999", 2),  # 1.0e-4, inside the fixed range
            ("0.0000099999", 2),  # 1.0e-5, the edge of it
            ("1e-2000", 5),
            ("-2.5e+3000", 7),
            ("123456789", 60),
            ("0.1", 60),
            ("1", 1),
        ],
    )
    def test_carries_and_switches(self, text, n):
        for digits in (20, 60, 200):
            with mp.workdps(digits + GUARD):
                v = mpmath.mpf(text)
            x = BigReal(v, digits)
            assert x.nstr(n) == mpmath.nstr(v, n)

    @pytest.mark.parametrize("n", [250, 300, 4400, 5000])
    def test_long_strings(self, n):
        # past 250 digits mpmath splits the digit string in halves, and
        # past 4,300 Python's int-to-str limit would refuse it
        with mp.workdps(n + GUARD):
            v = mpmath.pi / 7 * mpmath.mpf(10) ** 40
        x = BigReal(v, n)
        assert x.nstr(n) == mpmath.nstr(v, n)
        assert x.nstr() == mpmath.nstr(v, n)

    def test_zero_and_default_digits(self):
        assert big_real(0, 40).nstr() == "0.0" == mpmath.nstr(mpmath.mpf(0), 40)
        x = big_real(F(-1, 3), 25)
        assert x.nstr() == mpmath.nstr(x.value, 25)


LITERALS = st.one_of(
    st.builds(
        lambda a, b: f"{a}.{b}",
        st.integers(-(10 ** 30), 10 ** 30),
        st.integers(0, 10 ** 40),
    ),
    st.builds(
        lambda m, e: f"{m}e{e}",
        st.integers(-(10 ** 60), 10 ** 60),
        st.integers(-700, 700),
    ),
    st.builds(
        lambda m, e: f"{m}E+{e}",
        st.integers(1, 10 ** 20),
        st.integers(0, 500),
    ),
    st.builds(
        lambda p, q: f"{p}/{q}",
        st.integers(-(10 ** 400), 10 ** 400),
        st.integers(1, 10 ** 400),
    ),
)


class TestParse:
    @settings(max_examples=300, deadline=None)
    @given(LITERALS, st.integers(20, 600))
    @example("1e-500", 60)  # past 400 decimal places, parsed through a power of ten
    @example("-7.5e401", 30)
    @example(" 2.5E3 ", 20)
    @example("0.0", 20)
    def test_equals_mpf_of_the_string(self, text, digits):
        with mp.workdps(digits + GUARD):
            want = mpmath.mpf(text)
        assert big_real(text, digits).value._mpf_ == want._mpf_
