"""Arbitrary-precision real evaluation on Python integers.

A BigReal is m 2^e, an odd integer mantissa m (or zero) and a binary
exponent e, with its precision in decimal digits.  Every kernel keeps
``digits + GUARD`` decimal digits of working precision and reports at
``digits``; binary operations carry the minimum of the operand precisions.

Each operation and kernel runs at its own explicit bit count, that of
``digits + GUARD`` unless it says otherwise, and rounds to nearest, ties to
even.  Addition, multiplication, division, integer powers, square roots and
the parsing of ints, rationals, floats and decimal strings up to 400 places
are ports of mpmath's libmp algorithms, so they give the bits it gave at
the same bit count, and ``nstr`` prints what ``mpmath.nstr`` printed.
n-th roots, pi, the nome's exp and decimal strings past 400 places are
correctly rounded: Newton's steps, Brent-Salamin's AGM, a Taylor series and
a power of ten each run with guard bits and a bound on their error, widened
until the rounding is decided (Ziv's strategy; Brent & Zimmermann, Modern
Computer Arithmetic, ch. 3-4).  The two hot loops, ``theta_sum``'s walk and
``agm``, run in Python-int fixed point.  No module of the package imports
mpmath: ``BigReal.value`` alone does, on first use, for callers that want
an ``mpf``.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from functools import lru_cache
from fractions import Fraction

from .values import MAX_TERMS, MIN_DIGITS, CertificationError, Rat, ThetaSpec

GUARD = 15
MAX_FIXED_BITS = 2 ** 24  # the widest int made from a real: an AGM argument or a round()

__all__ = [
    "BigReal", "EvalPoint", "GUARD", "MIN_DIGITS", "big_real", "pi_at", "agm", "ellipk",
    "last_agm_iterations", "singular_modulus", "singular_point", "inverse_modulus",
    "nome_from_r", "theta_sum", "eval_eta", "eval_A", "eval_h5", "eval_eta5",
    "real_eval_series", "residual_str", "ten_to",
]

NEAREST, DOWN, UP = 0, 1, 2  # to nearest (ties to even), or in magnitude down or up
LOG2_10 = math.log(10, 2)  # the float mpmath's printer sizes its digits with


class PrecisionError(ValueError):
    pass


def _bits(dps: int) -> int:
    """The bit count of ``dps`` decimal digits (mpmath's dps_to_prec)."""
    return max(1, int(round((dps + 1) * 3.3219280948873626)))


def _round(man: int, exp: int, prec: int, rnd: int = NEAREST) -> tuple[int, int]:
    """man 2^exp rounded to prec bits and stripped of trailing zero bits
    (mpmath's normalize)."""
    if not man:
        return 0, 0
    m = -man if man < 0 else man
    n = m.bit_length() - prec
    if n > 0:
        if rnd == NEAREST:
            t = m >> (n - 1)
            m = (t >> 1) + 1 if t & 1 and (t & 2 or m & ((1 << (n - 1)) - 1)) else t >> 1
        else:
            m = m >> n if rnd == DOWN else -(-m >> n)
        exp += n
    z = (m & -m).bit_length() - 1
    return (m >> z if man > 0 else -(m >> z)), exp + z


def _fixed(man: int, exp: int, prec: int) -> int:
    """floor(man 2^(exp + prec)): a fixed-point int at prec bits."""
    s = exp + prec
    return man << s if s >= 0 else man >> -s


def _add(am: int, ae: int, bm: int, be: int, prec: int) -> tuple[int, int]:
    """a + b rounded to prec bits as mpf_add rounds it: exactly, except
    that a b more than 100 exponents and prec + 4 bits below a stands in
    as one unit just below a's shifted bits."""
    if not am or not bm:
        return _round(am or bm, ae if am else be, prec)
    if ae < be:
        am, ae, bm, be = bm, be, am, ae
    if ae - be > 100 and ae + am.bit_length() - be - bm.bit_length() > prec + 4:
        return _round((am << prec + 4) + (1 if bm > 0 else -1), ae - prec - 4, prec)
    return _round((am << ae - be) + bm, be, prec)


def _div(am: int, ae: int, bm: int, be: int, prec: int, rnd: int = NEAREST) -> tuple[int, int]:
    """a / b rounded to prec bits: the quotient's top prec + 5 bits (at
    least) and a sticky bit for a remainder, as mpf_div forms it."""
    if not bm:
        raise ZeroDivisionError("division by zero")
    if not am:
        return 0, 0
    extra = max(prec - am.bit_length() + bm.bit_length() + 5, 5)
    q, r = divmod(abs(am) << extra, abs(bm))
    if r:
        q, extra = (q << 1) | 1, extra + 1
    return _round(q if (am < 0) == (bm < 0) else -q, ae - be - extra, prec, rnd)


def _cut(m: int, e: int, prec: int, up: bool) -> tuple[int, int]:
    d = m.bit_length() - prec
    if d <= 0:
        return m, e
    return (-(-m >> d) if up else m >> d), e + d


def _pow_int(man: int, exp: int, n: int, prec: int, rnd: int = NEAREST) -> tuple[int, int]:
    """(man 2^exp)^n rounded to prec bits with mpf_pow_int's bits.  A
    negative power is 1 over the power at prec + 5 bits, rounded the other
    way; a square or a power under 1,000 bits is exact before its rounding,
    and any other is binary powering with each product cut to
    prec + 4 bitlen(n) + 4 bits (up when rounding up, else down)."""
    if n < 0:
        if n == -1:
            return _div(1, 0, man, exp, prec, rnd)
        return _div(1, 0, *_pow_int(man, exp, -n, prec + 5, rnd and 3 - rnd), prec, rnd)
    if n < 2:
        return _round(man, exp, prec, rnd) if n else (1, 0)
    m, sign = abs(man), -1 if man < 0 and n & 1 else 1
    if m == 1:
        return sign, exp * n
    if n == 2 or m.bit_length() * n < 1000:
        return _round(sign * m ** n, exp * n, prec, rnd)
    wp, up = prec + 4 * n.bit_length() + 4, rnd == UP
    pm, pe = 1, 0
    while True:
        if n & 1:
            pm, pe = _cut(pm * m, pe + exp, wp, up)
            n -= 1
            if not n:
                return _round(sign * pm, pe, prec, rnd)
        m, exp = _cut(m * m, exp + exp, wp, up)
        n >>= 1


def _ten_pow(e: int, prec: int, rnd: int = NEAREST) -> tuple[int, int]:
    return _pow_int(5, 1, e, prec, rnd)


def _sqrt(man: int, exp: int, prec: int) -> tuple[int, int]:
    """The square root of man 2^exp >= 0 as mpf_sqrt rounds it, correctly:
    ``math.isqrt`` of the mantissa shifted to 2 prec + 4 bits or more, with
    a sticky bit below an inexact root's prec + 2 bits."""
    if man < 0:
        raise ValueError("square root of a negative value")
    if not man:
        return 0, 0
    if exp & 1:
        exp, man = exp - 1, man << 1
    shift = max(4, 2 * prec - man.bit_length() + 4)
    shift += shift & 1
    man <<= shift
    root = math.isqrt(man)
    if root * root != man:
        root, shift = (root << 1) | 1, shift + 2
    return _round(root, (exp - shift) // 2, prec)


def _ziv(approx, prec: int, guard: int) -> tuple[int, int]:
    """The value that ``approx(w)`` brackets, within err 2^e of m 2^e
    (m > err), rounded to nearest at prec bits: w = prec + guard, with the
    guard doubled until both ends of the bracket round alike.  Past 4 prec
    guard bits the value is taken to be the midpoint that the bracket
    straddles, which only an exact root can be, and rounded to even."""
    while True:
        m, e, err = approx(prec + guard)
        lo = _round(m - err, e, prec)
        if lo == _round(m + err, e, prec):
            return lo
        if guard > 4 * prec:
            return _round(*_round(m, e, prec + 1), prec)
        guard *= 2


def _root(man: int, exp: int, n: int, prec: int) -> tuple[int, int]:
    """(man 2^exp)^(1/n) for man > 0 and n >= 2, correctly rounded to prec
    bits, by Newton's step y += y (x / y^n - 1) / n on an int mantissa.

    A relative error d comes out of a step as about (n - 1) d^2 / 2, so the
    bits c of n d double each step, which runs at c + bitlen(n) + 4 bits.
    The start 2^F e^t, F the integer nearest z = log2(x) / n and
    t = (z - F) ln 2, carries the float error of log2 x: n d stays below
    2^(bitlen(1 + |log2 x|) - 48)."""
    bc = man.bit_length()
    lg = math.log2((man >> max(bc - 64, 0)) / 2.0 ** min(bc, 64)) + (exp + bc)
    nb, P = n.bit_length(), n.bit_length() + 64
    z = (int(lg * 2.0 ** 64) << nb) // n  # 2^P log2(x) / n
    F = (z + (1 << P - 1)) >> P
    t = (z - (F << P)) * _logs(P)[0] >> P
    start, term, k = 1 << P, 1 << P, 0
    while term:
        k += 1
        term = (term * t >> P) // k
        start += term
    c0 = 48 - int(abs(lg) + 1).bit_length()
    if c0 < 8:
        raise ValueError("a root of a value beyond 2^(+-2^39) is out of range")

    def approx(w):
        y, f, c = start, F - P, c0
        goal = max(w - nb, 0) + 2  # n d below 2^-goal leaves d below 2^-(w + 1)
        while True:
            c = min(2 * c - 2, goal)
            p = c + nb + 4
            s = p - y.bit_length()
            y, f = (y << s if s >= 0 else y >> -s), f - s
            pm, pe = _pow_int(y, f, n, p)
            s = exp - pe + p  # x / y^n in fixed point at p bits
            q = (man << s) // pm if s >= 0 else man // (pm << -s)
            y += y * (q - (1 << p)) // (n << p)
            if c == goal:
                return y, f, 64

    return _ziv(approx, prec, 20)


def _power(man: int, exp: int, num: int, den: int, prec: int) -> tuple[int, int]:
    """x^(num/den) for x = man 2^exp >= 0 and num/den in lowest terms: an
    integer power of the correctly rounded root, both with the exponent's
    bit length in extra bits (the power multiplies the root's relative
    error by num), rounded to prec."""
    if den == 1:
        return _pow_int(man, exp, num, prec)
    if not man:
        return 0, 0
    wp = prec + max(abs(num), den).bit_length()
    return _round(*_pow_int(*_root(man, exp, den, wp), num, wp), prec)


def _exp(man: int, exp: int, prec: int) -> tuple[int, int]:
    """e^x for x = man 2^exp, correctly rounded to prec bits.

    As in mpmath's exp, y = |x| / 2^s, with s the magnitude of x plus
    R = sqrt(prec) / 4, gives cosh y by its even Taylor terms in fixed point,
    U terms to one full multiply (the baby steps of Paterson-Stockmeyer),
    and e^(+-y) = cosh y +- sqrt(cosh^2 y - 1), which is squared s times,
    each square cut to the working bits.  The error bound counts the floors
    of the sum, grows by 1/y through the root and doubles with every
    square."""
    mag = exp + man.bit_length()

    def approx(w):
        R = math.isqrt(w) // 4
        s, amp = max(mag + R, 0), max(R, -mag) + 1  # 2^amp > 1/y
        W = w + s + amp + 16
        y = _fixed(abs(man), exp - s, W)
        y2 = y * y >> W
        U = 6
        pw = [1 << W, y2]
        for _ in range(U - 1):
            pw.append(pw[-1] * y2 >> W)
        sums, a, k = [0] * U, 1 << W, 0
        while a:
            for i in range(U):
                sums[i] += a
                k += 2
                a //= (k - 1) * k
            a = a * pw[U] >> W
        c = sum(t * p for t, p in zip(sums, pw)) >> W
        sh = math.isqrt(c * c - (1 << 2 * W))
        v, e = c - sh if man < 0 else c + sh, -W
        for _ in range(s):
            v, e = _cut(v * v, e + e, W, False)
        return v, e, (3 * k * (U + 2) + 3 * U * U + 16) << s + amp

    return _ziv(approx, prec, 20)


@lru_cache(maxsize=16)
def _pi(prec: int) -> tuple[int, int]:
    """pi correctly rounded to prec bits: Brent-Salamin, the AGM of 1 and
    1/sqrt 2 with Legendre's sum t, pi = (a + b)^2 / (4 t) (Salamin, Math.
    Comp. 30, 1976), in fixed point.  Its k-th term enters t with weight
    2^k, so the error bound doubles with each iteration."""

    def approx(w):
        one = 1 << w
        a, b, t, k = one, math.isqrt(one << w - 1), one >> 2, 0
        while True:
            c = (a + b) >> 1
            b = math.isqrt(a * b)
            term = (a - c) ** 2 << k >> w
            t, a, k = t - term, c, k + 1
            if not term:
                return (a + b) ** 2 // t, -w - 2, 1 << k + 8

    return _ziv(approx, prec, 40)


@lru_cache(maxsize=64)
def _logs(bits: int) -> tuple[int, int]:
    """floor(2^bits ln 2) and floor(2^bits ln 10), from 2 atanh(1/3) and
    3 ln 2 + 2 atanh(1/9) with 32 guard bits."""
    w = bits + 32

    def atanh_inv(k):  # 2^w atanh(1/k)
        total, p, j = 0, (1 << w) // k, 1
        while p:
            total, p, j = total + p // j, p // (k * k), j + 2
        return total

    ln2 = 2 * atanh_inv(3)
    return ln2 >> 32, (3 * ln2 + 2 * atanh_inv(9)) >> 32


def _parse_str(text: str, prec: int) -> tuple[int, int]:
    """A decimal literal or "num/den" correctly rounded to prec bits: up to
    400 decimal places exactly (an int, or the quotient by a power of ten),
    as from_str rounds it, and past them by Ziv's loop on the mantissa times
    10^e at w bits, rounded down, which is within a relative 2^(2 - w)."""
    s = text.lower().strip()
    if "/" in s:
        p, q = (int(t.rstrip("l")) for t in s.split("/"))
        if not q:
            raise ValueError(f"{text!r} has a zero denominator")
        return _div(p, 0, q, 0, prec)
    s = s.rstrip("l")
    float(s)  # the syntax of a float literal, or ValueError
    s, _, e = s.partition("e")
    e = int(e or 0)
    a, dot, b = s.partition(".")
    if dot:
        b = b.rstrip("0")
        s, e = a + b, e - len(b)
    man = int(s)
    if not man:
        return 0, 0
    if abs(e) > 400:

        def approx(w):  # m of w bits or more, so that err shrinks with w
            tm, te = _ten_pow(e, w, DOWN)
            m = man * tm
            shift = max(w - m.bit_length(), 0)
            m <<= shift
            return m, te - shift, (abs(m) >> w - 3) + 1

        return _ziv(approx, prec, 20)
    if e >= 0:
        return _round(man * 10 ** e, 0, prec)
    return _div(man, 0, 10 ** -e, 0, prec)


def _parse(x, prec: int) -> tuple[int, int]:
    """x as (man, exp): a BigReal's or an mpf's bits as they are, and an
    int, Fraction, str or float rounded to prec bits as mpmath rounds it (a
    Fraction's numerator first, then the quotient)."""
    if isinstance(x, BigReal):
        return x.man, x.exp
    if isinstance(x, int):
        return _round(x, 0, prec)
    if isinstance(x, Fraction):
        return _div(*_round(x.numerator, 0, prec), x.denominator, 0, prec)
    if isinstance(x, str):
        return _parse_str(x, prec)
    if isinstance(x, float) and math.isfinite(x):
        m, e = math.frexp(x)
        return _round(int(m * 2 ** 53), e - 53, prec)
    raw = getattr(x, "_mpf_", None)
    if raw is None or not raw[1] and raw[2]:
        raise ValueError(f"a BigReal is a finite real number, not {x!r}")
    return (-raw[1] if raw[0] else raw[1]), raw[2]


def _numeral(n: int, size: int) -> str:
    """str(n) as mpmath's numeral writes it, in halves past 250 digits
    (which keeps every str() under Python's limit of 4,300 digits)."""
    if not n or size < 250:
        return str(n)
    half = size // 2 + (size & 1)
    a, b = divmod(n, 10 ** half)
    return _numeral(a, half) + _numeral(b, half).rjust(half, "0")


def _to_str(man: int, exp: int, dps: int) -> str:
    """man 2^exp to dps significant digits as mpmath's to_str prints it
    with its defaults: the leading dps + 3 digits, truncated, are rounded
    half up at dps, and written in fixed point when the decimal exponent
    lies strictly between min(-(dps // 3), -5) and dps.  A value beyond
    2^+-3500 is first divided by 10^b, b = trunc(exp log10 2), with ln 2 and
    ln 10 at bitlen(exp) + 5 bits, and both steps cut down."""
    if not man:
        return "0.0"
    sign, m = ("-", -man) if man < 0 else ("", man)
    bitprec = int((dps + 3) * LOG2_10) + 10
    expo = 0
    if abs(exp + m.bit_length()) > 3500:
        ln2, ln10 = _logs(abs(exp).bit_length() + 5)
        expo = abs(exp) * ln2 // (ln10 & -4) * (1 if exp > 0 else -1)
        m, exp = _div(m, exp, *_ten_pow(expo, bitprec, DOWN), bitprec, DOWN)
    fixprec = max(bitprec - exp - m.bit_length(), 0)
    fixdps = int(fixprec / LOG2_10 + 0.5)
    digits = _numeral(_fixed(m, exp, fixprec) * 10 ** fixdps >> fixprec, dps + 3)
    expo += len(digits) - fixdps - 1
    head = digits[:dps]
    if len(digits) > dps and digits[dps] in "56789":
        stem = head.rstrip("9")
        if stem:
            head = stem[:-1] + str(int(stem[-1]) + 1) + "0" * (dps - len(stem))
        else:
            head, expo = "1" + "0" * (dps - 1), expo + 1
    split = 1
    if min(-(dps // 3), -5) < expo < dps:
        head, split, expo = ("0" * -expo + head, 1, 0) if expo < 0 else (head, expo + 1, 0)
    text = (head[:split] + "." + head[split:]).rstrip("0")
    text += "0" if text.endswith(".") else ""
    if not expo:
        return sign + text
    return f"{sign}{text}e{'+' if expo > 0 else ''}{expo}"


def _compare(am: int, ae: int, bm: int, be: int) -> int:
    """The sign of a - b: that of am - bm unless both have one sign."""
    if (am > 0) != (bm > 0) or not am or not bm:
        return (am > bm) - (am < bm)
    ma, mb = ae + am.bit_length(), be + bm.bit_length()
    if ma != mb:
        return 1 if (ma > mb) == (am > 0) else -1
    diff = (am << ae - be) - bm if ae > be else am - (bm << be - ae)
    return (diff > 0) - (diff < 0)


def _binary(kernel, swap: bool = False):
    """A BigReal operator: kernel(a, b, prec), a = self and b = other (or
    the swap), at the smaller digits of the two; another number is first
    rounded to self's bits."""

    def op(self, other):
        if type(other) is BigReal:
            bm, be, at = other.man, other.exp, other if other.digits < self.digits else self
        else:
            (bm, be), at = _parse(other, self.prec), self
        if swap:
            return _real(*kernel(bm, be, self.man, self.exp, at.prec), at.digits, at.prec)
        return _real(*kernel(self.man, self.exp, bm, be, at.prec), at.digits, at.prec)

    return op


def _compares(test):
    return lambda self, other: test(self._cmp(other), 0)


class BigReal:
    """A real number man 2^exp (man odd, or zero) at ``digits`` decimal
    digits, whose operations run at ``prec`` bits, those of digits + GUARD."""

    __slots__ = ("man", "exp", "digits", "prec")

    def __init__(self, x, digits: int):
        """x at ``digits``: a BigReal's or an mpf's bits as they are, or an
        int, Fraction, str or float rounded to the working bits.  A complex,
        infinite or nan value raises ``ValueError``."""
        if digits < MIN_DIGITS:
            raise PrecisionError(f"digits must be >= {MIN_DIGITS}, got {digits}")
        self.digits, self.prec = digits, _bits(digits + GUARD)
        self.man, self.exp = _parse(x, self.prec)

    __add__ = __radd__ = _binary(_add)
    __sub__ = _binary(lambda am, ae, bm, be, prec: _add(am, ae, -bm, be, prec))
    __rsub__ = _binary(lambda am, ae, bm, be, prec: _add(am, ae, -bm, be, prec), swap=True)
    __mul__ = __rmul__ = _binary(lambda am, ae, bm, be, prec: _round(am * bm, ae + be, prec))
    __truediv__, __rtruediv__ = _binary(_div), _binary(_div, swap=True)

    def __neg__(self):
        return _real(-self.man, self.exp, self.digits, self.prec)

    def __abs__(self):
        return _real(abs(self.man), self.exp, self.digits, self.prec)

    def __pow__(self, e):
        """Principal real power for int or rational exponents."""
        if e < 0 and not self.man:
            raise ValueError("a negative power of zero")
        if isinstance(e, int):
            return _real(*_pow_int(self.man, self.exp, e, self.prec), self.digits, self.prec)
        if self.man < 0:
            raise ValueError("fractional power of a negative value")
        e = Fraction(e)
        power = _power(self.man, self.exp, e.numerator, e.denominator, self.prec)
        return _real(*power, self.digits, self.prec)

    def sqrt(self) -> "BigReal":
        return _real(*_sqrt(self.man, self.exp, self.prec), self.digits, self.prec)

    def _cmp(self, other):
        """The sign of self - other, other rounded to self's bits.  An
        infinite or nan float gives -other, which compares with 0 as the
        difference would."""
        if type(other) is float and not math.isfinite(other):
            return -other
        m, e = (other.man, other.exp) if type(other) is BigReal else _parse(other, self.prec)
        return _compare(self.man, self.exp, m, e)

    __lt__, __le__ = _compares(operator.lt), _compares(operator.le)
    __gt__, __ge__ = _compares(operator.gt), _compares(operator.ge)

    def __eq__(self, other):
        if isinstance(other, (BigReal, int, Fraction, float)) or hasattr(other, "_mpf_"):
            return self._cmp(other) == 0
        return NotImplemented

    __hash__ = None  # mutable

    def __round__(self, ndigits=None) -> int:
        """The nearest integer, ties to even, rounded to the working bits
        (mpmath's nint at this precision, not at its 53 bits)."""
        m, e = self.man, self.exp
        if m and e + m.bit_length() > MAX_FIXED_BITS:
            raise ValueError(f"{self.nstr(5)} is too large to round to an integer")
        if e + m.bit_length() < 0:  # below 1/2
            return 0
        if e < 0:
            m, r = divmod(m, 1 << -e)
            m += 2 * r > 1 << -e or (2 * r == 1 << -e and m & 1)
            e = 0
        m, e = _round(m, e, self.prec)
        return m << e

    def nstr(self, n: int | None = None) -> str:
        """The value to n significant digits (default: its digits), byte for
        byte as ``mpmath.nstr`` prints it."""
        return _to_str(self.man, self.exp, n or self.digits)

    def with_digits(self, digits: int) -> "BigReal":
        """The same value, with later operations at ``digits``."""
        return BigReal(self, digits)

    @property
    def value(self):
        """The value as an mpmath ``mpf`` with these bits, for callers that
        want one; the package's only import of mpmath, made on first use."""
        import mpmath

        m = abs(self.man)
        return mpmath.mp.make_mpf((int(self.man < 0), m, self.exp, m.bit_length()))

    def __repr__(self):
        return f"BigReal({self.nstr(min(self.digits, 25))}, digits={self.digits})"


Number = int | Fraction | str | BigReal

_new = object.__new__


def _real(man: int, exp: int, digits: int, prec: int) -> BigReal:
    """A BigReal of a normalized (man, exp), with no checks."""
    x = _new(BigReal)
    x.man, x.exp, x.digits, x.prec = man, exp, digits, prec
    return x


def big_real(x: Number, digits: int) -> BigReal:
    """x as a BigReal: at the smaller of its digits and ``digits`` if it is
    one, else as ``BigReal(x, digits)`` makes it.  The strings "inf",
    "-inf" and "nan" give that float, which compares as its value does, so
    a caller's range check refuses it."""
    if isinstance(x, BigReal):
        return BigReal(x, min(digits, x.digits))
    if isinstance(x, str) and x.strip().lower() in ("inf", "+inf", "-inf", "nan"):
        return float(x)
    return BigReal(x, digits)


def pi_at(digits: int) -> BigReal:
    prec = _bits(digits + GUARD)
    return _real(*_pi(prec), digits, prec)


def _ten(e: int, digits: int) -> BigReal:
    """10^e at the working bits of ``digits``."""
    prec = _bits(digits + GUARD)
    return _real(*_ten_pow(e, prec), digits, prec)


def ten_to(e: int | Fraction) -> BigReal:
    """10^e at 30 digits' bits: every pass threshold and residual floor.
    An integer power has mpf_pow_int's bits; a fractional one,
    10^(n + r/d) with 0 < r < d, is correctly rounded: the d-th root of 10,
    to the r-th power, times 10^n."""
    prec, e = _bits(30), Fraction(e)
    if e.denominator == 1:
        return _real(*_ten_pow(e.numerator, prec), 30, _bits(30 + GUARD))
    n, r = divmod(e.numerator, e.denominator)

    def approx(w):  # each factor within 2^-(w + 3) of its value
        wr = w + r.bit_length() + 4
        pm, pe = _pow_int(*_root(10, 0, e.denominator, wr), r, wr)
        tm, te = _ten_pow(n, wr)
        return pm * tm, pe + te, (pm * tm >> w + 1) + 1

    return _real(*_ziv(approx, prec, 20), 30, _bits(30 + GUARD))


def residual_str(value: BigReal, digits: int) -> str:
    """A residual as printed in reports: five significant digits, floored at
    10^(-digits), so that a passing check prints the floor rather than
    rounding noise of the working precision."""
    return max(abs(value), ten_to(-digits)).nstr(5)


def _neg_log(man: int, exp: int) -> float:
    """-ln x in float for 0 < x = man 2^exp < 1, even below the float
    range: x = f 2^b with f in [1/2, 1), as -(log1p(f - 1) + b ln 2), with
    f - 1 rounded to 53 bits."""
    bc = man.bit_length()
    f = math.ldexp(*_round(man - (1 << bc), -bc, 53))
    return -(math.log1p(f) + (exp + bc) * math.log(2))


AGM_GUARD_BITS = 8  # three floors an iteration, for up to 80 iterations


def agm(a0, b0, wdps: int) -> tuple[BigReal, int]:
    """Arithmetic-geometric mean of a0, b0 > 0 (ints, BigReals or mpfs) at
    ``wdps`` decimal digits; returns the limit and the iteration count
    (quadratic convergence).

    The iteration runs on Python ints, A, B = (A + B) >> 1, isqrt(A B), in
    fixed point: the smaller operand gets wdps digits' bits plus
    ``AGM_GUARD_BITS``, and the larger as many more as the exponent spread
    of the two.  Every later iterate lies between them, and as the spread
    halves each iteration the low bits it no longer needs are dropped.  It
    stops once |A - B| <= 10^-(wdps-2) max(a0, b0).  The limit is returned
    exactly, at wdps - GUARD digits, for the caller to round.  A spread past
    ``MAX_FIXED_BITS`` fails: k_r passes it near r = 5.5e13."""
    bits = _bits(wdps) + AGM_GUARD_BITS
    (am, ae), (bm, be) = _parse(a0, bits), _parse(b0, bits)
    if not (am > 0 and bm > 0):
        raise ValueError("the AGM needs positive arguments")
    ea, eb = ae + am.bit_length(), be + bm.bit_length()  # the magnitudes
    if abs(ea - eb) > MAX_FIXED_BITS:
        raise ValueError(f"a modulus below 2^-{MAX_FIXED_BITS} is out of the AGM's range")
    shift = bits - min(ea, eb)
    a, b = _fixed(am, ae, shift), _fixed(bm, be, shift)  # exact, then floored
    tol = max(a, b) // 10 ** (wdps - 2)
    count = 0
    while abs(a - b) > tol:
        a, b = (a + b) >> 1, math.isqrt(a * b)  # so b <= a
        drop = b.bit_length() - bits
        if drop > 0:
            a, b, tol, shift = a >> drop, b >> drop, tol >> drop, shift - drop
        count += 1
        if count > 10000:
            raise CertificationError("AGM failed to converge")
    digits = max(wdps - GUARD, MIN_DIGITS)
    return _real(*_round(a, -shift, a.bit_length()), digits, _bits(digits + GUARD)), count


def _agm_quotient(x: BigReal, y: BigReal) -> BigReal:
    """agm(1, x) / agm(1, y), at the digits of x and y."""
    wd = x.digits + GUARD
    return agm(1, x, wd)[0].with_digits(x.digits) / agm(1, y, wd)[0].with_digits(y.digits)


_last_agm_iterations = 0


def last_agm_iterations() -> int:
    return _last_agm_iterations


def ellipk(x: Number, digits: int | None = None) -> BigReal:
    """Complete elliptic integral of the first kind as a function of the
    modulus, K(x) = pi / (2 agm(1, sqrt(1-x^2))), for 0 <= x < 1."""
    global _last_agm_iterations
    if isinstance(x, BigReal) and digits is None:
        digits = x.digits
    if digits is None:
        raise PrecisionError("digits required when x is not a BigReal")
    x = BigReal(x, digits)
    if x < 0:
        raise ValueError("modulus must be nonnegative")
    if x >= 1:
        raise ValueError("modulus must be < 1")
    kp = (1 - x * x).sqrt()
    m_val, iters = agm(1, kp, digits + GUARD)
    _last_agm_iterations = iters
    prec = x.prec
    two_m = _round(m_val.man, m_val.exp + 1, prec)
    return _real(*_div(*_pi(prec), *two_m, prec), digits, prec)


def nome_from_r(r: Number, digits: int) -> BigReal:
    """q = exp(-pi sqrt(r)) for r > 0."""
    prec = _bits(digits + GUARD)
    rm, re_ = _parse(r, prec)
    if rm <= 0:
        raise ValueError("r must be positive")
    (pm, pe), (sm, se) = _pi(prec), _sqrt(rm, re_, prec)
    return _real(*_exp(*_round(-pm * sm, pe + se, prec), prec), digits, prec)


EvalPoint = namedtuple("EvalPoint", "r q k kprime")
EvalPoint.__doc__ = """A singular argument: r, its nome q, the modulus k and k'.
A tuple, so that code that walks tuples (perfbench's fingerprint of an
output) reaches every field's bits."""


def singular_modulus(r: Number, digits: int) -> EvalPoint:
    """Singular modulus k_r = theta2^2 / theta3^2 at q = e^(-pi sqrt r), with
    theta3 = theta_sum(1, 0) and theta2^2 = sqrt(q) theta_sum(1, 1)^2 (both
    non-alternating), certified by K(k')/K(k) = agm(1, k')/agm(1, k) = sqrt r.
    A k within 10^-(digits + GUARD) of 1 is noise and raises ``ValueError``.

    Every call computes the point afresh.  Callers that ask for the same
    rational r many times in one run (the catalog's closed forms and the
    miner's modulus bindings) share points through ``singular_point``.  The
    callers that ask once per point (``eval --fn k``, and ``s_n``, whose r
    is irrational) call this directly: a memo would save them nothing, and
    this function stays uncached so that its timings show the kernel."""
    q = nome_from_r(r, digits)
    theta2 = theta_sum(1, 1, q, alternating=False)
    theta3 = theta_sum(1, 0, q, alternating=False)
    k = q.sqrt() * (theta2 / theta3) ** 2
    if 1 - k < _ten(-digits - GUARD, digits):
        raise ValueError(f"singular modulus k_r rounds to 1 at r={r} with {digits} digits")
    kprime = (1 - k * k).sqrt()
    resid = abs(_agm_quotient(kprime, k) - BigReal(r, digits).sqrt())
    if resid > _ten(-digits + 5, digits):
        raise CertificationError(
            f"singular modulus certification failed at r={r}: residual {resid.nstr(5)}"
        )
    return EvalPoint(r=r, q=q, k=k, kprime=kprime)


POINT_CACHE_SIZE = 32  # distinct (r, digits) points kept by singular_point


@lru_cache(maxsize=POINT_CACHE_SIZE)
def _cached_point(r: Fraction, digits: int) -> EvalPoint:
    return singular_modulus(r, digits)


def singular_point(r: Rat | str, digits: int) -> EvalPoint:
    """The ``EvalPoint`` of ``singular_modulus(Fraction(r), digits)``, shared:
    the first request for a (Fraction(r), digits) computes it and the last
    ``POINT_CACHE_SIZE`` points are kept.  A point's values depend on
    (r, digits) alone, so a shared point equals a fresh one field by
    field; a request that raises is not kept."""
    return _cached_point(Fraction(r), digits)


def inverse_modulus(x: Number, digits: int | None = None) -> BigReal:
    """k_i(x) = (K(x') / K(x))^2 for 0 < x < 1, with x' = sqrt(1-x^2),
    taken as (agm(1, x') / agm(1, x))^2, which never forms sqrt(1-x'^2)."""
    if isinstance(x, BigReal) and digits is None:
        digits = x.digits
    if digits is None:
        raise PrecisionError("digits required when x is not a BigReal")
    x = BigReal(x, digits)
    if not (0 < x < 1):
        raise ValueError("inverse modulus needs 0 < x < 1")
    ratio = _agm_quotient((1 - x * x).sqrt(), x)
    return ratio * ratio

def _term_count(a: Fraction, b: Fraction, t: float, wd: int) -> int:
    """A window |n| <= n0 past which every term at q = e^-t is below 10^-wd:
    about sqrt(need / a), need = wd ln 10 / t, as |b| <= a.  A window past
    ``MAX_TERMS``, or a leaving the float range, is a ``ValueError``."""
    try:
        need = wd * math.log(10) / t
        af, bf = float(a), abs(float(b))
        if need <= af * MAX_TERMS ** 2:
            return int((bf + math.sqrt(bf * bf + 4 * af * need)) / (2 * af)) + 2
    except (OverflowError, ZeroDivisionError):
        pass
    raise ValueError(f"theta sum: a ln(1/q) is too small ({MAX_TERMS}+ terms) or a too large")


def _walk(ratio: int, step: int, n0: int, prec: int, guard: int) -> tuple[int, int]:
    """S = T_1 + ... + T_n0 and T_n0 in fixed point at ``prec`` bits, where
    T_0 = 1, T_m = T_(m-1) ratio_m, ratio_1 = ``ratio`` and each next ratio
    is the last times ``step``.

    Each step first drops the low bits of the ratio and of ``step`` whose
    products with the term fall below 2^-guard of the last place: with B
    the bit length of the term, both keep their top B + guard bits, so the
    products shrink as the terms fall.  ``guard`` >= ``prec`` drops
    nothing."""
    term, total = 1 << prec, 0
    for _ in range(n0):
        cut = max(prec - term.bit_length() - guard, 0)
        r = ratio >> cut
        term = term * r >> (prec - cut)
        total += term
        ratio = r * (step >> cut) >> (prec - cut) << cut
    return total, term


def _fold(up: int, down: int, ad: int, bd: int, n0: int, prec: int, guard: int) -> int:
    """1 + the walks T_1..T_n0 by ``up`` and by ``down``, in fixed point,
    walking one side only where the other mirrors it.

    When bd = 0, up = down and the sides are one walk: 1 + 2 S.  When
    bd = +-ad the vertex is a half-integer and one ratio is exactly 1, so
    that side is the other shifted by one: 2 (1 + S) - T_n0.  Both are the
    two-sided sum bit for bit."""
    one = 1 << prec
    step = up * down >> prec
    if bd == 0:
        return one + 2 * _walk(up, step, n0, prec, guard)[0]
    if abs(bd) == ad:
        s, last = _walk(up if bd == ad else down, step, n0, prec, guard)
        return 2 * (one + s) - last
    s_up, s_down = (_walk(r, step, n0, prec, guard)[0] for r in (up, down))
    return one + s_up + s_down


def theta_sum(
    a: Fraction | int,
    b: Fraction | int,
    q: BigReal,
    digits: int | None = None,
    alternating: bool = True,
    cancel: int = 0,
) -> BigReal:
    """Bilateral sum of (+-1)^n q^(a n^2 + b n), with no log or exp.

    With n = c + m, c the integer nearest -b/(2a), the sum is the head
    (+-1)^c q^(a c^2 + b c) times a walk out from its largest term m = 0 over
    |m| <= n0, past which every term is below the working tolerance.  Each
    term is the last one times a ratio <= 1, and each ratio the last one times
    q^(2a), all integer powers of q^(1/D), D = lcm(den a, den b).  The walk
    runs in Python-int fixed point at ``prec`` bits (see ``_walk``), one side
    only when the other mirrors it (see ``_fold``).

    Error budget, in units u = 2^-prec of the largest term.  Each step
    floors a term and a ratio, < 1 u each, which later factors <= 1 carry on
    without growth: about 4 n0 u in all, which the (4 n0).bit_length() guard
    bits of ``prec`` hold near 2^-ceil(wd log2 10).  The taper adds < 2^-g u
    to each product, and < 3 2^-g u of ratio error per step, which reaches
    the m-th term as < 3m 2^-g u; with g = (4 n0).bit_length() + 4 that is
    < 1/16 u a step, n0/8 u in all.

    The budget is in units of the largest term, so a sum that cancels below
    it loses digits.  ``cancel`` is how many the caller expects it to lose;
    they are added to the working precision.  A sum that loses more than
    that plus half the guard digits (near an odd b/a, or a nome near 1) is
    summed again with the digits it lost added."""
    a = Fraction(a)
    b = Fraction(b)
    if a <= 0:
        raise ValueError("theta evaluation requires a > 0")
    if digits is None:
        digits = q.digits
    if not (q.man > 0 and q < 1):
        raise ValueError("theta evaluation requires 0 < q < 1")
    # the exponents on the grid q^(1/D): a n^2 + b n = (A n^2 + B n) / D
    D = math.lcm(a.denominator, b.denominator)
    A, B = a.numerator * (D // a.denominator), b.numerator * (D // b.denominator)
    if alternating and B % A == 0 and (B // A) % 2:
        return _real(0, 0, digits, _bits(digits + GUARD))  # terms n, -b/a - n cancel in pairs
    c, rem = divmod(-B, 2 * A)
    c += rem > A or (rem == A and c % 2)  # -B / 2A rounded half to even
    # the vertex's exponent (b + 2 a c) D; |bd| <= A, and bd = +-A only when
    # b/a is odd, so never alternating
    bd = B + 2 * A * c
    e_head = bd * c - A * c * c
    negate_head = alternating and c % 2
    sign = -1 if alternating else 1
    t = _neg_log(q.man, q.exp)
    b_vertex = Fraction(bd, D)
    while True:
        wd = digits + GUARD + cancel
        n0 = _term_count(a, b_vertex, t, wd)
        guard = (4 * n0).bit_length()  # for the walk's floors; its taper takes 4 more
        prec = math.ceil(wd * math.log2(10)) + guard
        # a power of the root q^(1/D) multiplies its relative error by the
        # exponent, so the root and its powers take that many more bits
        wp = prec + max(abs(e_head), A + abs(bd)).bit_length()
        root = _power(q.man, q.exp, 1, D, wp)
        hm, he = _pow_int(*root, e_head, wp)
        up = sign * _fixed(*_pow_int(*root, A + bd, wp), prec)
        down = sign * _fixed(*_pow_int(*root, A - bd, wp), prec)
        total = _fold(up, down, A, bd, n0, prec, guard + 4)
        # the digits the sum lost below its largest term, 2^prec
        lost = math.floor((prec - abs(total).bit_length()) * math.log10(2))
        if wd - lost >= digits + GUARD // 2:
            break
        cancel = lost
    out = _bits(wd)
    tm, te = _round(total, -prec, out)
    value = _round(-tm * hm if negate_head else tm * hm, te + he, out)
    return _real(*value, digits, _bits(digits + GUARD))


def eval_eta(p, q: BigReal, digits: int | None = None) -> BigReal:
    """prod_{n>=1} (1 - q^(np)), summed by Euler's pentagonal theorem as
    theta_sum(3p/2, -p/2, q).

    The largest term of that sum is 1 while the product can be tiny as
    q -> 1, so the sum runs with extra digits covering the cancellation:
    -ln prod = sum_m 1/(m (e^(tm) - 1)) <= pi^2/(6t) with t = -p ln q.
    """
    p = Fraction(p)
    if p <= 0:
        raise ValueError("eta scale must be positive")
    if digits is None:
        digits = q.digits
    if not (q.man > 0 and q < 1):
        raise ValueError("eta evaluation requires 0 < q < 1")
    try:
        cancel = math.ceil(math.pi ** 2 / (6 * float(p) * _neg_log(q.man, q.exp) * math.log(10)))
    except (OverflowError, ZeroDivisionError):
        raise ValueError("eta with this scale p and nome q leaves the float range") from None
    total = theta_sum(3 * p / 2, -p / 2, q, digits, cancel=cancel)
    prec = _bits(digits + GUARD)
    return _real(*_round(total.man, total.exp, prec), digits, prec)


def eval_A(spec: ThetaSpec, q: BigReal, digits: int | None = None) -> BigReal:
    """Direct numeric value of the theta quotient at a real nome; 0 before any
    eta when the quotient is identically zero (``ThetaSpec.is_zero``)."""
    if digits is None:
        digits = q.digits
    th = theta_sum(spec.p / 2, spec.p / 2 - spec.a, q, digits)
    if spec.is_zero:
        return th
    et = eval_eta(spec.p, q, digits)
    prec = _bits(digits + GUARD)
    d = spec.delta
    hm, he = _power(q.man, q.exp, d.numerator, d.denominator, prec)
    vm, ve = _round(hm * th.man, he + th.exp, prec)
    return _real(*_div(vm, ve, et.man, et.exp, prec), digits, prec)


def eval_h5(x: BigReal, digits: int | None = None) -> BigReal:
    """eta(x^(1/5)) / (x^(1/5) eta(x^5)) at a real argument in (0,1)."""
    if digits is None:
        digits = x.digits
    x15 = x ** Fraction(1, 5)
    return eval_eta(1, x15, digits) / (x15 * eval_eta(1, x ** 5, digits))


def eval_eta5(x: BigReal, digits: int | None = None) -> BigReal:
    """Positive root of y^2 + (1 + h5(x)) y - 1 = 0, written with the
    rationalized radical 2 / (1 + h5 + sqrt(5 + 2 h5 + h5^2)): h5 > 0 on
    (0, 1), so nothing cancels, even where h5 ~ x^(-1/5) is large."""
    h = eval_h5(x, digits)
    return 2 / (1 + h + (5 + 2 * h + h * h).sqrt())


def real_eval_series(u: PuiseuxSeries, q: BigReal, digits: int | None = None) -> BigReal:
    """The sum of an exact series' known terms at a real nome in (0,1); the
    truncation tail is not bounded here."""
    if digits is None:
        digits = q.digits
    if not (q.man > 0 and q < 1):
        raise ValueError("series evaluation requires 0 < q < 1")
    prec = _bits(digits + GUARD)
    root = _power(q.man, q.exp, 1, u.denom, prec)
    tm, te = 0, 0
    for k in sorted(u.nums):
        cm, ce = _parse(Fraction(u.nums[k], u.scale), prec)
        pm, pe = _pow_int(*root, k, prec)
        tm, te = _add(tm, te, *_round(cm * pm, ce + pe, prec), prec)
    return _real(tm, te, digits, prec)
