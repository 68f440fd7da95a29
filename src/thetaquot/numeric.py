"""Arbitrary-precision real evaluation.

BigReal wraps an mpmath float together with its working precision in
decimal digits.  Every kernel keeps ``digits + GUARD`` decimal digits of
working precision and reports at ``digits``; binary operations carry the
minimum of the operand precisions.

This is the only module that imports mpmath; the rest of the package
reaches the reals through BigReal and the functions here.  No function here
enters an mpmath context or reads its precision: each operation and kernel
runs at its own explicit bit count, ``dps_to_prec(digits + GUARD)`` unless
it says otherwise, calling ``mpmath.libmp`` on raw ``_mpf_`` tuples with
round-to-nearest.  Those are the calls mpmath's context made at that
precision, so the values are the ones it gave, and they do not depend on
the ambient ``mp.prec`` or on what other threads set it to.  The two hot
loops, ``theta_sum``'s walk and ``agm``, run on Python ints in fixed point,
and square roots on ``math.isqrt``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Union

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import (
    dps_to_prec,
    fone,
    from_float,
    from_int,
    from_man_exp,
    from_rational,
    from_str,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_eq,
    mpf_exp,
    mpf_frexp,
    mpf_ge,
    mpf_gt,
    mpf_le,
    mpf_lt,
    mpf_mul,
    mpf_mul_int,
    mpf_neg,
    mpf_nint,
    mpf_nthroot,
    mpf_pi,
    mpf_pos,
    mpf_pow,
    mpf_pow_int,
    mpf_shift,
    mpf_sub,
    round_nearest,
    to_fixed,
    to_float,
    to_int,
)

from .series import MAX_TERMS, PuiseuxSeries, Rat, ThetaSpec

GUARD = 15
MIN_DIGITS = 20
MAX_FIXED_BITS = 2 ** 24  # the widest int made from a real: an AGM argument or a round()

Number = Union[int, Fraction, str, mpf, "BigReal"]

__all__ = [
    "BigReal",
    "EvalPoint",
    "GUARD",
    "MIN_DIGITS",
    "big_real",
    "pi_at",
    "agm",
    "ellipk",
    "last_agm_iterations",
    "singular_modulus",
    "singular_point",
    "inverse_modulus",
    "nome_from_r",
    "theta_sum",
    "eval_eta",
    "eval_A",
    "eval_h5",
    "eval_eta5",
    "real_eval_series",
    "residual_str",
    "ten_to",
]

RND = round_nearest
_make_mpf = mp.make_mpf  # wraps a raw tuple as it is, with no rounding


class PrecisionError(ValueError):
    pass


class CertificationError(ArithmeticError):
    """An internal consistency check failed beyond tolerance."""


def _prec(digits: int) -> int:
    """The working bit count of a value reported at ``digits``."""
    return dps_to_prec(digits + GUARD)


def _raw(x, prec: int) -> tuple:
    """x as a raw ``_mpf_`` tuple: a BigReal or mpf as it is, and an int,
    Fraction, str or float rounded to ``prec`` bits as ``mpf(x)`` rounds it
    (a Fraction's numerator first, then the quotient by its denominator)."""
    if isinstance(x, BigReal):
        x = x.value
    if isinstance(x, mpf):
        return x._mpf_
    if isinstance(x, int):
        return from_int(x, prec, RND)
    if isinstance(x, Fraction):
        return mpf_div(from_int(x.numerator, prec, RND), from_int(x.denominator), prec, RND)
    if isinstance(x, str):
        return from_str(x, prec, RND)
    if isinstance(x, float):
        return from_float(x, prec, RND)
    raise TypeError(f"cannot make a real number of {x!r}")


def _real(t: tuple, digits: int) -> "BigReal":
    return BigReal(_make_mpf(t), digits)


def _sqrt(x: tuple, prec: int) -> tuple:
    """The square root of a raw x >= 0, correctly rounded to ``prec`` bits,
    ties to even: ``mpf_sqrt(x, prec, round_nearest)``, with the integer
    root taken by ``math.isqrt``.  The shifted mantissa carries at least
    2 prec + 4 bits, so its root has prec + 2; an inexact root gets a
    sticky bit below them, which rounding to nearest needs."""
    sign, man, exp, bc = x
    if sign:
        raise ValueError("square root of a negative value")
    if not man:
        return x
    if exp & 1:
        exp, man, bc = exp - 1, man << 1, bc + 1
    shift = max(4, 2 * prec - bc + 4)
    shift += shift & 1
    man <<= shift
    root = math.isqrt(man)
    if root * root != man:
        root, shift = (root << 1) | 1, shift + 2
    return from_man_exp(root, (exp - shift) // 2, prec, RND)


def _power(x: tuple, num: int, den: int, prec: int) -> tuple:
    """x^(num/den) for a raw x >= 0 and num/den in lowest terms, as an
    integer power of x^(1/den), with no log or exp.  A Newton step mends
    ``mpf_nthroot``, 1e-766 off at den = 55 and 815 digits; an integer
    exponent needs neither.  The step's y^den and the power multiply a
    relative error by den and by num, so both run with the exponent's bit
    length in extra bits, as ``theta_sum`` takes its root, and the result
    is rounded to ``prec``."""
    if den == 1:
        return mpf_pow_int(x, num, prec, RND)
    wp = prec + max(abs(num), den).bit_length()
    y = mpf_nthroot(x, den, wp, RND)
    if y != fzero:
        # y += y (x / y^den - 1) / den
        step = mpf_sub(mpf_div(x, mpf_pow_int(y, den, wp, RND), wp, RND), fone, wp, RND)
        step = mpf_div(mpf_mul(y, step, wp, RND), from_int(den), wp, RND)
        y = mpf_add(y, step, wp, RND)
    return mpf_pos(mpf_pow_int(y, num, wp, RND), prec, RND)


def _ten_pow(e: int, prec: int) -> tuple:
    return mpf_pow_int(from_int(10), e, prec, RND)


@dataclass(frozen=True)
class BigReal:
    """Arbitrary-precision real with explicit decimal working precision."""

    value: mpf
    digits: int

    def __post_init__(self):
        if self.digits < MIN_DIGITS:
            raise PrecisionError(f"digits must be >= {MIN_DIGITS}, got {self.digits}")

    def _bin(self, other, op, swap: bool = False) -> "BigReal":
        digits = min(self.digits, other.digits) if isinstance(other, BigReal) else self.digits
        prec = _prec(digits)
        a, b = self.value._mpf_, _raw(other, prec)
        if swap:
            a, b = b, a
        return _real(op(a, b, prec, RND), digits)

    def __add__(self, other):
        return self._bin(other, mpf_add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._bin(other, mpf_sub)

    def __rsub__(self, other):
        return self._bin(other, mpf_sub, swap=True)

    def __mul__(self, other):
        return self._bin(other, mpf_mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._bin(other, mpf_div)

    def __rtruediv__(self, other):
        return self._bin(other, mpf_div, swap=True)

    def __neg__(self):
        return _real(mpf_neg(self.value._mpf_), self.digits)

    def __abs__(self):
        return _real(mpf_abs(self.value._mpf_), self.digits)

    def __pow__(self, e):
        """Principal real power for int or rational exponents."""
        if e < 0 and not self.value:
            raise ValueError("a negative power of zero")
        if not isinstance(e, int) and self.value < 0:
            raise ValueError("fractional power of a negative value")
        prec = _prec(self.digits)
        if isinstance(e, int):
            return _real(mpf_pow_int(self.value._mpf_, e, prec, RND), self.digits)
        e = Fraction(e)
        return _real(_power(self.value._mpf_, e.numerator, e.denominator, prec), self.digits)

    def sqrt(self) -> "BigReal":
        return _real(_sqrt(self.value._mpf_, _prec(self.digits)), self.digits)

    def _cmp_raw(self, other) -> tuple:
        return _raw(other, _prec(self.digits))

    def __lt__(self, other):
        return mpf_lt(self.value._mpf_, self._cmp_raw(other))

    def __le__(self, other):
        return mpf_le(self.value._mpf_, self._cmp_raw(other))

    def __gt__(self, other):
        return mpf_gt(self.value._mpf_, self._cmp_raw(other))

    def __ge__(self, other):
        return mpf_ge(self.value._mpf_, self._cmp_raw(other))

    def __eq__(self, other):
        if isinstance(other, (BigReal, int, Fraction, mpf, float)):
            return mpf_eq(self.value._mpf_, self._cmp_raw(other))
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __float__(self):
        return to_float(self.value._mpf_, rnd=RND)

    def __round__(self, ndigits=None) -> int:
        """The nearest integer, at the working precision (not mpmath's 53 bits)."""
        if mpmath.mag(self.value) > MAX_FIXED_BITS:
            raise ValueError(f"{self.nstr(5)} is too large to round to an integer")
        return to_int(mpf_nint(self.value._mpf_, _prec(self.digits), RND))

    def nstr(self, n: int | None = None) -> str:
        return mpmath.nstr(self.value, n or self.digits)

    def with_digits(self, digits: int) -> "BigReal":
        """The same value, with later operations at ``digits``."""
        return BigReal(self.value, digits)

    def __repr__(self):
        return f"BigReal({mpmath.nstr(self.value, min(self.digits, 25))}, digits={self.digits})"


def big_real(x: Number, digits: int) -> BigReal:
    if isinstance(x, BigReal):
        return BigReal(x.value, min(digits, x.digits))
    return _real(_raw(x, _prec(digits)), digits)


def pi_at(digits: int) -> BigReal:
    return _real(mpf_pi(_prec(digits), RND), digits)


def ten_to(e: int | Fraction | float) -> BigReal:
    """10^e at 30 digits: every pass threshold and residual floor.  A
    Fraction exponent is first rounded down to 30 digits' bits, as
    mpmath's conversion of a rational rounds it."""
    prec = dps_to_prec(30)
    if isinstance(e, int):
        return _real(_ten_pow(e, prec), 30)
    if isinstance(e, Fraction):
        t = from_rational(e.numerator, e.denominator, prec)
    else:
        t = from_float(e)
    return _real(mpf_pow(from_int(10), t, prec, RND), 30)


def residual_str(value: BigReal, digits: int) -> str:
    """A residual as printed in reports: five significant digits, floored at
    10^(-digits), so that a passing check prints the floor rather than
    rounding noise of the working precision."""
    return max(abs(value), ten_to(-digits)).nstr(5)


def _neg_log(x: tuple) -> float:
    """-ln x in float for a raw 0 < x < 1, even below the float range."""
    man, exp = mpf_frexp(x)
    return -(math.log1p(to_float(mpf_sub(man, fone, 53, RND), rnd=RND)) + exp * math.log(2))


AGM_GUARD_BITS = 8  # three floors an iteration, for up to 80 iterations


def agm(a0: int | mpf, b0: int | mpf, wdps: int) -> tuple[mpf, int]:
    """Arithmetic-geometric mean of a0, b0 > 0 at ``wdps`` decimal digits;
    returns the limit and the iteration count (quadratic convergence).

    The iteration runs on Python ints, A, B = (A + B) >> 1, isqrt(A B), in
    fixed point: the smaller operand gets wdps digits' bits plus
    ``AGM_GUARD_BITS``, and the larger as many more as the exponent spread
    of the two.  Every later iterate lies between them, and as the spread
    halves each iteration the low bits it no longer needs are dropped.  It
    stops once |A - B| <= 10^-(wdps-2) max(a0, b0).  The limit is returned
    exactly, for the caller to round.  A spread past ``MAX_FIXED_BITS`` fails:
    k_r passes it near r = 5.5e13."""
    if not (a0 > 0 and b0 > 0):
        raise ValueError("the AGM needs positive arguments")
    a0, b0 = (from_int(x) if isinstance(x, int) else x._mpf_ for x in (a0, b0))
    ea, eb = a0[2] + a0[3], b0[2] + b0[3]  # exponent + bit count: the magnitude
    if abs(ea - eb) > MAX_FIXED_BITS:
        raise ValueError(f"a modulus below 2^-{MAX_FIXED_BITS} is out of the AGM's range")
    bits = dps_to_prec(wdps) + AGM_GUARD_BITS
    shift = bits - min(ea, eb)
    a, b = to_fixed(a0, shift), to_fixed(b0, shift)  # exact, then floored
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
    return _make_mpf(mpf_shift(from_int(a), -shift)), count


def _agm_quotient(x: BigReal, y: BigReal) -> BigReal:
    """agm(1, x) / agm(1, y), at the digits of x and y."""
    wd = x.digits + GUARD
    return BigReal(agm(1, x.value, wd)[0], x.digits) / BigReal(agm(1, y.value, wd)[0], y.digits)


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
    if isinstance(x, BigReal) and not isinstance(x.value, mpf):
        raise ValueError("modulus must be real")
    prec = _prec(digits)
    x = _real(_raw(x, prec), digits)
    if x < 0:
        raise ValueError("modulus must be nonnegative")
    if x >= 1:
        raise ValueError("modulus must be < 1")
    kp = (1 - x * x).sqrt()
    m_val, iters = agm(1, kp.value, digits + GUARD)
    _last_agm_iterations = iters
    two_m = mpf_mul_int(m_val._mpf_, 2, prec, RND)
    return _real(mpf_div(mpf_pi(prec, RND), two_m, prec, RND), digits)


def nome_from_r(r: Number, digits: int) -> BigReal:
    """q = exp(-pi sqrt(r)) for r > 0."""
    prec = _prec(digits)
    rv = _raw(r, prec)
    if mpf_le(rv, fzero):
        raise ValueError("r must be positive")
    t = mpf_mul(mpf_neg(mpf_pi(prec, RND)), _sqrt(rv, prec), prec, RND)
    return _real(mpf_exp(t, prec, RND), digits)


@dataclass(frozen=True)
class EvalPoint:
    """A singular argument: r, its nome q, the modulus k and k'."""

    r: object
    q: BigReal
    k: BigReal
    kprime: BigReal


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
    wd = digits + GUARD
    prec = _prec(digits)
    q = nome_from_r(r, digits)
    theta2 = theta_sum(1, 1, q, alternating=False)
    theta3 = theta_sum(1, 0, q, alternating=False)
    k = q.sqrt() * (theta2 / theta3) ** 2
    if 1 - k < _make_mpf(_ten_pow(-wd, prec)):
        raise ValueError(f"singular modulus k_r rounds to 1 at r={r} with {digits} digits")
    kprime = (1 - k * k).sqrt()
    resid = abs(_agm_quotient(kprime, k) - _real(_raw(r, prec), digits).sqrt())
    if resid > _make_mpf(_ten_pow(-digits + 5, prec)):
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
    ``POINT_CACHE_SIZE`` points are kept.  A point's values do not depend on
    the ambient precision, so a shared point equals a fresh one field by
    field; a request that raises is not kept."""
    return _cached_point(Fraction(r), digits)


def inverse_modulus(x: Number, digits: int | None = None) -> BigReal:
    """k_i(x) = (K(x') / K(x))^2 for 0 < x < 1, with x' = sqrt(1-x^2),
    taken as (agm(1, x') / agm(1, x))^2, which never forms sqrt(1-x'^2)."""
    if isinstance(x, BigReal) and digits is None:
        digits = x.digits
    if digits is None:
        raise PrecisionError("digits required when x is not a BigReal")
    x = _real(_raw(x, _prec(digits)), digits)
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
    if not (0 < q.value < 1):
        raise ValueError("theta evaluation requires 0 < q < 1")
    qv = q.value._mpf_
    # the exponents on the grid q^(1/D): a n^2 + b n = (A n^2 + B n) / D
    D = math.lcm(a.denominator, b.denominator)
    A, B = a.numerator * (D // a.denominator), b.numerator * (D // b.denominator)
    if alternating and B % A == 0 and (B // A) % 2:
        return _real(fzero, digits)  # terms n, -b/a - n cancel in pairs
    c, rem = divmod(-B, 2 * A)
    c += rem > A or (rem == A and c % 2)  # -B / 2A rounded half to even
    # the vertex's exponent (b + 2 a c) D; |bd| <= A, and bd = +-A only when
    # b/a is odd, so never alternating
    bd = B + 2 * A * c
    e_head = bd * c - A * c * c
    negate_head = alternating and c % 2
    sign = -1 if alternating else 1
    t = _neg_log(qv)
    b_vertex = Fraction(bd, D)
    while True:
        wd = digits + GUARD + cancel
        n0 = _term_count(a, b_vertex, t, wd)
        guard = (4 * n0).bit_length()  # for the walk's floors; its taper takes 4 more
        prec = math.ceil(wd * math.log2(10)) + guard
        # a power of the root q^(1/D) multiplies its relative error by the
        # exponent, so the root and its powers take that many more bits
        wp = prec + max(abs(e_head), A + abs(bd)).bit_length()
        root = _power(qv, 1, D, wp)
        head = mpf_pow_int(root, e_head, wp, RND)
        if negate_head:
            head = mpf_neg(head)
        up = sign * to_fixed(mpf_pow_int(root, A + bd, wp, RND), prec)
        down = sign * to_fixed(mpf_pow_int(root, A - bd, wp, RND), prec)
        total = _fold(up, down, A, bd, n0, prec, guard + 4)
        # the digits the sum lost below its largest term, 2^prec
        lost = math.floor((prec - abs(total).bit_length()) * math.log10(2))
        if wd - lost >= digits + GUARD // 2:
            break
        cancel = lost
    out = dps_to_prec(wd)
    return _real(mpf_mul(from_man_exp(total, -prec, out, RND), head, out, RND), digits)


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
    if not (0 < q.value < 1):
        raise ValueError("eta evaluation requires 0 < q < 1")
    try:
        cancel = math.ceil(math.pi ** 2 / (6 * float(p) * _neg_log(q.value._mpf_) * math.log(10)))
    except (OverflowError, ZeroDivisionError):
        raise ValueError("eta with this scale p and nome q leaves the float range") from None
    total = theta_sum(3 * p / 2, -p / 2, q, digits, cancel=cancel)
    return _real(mpf_pos(total.value._mpf_, _prec(digits), RND), digits)


def eval_A(spec: ThetaSpec, q: BigReal, digits: int | None = None) -> BigReal:
    """Direct numeric value of the theta quotient at a real nome; 0 before any
    eta when p divides a, as b/a = 1 - 2a/p of its theta sum is then odd."""
    if digits is None:
        digits = q.digits
    th = theta_sum(spec.p / 2, spec.p / 2 - spec.a, q, digits)
    if th.value == 0:
        return th
    et = eval_eta(spec.p, q, digits)
    prec = _prec(digits)
    d = spec.delta
    head = _power(q.value._mpf_, d.numerator, d.denominator, prec)
    value = mpf_div(mpf_mul(head, th.value._mpf_, prec, RND), et.value._mpf_, prec, RND)
    return _real(value, digits)


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
    if not (0 < q.value < 1):
        raise ValueError("series evaluation requires 0 < q < 1")
    prec = _prec(digits)
    root = _power(q.value._mpf_, 1, u.denom, prec)
    total = fzero
    for k in sorted(u.nums):
        coeff = _raw(Fraction(u.nums[k], u.scale), prec)
        term = mpf_mul(coeff, mpf_pow_int(root, k, prec, RND), prec, RND)
        total = mpf_add(total, term, prec, RND)
    return _real(total, digits)
