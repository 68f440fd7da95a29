"""Arbitrary-precision real evaluation.

BigReal wraps an mpmath float together with its working precision in
decimal digits.  Every kernel keeps ``digits + GUARD`` decimal digits of
working precision and reports at ``digits``; binary operations carry the
minimum of the operand precisions.

This is the only module that imports mpmath or sets its precision; the
rest of the package reaches the reals through BigReal and the functions
here.  Most kernels set that precision on mpmath's context.  The two hot
loops do not: ``theta_sum``'s walk and ``agm`` run on Python ints in fixed
point, with their bit counts passed explicitly.  The context is
process-global, so the functions here are not safe to call concurrently
from threads.  Run independent evaluations in separate processes instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Union

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec

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


class PrecisionError(ValueError):
    pass


class CertificationError(ArithmeticError):
    """An internal consistency check failed beyond tolerance."""


def _to_mpf(x, wdps: int) -> mpf:
    if isinstance(x, BigReal):
        return x.value
    if isinstance(x, mpf):
        return x
    with mp.workdps(wdps):
        if isinstance(x, Fraction):
            return mpf(x.numerator) / x.denominator
        return mpf(x)


@dataclass(frozen=True)
class BigReal:
    """Arbitrary-precision real with explicit decimal working precision."""

    value: mpf
    digits: int

    def __post_init__(self):
        if self.digits < MIN_DIGITS:
            raise PrecisionError(f"digits must be >= {MIN_DIGITS}, got {self.digits}")

    def _wd(self) -> int:
        return self.digits + GUARD

    def _bin(self, other, fn) -> "BigReal":
        if isinstance(other, BigReal):
            digits = min(self.digits, other.digits)
        else:
            digits = self.digits
        wd = digits + GUARD
        with mp.workdps(wd):
            return BigReal(fn(self.value, _to_mpf(other, wd)), digits)

    def __add__(self, other):
        return self._bin(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._bin(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._bin(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._bin(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._bin(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._bin(other, lambda a, b: b / a)

    def __neg__(self):
        return BigReal(-self.value, self.digits)

    def __abs__(self):
        return BigReal(abs(self.value), self.digits)

    def __pow__(self, e):
        """Principal real power for int or rational exponents."""
        if e < 0 and not self.value:
            raise ValueError("a negative power of zero")
        if not isinstance(e, int) and self.value < 0:
            raise ValueError("fractional power of a negative value")
        with mp.workdps(self._wd()):
            v = self.value ** e if isinstance(e, int) else _power(self.value, Fraction(e))
            return BigReal(v, self.digits)

    def sqrt(self) -> "BigReal":
        with mp.workdps(self._wd()):
            return BigReal(mpmath.sqrt(self.value), self.digits)

    def _cmp_value(self, other):
        return other.value if isinstance(other, BigReal) else _to_mpf(other, self._wd())

    def __lt__(self, other):
        return self.value < self._cmp_value(other)

    def __le__(self, other):
        return self.value <= self._cmp_value(other)

    def __gt__(self, other):
        return self.value > self._cmp_value(other)

    def __ge__(self, other):
        return self.value >= self._cmp_value(other)

    def __eq__(self, other):
        if isinstance(other, (BigReal, int, Fraction, mpf, float)):
            return self.value == self._cmp_value(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __float__(self):
        return float(self.value)

    def __round__(self, ndigits=None) -> int:
        """The nearest integer, at the working precision (not mpmath's 53 bits)."""
        if mpmath.mag(self.value) > MAX_FIXED_BITS:
            raise ValueError(f"{self.nstr(5)} is too large to round to an integer")
        with mp.workdps(self._wd()):
            return int(mpmath.nint(self.value))

    def nstr(self, n: int | None = None) -> str:
        return mpmath.nstr(self.value, n or self.digits)

    def __repr__(self):
        return f"BigReal({mpmath.nstr(self.value, min(self.digits, 25))}, digits={self.digits})"


def big_real(x: Number, digits: int) -> BigReal:
    if isinstance(x, BigReal):
        return BigReal(x.value, min(digits, x.digits))
    return BigReal(_to_mpf(x, digits + GUARD), digits)


def pi_at(digits: int) -> BigReal:
    with mp.workdps(digits + GUARD):
        return BigReal(+mp.pi, digits)


def ten_to(e: int | Fraction | float) -> mpf:
    """10^e at 30 digits: every pass threshold and residual floor."""
    with mp.workdps(30):
        return mpf(10) ** e


def residual_str(value, digits: int) -> str:
    """A residual as printed in reports: five significant digits, floored at
    10^(-digits), so that a passing check prints the floor rather than
    rounding noise of the working precision."""
    return mpmath.nstr(max(abs(value), ten_to(-digits)), 5)


def _power(x: mpf, e: Fraction) -> mpf:
    """x^e for x >= 0 as an integer power of x^(1/den e), with no log or exp.
    A Newton step mends ``mpmath.root``, 1e-766 off at n = 55 and 815 digits;
    an integer e needs neither.  The step's y^n and the power multiply a
    relative error by n and by the numerator, so both run with the
    exponent's bit length in extra bits, as ``theta_sum`` takes its root."""
    if e.denominator == 1:
        return x ** e.numerator
    n = e.denominator
    with mp.workprec(mp.prec + max(abs(e.numerator), n).bit_length()):
        y = mpmath.root(x, n)
        if y:
            y += y * (x / y ** n - 1) / n
        y = y ** e.numerator
    return +y


def _neg_log(x: mpf) -> float:
    """-ln x in float for 0 < x < 1, even below the float range."""
    man, exp = mpmath.frexp(x)
    return -(math.log1p(float(man - 1)) + exp * math.log(2))


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
    ea, eb = mpmath.mag(a0), mpmath.mag(b0)
    if abs(ea - eb) > MAX_FIXED_BITS:
        raise ValueError(f"a modulus below 2^-{MAX_FIXED_BITS} is out of the AGM's range")
    bits = dps_to_prec(wdps) + AGM_GUARD_BITS
    shift = bits - min(ea, eb)
    a, b = (int(mpmath.ldexp(x, shift)) for x in (a0, b0))  # exact, then floored
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
    return mpmath.ldexp(a, -shift), count


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
    wd = digits + GUARD
    xv = _to_mpf(x, wd)
    if not isinstance(xv, mpf):
        raise ValueError("modulus must be real")
    if xv < 0:
        raise ValueError("modulus must be nonnegative")
    if xv >= 1:
        raise ValueError("modulus must be < 1")
    with mp.workdps(wd):
        kp = mpmath.sqrt(1 - xv * xv)
        m_val, iters = agm(mpf(1), kp, wd)
        _last_agm_iterations = iters
        return BigReal(+mp.pi / (2 * m_val), digits)


def nome_from_r(r: Number, digits: int) -> BigReal:
    """q = exp(-pi sqrt(r)) for r > 0."""
    wd = digits + GUARD
    rv = _to_mpf(r, wd)
    if rv <= 0:
        raise ValueError("r must be positive")
    with mp.workdps(wd):
        return BigReal(mpmath.exp(-mp.pi * mpmath.sqrt(rv)), digits)


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
    q = nome_from_r(r, digits)
    theta2 = theta_sum(1, 1, q, alternating=False)
    theta3 = theta_sum(1, 0, q, alternating=False)
    with mp.workdps(wd):
        kv = mpmath.sqrt(q.value) * (theta2.value / theta3.value) ** 2
        if 1 - kv < mpf(10) ** (-wd):
            raise ValueError(
                f"singular modulus k_r rounds to 1 at r={r} with {digits} digits"
            )
        kpv = mpmath.sqrt(1 - kv * kv)
        ratio = agm(1, kpv, wd)[0] / agm(1, kv, wd)[0]
        resid = abs(ratio - mpmath.sqrt(_to_mpf(r, wd)))
        if resid > mpf(10) ** (-digits + 5):
            raise CertificationError(
                f"singular modulus certification failed at r={r}: "
                f"residual {mpmath.nstr(resid, 5)}"
            )
    return EvalPoint(r=r, q=q, k=BigReal(kv, digits), kprime=BigReal(kpv, digits))


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
    wd = digits + GUARD
    xv = _to_mpf(x, wd)
    if not (0 < xv < 1):
        raise ValueError("inverse modulus needs 0 < x < 1")
    with mp.workdps(wd):
        ratio = agm(1, mpmath.sqrt(1 - xv * xv), wd)[0] / agm(1, xv, wd)[0]
        return BigReal(ratio * ratio, digits)


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
    q^(2a), all integer powers of q^(1/lcm(den a, den b)).  The walk runs in
    Python-int fixed point at ``prec`` bits (see ``_walk``), one side only
    when the other mirrors it (see ``_fold``).

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
    qv = q.value
    if not (0 < qv < 1):
        raise ValueError("theta evaluation requires 0 < q < 1")
    if alternating and (b / a).denominator == 1 and (b / a).numerator % 2:
        return BigReal(mpf(0), digits)  # terms n, -b/a - n cancel in pairs
    c = round(-b / (2 * a))
    d = math.lcm(a.denominator, b.denominator)
    # |bd| <= ad, and bd = +-ad only when b/a is odd, so never alternating
    ad, bd = int(a * d), int((b + 2 * a * c) * d)
    sign = -1 if alternating else 1
    e_head = bd * c - ad * c * c
    while True:
        wd = digits + GUARD + cancel
        n0 = _term_count(a, b + 2 * a * c, _neg_log(qv), wd)
        guard = (4 * n0).bit_length()  # for the walk's floors; its taper takes 4 more
        prec = math.ceil(wd * math.log2(10)) + guard
        # a power of the root q^(1/d) multiplies its relative error by the
        # exponent, so the root and its powers take that many more bits
        with mp.workprec(prec + max(abs(e_head), ad + abs(bd)).bit_length()):
            root = _power(qv, Fraction(1, d))
            head = sign ** abs(c) * root ** e_head
            up = sign * int(mpmath.ldexp(root ** (ad + bd), prec))
            down = sign * int(mpmath.ldexp(root ** (ad - bd), prec))
        total = _fold(up, down, ad, bd, n0, prec, guard + 4)
        # the digits the sum lost below its largest term, 2^prec
        lost = math.floor((prec - abs(total).bit_length()) * math.log10(2))
        if wd - lost >= digits + GUARD // 2:
            break
        cancel = lost
    with mp.workdps(wd):
        return BigReal(mpf((total, -prec)) * head, digits)


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
    qv = q.value
    if not (0 < qv < 1):
        raise ValueError("eta evaluation requires 0 < q < 1")
    try:
        cancel = math.ceil(math.pi ** 2 / (6 * float(p) * _neg_log(qv) * math.log(10)))
    except (OverflowError, ZeroDivisionError):
        raise ValueError("eta with this scale p and nome q leaves the float range") from None
    total = theta_sum(3 * p / 2, -p / 2, q, digits, cancel=cancel)
    with mp.workdps(digits + GUARD):
        return BigReal(+total.value, digits)


def eval_A(spec: ThetaSpec, q: BigReal, digits: int | None = None) -> BigReal:
    """Direct numeric value of the theta quotient at a real nome; 0 before any
    eta when p divides a, as b/a = 1 - 2a/p of its theta sum is then odd."""
    if digits is None:
        digits = q.digits
    th = theta_sum(spec.p / 2, spec.p / 2 - spec.a, q, digits)
    if th.value == 0:
        return th
    et = eval_eta(spec.p, q, digits)
    with mp.workdps(digits + GUARD):
        return BigReal(_power(q.value, spec.delta) * th.value / et.value, digits)


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
    wd = digits + GUARD
    qv = q.value
    if not (0 < qv < 1):
        raise ValueError("series evaluation requires 0 < q < 1")
    with mp.workdps(wd):
        root = _power(qv, Fraction(1, u.denom))
        total = mpf(0)
        for k in sorted(u.nums):
            c = u.nums[k]
            g = math.gcd(c, u.scale)
            total += mpf(c // g) / (u.scale // g) * root ** k
        return BigReal(total, digits)
