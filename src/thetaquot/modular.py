"""Modular machinery around the degree-2 transformation.

Covers the map S_n(x) = k at n^2 times the inverse modulus, the Landen
descent k -> k_{4r}, the explicit degree-2 companion of the (1, 4) theta
quotient, and the rearranged functional-equation instance it satisfies.
All fractional powers are principal real branches; the quantities involved
live in (0, 1) or on the positive axis throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .numeric import BigReal, EvalPoint, big_real, inverse_modulus, singular_modulus

__all__ = [
    "SingularChain",
    "singular_chain",
    "s_n",
    "landen_k4",
    "p2_A14",
    "q_A14",
    "check_theorem3_instance",
]


@dataclass(frozen=True)
class SingularChain:
    """The constants of the odd-shift theta evaluation: k11 = k_r,
    k12 = k'_r, k21 = k_4r and k22 = k'_4r = sqrt(1 - k21^2)."""

    k11: BigReal
    k12: BigReal
    k21: BigReal
    k22: BigReal


def singular_chain(point: EvalPoint) -> SingularChain:
    """The chain at ``point``.  The paper's k21 = (2 - k11^2 - 2 k12)/k11^2
    equals (1 - k12)/(1 + k12), the Landen descent of k11, and is taken from
    ``landen_k4``, whose form has no cancellation as k11 -> 0."""
    k11 = point.k
    k12 = point.kprime
    k21 = landen_k4(k11)
    k22 = (1 - k21 ** 2).sqrt()
    return SingularChain(k11=k11, k12=k12, k21=k21, k22=k22)


def s_n(x: BigReal, n: int, digits: int | None = None) -> BigReal:
    """k at n^2 times the inverse modulus of x, for 0 < x < 1."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if digits is None:
        digits = x.digits
    if not (0 < x.value < 1):
        raise ValueError("S_n(x) needs 0 < x < 1")
    r = inverse_modulus(x, digits)
    return singular_modulus(n * n * r, digits).k


def landen_k4(k: BigReal, digits: int | None = None) -> BigReal:
    """Degree-2 modulus descent k_r -> k_4r, (1 - k') / (1 + k') with
    k' = sqrt(1-k^2), taken as (k / (1 + k'))^2: the same value by
    (1 - k')(1 + k') = k^2, with no cancellation as k -> 0."""
    if digits is None:
        digits = k.digits
    k = big_real(k, digits)
    kp = (1 - k * k).sqrt()
    return (k / (1 + kp)) ** 2


def q_A14(x: BigReal) -> BigReal:
    """The algebraic value (4 (1 - x^2) / x)^(1/12) taken by the (1, 4)
    theta quotient at modulus x."""
    return (4 * (1 - x * x) / x) ** Fraction(1, 12)


def p2_A14(w: BigReal) -> BigReal:
    """Degree-2 companion of the (1, 4) theta quotient: the value at nome
    q^2 as an explicit radical of the value w at nome q."""
    if not w > 0:
        raise ValueError("p2_A14 needs a positive argument")
    inner = w ** 16 + w ** 4 * (64 + w ** 24).sqrt()
    return (inner ** Fraction(1, 8)) / (big_real(2, w.digits) ** Fraction(1, 8))


def check_theorem3_instance(x: BigReal, digits: int | None = None) -> BigReal:
    """Residual |Q(S_2(x)) - P_2(Q(x))| with Q(x) = (4(1-x^2)/x)^(1/12).

    This is the functional equation of the degree-2 modular step in the
    rearranged form that avoids inverting the 12th-root map.
    """
    if digits is None:
        digits = x.digits
    x = big_real(x, digits)
    if not (0 < x.value < 1):
        raise ValueError("argument must lie in (0, 1)")
    lhs = q_A14(s_n(x, 2, digits))
    rhs = p2_A14(q_A14(x))
    return abs(lhs - rhs)
