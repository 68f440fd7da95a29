"""Recognition of algebraic numbers from high-precision real values.

``recognize`` searches for a small integer polynomial vanishing at x by
lattice basis reduction on the vector (1, x, x^2, ..., x^d) scaled by
10^precision, trying degrees in ascending order.  Each degree's lattice
extends the last degree's reduced basis by one row, the state a fresh
reduction passes through, so the result is unchanged.  Every candidate is
re-certified at doubled working precision and must keep its coefficients
well below the information content of the input.  A rational is the
degree-1 case: ``recognize(x, 1)`` returns d*x - n for x = n/d.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .values import MIN_DIGITS, Value

__all__ = ["IntPoly", "NotFound", "recognize", "lll_reduce"]

LLL_DELTA = Fraction(99, 100)
CERT_EXPONENT = Fraction(6, 10)  # |P(x)| must be below 10^(-0.6*digits)
COEFF_EXPONENT = Fraction(3, 10)  # max |coeff| must stay below 10^(0.3*digits)


class NotFound(Exception):
    """No certified polynomial/rational; the message says which budget was
    exhausted (degree bound or precision)."""


class IntPoly(Value):
    """Integer polynomial, coefficients low degree first, content 1,
    positive leading coefficient."""

    coeffs: tuple[int, ...]

    @classmethod
    def normalized(cls, coeffs) -> "IntPoly":
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs:
            raise ValueError("the zero polynomial is not a valid recognition")
        g = 0
        for c in cs:
            g = math.gcd(g, abs(c))
        cs = [c // g for c in cs]
        if cs[-1] < 0:
            cs = [-c for c in cs]
        return cls(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def eval_at(self, x):
        """P(x) by Horner at a BigReal x, each step at x's working bits."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    eval_mpf = eval_at  # the name perfbench/record.py calls

    def __str__(self) -> str:
        parts = []
        for e in range(self.degree, -1, -1):
            c = self.coeffs[e]
            if not c:
                continue
            if e == 0:
                mon = str(abs(c))
            else:
                xe = "x" if e == 1 else f"x^{e}"
                mon = xe if abs(c) == 1 else f"{abs(c)}*{xe}"
            parts.append(("- " if c < 0 else "+ ") + mon)
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]

    def to_json_obj(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json_obj(cls, obj) -> "IntPoly":
        return cls.normalized([int(c) for c in obj])


# ---------------------------------------------------------------------------
# integral LLL (Cohen, GTM 138, Alg. 2.6.7) on full-rank integer bases
# ---------------------------------------------------------------------------


def lll_reduce(basis: list[list[int]], delta: Fraction = LLL_DELTA) -> list[list[int]]:
    """LLL-reduce a full-rank integer basis (Lovasz parameter delta) with
    Cohen's integral algorithm (GTM 138, Alg. 2.6.7).

    The Gram-Schmidt data are kept exactly as integers: d[0] = 1,
    d[i+1] = B_0*...*B_i with B_i = |b_i*|^2, and lam[i][j] = d[j+1]*mu_ij;
    every division is exact.  Each step size-reduces b_k against
    b_{k-1}, ..., b_0, rounding mu half to even, then applies the Lovasz
    test.  Raises ValueError when the rows are linearly dependent."""
    b = [row[:] for row in basis]
    n = len(b)
    d = [1]
    lam: list[list[int]] = []
    for k in range(n):
        row: list[int] = []
        lam.append(row)
        for j in range(k + 1):
            u = sum(x * y for x, y in zip(b[k], b[j]))
            for i in range(j):
                u = (d[i + 1] * u - row[i] * lam[j][i]) // d[i]
            row.append(u)
        d.append(row.pop())
        if not d[-1]:
            raise ValueError("LLL input basis is not of full rank")
    num, den = delta.numerator, delta.denominator
    k = 1
    while k < n:
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            dj = d[j + 1]
            if 2 * abs(lk[j]) > dj:
                r, rem = divmod(lk[j], dj)
                if 2 * rem > dj or (2 * rem == dj and r & 1):
                    r += 1
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
                lj = lam[j]
                for t in range(j):
                    lk[t] -= r * lj[t]
                lk[j] -= r * dj
        m = lk[k - 1]
        g = d[k + 1] * d[k - 1] + m * m  # d[k-1] d[k] (B_k + mu^2 B_{k-1})
        if den * g >= num * d[k] * d[k]:
            k += 1
            continue
        # swap b_{k-1} and b_k; the divisions below are exact
        dk = g // d[k]
        b[k], b[k - 1] = b[k - 1], b[k]
        lam[k - 1], lam[k] = lk[:-1], lam[k - 1] + [m]
        for i in range(k + 1, n):
            li = lam[i]
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - m * t) // d[k]
            li[k - 1] = (dk * t + m * li[k]) // d[k + 1]
        d[k] = dk
        k = max(k - 1, 1)
    return b


# ---------------------------------------------------------------------------
# recognition
# ---------------------------------------------------------------------------


def _certify(poly: IntPoly, x: BigReal, digits: int) -> bool:
    """Re-evaluate at doubled working precision; certify only when the
    residual is overwhelmingly small, also against the largest term c_i x^i
    when that is below 1 (a tiny x makes every P(x) = c x tiny), and the
    coefficient vector carries far less information than the input supplied
    (wide overdetermination margin).  A lattice artifact at the wrong degree
    has coefficients of roughly digits/(d+2) decimal digits each, so the
    information cap is on the total bitsize of the vector."""
    from .numeric import big_real, ten_to

    cap_bits = int(COEFF_EXPONENT * digits * 3.321928)
    total_bits = sum(abs(c).bit_length() for c in poly.coeffs)
    if total_bits > cap_bits:
        return False
    cert_tol = ten_to(-CERT_EXPONENT * digits)
    resid = abs(poly.eval_at(x.with_digits(2 * digits)))
    if not resid < cert_tol:
        return False
    if poly.coeffs[0] or resid == 0:
        return True  # a nonzero constant term is a term of size at least 1
    low = big_real(x, MIN_DIGITS)  # a term's size needs few digits
    top = max(abs(c * low ** i) for i, c in enumerate(poly.coeffs))
    return resid < cert_tol * min(1, top)


def recognize(x: BigReal, d_max: int, digits: int | None = None) -> IntPoly:
    """Smallest-degree certified integer polynomial vanishing at x.

    Degrees are tried in ascending order, each lattice extending the last
    degree's reduced basis (0 at column d) by the row [e_d | 10^digits x^d];
    a fresh LLL passes through that basis, so the result is unchanged.
    Within a degree, the reduced vectors are tried by norm.  Raises NotFound
    with a diagnostic naming the exhausted budget.
    """
    from .numeric import big_real

    digits = x.digits if digits is None else min(digits, x.digits)
    if d_max < 1:
        raise ValueError("d_max must be at least 1")
    scale = 10 ** digits
    powers = [big_real(1, digits)]
    for _ in range(d_max):
        powers.append(powers[-1] * x)
    cols = [round(scale * p) for p in powers]
    reduced = [[1, cols[0]]]
    for d in range(1, d_max + 1):
        basis = [row[:d] + [0, row[d]] for row in reduced]
        basis.append([0] * d + [1, cols[d]])
        reduced = lll_reduce(basis)
        for vec in sorted(reduced, key=lambda r: sum(x * x for x in r)):
            if not any(vec[1 : d + 1]):
                continue  # constant or zero rows carry no algebraic content
            poly = IntPoly.normalized(vec[: d + 1])
            if _certify(poly, x, digits):
                return poly
    budget = 20 * (d_max + 1)
    hint = (
        f"precision {digits} is below the identification budget {budget} "
        f"for degree {d_max}; raise digits"
        if digits < budget
        else f"no relation up to degree {d_max}; raise d_max or digits"
    )
    raise NotFound(f"no certified integer polynomial found: {hint}")

