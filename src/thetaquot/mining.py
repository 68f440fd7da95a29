"""Bivariate integer relation mining between exact q-series.

Given two truncated series u(q), v(q), find an integer-coefficient
polynomial P with P(u, v) = O(q^M): build the matrix whose columns are the
integer coefficient vectors of the monomials u^i v^j on the common
exponent grid, ordered by total degree, lift its reduced kernel basis from
mod-p solutions one vector at a time, least total degree first, and certify
each candidate on extra series orders and numerically at high precision.
Post-validation guards against overfitting the truncation, which
interpolation-style mining invites.

The elimination mod p packs each row into one int and reduces its fields
only when they are read.  The series certificate evaluates P(u, v) by Horner
in u from factors cut to its window, so it costs one product per u-degree
plus the powers of v.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd
from typing import Callable, Iterator, Sequence

import mpmath
from mpmath import mp

from .series import (
    A_series,
    PuiseuxSeries,
    ThetaSpec,
    common_known_order,
    eta5_series,
    k_series,
    modulus_series,
    rescale,
)
from . import numeric
from .numeric import BigReal, eval_A, eval_eta5, nome_from_r, singular_point

__all__ = [
    "BivarIntPoly",
    "ABinding",
    "MinedRelation",
    "MiningError",
    "InsufficientTruncation",
    "MiningNotFound",
    "ValidationFailed",
    "MonomialTable",
    "build_coeff_matrix",
    "exact_nullspace",
    "mine",
    "validate",
    "build_binding_series",
    "VBinding",
    "V_BINDINGS",
    "get_v_binding",
]


class MiningError(Exception):
    pass


class InsufficientTruncation(MiningError):
    def __init__(self, message: str, required_grid_order: int):
        super().__init__(message)
        self.required_grid_order = required_grid_order


class MiningNotFound(MiningError):
    """No relation certified; ``rank_profile[s]`` is the rank over Q at degree s."""

    def __init__(self, message: str, rank_profile: dict[int, int]):
        super().__init__(message)
        self.rank_profile = rank_profile


class ValidationFailed(MiningError):
    pass


# ---------------------------------------------------------------------------
# integer polynomials in two variables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BivarIntPoly:
    """P(u, v) = sum c * u^i v^j with coprime integer coefficients and the
    lexicographically first term positive."""

    terms: tuple[tuple[int, int, int], ...]

    @classmethod
    def normalized(cls, raw: Sequence[tuple[int, int, int]]) -> "BivarIntPoly":
        agg: dict[tuple[int, int], int] = {}
        for i, j, c in raw:
            if c:
                agg[(i, j)] = agg.get((i, j), 0) + int(c)
        items = sorted((i, j, c) for (i, j), c in agg.items() if c)
        if not items:
            raise ValueError("the zero polynomial is not a valid relation")
        content = 0
        for _, _, c in items:
            content = gcd(content, abs(c))
        sign = 1 if items[0][2] > 0 else -1
        return cls(tuple((i, j, sign * c // content) for i, j, c in items))

    @property
    def total_degree(self) -> int:
        return max(i + j for i, j, _ in self.terms)

    @property
    def max_single_degree(self) -> int:
        return max(max(i, j) for i, j, _ in self.terms)

    def term_count(self) -> int:
        return len(self.terms)

    def eval_terms(self, u: BigReal, v: BigReal) -> list[BigReal]:
        return [u ** i * v ** j * c for i, j, c in self.terms]

    def eval_numeric(self, u: BigReal, v: BigReal) -> BigReal:
        terms = self.eval_terms(u, v)
        return sum(terms[1:], terms[0])

    def __str__(self) -> str:
        parts = []
        for i, j, c in self.terms:
            mon = "*".join(
                ([f"u^{i}" if i > 1 else "u"] if i else [])
                + ([f"v^{j}" if j > 1 else "v"] if j else [])
            )
            if mon:
                body = f"{abs(c)}*{mon}" if abs(c) != 1 else mon
            else:
                body = str(abs(c))
            parts.append(("- " if c < 0 else "+ ") + body)
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]

    def to_json_obj(self) -> list:
        return [[i, j, str(c)] for i, j, c in self.terms]

    @classmethod
    def from_json_obj(cls, obj) -> "BivarIntPoly":
        return cls.normalized([(int(i), int(j), int(c)) for i, j, c in obj])


# ---------------------------------------------------------------------------
# bindings: what u and v mean
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ABinding:
    """u = A(a, p; q^qscale)^power."""

    spec: ThetaSpec
    power: int
    qscale: Fraction = Fraction(1)

    def __post_init__(self):
        if self.qscale <= 0:
            raise ValueError("qscale must be positive")

    def series(self, q_order: Fraction) -> PuiseuxSeries:
        inner = Fraction(q_order) / self.qscale
        base = rescale(A_series(self.spec, inner + 2), self.qscale)
        return base ** self.power

    def numeric(self, r: Fraction, digits: int) -> BigReal:
        q = nome_from_r(r, digits)
        return eval_A(self.spec, q ** self.qscale, digits) ** self.power

    def to_json_obj(self) -> dict:
        obj = {
            "a": str(self.spec.a),
            "p": str(self.spec.p),
            "power": self.power,
        }
        if self.qscale != 1:
            obj["qscale"] = str(self.qscale)
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ABinding":
        return cls(
            ThetaSpec(Fraction(obj["a"]), Fraction(obj["p"])),
            int(obj["power"]),
            Fraction(obj.get("qscale", 1)),
        )


@dataclass(frozen=True)
class VBinding:
    """What v means: its ``--v`` token on the command line, its series
    known below a given order, and its value at q = e^(-pi sqrt(r))."""

    token: str
    series: Callable[[Fraction], PuiseuxSeries]
    numeric: Callable[[Fraction, int], BigReal]


# keyed by the name relation files carry in their "v" field
V_BINDINGS = {
    "m": VBinding(
        "m",
        lambda order: modulus_series(order),
        lambda r, digits: singular_point(r, digits).k ** 2,
    ),
    "sqrt_m": VBinding(
        "k",
        lambda order: k_series(order + 1),
        lambda r, digits: singular_point(r, digits).k,
    ),
    "m_q2_squared": VBinding(
        "m2sq",
        lambda order: rescale(modulus_series(order / 2 + 1), 2) ** 2,
        lambda r, digits: singular_point(4 * r, digits).k ** 4,
    ),
    "eta5_q4_pow5": VBinding(
        "eta5q4p5",
        lambda order: rescale(eta5_series(order / 4 + 1), 4) ** 5,
        lambda r, digits: eval_eta5(nome_from_r(r, digits) ** 4, digits) ** 5,
    ),
}


def get_v_binding(name: str) -> VBinding:
    try:
        return V_BINDINGS[name]
    except KeyError:
        raise ValueError(f"unknown v binding {name!r}") from None


def build_binding_series(
    u_binding: ABinding, v_binding: str, q_order: Fraction
) -> tuple[PuiseuxSeries, PuiseuxSeries]:
    """u and v with relative order (``PuiseuxSeries.relative_order``) at
    least ``q_order``."""
    q_order = Fraction(q_order)
    return u_binding.series(q_order), get_v_binding(v_binding).series(q_order)


# ---------------------------------------------------------------------------
# coefficient matrix and exact nullspace
# ---------------------------------------------------------------------------


def _power_table(u: PuiseuxSeries, s: int) -> list[PuiseuxSeries]:
    pows = [PuiseuxSeries.constant(1), u]
    for _ in range(2, s + 1):
        pows.append(pows[-1] * u)
    return pows[: s + 1]


class MonomialTable:
    """Power tables of u and v through degree ``s_max``, and the monomials
    u^i v^j built from them once, on first use (u^i v^0 and u^0 v^j are
    the tables' own entries)."""

    def __init__(self, u: PuiseuxSeries, v: PuiseuxSeries, s_max: int):
        self.u_pows = _power_table(u, s_max)
        self.v_pows = _power_table(v, s_max)
        self._products: dict[tuple[int, int], PuiseuxSeries] = {}

    @classmethod
    def truncated(
        cls, u: PuiseuxSeries, v: PuiseuxSeries, s_max: int, rows: int
    ) -> "MonomialTable":
        """Tables whose monomials agree with those of u and v through
        ``rows`` common-grid rows above every coefficient matrix's base.

        Each factor keeps ``rows`` rows above its own valuation: a monomial
        whose valuation lies above the base needs fewer, and the base is at
        most that valuation.  A factor whose kept terms would lie on a
        coarser grid stays whole, so the matrix grid does not change.
        """
        n = u.denom * v.denom // gcd(u.denom, v.denom)

        def cut(w: PuiseuxSeries) -> PuiseuxSeries:
            if w.is_zero():
                return w
            short = w.truncate(w.leading()[0] + Fraction(rows, n))
            return short if short.denom == w.denom else w

        return cls(cut(u), cut(v), s_max)

    def product(self, i: int, j: int) -> PuiseuxSeries:
        if j == 0:  # a product with the exact 1 is the other factor
            return self.u_pows[i]
        if i == 0:
            return self.v_pows[j]
        key = (i, j)
        if key not in self._products:
            self._products[key] = self.u_pows[i] * self.v_pows[j]
        return self._products[key]


def build_coeff_matrix(
    u: PuiseuxSeries,
    v: PuiseuxSeries,
    s: int,
    rows: int,
    table: MonomialTable | None = None,
) -> tuple[list[list[int]], list[tuple[int, int]], int, int]:
    """Integer matrix of coefficients of u^i v^j (0 <= i, j <= s) on the
    common grid.

    Returns (matrix, columns, base_index, grid_denom): one column per (i, j)
    ordered by total degree i + j and lexicographically within a degree, so
    that a reduced kernel vector has the total degree of its free column;
    one row per grid exponent starting at the global minimum ``base_index``.
    Every column is put over the lcm of the products' scales, so each row is
    an integer multiple of the coefficient row, with the same kernel.
    Raises InsufficientTruncation when any product is not known through the
    last requested row.  ``table`` supplies the monomials of u and v, built
    for some degree >= s; by default they are built here.
    """
    if table is None:
        table = MonomialTable(u, v, s)
    cols = sorted(((i, j) for i in range(s + 1) for j in range(s + 1)), key=sum)
    products = {(i, j): table.product(i, j) for i, j in cols}
    denom = math.lcm(*(prod.denom for prod in products.values()))
    los = []
    for prod in products.values():
        if prod.nums:
            los.append(min(prod.nums) * (denom // prod.denom))
    if not los:
        raise MiningError("all monomial products vanish; nothing to interpolate")
    base = min(los)
    top = base + rows
    for (i, j), prod in products.items():
        f = denom // prod.denom
        hi = None if prod.hi is None else prod.hi * f
        if hi is not None and hi < top:
            raise InsufficientTruncation(
                f"u^{i} v^{j} is known to grid order {hi} on the 1/{denom} grid "
                f"but rows through {top} are required",
                required_grid_order=top,
            )
    scale = math.lcm(*(prod.scale for prod in products.values()))
    rebased = {}
    for key, prod in products.items():
        f, m = denom // prod.denom, scale // prod.scale
        rebased[key] = {k * f: c * m for k, c in prod.nums.items()}
    matrix = [[rebased[c].get(e, 0) for c in cols] for e in range(base, top)]
    return matrix, cols, base, denom


# Mersenne primes 2^e - 1, e running through a prefix of OEIS A000043 from
# 61: the ladder of primes that exact_nullspace tries, one at a time
_MERSENNE_EXPONENTS = (
    61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689, 9941,
    11213, 19937, 21701, 23209, 44497,
)
_PRIMES = tuple((1 << e) - 1 for e in _MERSENNE_EXPONENTS)


def _echelon_mod_p(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Row echelon form mod p with unit pivots: (echelon rows, pivot
    columns).  A column is a pivot when it is independent of the columns
    before it.

    Each row below the pivots is one int of ``width``-byte fields, lowest
    field the current column, and is shifted right by one field per column.
    A row operation is one big-int ``row += (p - f) * pivot_row`` with the
    pivot row reduced, and fields are reduced mod p only when read (delayed
    reduction, Dumas, Giorgi & Pernet, ACM TOMS 35, 2008).  A field starts
    below p and gains less than p^2 per operation, at most once per pivot,
    so it stays below nrows * p^2 and never carries into the next.
    """
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    width = (2 * p.bit_length() + nrows.bit_length() + 2 + 7) // 8
    bits = 8 * width
    mask = (1 << bits) - 1

    def pack(vals: list[int]) -> int:
        fields = b"".join(x.to_bytes(width, "little") for x in vals)
        return int.from_bytes(fields, "little")

    # the rows below the pivots, in the order the swaps leave them
    m = [pack([x % p for x in row]) for row in rows]
    ech: list[list[int]] = []
    pivots: list[int] = []
    for col in range(ncols):
        if not m:
            break
        fs = [(row & mask) % p for row in m]
        piv = next((r for r, f in enumerate(fs) if f), None)
        if piv is None:
            m = [row >> bits for row in m]
            continue
        raw = m[piv].to_bytes((ncols - col) * width, "little")
        inv = pow(fs[piv], -1, p)
        vals = [
            int.from_bytes(raw[at : at + width], "little") * inv % p
            for at in range(0, len(raw), width)
        ]
        ech.append([0] * col + vals)
        prow = pack(vals)
        # the pivot row trades places with the first row, then leaves
        m[piv], fs[piv] = m[0], fs[0]
        m = [
            (row + (p - f) * prow if f else row) >> bits
            for row, f in zip(m[1:], fs[1:])
        ]
        pivots.append(col)
    return ech, pivots


def _rational_mod_p(a: int, p: int, bound: int) -> tuple[int, int]:
    """n/d with d > 0 and n = a d mod p, from the extended Euclidean
    algorithm stopped at the first remainder n <= bound: when 2 bound^2 < p
    and a fraction with |n|, d <= bound exists, it is this one (rational
    reconstruction, von zur Gathen & Gerhard, Modern Computer Algebra,
    5.10).  Otherwise d may exceed bound; the caller's exact check rejects
    such a lift."""
    r0, r1, s0, s1 = p, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _kernel_basis(matrix: list[list[int]]) -> Iterator[list[int]]:
    """The reduced basis of the right kernel of an integer matrix (1 at one
    free column, 0 at the other free columns and past it), one vector at a
    time in free-column order, scaled to coprime integers with its first
    nonzero entry positive (Cohen, GTM 138, Alg. 2.3.1).

    Each vector is solved mod p, lifted by rational reconstruction and
    checked over the integers.  A checked vector makes its free column
    dependent over Q, and a column independent mod p is independent over Q,
    so the free columns through the last checked vector are those over Q.
    When a lift fails, the next prime whose free columns begin with those
    already yielded resumes after them.
    """
    if not matrix:
        return
    ncols = len(matrix[0])
    done: list[int] = []  # the free columns of the vectors yielded so far
    for p in _PRIMES:
        ech, pivots = _echelon_mod_p(matrix, p)
        free = sorted(set(range(ncols)) - set(pivots))
        if free[: len(done)] != done:
            continue
        bound = math.isqrt(p // 2)
        for fc in free[len(done) :]:
            # back-substitution leaves every pivot column past fc at 0
            x = [0] * ncols
            x[fc] = 1
            for row, pc in zip(reversed(ech), reversed(pivots)):
                if pc < fc:
                    x[pc] = -sum(row[c] * x[c] for c in range(pc + 1, fc + 1)) % p
            fracs = [_rational_mod_p(val, p, bound) for val in x]
            den = math.lcm(*(d for _, d in fracs))
            vec = [n * (den // d) for n, d in fracs]
            support = [c for c in range(fc + 1) if vec[c]]
            if any(sum(row[c] * vec[c] for c in support) for row in matrix):
                break
            g = gcd(*vec) if vec[support[0]] > 0 else -gcd(*vec)
            done.append(fc)
            yield [val // g for val in vec]
        else:
            return
    raise MiningError(
        "exact kernel not found: its entries are too large for rational "
        f"reconstruction mod 2^{_MERSENNE_EXPONENTS[-1]} - 1"
    )


def exact_nullspace(matrix: list[list[int]]) -> list[list[int]]:
    """Basis of the right kernel of an integer matrix: the reduced basis,
    each vector scaled to coprime integers with its first nonzero entry
    positive."""
    return list(_kernel_basis(matrix))


# ---------------------------------------------------------------------------
# mined relations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NumericCheck:
    r: Fraction
    digits: int
    residual: str


@dataclass(frozen=True)
class MinedRelation:
    poly: BivarIntPoly
    degree: int
    validated_grid_order: int
    u_binding: ABinding | None = None
    v_binding: str | None = None
    numeric_checks: tuple[NumericCheck, ...] = ()

    def to_json_obj(self) -> dict:
        return {
            "u": None if self.u_binding is None else self.u_binding.to_json_obj(),
            "v": self.v_binding,
            "poly": self.poly.to_json_obj(),
            "validated_grid_order": self.validated_grid_order,
            "numeric_checks": [
                {"r": str(c.r), "digits": c.digits, "residual": c.residual}
                for c in self.numeric_checks
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, indent=2)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "MinedRelation":
        poly = BivarIntPoly.from_json_obj(obj["poly"])
        return cls(
            poly=poly,
            degree=poly.max_single_degree,
            validated_grid_order=int(obj["validated_grid_order"]),
            u_binding=None if obj.get("u") is None else ABinding.from_json_obj(obj["u"]),
            v_binding=obj.get("v"),
            numeric_checks=tuple(
                NumericCheck(Fraction(c["r"]), int(c["digits"]), c["residual"])
                for c in obj.get("numeric_checks", ())
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "MinedRelation":
        return cls.from_json_obj(json.loads(text))


def _horner_residual(
    poly: BivarIntPoly,
    u: PuiseuxSeries,
    v: PuiseuxSeries,
    through_rows: int,
) -> tuple[PuiseuxSeries, Fraction]:
    """(P(u, v) cut at E, b): b, the base, is the least leading exponent of
    the relation's monomials u^i v^j, and E = floor(b) + ``through_rows``.

    P is evaluated by Horner in u: H_d = Q_d and H_i = H_(i+1) u + Q_i, with
    Q_i = sum_j c_ij v^j from one table of v powers, so one product per
    u-degree.  u and v are cut R = E - b above their leading exponents, so
    v^j is known R above its leading exponent j val(v).  Let L_i be the
    least (i' - i) val(u) + j val(v) over the monomials u^i' v^j of P with
    i' >= i: no term of H_i lies below L_i, L_0 = b, and L_i is the lesser
    of L_(i+1) + val(u) and the least j val(v) in Q_i, through which plus R
    Q_i is known.  If H_(i+1) is known through L_(i+1) + R, its product
    with u is known through L_(i+1) + val(u) + R (the product bound of
    ``PuiseuxSeries.__mul__``: the unknown part of either factor times the
    other's lowest term), so H_i is known through L_i + R.  By induction
    P = H_0 is known through b + R = E, as from the uncut factors.  Raises
    InsufficientTruncation when it is not, because u or v is known less
    than R above its leading exponent.
    """
    vu, vv = (None if w.is_zero() else w.leading()[0] for w in (u, v))
    # a monomial with a factor that has no known nonzero term has no
    # leading exponent
    leads = [
        i * (vu or 0) + j * (vv or 0)
        for i, j, _ in poly.terms
        if (i == 0 or vu is not None) and (j == 0 or vv is not None)
    ]
    if not leads:
        raise MiningError("relation evaluates on identically zero products")
    base_exp = min(leads)
    top = math.floor(base_exp) + through_rows
    reach = top - base_exp
    u, v = (w if w.is_zero() else w.truncate(w.leading()[0] + reach) for w in (u, v))
    v_pows = _power_table(v, max(j for _, j, _ in poly.terms))
    q = [PuiseuxSeries.zero() for _ in range(max(i for i, _, _ in poly.terms) + 1)]
    for i, j, c in poly.terms:
        q[i] = q[i] + v_pows[j] * c
    residual = q[-1]
    for q_i in reversed(q[:-1]):
        residual = residual * u + q_i
    need = top * residual.denom
    if residual.hi is not None and residual.hi < need:
        raise InsufficientTruncation(
            f"residual known to grid order {residual.hi} < required {need}",
            required_grid_order=need,
        )
    return residual.truncate(top), base_exp


def _series_vanishes(
    poly: BivarIntPoly,
    u: PuiseuxSeries,
    v: PuiseuxSeries,
    through_rows: int,
) -> tuple[bool, int]:
    """Check that P(u, v) has no nonzero coefficient below the exponent
    floor(b) + ``through_rows``, b the least leading exponent of its
    monomials (``_horner_residual``).  Returns (True, through_rows), or
    (False, k) with k the grid row above b of the first nonzero
    coefficient, on the grid of the residual below that exponent."""
    residual, base_exp = _horner_residual(poly, u, v, through_rows)
    if residual.nums:
        return False, min(residual.nums) - math.floor(base_exp * residual.denom)
    return True, through_rows


def validate(
    rel: MinedRelation,
    extra_orders: int = 25,
    points: Sequence[Fraction | int] = (1, 2),
    digits: int = 60,
    u: PuiseuxSeries | None = None,
    v: PuiseuxSeries | None = None,
) -> MinedRelation:
    """Re-certify a relation on extra series rows and at numeric points.

    Series are built from the bindings when not supplied, once, with
    relative order enough for every checked row.  Raises ValidationFailed
    on the first offending order or point.
    """
    rows_needed = rel.validated_grid_order + extra_orders
    if u is None or v is None:
        if rel.u_binding is None or rel.v_binding is None:
            raise ValidationFailed("no series supplied and no bindings to rebuild from")
        u, v = build_binding_series(rel.u_binding, rel.v_binding, Fraction(rows_needed))
    ok, info = _series_vanishes(rel.poly, u, v, rows_needed)
    if not ok:
        raise ValidationFailed(
            f"series residual is nonzero {info} grid rows above the base exponent"
        )
    checks = []
    with mp.workdps(30):
        threshold = mpmath.mpf(10) ** (-Fraction(digits, 2))
    for r in points:
        r = Fraction(r)
        if rel.u_binding is not None and rel.v_binding is not None:
            uval = rel.u_binding.numeric(r, digits)
            vval = get_v_binding(rel.v_binding).numeric(r, digits)
        else:
            q = nome_from_r(r, digits)
            uval = numeric.real_eval_series(u, q, digits).value
            vval = numeric.real_eval_series(v, q, digits).value
        resid = abs(rel.poly.eval_numeric(uval, vval).value)
        if resid > threshold:
            raise ValidationFailed(
                f"numeric residual {mpmath.nstr(resid, 5)} at r={r} exceeds "
                f"10^(-{digits}/2)"
            )
        checks.append(NumericCheck(r, digits, numeric.residual_str(resid, digits)))
    return replace(
        rel,
        validated_grid_order=rows_needed,
        numeric_checks=tuple(checks),
    )


def mine(
    u: PuiseuxSeries,
    v: PuiseuxSeries,
    s_max: int,
    M: int | None = None,
    *,
    u_binding: ABinding | None = None,
    v_binding: str | None = None,
    digits: int = 60,
    points: Sequence[Fraction | int] = (1, 2),
    extra_orders: int = 25,
) -> MinedRelation:
    """Search degrees s = 1..s_max and return the first kernel relation
    that validates.

    At each s the reduced kernel basis of the coefficient matrix is lifted
    lazily, in order of total degree, and each total degree's vectors are
    tried fewest terms first, then in lexicographic order, so the returned
    polynomial has the least total degree present in the kernel.  One
    elimination per prime serves every total degree.  MiningNotFound
    carries each degree's rank over Q.
    """
    if M is None:
        M = common_known_order(u, v)
        if M is None:
            raise MiningError("both series are exact; specify M explicitly")
    if M < (s_max + 1) ** 2 + 25:
        raise MiningError(
            f"M={M} is below the floor (s_max+1)^2 + 25 = {(s_max + 1) ** 2 + 25}"
        )
    rank_profile: dict[int, int] = {}
    failures: list[str] = []
    all_rows = {
        s: (s + 1) ** 2 + 10 + _valuation_spread(u, v, s) for s in range(1, s_max + 1)
    }
    max_rows = max(all_rows.values())
    # every matrix and every validation window fits in max_rows +
    # extra_orders rows; series known that far relative to their leading
    # terms cover them all, so short series are rebuilt once up front
    needed = max_rows + extra_orders
    if (
        u_binding is not None
        and v_binding is not None
        and min(u.relative_order(), v.relative_order()) < needed
    ):
        u, v = build_binding_series(u_binding, v_binding, Fraction(needed))
    # every degree's matrix reads its monomials from one table, cut to the
    # rows of the largest matrix
    table = MonomialTable.truncated(u, v, s_max, max_rows)
    for s, rows in all_rows.items():
        int_rows, cols, base, denom = build_coeff_matrix(u, v, s, rows, table)
        polys = (
            BivarIntPoly.normalized([(i, j, c) for (i, j), c in zip(cols, vec)])
            for vec in _kernel_basis(int_rows)
        )
        candidates = itertools.chain.from_iterable(
            sorted(group, key=lambda p: (p.term_count(), p.terms))
            for _, group in itertools.groupby(polys, key=lambda p: p.total_degree)
        )
        nullity = 0
        for poly in candidates:
            nullity += 1
            rel = MinedRelation(
                poly=poly,
                degree=s,
                validated_grid_order=rows,
                u_binding=u_binding,
                v_binding=v_binding,
            )
            try:
                return validate(
                    rel,
                    extra_orders=extra_orders,
                    points=points,
                    digits=digits,
                    u=u,
                    v=v,
                )
            except ValidationFailed as exc:
                # a kernel vector failing certification is an artifact of
                # the truncation; keep looking
                failures.append(f"s={s}: {poly} rejected ({exc})")
        rank_profile[s] = len(cols) - nullity
    msg = f"no certified integer relation of degree <= {s_max} through grid order {M}"
    if failures:
        msg += "; rejected candidates: " + " | ".join(failures[:4])
    raise MiningNotFound(msg, rank_profile)


def _valuation_spread(u: PuiseuxSeries, v: PuiseuxSeries, s: int) -> int:
    """Spread, in common-grid units, between the least and greatest leading
    exponents of the monomials u^i v^j with 0 <= i, j <= s.  Added to the
    row count so every column keeps a full window of informative rows."""
    n = u.denom * v.denom // gcd(u.denom, v.denom)
    try:
        vu = u.leading()[0]
        vv = v.leading()[0]
    except ValueError:
        return 0
    vals = [i * vu + j * vv for i in (0, s) for j in (0, s)]
    return int((max(vals) - min(vals)) * n)
