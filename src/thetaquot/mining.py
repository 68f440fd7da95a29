"""Bivariate integer relation mining between exact q-series.

Given two truncated series u(q), v(q), find an integer-coefficient
polynomial P with P(u, v) = O(q^M): take the coefficient matrix of the
monomials u^i v^j on the common exponent grid, ordered by total degree,
lift its reduced kernel basis from mod-p solutions, least total degree
first, and certify each candidate on extra series orders and numerically at
high precision.  Post-validation guards against overfitting the truncation,
which interpolation-style mining invites.

The matrix exists only mod p (the modular method, von zur Gathen & Gerhard,
Modern Computer Algebra, ch. 5), in one packed format of fixed-width fields
that ``series._pack`` writes and ``series._unpack`` reads.  ``MonomialTable``
reduces u and v once mod a Mersenne prime p = 2^e - 1, one table per prime
cut to the largest matrix's rows, ``build_coeff_matrix`` cuts each degree's
rows out of it, and the elimination reduces a field mod p only when it
reads it; products and pivot rows come back below 2^(e+1) by one fold.

The terms of every monomial lie on its lead plus multiples of the table's
stride g, so each matrix is block diagonal over the classes mod g; the
miner builds and eliminates each class's block on its own, rows and
columns packed tightly, and a column visits only the rows of its class.
A lift is checked by maximal-quotient rational reconstruction (Monagan,
ISSAC 2004; reach |n| d < p/(2T)) and then by the series certificate,
which evaluates P(u, v) exactly as P'(u^a, v^b), a and b the gcds of its
u- and v-exponents, by Horner in u^a from factors cut to its window (one
product per u^a-degree plus the powers of v^b): a residual nonzero on the
matrix rows means a bad lift, and the search climbs to the next prime.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction
from math import gcd

from .series import (
    A_inverse_series,
    A_series,
    PuiseuxSeries,
    ThetaSpec,
    _pack,
    _unpack,
    common_known_order,
    eta5_series,
    k_series,
    modulus_series,
    rescale,
)
from . import numeric
from .numeric import BigReal, eval_A, eval_eta5, nome_from_r, singular_point
from .values import Rat, Value, replace

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
    """A candidate failed certification; ``exponent`` is that of the first
    nonzero coefficient of its series residual, when that is what failed."""

    def __init__(self, message: str, exponent: Fraction | None = None):
        super().__init__(message)
        self.exponent = exponent


# ---------------------------------------------------------------------------
# integer polynomials in two variables
# ---------------------------------------------------------------------------


class BivarIntPoly(Value):
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
    def max_single_degree(self) -> int:
        return max(max(i, j) for i, j, _ in self.terms)

    def term_count(self) -> int:
        return len(self.terms)

    def eval_terms(self, u: BigReal, v: BigReal) -> list[BigReal]:
        """Each term u^i v^j c, with each power of u and of v raised once."""
        u_pow = {i: u ** i for i in {i for i, _, _ in self.terms}}
        v_pow = {j: v ** j for j in {j for _, j, _ in self.terms}}
        return [u_pow[i] * v_pow[j] * c for i, j, c in self.terms]

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


class ABinding(Value):
    """u = A(a, p; q^qscale)^power."""

    spec: ThetaSpec
    power: int
    qscale: Fraction = Fraction(1)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.qscale <= 0:
            raise ValueError("qscale must be positive")

    @property
    def shape(self) -> tuple[Fraction, Fraction]:
        """(lead, step): u's terms lie on lead + step Z, as those of theta(p/2,
        p/2 - a) differ by multiples of a and p, and those of eta(q^p) of p."""
        a, p, scale = self.spec.a, self.spec.p, self.qscale
        step = Fraction(gcd(a.numerator, p.numerator), math.lcm(a.denominator, p.denominator))
        return self.spec.lead * self.power * scale, step * scale

    def series(self, q_order: Fraction) -> PuiseuxSeries:
        # built below inner + max(2, lead), A and 1/A are known inner past lead
        spec, inner = self.spec, Fraction(q_order) / self.qscale
        build = A_series if self.power >= 0 else A_inverse_series  # no dense inverse
        return rescale(build(spec, inner + max(2, spec.lead)), self.qscale) ** abs(self.power)

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


class VBinding(Value):
    """What v means: its series known below a given order, its value at q =
    e^(-pi sqrt(r)), and its ``shape`` (lead, step): its terms lie on lead + step Z."""

    series: Callable[[Fraction], PuiseuxSeries]
    numeric: Callable[[Fraction, int], BigReal]
    shape: tuple[Rat, Rat]


# keyed by the one name of each binding: `mine --v` takes it, and relation
# files carry it in their "v" field
V_BINDINGS = {
    "m": VBinding(
        lambda order: modulus_series(order),
        lambda r, digits: singular_point(r, digits).k ** 2,
        (1, 1),
    ),
    "sqrt_m": VBinding(
        lambda order: k_series(order + 1),
        lambda r, digits: singular_point(r, digits).k,
        (Fraction(1, 2), 1),
    ),
    "m_q2_squared": VBinding(
        lambda order: rescale(modulus_series(order / 2 + 1), 2) ** 2,
        lambda r, digits: singular_point(4 * r, digits).k ** 4,
        (4, 2),
    ),
    "eta5_q4_pow5": VBinding(
        lambda order: rescale(eta5_series(order / 4 + 1), 4) ** 5,
        lambda r, digits: eval_eta5(nome_from_r(r, digits) ** 4, digits) ** 5,
        (4, 4),
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
# coefficient matrices mod p and the exact nullspace
# ---------------------------------------------------------------------------


# Mersenne primes 2^e - 1, e running through a prefix of OEIS A000043 from
# 61: the ladder of primes that the kernel is solved mod, one at a time
_MERSENNE_EXPONENTS = (
    61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689, 9941,
    11213, 19937, 21701, 23209, 44497,
)
_PRIMES = tuple((1 << e) - 1 for e in _MERSENNE_EXPONENTS)
QUOTIENT_T = 1 << 24  # T: a rational reconstruction's quotient must exceed it


def _field_bytes(p: int, n: int) -> int:
    """Bytes per packed field mod p = 2^e - 1, for n fields or rows: 2e +
    bitlen(n) + 2 bits, which hold a sum of n products of two values below
    2^(e+1) (``MonomialTable``) and a field of an elimination on n rows,
    below 2^(e+1) (n p + 1) (``_echelon_mod_p``), and are under 3e bits for
    n < 2^(e-10)."""
    return (2 * p.bit_length() + n.bit_length() + 2 + 7) // 8


def _mersenne_fold(p: int, width: int, count: int) -> Callable[[int], int]:
    """Every ``width``-byte field x of ``count`` at once, twice, to (x & p) +
    (x >> e) mod p = 2^e - 1: below 2^e + 2^(8 width - e) after one round,
    and below 2^e + 2^(8 width - 2e) + 1 <= 2^(e+1) after two if 8 width < 3e."""
    e = p.bit_length()
    ones = int.from_bytes((b"\x01" + bytes(width - 1)) * count, "little")
    low, high = p * ones, ((1 << 8 * width - e) - 1) * ones

    def fold(x: int) -> int:
        x = (x & low) + ((x >> e) & high)
        return (x & low) + ((x >> e) & high)

    return fold


class MonomialTable:
    """The monomials u^i v^j mod a prime p = 2^e - 1 of the ladder, through
    ``rows`` grid rows above their leading exponents, each one packed int of
    ``width``-byte fields: field k holds the coefficient at grid index lead
    + k ``stride``, mod p but not always below p.  ``stride`` is the gcd of
    the offsets of the terms of u and v from their leading ones on the
    common grid, so every monomial's terms lie on its fields.

    u and v are reduced once, numerator times scale^-1 mod p, so p must not
    divide a scale, and packed by ``series._pack``.  A power or a product is
    one big-int multiply of packed factors, cut to the fields it is known
    through; its fields then come back below 2^(e+1) all at once by
    ``_mersenne_fold``.  Powers and products are built on first use, so
    only as far as the degrees asked for.

    Over Q the leading coefficient of a product is the product of its
    factors', so u^i v^j leads at i lead(u) + j lead(v), and it is known as
    many rows above that as its least known factor, as
    ``PuiseuxSeries.__mul__`` bounds it.  u and v have known nonzero terms.
    """

    def __init__(self, u: PuiseuxSeries, v: PuiseuxSeries, rows: int, p: int):
        self.p = p
        self.rows = rows
        self.denom = math.lcm(u.denom, v.denom)
        self.stride = 0
        for w in (u, v):
            lead = min(w.nums)
            spacing = gcd(*(k - lead for k in w.nums))
            self.stride = gcd(self.stride, spacing * (self.denom // w.denom))
        self.stride = self.stride or 1
        self.width = _field_bytes(p, rows)
        self._fold = _mersenne_fold(p, self.width, self._fields(rows))
        (lu, ku, xu), (lv, kv, xv) = self._reduce(u), self._reduce(v)
        self._leads, self._known = (lu, lv), (ku, kv)
        self._pows = ([1, xu], [1, xv])
        self._products: dict[tuple[int, int], int] = {}

    def _fields(self, known: int) -> int:
        """The fields that hold ``known`` grid rows."""
        return -(-known // self.stride)

    def _reduce(self, w: PuiseuxSeries) -> tuple[int, int, int]:
        """(lead, grid rows known, packed fields) of one factor."""
        f = self.denom // w.denom
        lead = min(w.nums) * f
        known = self.rows if w.hi is None else min(self.rows, w.hi * f - lead)
        inv = pow(w.scale, -1, self.p)
        fields = {
            at: c * inv % self.p for k, c in w.nums.items() if (at := k * f - lead) < known
        }
        return lead, known, _pack(fields, 0, self.stride, self._fields(known), self.width)

    def _times(self, x: int, y: int, known: int) -> int:
        return self._fold(x * y & ((1 << 8 * self.width * self._fields(known)) - 1))

    def _power(self, which: int, i: int) -> int:
        pows, known = self._pows[which], self._known[which]
        while len(pows) <= i:
            pows.append(self._times(pows[-1], pows[1], known))
        return pows[i]

    def span(self, i: int, j: int) -> tuple[int, int]:
        """(lead, grid rows known) of u^i v^j."""
        (lu, lv), (ku, kv) = self._leads, self._known
        # a product with the exact 1 is the other factor
        known = (ku if i else self.rows) if j == 0 else kv if i == 0 else min(ku, kv)
        return i * lu + j * lv, known

    def fields(self, i: int, j: int) -> int:
        """The packed fields of u^i v^j."""
        if j == 0:
            return self._power(0, i)
        if i == 0:
            return self._power(1, j)
        if (i, j) not in self._products:
            known = min(self._known)
            self._products[i, j] = self._times(self._power(0, i), self._power(1, j), known)
        return self._products[i, j]

    def residues(self, s: int) -> list[int]:
        """The classes mod ``stride`` of the leading indices of the u^i v^j,
        0 <= i, j <= s: one block of the coefficient matrix each."""
        (lu, lv), g = self._leads, self.stride
        return sorted({(i * lu + j * lv) % g for i in range(s + 1) for j in range(s + 1)})

    def base(self, s: int) -> int:
        """The least leading grid index of the u^i v^j, 0 <= i, j <= s."""
        return sum(min(0, s * lead) for lead in self._leads)


def _columns(s: int) -> list[tuple[int, int]]:
    return sorted(((i, j) for i in range(s + 1) for j in range(s + 1)), key=sum)


def build_coeff_matrix(
    u: PuiseuxSeries,
    v: PuiseuxSeries,
    s: int,
    rows: int,
    table: MonomialTable,
    residue: int | None = None,
) -> tuple[list[int], list[tuple[int, int]], int, int]:
    """Coefficients of u^i v^j (0 <= i, j <= s) on the common grid, mod the
    prime of ``table``, one packed int per row.

    Returns (rows, columns, base_index, grid_denom): one column per (i, j)
    ordered by total degree i + j and lexicographically within a degree, so
    that a reduced kernel vector has the total degree of its free column;
    one row per grid exponent starting at the least leading index
    ``base_index``, each in the form ``_echelon_mod_p`` takes (fields of
    ``table.width`` bytes, lowest field the first column), cut out of the
    table's packed monomials as slices of the ceil((e + 1)/8) low bytes a
    field below 2^(e+1) fills.  Raises InsufficientTruncation when any
    monomial is not known through the last requested row.  ``table`` holds
    the monomials for at least ``rows`` rows.

    The terms of u^i v^j lie on its lead plus multiples of the table's
    stride g, so the matrix is block diagonal by class mod g: a column is
    nonzero only on the rows of its lead's class.  With ``residue`` r the
    result is the block of class r alone: the rows at the grid indices
    congruent to r mod g, from the first at or above the base, and the
    columns (in the same order) whose leads are congruent to r.
    """
    cols = _columns(s)
    base = table.base(s)
    top = base + rows
    spans = [table.span(i, j) for i, j in cols]
    for (i, j), (lead, known) in zip(cols, spans):
        if lead + known < top:
            raise InsufficientTruncation(
                f"u^{i} v^{j} is known to grid order {lead + known} on the "
                f"1/{table.denom} grid but rows through {top} are required",
                required_grid_order=top,
            )
    g, width = table.stride, table.width
    # the rows kept are first + k h below top, so field k of a kept column,
    # at grid index lead + k g, lands k g/h rows below its lead's row
    first, h = (base, 1) if residue is None else (base + (residue - base) % g, g)
    nrows = len(range(first, top, h))
    block = [(c, lead) for c, (lead, _) in zip(cols, spans) if (lead - first) % h == 0]
    step = len(block) * width
    cells = bytearray(nrows * step)  # the rows' bytes, one after another
    for c, ((i, j), lead) in enumerate(block):
        x = table.fields(i, j)
        off = (lead - first) // h
        if x and off < nrows:
            # one strided byte slice per live byte of a field; the rest stay 0
            n = -(-(nrows - off) * h // g)
            raw = (x & ((1 << 8 * width * n) - 1)).to_bytes(n * width, "little")
            for t in range(table.p.bit_length() // 8 + 1):
                cells[off * step + c * width + t :: g // h * step] = raw[t::width]
    matrix = [int.from_bytes(cells[k * step : (k + 1) * step], "little") for k in range(nrows)]
    return matrix, [c for c, _ in block], base, table.denom


def _echelon_mod_p(
    rows: list[int], ncols: int, width: int, p: int
) -> tuple[list[int], list[int]]:
    """Row echelon form mod p = 2^e - 1 with unit pivots: (echelon rows,
    pivot columns).  A column is a pivot when it is independent of the
    columns before it.  The miner calls it once per block of its coefficient
    matrix (``build_coeff_matrix``'s ``residue``), so a column visits only
    the rows of its own class.  Rows past the first ``ncols`` join, in order
    and as they would have been, only when a column finds no pivot in the
    others: the result is the same, bit for bit.

    Each row is one int of ``width``-byte fields, lowest field the first
    column, every field below 2^(e+1), as ``build_coeff_matrix`` gives it.
    A row below the pivots is shifted right by one field per column, so an
    echelon row stays packed from its pivot column on.  A pivot row is
    normalised to ``fold(fold(row) * inv)`` (``_mersenne_fold``), fields
    below 2^(e+1), and a row operation is one big-int ``row += (p - f) *
    pivot_row``; a field is reduced mod p only when read (delayed reduction,
    Dumas, Giorgi & Pernet, ACM TOMS 35, 2008).  It gains less than p
    2^(e+1) per operation, at most once per pivot, so on n rows it stays
    below 2^(e+1) (n p + 1), which a ``width`` from ``_field_bytes`` for at
    least n rows holds with no carry.
    """
    bits = 8 * width
    mask = (1 << bits) - 1
    fold = _mersenne_fold(p, width, ncols)
    # the rows below the pivots, in the order the swaps leave them, and
    # the rows waiting to join them, the next one last
    m, waiting = rows[:ncols], rows[ncols:][::-1]
    ech: list[int] = []
    pivots: list[int] = []
    for col in range(ncols):
        fs = [(row & mask) % p for row in m]
        while waiting and not any(fs):
            row = waiting.pop()
            for prow in ech:  # the steps it missed: no column was free yet
                row = (row + (p - f) * prow if (f := (row & mask) % p) else row) >> bits
            m.append(row)
            fs.append((row & mask) % p)
        piv = next((r for r, f in enumerate(fs) if f), None)
        if piv is None:
            m = [row >> bits for row in m]
            continue
        prow = fold(fold(m[piv]) * pow(fs[piv], -1, p))
        ech.append(prow)
        # the pivot row trades places with the first row, then leaves
        m[piv], fs[piv] = m[0], fs[0]
        m = [
            (row + (p - f) * prow if f else row) >> bits
            for row, f in zip(m[1:], fs[1:])
        ]
        pivots.append(col)
    return ech, pivots


def _rational_mod_p(a: int, p: int) -> tuple[int, int] | None:
    """n/d with d > 0 and n = a d mod p, or None: the candidate r_i/t_i of
    the extended Euclidean algorithm on (p, a) with the largest quotient
    r_(i-1) // r_i, if above T (maximal-quotient rational reconstruction,
    M. Monagan, ISSAC 2004).  Reach |n| d < p/(2T): an n/d with 2 |n| d
    max(T, |n|, d) < p is a convergent of a/p whose quotient, over
    p/(|n| d) - 2, beats T and all others (each at most max(|n|, d)).  Two
    fractions in that reach may share a residue (2^35 = 1/2^26 mod 2^61 - 1);
    a random residue passes with odds about log2(p)/T."""
    best, frac = QUOTIENT_T, (None if a else (0, 1))
    r0, r1, t0, t1 = p, a, 0, 1
    while r1 and r0 > best:  # no later quotient exceeds r0
        q = r0 // r1
        if q > best:
            best, frac = q, (r1, t1) if t1 > 0 else (-r1, -t1)
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return frac


class _ReducedKernel:
    """The reduced basis of the right kernel of a matrix over Q (1 at one
    free column, 0 at the other free columns and past it; Cohen, GTM 138,
    Alg. 2.3.1), solved mod one prime of the ladder at a time.

    ``matrices`` yields (p, blocks, width) for successive primes: the matrix
    mod p as (columns, rows) blocks, each ``rows`` in the form
    ``_echelon_mod_p`` takes over the ascending global ``columns``, every
    column in one block and no row nonzero outside its block's columns.
    It is read lazily, one prime per climb.  ``lift(end)`` solves the
    vectors at the free columns below ``end`` past those accepted, and
    lifts each by rational reconstruction (``_rational_mod_p``: Monagan's,
    reach |n| d < p/(2T)), scaled to coprime integers with its first
    nonzero entry positive.  A lift with an entry that has no reconstruction has failed,
    and the kernel climbs at once; the caller checks the others exactly,
    then calls ``accept(end)`` when all are exact and ``climb()`` when one
    is not.

    Each block is eliminated on its own and the pivots merged by global
    column.  A column is independent of the columns before it exactly when
    it is of those in its block, and its reduced vector lies in its block,
    so pivots and vectors are those of the whole matrix.

    An exact vector makes its free column dependent over Q, and a column
    independent mod p is independent over Q, so the free columns through the
    last accepted vector are those over Q, and an exact vector is the
    reduced vector at its column whatever the prime.  A climb goes to the
    next prime whose free columns begin with those accepted, and resumes
    after them.
    """

    def __init__(self, matrices: Iterable[tuple[int, list, int]], ncols: int):
        self.ncols = ncols
        self.done: list[int] = []  # the free columns of the accepted vectors
        self._matrices = iter(matrices)
        self.climb()

    def climb(self) -> None:
        for p, blocks, width in self._matrices:
            # (block columns, local pivot column, echelon row)
            ech = []
            for columns, rows in blocks:
                echelon, pivots = _echelon_mod_p(rows, len(columns), width, p)
                ech += [(columns, pc, row) for row, pc in zip(echelon, pivots)]
            pivots = {columns[pc] for columns, pc, _ in ech}
            free = [c for c in range(self.ncols) if c not in pivots]
            if free[: len(self.done)] == self.done:
                self.p, self._free = p, free
                # lifts read each echelon row once, through the last free
                # column; its fields stay keyed by their block's columns
                end = free[-1] + 1 if free else 0
                self._ech = [
                    (columns, columns[pc], _unpack(row, stop - pc, width, pc, 1))
                    for columns, pc, row in ech
                    if pc < (stop := bisect_left(columns, end))
                ]
                return
        raise MiningError(
            "exact kernel not found: its entries are too large for rational "
            f"reconstruction mod 2^{_MERSENNE_EXPONENTS[-1]} - 1"
        )

    def _pending(self, end: int) -> list[int]:
        return [fc for fc in self._free[len(self.done) :] if fc < end]

    def lift(self, end: int) -> list[list[int]]:
        while True:
            vecs = []
            for fc in self._pending(end):
                vec = self._lift(fc)
                if vec is None:
                    break
                vecs.append(vec)
            else:
                return vecs
            self.climb()

    def accept(self, end: int) -> None:
        self.done += self._pending(end)

    def _solve(self, fc: int) -> list[int]:
        """The reduced vector at free column ``fc``, mod p."""
        p = self.p
        # pivot columns past fc stay 0, and x[pc] is 0 until its row sets it;
        # each block's rows are read back from its last pivot, and the
        # blocks share no column
        x = [0] * self.ncols
        x[fc] = 1
        for columns, pc, row in reversed(self._ech):
            if pc < fc:
                x[pc] = -sum(f * x[columns[k]] for k, f in row.items()) % p
        return x

    def _lift(self, fc: int) -> list[int] | None:
        fracs = [_rational_mod_p(val, self.p) for val in self._solve(fc)]
        if None in fracs:
            return None
        den = math.lcm(*(d for _, d in fracs))
        vec = [n * (den // d) for n, d in fracs]
        g = gcd(*vec) if next(val for val in vec if val) > 0 else -gcd(*vec)
        return [val // g for val in vec]


def _pack_rows(matrix: list[list[int]], p: int) -> tuple[list, int]:
    """An integer matrix mod p as ``_ReducedKernel`` takes it, one block of
    every column, and its field bytes."""
    width = _field_bytes(p, len(matrix))
    rows = [_pack({c: x % p for c, x in enumerate(r)}, 0, 1, len(r), width) for r in matrix]
    return [(range(len(matrix[0])), rows)], width


def exact_nullspace(matrix: list[list[int]]) -> list[list[int]]:
    """Basis of the right kernel of an integer matrix: the reduced basis,
    each vector scaled to coprime integers with its first nonzero entry
    positive, each lift checked over the integers (``_ReducedKernel``)."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    kernel = _ReducedKernel(((p, *_pack_rows(matrix, p)) for p in _PRIMES), ncols)
    while True:
        basis = kernel.lift(ncols)
        if not any(sum(a * x for a, x in zip(row, vec)) for vec in basis for row in matrix):
            return basis
        kernel.climb()


# ---------------------------------------------------------------------------
# mined relations
# ---------------------------------------------------------------------------


class NumericCheck(Value):
    r: Fraction
    digits: int
    residual: str


class MinedRelation(Value):
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

    P is evaluated as P'(U, V) = P(u, v) with U = u^a and V = v^b, a and b
    the gcds of the relation's u- and v-exponents (1 for a gcd of 0), by
    Horner in U: H_d = Q_d and H_i = H_(i+1) U + Q_i, Q_i = sum_j c_ij V^j
    one sum on the grid and scale of its V^j, so one product per U-degree.  u
    and v are cut R = E - b above their leading exponents, so U, V and V^j
    are known R above their leading exponents (the product bound of
    ``PuiseuxSeries.__mul__``: the unknown part of either factor times the
    other's lowest term).  Let L_i be the least (i' - i) val(U) + j val(V)
    over the monomials U^i' V^j of P' with i' >= i: no term of H_i lies
    below L_i, L_0 = b, and L_i is the lesser of L_(i+1) + val(U) and the
    least j val(V) in Q_i, through which plus R Q_i is known.  If H_(i+1)
    is known through L_(i+1) + R, its product with U is known through
    L_(i+1) + val(U) + R, so H_i is known through L_i + R.  By induction P
    = H_0 is known through b + R = E, as from the uncut factors.  Raises
    InsufficientTruncation when it is not, because u or v is known less
    than R above its leading exponent.
    """
    vu, vv = u.leading()[0], v.leading()[0]
    base_exp = min(i * vu + j * vv for i, j, _ in poly.terms)
    top = math.floor(base_exp) + through_rows
    reach = top - base_exp
    u, v = u.truncate(vu + reach), v.truncate(vv + reach)
    a = gcd(*(i for i, _, _ in poly.terms)) or 1
    b = gcd(*(j for _, j, _ in poly.terms)) or 1
    u, v = u ** a, v ** b
    v_pows = [PuiseuxSeries.constant(1), v]
    while len(v_pows) <= max(j for _, j, _ in poly.terms) // b:
        v_pows.append(v_pows[-1] * v)
    residual = None
    for i in range(max(i for i, _, _ in poly.terms) // a * a, -1, -a):
        group = [(v_pows[j // b], c) for i_, j, c in poly.terms if i_ == i]
        n = math.lcm(*(w.denom for w, _ in group))
        scale = math.lcm(*(w.scale for w, _ in group))
        nums: dict[int, int] = {}
        for w, c in group:
            f, m = n // w.denom, c * (scale // w.scale)
            for k, x in w.nums.items():
                nums[k * f] = nums.get(k * f, 0) + m * x
        his = [w.hi * (n // w.denom) for w, _ in group if w.hi is not None]
        q_i = PuiseuxSeries._make(n, nums, scale, min(his, default=None))
        residual = q_i if residual is None else residual * u + q_i
    need = top * residual.denom
    if residual.hi is not None and residual.hi < need:
        raise InsufficientTruncation(
            f"residual known to grid order {residual.hi} < required {need}",
            required_grid_order=need,
        )
    return residual.truncate(top), base_exp


def _first_nonzero(
    poly: BivarIntPoly,
    u: PuiseuxSeries,
    v: PuiseuxSeries,
    through_rows: int,
) -> tuple[int, Fraction] | None:
    """The first nonzero coefficient of P(u, v) below the exponent floor(b)
    + ``through_rows``, b the least leading exponent of its monomials
    (``_horner_residual``): None when there is none, else (k, e) with e its
    exponent and k its grid row above b, on the grid of the residual below
    that exponent."""
    residual, base_exp = _horner_residual(poly, u, v, through_rows)
    if not residual.nums:
        return None
    lead = min(residual.nums)
    return lead - math.floor(base_exp * residual.denom), Fraction(lead, residual.denom)


EXTRA_ORDERS = 25  # series rows a relation must vanish on past its matrix's
ZERO_PRODUCTS = "relation evaluates on identically zero products"
POINTS = (1, 2)  # the r = 1, 2 at which a relation is checked numerically


def passes(residual: BigReal, digits: int, *terms: BigReal) -> bool:
    """The one pass rule for a relation or catalog residual: |residual| below
    10^(-digits+10) times max(1, |t|) over the ``terms`` t it was summed from,
    as a sum's rounding error grows with its largest term (Higham, 5.1)."""
    size = max([1] + [abs(t) for t in terms])
    return abs(residual) < size * numeric.ten_to(-digits + 10)


def validate(
    rel: MinedRelation,
    digits: int = 60,
    u: PuiseuxSeries | None = None,
    v: PuiseuxSeries | None = None,
) -> MinedRelation:
    """Re-certify a relation on ``EXTRA_ORDERS`` extra series rows and at
    the numeric points ``POINTS``.

    Series are built from the bindings when not supplied, once, with
    relative order enough for every checked row.  A point's residual is
    judged against its terms by ``passes``, the catalog's rule.  Raises
    ValidationFailed on the first offending order or point.
    """
    rows_needed = rel.validated_grid_order + EXTRA_ORDERS
    if u is None or v is None:
        if rel.u_binding is None or rel.v_binding is None:
            raise ValidationFailed("no series supplied and no bindings to rebuild from")
        u, v = build_binding_series(rel.u_binding, rel.v_binding, Fraction(rows_needed))
    if u.is_zero() or v.is_zero():
        raise MiningError(ZERO_PRODUCTS)
    first = _first_nonzero(rel.poly, u, v, rows_needed)
    if first is not None:
        raise ValidationFailed(
            f"series residual is nonzero {first[0]} grid rows above the base exponent",
            exponent=first[1],
        )
    checks = []
    for r in POINTS:
        r = Fraction(r)
        if rel.u_binding is not None and rel.v_binding is not None:
            uval = rel.u_binding.numeric(r, digits)
            vval = get_v_binding(rel.v_binding).numeric(r, digits)
        else:
            q = nome_from_r(r, digits)
            uval = numeric.real_eval_series(u, q)
            vval = numeric.real_eval_series(v, q)
        terms = rel.poly.eval_terms(uval, vval)
        resid = sum(terms[1:], terms[0])
        if not passes(resid, digits, *terms):
            raise ValidationFailed(
                f"numeric residual {abs(resid).nstr(5)} at r={r} is not below 10^({10 - digits})"
                f" times max(1, largest term {max(abs(t) for t in terms).nstr(5)})"
            )
        checks.append(NumericCheck(r, digits, numeric.residual_str(resid, digits)))
    return replace(
        rel,
        validated_grid_order=rows_needed,
        numeric_checks=tuple(checks),
    )


def mine(
    u: PuiseuxSeries | None,
    v: PuiseuxSeries | None,
    s_max: int,
    M: int | None = None,
    *,
    u_binding: ABinding | None = None,
    v_binding: str | None = None,
    digits: int = 60,
) -> MinedRelation:
    """Search degrees s = 1..s_max and return the first kernel relation
    that validates.

    With bindings, u and v may be None: mine sizes its rows from the declared
    shapes (``ABinding.shape``, ``VBinding.shape``) and builds u and v once,
    as far as those rows need, after refusing a zero factor: A(a, p)^power
    with ``ThetaSpec.is_zero`` and power > 0, or an unbound series with no
    known nonzero term.  At each s the reduced kernel basis of the coefficient
    matrix is lifted lazily, in order of total degree, and each total degree's
    vectors are tried fewest terms first, then in lexicographic order, so the
    returned polynomial has the least total degree present in the kernel.  One
    elimination per prime serves every total degree, one block of the matrix
    at a time (``build_coeff_matrix``'s ``residue``).

    The matrix is built mod the first prime of the ladder, the next prime's
    only when a lift fails; each prime's table is built once, cut to the
    rows of the largest matrix, and serves every degree.  ``validate``'s
    series residual is the exact check of a lift, so a candidate costs no
    evaluation beyond its certificate: a residual nonzero on the matrix rows
    means the vector is not in the kernel over Q, and the degree climbs.
    Once a candidate validates, the lifts after it of the same total degree
    are checked on the matrix rows too: a bad lift among them could hide a
    relation that sorts before it, so the degree climbs as well.
    MiningNotFound carries each degree's rank over Q.
    """
    bound = u_binding is not None and v_binding is not None
    if bound:
        if u_binding.spec.is_zero and u_binding.power > 0:
            raise MiningError(ZERO_PRODUCTS)
        shapes = [u_binding.shape, get_v_binding(v_binding).shape]
    elif u.is_zero() or v.is_zero():
        raise MiningError(ZERO_PRODUCTS)
    else:  # an unbound series steps by one row of its own grid
        shapes = [(w.leading()[0], Fraction(1, w.denom)) for w in (u, v)]
    rank_profile: dict[int, int] = {}
    failures: list[tuple[str, Fraction | None]] = []  # (message, series exponent)
    all_rows = {
        s: (s + 1) ** 2 + 10 + _valuation_spread(shapes, s) for s in range(1, s_max + 1)
    }
    max_rows = max(all_rows.values())
    # every matrix and every validation window fits in max_rows +
    # EXTRA_ORDERS rows; bound series missing or known less far relative to
    # their leading terms are built that far, once, before the first matrix
    needed = max_rows + EXTRA_ORDERS
    if bound and min(0 if w is None else w.relative_order() for w in (u, v)) < needed:
        u, v = build_binding_series(u_binding, v_binding, Fraction(needed))
    if M is None:
        M = common_known_order(u, v)
        if M is None:
            raise MiningError("both series are exact; specify M explicitly")
    # a prime that divides a scale cannot invert it
    primes = [p for p in _PRIMES if u.scale % p and v.scale % p]
    tables: dict[int, MonomialTable] = {}

    def nonzero_below(poly: BivarIntPoly, rows: int, top: Fraction) -> bool:
        """Whether P(u, v) is nonzero on the matrix rows, below ``top``."""
        first = _first_nonzero(poly, u, v, rows)
        return first is not None and first[1] < top

    def matrices(s: int, rows: int) -> Iterator[tuple[int, list, int]]:
        index = {c: k for k, c in enumerate(_columns(s))}
        for p in primes:
            if p not in tables:
                tables[p] = MonomialTable(u, v, max_rows, p)
            table = tables[p]
            blocks = []
            for r in table.residues(s):
                block, block_cols = build_coeff_matrix(u, v, s, rows, table, r)[:2]
                blocks.append(([index[c] for c in block_cols], block))
            yield p, blocks, table.width

    for s, rows in all_rows.items():
        cols = _columns(s)
        kernel = _ReducedKernel(matrices(s, rows), len(cols))
        # a lift is exact when P(u, v) vanishes on the matrix rows, the grid
        # rows below this exponent
        top = Fraction(tables[kernel.p].base(s) + rows, tables[kernel.p].denom)
        # the reduced basis in order of total degree: each total degree's
        # vectors are lifted together and tried fewest terms first
        for end in [sum(1 for c in cols if sum(c) <= d) for d in range(2 * s + 1)]:
            while True:
                polys = sorted(
                    (
                        BivarIntPoly.normalized([(i, j, c) for (i, j), c in zip(cols, vec)])
                        for vec in kernel.lift(end)
                    ),
                    key=lambda p: (p.term_count(), p.terms),
                )
                rejected = []
                for k, poly in enumerate(polys):
                    rel = MinedRelation(
                        poly=poly,
                        degree=s,
                        validated_grid_order=rows,
                        u_binding=u_binding,
                        v_binding=v_binding,
                    )
                    try:
                        found = validate(rel, digits=digits, u=u, v=v)
                    except ValidationFailed as exc:
                        if exc.exponent is not None and exc.exponent < top:
                            break  # not a kernel vector over Q: a bad lift
                        # a kernel vector failing certification is an
                        # artifact of the truncation; keep looking
                        rejected.append((f"s={s}: {poly} rejected ({exc})", exc.exponent))
                        continue
                    # a bad lift after it may hide a relation that sorts
                    # before it
                    if not any(nonzero_below(later, rows, top) for later in polys[k + 1 :]):
                        return found
                    break
                else:
                    kernel.accept(end)
                    failures += rejected
                    break
                kernel.climb()
        rank_profile[s] = len(cols) - len(kernel.done)
    msg = f"no certified integer relation of degree <= {s_max} through grid order {M}"
    if failures:
        numeric_only = sum(exponent is None for _, exponent in failures)
        if numeric_only:
            msg += "; kernel vectors that passed the series check and failed numerically: "
            msg += str(numeric_only)
        msg += "; rejected candidates: " + " | ".join(text for text, _ in failures[:4])
    raise MiningNotFound(msg, rank_profile)


def _valuation_spread(shapes: Sequence[tuple[Rat, Rat]], s: int) -> int:
    """Spread between the least and greatest leading exponents of the
    monomials u^i v^j with 0 <= i, j <= s, the corners i, j in {0, s}: s
    (|val u| + |val v|), in units of the grid that holds the (lead, step)
    ``shapes`` of u and v.  Added to the row count so every column keeps a
    full window of informative rows."""
    denom = math.lcm(*(x.denominator for shape in shapes for x in shape))
    return int(s * sum(abs(lead) for lead, _ in shapes) * denom)
