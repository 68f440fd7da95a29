"""Truncated Laurent-Puiseux series over the rationals.

A series lives on the exponent grid (1/denom)*Z.  Its coefficients are
integer numerators over one common denominator: the coefficient at grid
index k is ``nums[k] / scale``, stored sparsely by grid index.  ``hi`` is the
exclusive knowledge bound on the grid: every coefficient at a grid index
``k < hi`` is known exactly, coefficients at ``k >= hi`` are unknown.  A
series with ``hi is None`` is exactly known everywhere (a Laurent
polynomial).  Finitely many negative exponents are allowed; indices below
the smallest stored key are known to be zero.

All arithmetic computes the tightest sound truncation bound for the result
rather than assuming the operands share one.  A product is computed by
Kronecker substitution: each factor becomes one big integer and CPython's
big-int multiply does the convolution.  ``_pack`` writes the factors'
coefficients into fixed-width signed fields of that integer and ``_unpack``
reads the product's back.  Fields of at most 8 bytes go in bulk: each value
plus half a field sits in an 8-byte machine word, ``width`` strided byte
copies move all the fields between words and the packed bytes at once,
and the half offsets come off the whole integer.  Wider fields are written
and read one by one, which measures faster than splitting each into words.
Units are inverted, and divided into a numerator, by their recurrence, at a
cost per term, so only sparse theta and eta series are.  Square roots and
exponentials are Newton iterations on series values, whose products
``__mul__`` computes and cuts.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from array import array
from collections.abc import Iterable, Mapping
from fractions import Fraction
from itertools import compress
from math import gcd

from .values import MAX_TERMS, Rat, ThetaSpec

# fields of at most this many bytes are packed and read through 8-byte
# machine words, whose byte order must be little-endian; wider fields go one
# by one, which measures faster than splitting them into words
_BULK_BYTES = 8 if sys.byteorder == "little" else 0

# the largest packed Kronecker product or product form: the golden corpus and
# the benchmark jobs pack at most 12,558 bytes (verify --all, 299 fields of 42
# bytes), the product forms among them at most 2,424 (expand's A(1/2, 2) at
# order 202, 404 fields of 6 bytes)
MAX_PRODUCT_BYTES = 1 << 26

__all__ = [
    "PuiseuxSeries",
    "common_known_order",
    "ThetaSpec",
    "invert_unit",
    "exp_series",
    "sqrt_series",
    "rescale",
    "eta_series",
    "theta_series",
    "A_series",
    "A_series_product",
    "A_inverse_series",
    "modulus_series",
    "k_series",
    "nome_sqrt_exp_form",
    "h5_series",
    "eta5_series",
]


def _ceil_div(a: int, b: int) -> int:
    # ceil(a/b) for positive b, exact on ints
    return -((-a) // b)


def _grid_bound(order: Rat, denom: int) -> int:
    """Exclusive grid index for the exponent bound ``order``."""
    f = Fraction(order) * denom
    return math.ceil(f)


def _min_bound(*bounds: int | None) -> int | None:
    finite = [b for b in bounds if b is not None]
    return min(finite) if finite else None


def _integer_terms(terms: Mapping[int, Rat]) -> tuple[dict[int, int], int]:
    """The terms scaled to integers by the lcm of their denominators, and
    that lcm."""
    scale = math.lcm(*(c.denominator for c in terms.values()))
    return {k: c.numerator * (scale // c.denominator) for k, c in terms.items()}, scale


def _half_offsets(count: int, width: int) -> tuple[int, int]:
    """Half a ``width``-byte field, and the int with it in each of ``count``
    fields."""
    half = 1 << (8 * width - 1)
    return half, int.from_bytes(half.to_bytes(width, "little") * count, "little")


def _pack(
    terms: Mapping[int, int], base: int, stride: int, count: int, width: int
) -> int:
    """Evaluate sum c * x^((k - base) / stride) at x = 2^(8 * width).

    Each coefficient must fit a signed ``width``-byte field,
    -2^(8 width - 1) <= c < 2^(8 width - 1); one outside raises
    ``ValueError``.  Fields of at most 8 bytes hold c plus half a field, so
    every one is unsigned: they are written into 8-byte words, moved into
    place with ``width`` strided byte copies, and the half offsets come off
    the whole int at once.  Wider fields are written one by one, positive
    and negative coefficients separately, each with a plain unsigned
    ``to_bytes``.
    """
    half = 1 << (8 * width - 1)
    if terms and not (-half <= min(terms.values()) and max(terms.values()) < half):
        raise ValueError(f"a coefficient does not fit a signed {width}-byte field")
    if width <= _BULK_BYTES:
        words = array("Q", (half,)) * count
        for k, c in terms.items():
            words[(k - base) // stride] = c + half
        word_bytes = words.tobytes()
        fields = bytearray(count * width)
        for j in range(width):
            fields[j::width] = word_bytes[j::8]
        return int.from_bytes(fields, "little") - _half_offsets(count, width)[1]
    pos = bytearray(count * width)
    neg = None
    for k, c in terms.items():
        at = (k - base) // stride * width
        if c > 0:
            pos[at : at + width] = c.to_bytes(width, "little")
        else:
            if neg is None:
                neg = bytearray(count * width)
            neg[at : at + width] = (-c).to_bytes(width, "little")
    value = int.from_bytes(pos, "little")
    if neg is not None:
        value -= int.from_bytes(neg, "little")
    return value


def _int_product(
    a: Mapping[int, int], b: Mapping[int, int], hi: int | None
) -> dict[int, int]:
    """Integer coefficients of the product of two sparse integer series below
    grid index ``hi``, by Kronecker substitution: both factors are packed on
    the gcd stride of their index offsets into one big int each and
    multiplied once.  A square (``a is b``) is packed once."""
    if not a or not b:
        return {}
    va, vb = min(a), min(b)
    stride = gcd(*map(va.__rsub__, a), *map(vb.__rsub__, b)) or 1
    na = (max(a) - va) // stride + 1
    nb = (max(b) - vb) // stride + 1
    base = va + vb
    count = na + nb - 1
    if hi is not None:
        count = min(count, _ceil_div(hi - base, stride))
    # |product coefficient| <= min(#a, #b) * max|a| * max|b| < 2^(bits - 1)
    bits = (
        max(map(abs, a.values())).bit_length()
        + max(map(abs, b.values())).bit_length()
        + min(len(a), len(b)).bit_length()
        + 1
    )
    width = (bits + 7) // 8
    if (na + nb - 1) * width > MAX_PRODUCT_BYTES:
        raise ValueError(f"a series product packs to more than {MAX_PRODUCT_BYTES} bytes")
    pa = _pack(a, va, stride, na, width)
    prod = pa * pa if a is b else pa * _pack(b, vb, stride, nb, width)
    return _unpack(prod, count, width, base, stride)


def _unpack(
    value: int, count: int, width: int, base: int, stride: int
) -> dict[int, int]:
    """The low ``count`` digits of ``value`` in base 2^(8 * width), each read
    as a signed ``width``-byte number (``value`` is taken modulo
    2^(8 * width * count)): the nonzero ones, digit m keyed by grid index
    base + m * stride."""
    # adding half a field to each field absorbs the borrows of negative
    # fields, so that every field holds its digit plus half a field as an
    # unsigned number; higher fields are cut off
    half, offset = _half_offsets(count, width)
    low = (value + offset) & ((1 << (8 * width * count)) - 1)
    keys = range(base, base + count * stride, stride)
    if width <= _BULK_BYTES:
        # spread the fields into 8-byte words and read them all at once
        fields = low.to_bytes(width * count, "little")
        word_bytes = bytearray(8 * count)
        for j in range(width):
            word_bytes[j::8] = fields[j::width]
        digits = list(map(half.__rsub__, memoryview(word_bytes).cast("Q")))
        return dict(compress(zip(keys, digits), digits))
    # the xor takes the half off again without a carry, so that every field
    # holds its own digit as a two's complement number
    raw = (low ^ offset).to_bytes(width * count, "little")
    return {
        k: c
        for k, m in zip(keys, range(0, width * count, width))
        if (c := int.from_bytes(raw[m : m + width], "little", signed=True))
    }


class PuiseuxSeries:
    """Sparse exact series on the grid (1/denom)*Z, truncated at ``hi``.

    The coefficient at grid index k is ``nums[k] / scale``.  The form is
    canonical: ``nums`` holds nonzero integers below ``hi`` only,
    ``gcd(scale, *nums.values()) == 1`` with ``scale`` positive (1 for the
    zero series), and the grid is the coarsest one carrying every term.

    Series may share one ``nums`` dict (a truncation, a Newton iterate, an
    operand's own terms): that is safe only because nothing writes into a
    ``nums`` after construction, so an operation that builds its result in
    place, as ``__add__`` does, copies it first.
    """

    __slots__ = ("denom", "nums", "scale", "hi")

    def __init__(self, denom: int, coeffs: Mapping[int, Rat], hi: int | None):
        nums, scale = _integer_terms(coeffs)
        self._init(denom, nums, scale, hi)

    @classmethod
    def _make(
        cls, denom: int, nums: Mapping[int, int], scale: int, hi: int | None
    ) -> "PuiseuxSeries":
        """The series sum nums[k]/scale * q^(k/denom) + O(q^(hi/denom))."""
        self = cls.__new__(cls)
        self._init(denom, nums, scale, hi)
        return self

    def _init(self, denom: int, nums: Mapping[int, int], scale: int, hi: int | None):
        if denom < 1:
            raise ValueError("grid denominator must be >= 1")
        if not all(nums.values()) or (hi is not None and nums and max(nums) >= hi):
            nums = {k: c for k, c in nums.items() if c and (hi is None or k < hi)}
        if scale != 1:
            g = gcd(scale, *nums.values())
            if g != 1:
                nums = {k: c // g for k, c in nums.items()}
                scale //= g
        # normalize to the smallest grid supporting all nonzero exponents
        g = denom
        for k in nums:
            g = gcd(g, k)
            if g == 1:
                break
        if g > 1:
            nums = {k // g: c for k, c in nums.items()}
            if hi is not None:
                hi = _ceil_div(hi, g)
            denom //= g
        for name, value in zip(self.__slots__, (denom, nums, scale, hi)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("PuiseuxSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "PuiseuxSeries":
        return cls(1, {}, None)

    @classmethod
    def constant(cls, c: Rat) -> "PuiseuxSeries":
        return cls(1, {0: Fraction(c)}, None)

    @classmethod
    def monomial(cls, c: Rat, exponent: Rat) -> "PuiseuxSeries":
        e = Fraction(exponent)
        return cls(e.denominator, {e.numerator: Fraction(c)}, None)

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[Rat, Rat]], order: Rat | None = None
    ) -> "PuiseuxSeries":
        """Build from (exponent, coefficient) pairs; ``order`` is an optional
        exclusive exponent bound."""
        items = [(Fraction(e), Fraction(c)) for e, c in pairs]
        denom = 1
        for e, _ in items:
            denom = denom * e.denominator // gcd(denom, e.denominator)
        coeffs: dict[int, Fraction] = {}
        for e, c in items:
            k = int(e * denom)
            coeffs[k] = coeffs.get(k, Fraction(0)) + c
        hi = None if order is None else _grid_bound(order, denom)
        return cls(denom, coeffs, hi)

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> dict[int, Fraction]:
        """The nonzero known coefficients by grid index."""
        return {k: Fraction(c, self.scale) for k, c in self.nums.items()}

    def is_zero(self) -> bool:
        """True when no known coefficient is nonzero."""
        return not self.nums

    def leading(self) -> tuple[Fraction, Fraction]:
        """(exponent, coefficient) of the lowest nonzero term."""
        if not self.nums:
            raise ValueError("series has no nonzero term within its bound")
        k = min(self.nums)
        return Fraction(k, self.denom), Fraction(self.nums[k], self.scale)

    def coefficient(self, exponent: Rat) -> Fraction:
        """Coefficient at a rational exponent; raises beyond the bound."""
        e = Fraction(exponent)
        k = e * self.denom
        if self.hi is not None and k >= self.hi:
            raise ValueError(f"exponent {e} is beyond the truncation bound")
        c = self.nums.get(k.numerator, 0) if k.denominator == 1 else 0
        return Fraction(c, self.scale)

    def knowledge_order(self) -> Fraction | None:
        """Exclusive exponent bound of knowledge (None when exact)."""
        return None if self.hi is None else Fraction(self.hi, self.denom)

    def relative_order(self) -> Fraction | float:
        """Knowledge order minus the leading exponent (``inf`` when exact, 0
        when no known coefficient is nonzero).  A product's is at least the
        least of its factors'."""
        if self.hi is None:
            return math.inf
        if not self.nums:
            return Fraction(0)
        return Fraction(self.hi - min(self.nums), self.denom)

    def terms(self) -> list[tuple[Fraction, Fraction]]:
        return [(Fraction(k, self.denom), c) for k, c in sorted(self.coeffs.items())]

    # -- alignment ---------------------------------------------------------

    def _rebased(self, denom: int) -> tuple[dict[int, int], int | None]:
        if denom == self.denom:
            return self.nums, self.hi
        f = denom // self.denom
        nums = {k * f: c for k, c in self.nums.items()}
        hi = None if self.hi is None else self.hi * f
        return nums, hi

    def _common(self, other: "PuiseuxSeries"):
        n = self.denom * other.denom // gcd(self.denom, other.denom)
        a, ha = self._rebased(n)
        b, hb = other._rebased(n)
        return n, a, ha, b, hb

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "PuiseuxSeries":
        other = _coerce(other)
        n, a, ha, b, hb = self._common(other)
        scale = math.lcm(self.scale, other.scale)
        fa, fb = scale // self.scale, scale // other.scale
        # a copy: ``a`` may be self's own dict
        a = {k: c * fa for k, c in a.items()} if fa != 1 else dict(a)
        for k, c in b.items():
            a[k] = a.get(k, 0) + c * fb
        return PuiseuxSeries._make(n, a, scale, _min_bound(ha, hb))

    __radd__ = __add__

    def __neg__(self) -> "PuiseuxSeries":
        nums = {k: -c for k, c in self.nums.items()}
        return PuiseuxSeries._make(self.denom, nums, self.scale, self.hi)

    def __sub__(self, other) -> "PuiseuxSeries":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "PuiseuxSeries":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "PuiseuxSeries":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                # scalar zero: exactly zero wherever self was known
                return PuiseuxSeries._make(self.denom, {}, 1, self.hi)
            nums = {k: c.numerator * v for k, v in self.nums.items()}
            return PuiseuxSeries._make(
                self.denom, nums, self.scale * c.denominator, self.hi
            )
        other = _coerce(other)
        n, a, ha, b, hb = self._common(other)
        if (ha is None and not a) or (hb is None and not b):
            return PuiseuxSeries(1, {}, None)  # exact zero factor
        # sound product bound: an unknown term of one factor (index >= hi)
        # paired with the lowest possibly-nonzero term of the other must not
        # land below the claimed bound
        la = min(a) if a else ha
        lb = min(b) if b else hb
        bound_a = None if ha is None else ha + lb
        bound_b = None if hb is None else hb + la
        hi = _min_bound(bound_a, bound_b)
        if hi is not None:
            # terms that pair with the other factor's lowest term at or
            # above the bound cannot contribute
            if a and max(a) >= hi - lb:
                a = {k: c for k, c in a.items() if k < hi - lb}
            if b and max(b) >= hi - la:
                b = {k: c for k, c in b.items() if k < hi - la}
        if other is self:
            b = a  # one trimmed dict for both factors: a square packs once
        scale = self.scale * other.scale
        return PuiseuxSeries._make(n, _int_product(a, b, hi), scale, hi)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "PuiseuxSeries":
        if not isinstance(n, int):
            raise TypeError("series powers must be integers")
        if n < 0:
            return invert_unit(self) ** (-n)
        if n == 0:
            return PuiseuxSeries.constant(1)
        # binary powering that starts from the lowest set bit:
        # floor(log2 n) squarings and popcount(n) - 1 further products
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = PuiseuxSeries.constant(other)
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return (
            self.denom == other.denom
            and self.nums == other.nums
            and self.scale == other.scale
            and self.hi == other.hi
        )

    def __hash__(self):
        return hash((self.denom, tuple(sorted(self.nums.items())), self.scale, self.hi))

    def agrees_with(self, other: "PuiseuxSeries", through: Rat | None = None) -> bool:
        """Coefficient-wise equality below min of the knowledge bounds and
        the optional exponent bound ``through`` (exclusive)."""
        diff = self - other
        if through is not None:
            diff = diff.truncate(through)
        return diff.is_zero()

    def truncate(self, order: Rat) -> "PuiseuxSeries":
        hi = _min_bound(self.hi, _grid_bound(order, self.denom))
        return PuiseuxSeries._make(self.denom, self.nums, self.scale, hi)

    # -- display and serialization ------------------------------------------

    def __repr__(self) -> str:
        ts = self.terms()
        if not ts:
            body = "0"
        else:
            parts = []
            for e, c in ts[:8]:
                parts.append(f"{c}*q^({e})" if e else f"{c}")
            body = " + ".join(parts)
            if len(ts) > 8:
                body += " + ..."
        tail = "" if self.hi is None else f" + O(q^({Fraction(self.hi, self.denom)}))"
        return f"<series {body}{tail}>"

    def to_str(self) -> str:
        """Full textual form, deterministic."""
        ts = self.terms()
        if not ts:
            return "0" + ("" if self.hi is None else f" + O(q^({self.knowledge_order()}))")
        parts = [f"({c})*q^({e})" if e else f"({c})" for e, c in ts]
        s = " + ".join(parts)
        if self.hi is not None:
            s += f" + O(q^({self.knowledge_order()}))"
        return s

    def to_json_obj(self) -> dict:
        return {
            "denom": self.denom,
            "terms": [[k, str(c)] for k, c in sorted(self.coeffs.items())],
            "hi": self.hi,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "PuiseuxSeries":
        coeffs = {int(k): Fraction(c) for k, c in obj["terms"]}
        return cls(int(obj["denom"]), coeffs, obj["hi"])

    @classmethod
    def from_json(cls, text: str) -> "PuiseuxSeries":
        return cls.from_json_obj(json.loads(text))


def common_known_order(a: PuiseuxSeries, b: PuiseuxSeries) -> int | None:
    """Index on the common grid of a and b below which both are known
    (None when both are exact)."""
    n = math.lcm(a.denom, b.denom)
    return _min_bound(*(w.hi * (n // w.denom) for w in (a, b) if w.hi is not None))


def _coerce(x) -> PuiseuxSeries:
    if isinstance(x, PuiseuxSeries):
        return x
    if isinstance(x, (int, Fraction)):
        return PuiseuxSeries.constant(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a series")


# ---------------------------------------------------------------------------
# unit inversion, exp, sqrt, rescale
# ---------------------------------------------------------------------------


def _rel_length(u: PuiseuxSeries, what: str) -> int:
    """Number of coefficients known of u above its leading term: the length
    of a unit operation's result."""
    if u.hi is None:
        raise ValueError(f"{what} of an exact series is infinite; truncate it first")
    return u.hi - min(u.nums)


def _newton_lengths(n: int) -> list[int]:
    """Known lengths of a Newton iteration that starts from one term and
    at most doubles it each step until n terms are known."""
    out = []
    while n > 1:
        out.append(n)
        n = (n + 1) // 2
    return out[::-1]


def _rebound(x: PuiseuxSeries, n: int) -> PuiseuxSeries:
    """A Newton iterate on grid 1, claimed known below n.  The step that
    follows makes every term below n right, and with this bound the
    products' own bounds cut each operand where the step needs it."""
    return PuiseuxSeries._make(1, x.nums, x.scale, n)


def invert_unit(u: PuiseuxSeries) -> PuiseuxSeries:
    """Multiplicative inverse of a truncated series with nonzero leading
    coefficient, known as far above its leading term as u is: the quotient
    of the exact 1 by u."""
    return _divide(PuiseuxSeries.constant(1), u)


def _divide(num: PuiseuxSeries, u: PuiseuxSeries) -> PuiseuxSeries:
    """num / u for a series num with a nonzero term and a truncated series u
    with nonzero leading coefficient, known as far above its leading term as
    both num and u are, as num * invert_unit(u) is.

    On the common grid, with u = q^alpha (a_0 + a_1 x + ...) / scale_u and
    x = q^(s/denom), s the gcd stride of u's own offsets, the terms of num
    fall into residue classes mod s, and each class of the quotient is num's
    terms in that class divided by u alone.  A class q^beta (n_0 + n_1 x +
    ...) / scale_num runs r_n = (n_n - sum_k a_k r_(n-k)) / a_0 on the
    integers B_n = c^(n+1) r_n = sign(a_0) c^n n_n - sum_k sign(a_0) c^(k-1)
    a_k B_(n-k), c = |a_0|, with a power of c in the scale.  Each step costs
    one product per term of u: cheap on a theta or eta series, quadratic on
    a dense unit.
    """
    if not u.nums:
        raise ValueError("cannot invert a series that is zero to its bound")
    n_rel = _rel_length(u, "inversion")
    denom = math.lcm(num.denom, u.denom)
    fn, fu = denom // num.denom, denom // u.denom
    alpha, beta = min(u.nums) * fu, min(num.nums) * fn
    known = n_rel * fu if num.hi is None else min(n_rel * fu, num.hi * fn - beta)
    stride = gcd(*(k * fu - alpha for k in u.nums)) or known
    classes: dict[int, dict[int, int]] = {}
    for k, x in num.nums.items():
        if (at := k * fn - beta) < known:
            classes.setdefault(at % stride, {})[at // stride] = x
    lengths = {r: _ceil_div(known - r, stride) for r in classes}
    if sum(lengths.values()) > MAX_TERMS:
        raise ValueError(f"inversion: more than {MAX_TERMS} terms")
    length = max(lengths.values())
    a0 = u.nums[min(u.nums)]
    c = abs(a0)
    sign = a0 // c
    units = sorted(u.nums.items())[1:]
    ks = [(k * fu - alpha) // stride for k, _ in units]
    cs = [sign * a * c ** (j - 1) for j, (_, a) in zip(ks, units)]
    nums = {}
    for r, tops in classes.items():
        b, m, kn, cn = [], 0, [], []
        for n in range(lengths[r]):
            if m < len(ks) and ks[m] == n:  # kn, cn: the terms a_k with k <= n
                m += 1
                kn, cn = ks[:m], cs[:m]
            t = sign * tops[n] * c ** n if n in tops else 0
            b.append(t - sum(map(operator.mul, cn, map(b.__getitem__, map(n.__sub__, kn)))))
        lead = r + beta - alpha
        nums.update((lead + n * stride, u.scale * x * c ** (length - 1 - n))
                    for n, x in enumerate(b) if x)
    return PuiseuxSeries._make(denom, nums, num.scale * c ** length, beta - alpha + known)


def exp_series(u: PuiseuxSeries) -> PuiseuxSeries:
    """exp of a series with strictly positive leading exponent, known as
    far as u is."""
    if not u.nums:
        if u.hi is None:
            return PuiseuxSeries.constant(1)  # exp of the exact zero
        if u.hi <= 0:
            raise ValueError("exp needs knowledge of the constant term")
        return PuiseuxSeries(u.denom, {0: Fraction(1)}, u.hi)
    if min(u.nums) <= 0:
        raise ValueError("exp requires a strictly positive leading exponent")
    if u.hi is None:
        raise ValueError("exp of an exact series is infinite; truncate it first")
    # Newton carrying g = 1/f (Brent, JACM 23, 1976), D = q d/dq: if f = exp(w)
    # below m, g + g (1 - f g) = 1/f below m, e = (Df - f Dw) g vanishes below
    # m, and f (1 - D^-1 e) = f (1 + w - log f) is exp(w) below 2m
    dw = PuiseuxSeries._make(1, {k: k * c for k, c in u.nums.items()}, u.scale, u.hi)
    f = g = PuiseuxSeries.constant(1)
    m = 1
    for n in _newton_lengths(u.hi):
        g = _rebound(g, m)
        g = g + g * (1 - f * g)
        f = _rebound(f, n)
        df = PuiseuxSeries._make(1, {k: k * c for k, c in f.nums.items()}, f.scale, n)
        e = (df - f * dw) * g
        lcm = math.lcm(*e.nums)
        log_fw = {k: c * (lcm // k) for k, c in e.nums.items()}  # log f - w
        f, m = f - f * PuiseuxSeries._make(1, log_fw, e.scale * lcm, n), n
    return PuiseuxSeries._make(u.denom, f.nums, f.scale, u.hi)


def _fraction_sqrt(c: Fraction) -> Fraction | None:
    if c < 0:
        return None
    pn = math.isqrt(c.numerator)
    pd = math.isqrt(c.denominator)
    if pn * pn != c.numerator or pd * pd != c.denominator:
        return None
    return Fraction(pn, pd)


def sqrt_series(u: PuiseuxSeries) -> PuiseuxSeries:
    """Square root with principal leading coefficient, known as far above
    its leading term as u is.

    Factors out the leading monomial c*q^alpha, requires c to be the square
    of a rational, and doubles the exponent grid when alpha is odd.
    """
    if not u.nums:
        if u.hi is None:
            return PuiseuxSeries.zero()
        raise ValueError("sqrt of a series that is zero to its bound is undetermined")
    n_rel = _rel_length(u, "sqrt")
    alpha = min(u.nums)
    c = Fraction(u.nums[alpha], u.scale)
    root = _fraction_sqrt(c)
    if root is None:
        raise ValueError(f"leading coefficient {c} is not the square of a rational")
    # a = u / (c q^alpha) on grid 1, which never coarsens; c > 0 here
    a = PuiseuxSeries._make(
        1, {k - alpha: x for k, x in u.nums.items()}, u.nums[alpha], n_rel
    )
    # Newton for r = a^(-1/2): when r is right below m,
    # r + r (1 - a r^2) / 2 is right below 2m; then sqrt(a) = a r
    r = PuiseuxSeries.constant(1)
    for n in _newton_lengths(n_rel):
        r = _rebound(r, n)
        r = r + r * (1 - a * (r * r)) * Fraction(1, 2)
    g = a * r * root
    nums = {2 * k + alpha: x for k, x in g.nums.items()}
    return PuiseuxSeries._make(2 * u.denom, nums, g.scale, 2 * n_rel + alpha)


def rescale(u: PuiseuxSeries, s: Rat) -> PuiseuxSeries:
    """Exact substitution q -> q^s for positive rational s."""
    s = Fraction(s)
    if s <= 0:
        raise ValueError("rescale factor must be positive")
    n = u.denom * s.denominator
    nums = {k * s.numerator: c for k, c in u.nums.items()}
    hi = None if u.hi is None else u.hi * s.numerator
    return PuiseuxSeries._make(n, nums, u.scale, hi)


# ---------------------------------------------------------------------------
# q-series constructors
# ---------------------------------------------------------------------------


def eta_series(scale: Rat, order: Rat) -> PuiseuxSeries:
    """prod_{n>=1} (1 - q^(n*scale)) expanded below exponent ``order``.

    This is the pure product, with no fractional power of q in front.  By
    Euler's pentagonal number theorem it is the sum over integers k of
    (-1)^k q^(scale * k(3k-1)/2), that is theta_series(3 scale/2, -scale/2).
    """
    scale = Fraction(scale)
    if scale <= 0:
        raise ValueError("eta scale must be positive")
    return theta_series(3 * scale / 2, -scale / 2, order)


def theta_series(
    a: Rat, b: Rat, order: Rat, alternating: bool = True
) -> PuiseuxSeries:
    """Bilateral sum over n of (+-1)^n q^(a n^2 + b n), alternating in sign
    unless ``alternating`` is false, keeping exponents below ``order``.
    Requires a > 0; exponents may be negative."""
    a = Fraction(a)
    b = Fraction(b)
    if a <= 0:
        raise ValueError("theta_series requires a > 0")
    # a n^2 + b n < order within sqrt((order + b^2/(4a))/a) of the vertex
    if Fraction(order) + b * b / (4 * a) > a * MAX_TERMS ** 2:
        raise ValueError(f"theta series: more than {MAX_TERMS} terms on a side")
    denom = math.lcm(a.denominator, b.denominator)
    A, B = int(a * denom), int(b * denom)
    hi = _grid_bound(order, denom)
    nums: dict[int, int] = {}
    # grid indices A n^2 + B n grow away from the vertex -b/(2a) both ways
    n0 = math.floor(-b / (2 * a))
    for n, step in ((n0, -1), (n0 + 1, 1)):
        while (k := A * n * n + B * n) < hi:
            nums[k] = nums.get(k, 0) + (-1 if alternating and n % 2 else 1)
            n += step
    return PuiseuxSeries._make(denom, nums, 1, hi)


def _theta_over_eta(spec: ThetaSpec, order: Rat, sign: int) -> PuiseuxSeries:
    """A(a, p; q)^sign for sign = +-1, known as far above its leading term as
    A_series(spec, order) is; only a sparse eta or theta series is inverted."""
    order = Fraction(order)
    theta = theta_series(spec.p / 2, spec.p / 2 - spec.a, order - spec.delta)
    eta = eta_series(spec.p, order - spec.lead)
    num, den = (theta, eta) if sign > 0 else (eta, theta)
    return PuiseuxSeries.monomial(1, sign * spec.delta) * num * invert_unit(den)


def A_series(spec: ThetaSpec, order: Rat) -> PuiseuxSeries:
    """Theta quotient q^delta * theta(p/2, p/2 - a; q) / eta(q^p), known
    below exponent ``order``."""
    return _theta_over_eta(spec, order, 1)


def A_inverse_series(spec: ThetaSpec, order: Rat) -> PuiseuxSeries:
    """1/A = q^(-delta) eta(q^p) / theta(p/2, p/2 - a; q): the series
    invert_unit(A_series(spec, order)), term for term and bound for bound."""
    return _theta_over_eta(spec, order, -1)


def _product_plan(spec: ThetaSpec, order: Fraction) -> tuple[int, list[int], int, int]:
    """The layout of A_series_product(spec, order): the grid (1/N)Z of the
    exponents it uses, those exponents as grid indices, the number ``count``
    of coefficients known above its leading term, and the width in bytes of
    a signed field that holds each of them (0 when count <= 0)."""
    a, p = spec.a, spec.p
    L = math.lcm(a.denominator, p.denominator)
    # the accumulator spans about order * L grid points
    if order * L > MAX_TERMS:
        raise ValueError(f"product form: more than {MAX_TERMS} terms")
    # exponents base + n P on the grid (1/L)Z, n >= 0
    P = int(p * L)
    bases = (int(a * L), P - int(a * L))
    # the non-positive ones, n < -base // P + 1, shift the valuation down by
    # their sum
    negs = [-base // P + 1 if base <= 0 else 0 for base in bases]
    if any(m and base % P == 0 for base, m in zip(bases, negs)):
        raise ValueError("product form degenerates: a factor exponent is 0")
    total_neg = sum(m * base + P * m * (m - 1) // 2 for base, m in zip(bases, negs))
    # the positive ones below L * order - total_neg matter: n < used
    limit = _ceil_div(L * order.numerator, order.denominator) - total_neg
    used = [max(m, _ceil_div(limit - base, P)) for base, m in zip(bases, negs)]
    # the grid is the lcm of the used exponents' denominators
    g = gcd(L, *(b for b, u in zip(bases, used) if u), *(P for u in used if u > 1))
    N = L // g
    count = N * _ceil_div(limit, L)
    width = 0
    if count > 0:
        # ln max|c| <= sqrt(8K/p) + 2 + n_neg (K = count / N) in units of
        # 2^-32, rounded up, over ln 2 < 1.4426950409, plus a sign bit
        square = _ceil_div(8 * count * p.denominator << 64, N * p.numerator)
        root = math.isqrt(square)
        nats = root + (root * root < square) + (2 + sum(negs) << 32)
        bits = _ceil_div(nats * 14426950409, 10 ** 10 << 32) + 1
        width = (bits + 7) // 8
        if count * width > MAX_PRODUCT_BYTES:
            raise ValueError(f"product form: packs to more than {MAX_PRODUCT_BYTES} bytes")
    steps = [(b + n * P) // g for b, u in zip(bases, used) for n in range(u)]
    return N, steps, count, width


def A_series_product(spec: ThetaSpec, order: Rat) -> PuiseuxSeries:
    """Product form q^delta * prod_{n>=0} (1-q^(np+a))(1-q^(np+p-a)).

    Supports the finitely many non-positive product exponents that occur
    when a <= 0 or a >= p (each such factor is an exact Laurent binomial);
    requires every product exponent to be nonzero.

    A factor with e < 0 is -q^e (1 - q^-e), a sign and a shift, so the rest
    is prod (1 - q^s) over grid steps s > 0, known at ``count`` grid
    indices.  It is one integer of ``count`` signed w-bit fields, field k
    holding the coefficient at index k, and a factor is one shift and one
    subtract of the whole accumulator.  Every step is arithmetic mod
    2^(w count), which is a ring, so fields may wrap on the way; only the
    final coefficients must fit a field.  They do: with K = count/N in
    exponent units and 0 < x = e^-y < 1, every |c_k| with k < K is at most
    [q^k] prod (1 + q^|e|) <= x^-K exp(sum x^|e|).  Each progression adds
    at most 1/(1 - x^p) <= 1 + 1/(yp) to the sum and each negative exponent
    at most 1, and y = sqrt(2/(pK)) gives
    ln|c_k| <= 2 sqrt(2K/p) + 2 + n_neg.
    """
    order = Fraction(order)
    N, steps, count, width = _product_plan(spec, order)
    # the accumulator's field i is the grid index i + shift, known below hi
    hi, shift, sign = count, 0, 1
    for s in steps:
        if s < 0:
            sign, shift = -sign, shift + s
            # the leading term +-1 at grid index shift keeps the bound on
            # the product's grid; a series known to be zero below its bound
            # normalises to the integer grid, rounding the bound up
            hi = hi + s if count > 0 else _ceil_div(hi + s, N) * N
    D = math.lcm(N, spec.delta.denominator)
    f = D // N
    lead = int(spec.delta * D)
    nums: dict[int, int] = {}
    if count > 0:
        w = 8 * width
        top = 1 << w * count
        mask = top - 1
        acc = 1
        for s in map(abs, steps):
            # acc = (acc - (acc << w s)) mod top, cutting the shifted copy
            # before the subtraction
            if s < count:
                acc -= (acc << w * s) & mask
                if acc < 0:
                    acc += top
        nums = _unpack(sign * acc, count, width, shift * f + lead, f)
    return PuiseuxSeries._make(D, nums, 1, hi * f + lead)


def modulus_series(order: Rat) -> PuiseuxSeries:
    """Squared elliptic modulus m(q) = k^2 = q (theta2 / theta3)^4 as an
    exact q-series: k_series(order) squared, with integer coefficients
    16q - 128q^2 + 704q^3 - ...  One dense squaring of k measures faster at
    orders up to a few hundred than dividing q theta2^4 by theta3 four times,
    which wins from about order 1000.
    """
    return k_series(order) ** 2


def k_series(order: Rat) -> PuiseuxSeries:
    """Elliptic modulus k(q) = sqrt(m(q)) as an exact q-series, without a
    root: q^(1/2) (theta_series(1, 1) / theta_series(1, 0))^2, both
    non-alternating, with theta_series(1, 1) = 2 sum_{n>=0} q^(n^2+n)
    standing for q^(-1/4) theta2 and theta_series(1, 0) for theta3.  The
    square of the sparse theta2 series is divided by the sparse theta3
    twice, so no quotient is squared densely.  It equals
    sqrt_series(modulus_series(order)) term for term and bound for bound:
    4 q^(1/2) - 16 q^(3/2) + 56 q^(5/2) - ...
    """
    t2 = theta_series(1, 1, order, alternating=False)
    t3 = theta_series(1, 0, order, alternating=False)
    return PuiseuxSeries.monomial(1, Fraction(1, 2)) * _divide(_divide(t2 * t2, t3), t3)


def nome_sqrt_exp_form(order: Rat) -> PuiseuxSeries:
    """The expansion 4 q^(1/2) exp(-4 sum_{n>=1} q^n sum_{d|n} (-1)^(d+n/d)/d),
    an alternative route to sqrt of the squared modulus."""
    n_max = _grid_bound(order, 1)
    # the inner sum over the common denominator lcm(1, ..., n_max - 1), by a
    # sieve over the divisors
    lcm = math.lcm(*range(1, n_max))
    nums = [0] * n_max
    for d in range(1, n_max):
        for n in range(d, n_max, d):
            nums[n] -= 4 * (-1) ** (d + n // d) * (lcm // d)
    inner = PuiseuxSeries._make(1, dict(enumerate(nums)), lcm, n_max)
    return PuiseuxSeries.monomial(4, Fraction(1, 2)) * exp_series(inner)


def h5_series(order: Rat) -> PuiseuxSeries:
    """eta(q^(1/5)) / (q^(1/5) eta(q^5)) as a Puiseux series on the 1/5 grid."""
    order = Fraction(order)
    top = eta_series(Fraction(1, 5), order + Fraction(1, 5))
    bottom = invert_unit(eta_series(5, order + Fraction(1, 5)))
    return PuiseuxSeries.monomial(1, Fraction(-1, 5)) * top * bottom


def eta5_series(order: Rat) -> PuiseuxSeries:
    """The positive root R of y^2 + (1 + h5) y - 1 = 0, known below
    ceil(5 order)/5 + 2/5 (where the radical (-1 - h5 + sqrt(5 + 2 h5 +
    h5^2)) / 2 from h5_series(order + 2/5) is known).

    Ramanujan's 1/R - 1 - R = eta(tau/5)/eta(5 tau) = h5 makes R the
    Rogers-Ramanujan continued fraction
    q^(1/5) prod_{n>=1} (1-q^(5n-1))(1-q^(5n-4)) / ((1-q^(5n-2))(1-q^(5n-3))),
    which is A(1,5;q) / A(2,5;q): delta(1,5) - delta(2,5) = 1/60 + 11/60 =
    1/5.  eta(q^5) cancels from it, which leaves q^(1/5) theta(5/2, 3/2) /
    theta(5/2, 1/2): two theta series, one inversion, and no root.
    """
    top = Fraction(math.ceil(5 * Fraction(order)) + 2, 5)
    # factors known n past their leading terms give a quotient known below
    # n + 1/5
    n = math.ceil(top - Fraction(1, 5))
    num, den = (theta_series(Fraction(5, 2), Fraction(b, 2), n) for b in (3, 1))
    pref = PuiseuxSeries.monomial(1, Fraction(1, 5))
    return (pref * num * invert_unit(den)).truncate(top)
