"""Exact series ring: constructors against independent oracles, operation
contracts, and ring properties on seeded random inputs."""

import math
import random
import sys
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thetaquot.series import (
    A_series,
    A_series_product,
    PuiseuxSeries,
    ThetaSpec,
    eta5_series,
    eta_series,
    exp_series,
    h5_series,
    invert_unit,
    k_series,
    modulus_series,
    nome_sqrt_exp_form,
    rescale,
    sqrt_series,
    theta_series,
)
from thetaquot.series import (
    MAX_PRODUCT_BYTES,
    MAX_TERMS,
    _divide,
    _pack,
    _product_plan,
    _rel_length,
    _unpack,
)


def series(pairs, order=None):
    return PuiseuxSeries.from_pairs(pairs, order)


def pentagonal_eta(scale, order):
    """Independent oracle: the alternating sum over generalized pentagonal
    numbers, sum_k (-1)^k q^(scale * k(3k-1)/2)."""
    scale = F(scale)
    out = {}
    k = 0
    while True:
        hit = False
        for kk in (k, -k) if k else (0,):
            e = scale * kk * (3 * kk - 1) / 2
            if e < order:
                out[e] = out.get(e, F(0)) + F((-1) ** (kk % 2))
                hit = True
        if not hit:
            break
        k += 1
    return series(out.items(), order)


def brute_theta(a, b, order):
    """Independent oracle: direct bilateral summation over a wide window."""
    a, b = F(a), F(b)
    out = {}
    for n in range(-60, 61):
        e = a * n * n + b * n
        if e < order:
            out[e] = out.get(e, F(0)) + F((-1) ** (n % 2))
    return series(((e, c) for e, c in out.items() if c), order)


def long_division(num_pairs, den_pairs, n_terms):
    """Independent oracle: long division of integer-exponent polynomials,
    returning the first n_terms quotient coefficients from exponent 0."""
    num = dict(num_pairs)
    den = dict(den_pairs)
    lead = den[0]
    q = {}
    for m in range(n_terms):
        acc = num.get(m, F(0))
        for j in range(1, m + 1):
            if j in den and (m - j) in q:
                acc -= den[j] * q[m - j]
        q[m] = acc / lead
    return q


class TestRingOps:
    def test_difference_of_squares(self):
        lhs = series([(0, 1), (1, 1)]) * series([(0, 1), (1, -1)])
        assert lhs == series([(0, 1), (2, -1)])

    def test_half_grid_product_normalizes(self):
        h = PuiseuxSeries.monomial(1, F(1, 2))
        prod = h * h
        assert prod.denom == 1
        assert prod == PuiseuxSeries.monomial(1, 1)

    def test_eta_times_inverse_is_one(self):
        e = eta_series(1, 40)
        prod = e * invert_unit(e)
        assert prod.terms() == [(F(0), F(1))]
        assert prod.knowledge_order() == 40

    def test_truncation_is_min_of_bounds(self):
        a = series([(0, 1), (1, 1)], order=5)
        b = series([(0, 1)], order=3)
        assert (a + b).knowledge_order() == 3

    def test_product_bound_respects_valuations(self):
        # q^2 * (series known to 5) is known to 7
        a = PuiseuxSeries.monomial(1, 2)
        b = series([(0, 1), (1, -1)], order=5)
        assert (a * b).knowledge_order() == 7

    def test_ring_axioms_random(self):
        rng = random.Random(20240)
        for _ in range(25):
            def rnd():
                n = rng.choice([1, 2, 3])
                pairs = [
                    (F(rng.randint(-3, 6), n), F(rng.randint(-4, 4)))
                    for _ in range(rng.randint(1, 5))
                ]
                return series(pairs, order=rng.randint(4, 9))

            a, b, c = rnd(), rnd(), rnd()
            assert ((a + b) + c).agrees_with(a + (b + c))
            assert (a * (b + c)).agrees_with(a * b + a * c)
            assert (a * b).agrees_with(b * a)
            assert ((a * b) * c).agrees_with(a * (b * c))

    def test_negative_power_of_unit(self):
        u = series([(0, 2), (1, 1)], order=8)
        assert (u ** -2).agrees_with(invert_unit(u) ** 2)

    @pytest.mark.parametrize(
        "n, products", [(0, 0), (1, 0), (2, 1), (4, 2), (5, 3), (12, 4)]
    )
    def test_power_pays_only_the_binary_products(self, monkeypatch, n, products):
        # floor(log2 n) squarings and popcount(n) - 1 further products
        t = series([(0, 1), (F(1, 2), -2), (3, 5)], order=20)
        want = PuiseuxSeries.constant(1)
        for _ in range(n):
            want = want * t
        calls = []
        real_mul = PuiseuxSeries.__mul__

        def counting(self, other):
            calls.append(1)
            return real_mul(self, other)

        monkeypatch.setattr(PuiseuxSeries, "__mul__", counting)
        assert t ** n == want
        assert len(calls) == products

    def test_negative_power_of_non_unit_raises(self):
        with pytest.raises(ValueError):
            series([], order=5) ** -1


def schoolbook_product(x, y):
    """Reference product: the double loop over term pairs on the common
    grid, keeping the pairs that land below the sound bound."""
    n = x.denom * y.denom // gcd(x.denom, y.denom)
    fx, fy = n // x.denom, n // y.denom
    a = {k * fx: c for k, c in x.coeffs.items()}
    b = {k * fy: c for k, c in y.coeffs.items()}
    ha = None if x.hi is None else x.hi * fx
    hb = None if y.hi is None else y.hi * fy
    if (ha is None and not a) or (hb is None and not b):
        return PuiseuxSeries(1, {}, None)
    la = min(a) if a else ha
    lb = min(b) if b else hb
    bounds = [h + l for h, l in ((ha, lb), (hb, la)) if h is not None]
    hi = min(bounds) if bounds else None
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = k1 + k2
            if hi is None or k < hi:
                out[k] = out.get(k, F(0)) + c1 * c2
    return PuiseuxSeries(n, out, hi)


def _dense_relative(u, what):
    """Leading grid index, relative length and the first coefficients
    relative to the leading term."""
    alpha = min(u.coeffs)
    n_rel = _rel_length(u, what)
    a = [F(0)] * n_rel
    for k, c in u.coeffs.items():
        if k - alpha < n_rel:
            a[k - alpha] = c
    return alpha, n_rel, a


def schoolbook_inverse(u):
    """Reference inverse: the recurrence b_m = -sum a_j b_(m-j) / a_0 on
    Fractions, in a dense list over the gcd stride of u's offsets (the
    inverse of a series in q^s is one in q^s)."""
    alpha, n_rel, a = _dense_relative(u, "inversion")
    s = gcd(*(j for j in range(n_rel) if a[j])) or n_rel
    a = a[::s]
    b = [F(0)] * len(a)
    b[0] = 1 / a[0]
    for m in range(1, len(a)):
        b[m] = -sum((a[j] * b[m - j] for j in range(1, m + 1)), F(0)) / a[0]
    coeffs = {s * m - alpha: c for m, c in enumerate(b)}
    return PuiseuxSeries(u.denom, coeffs, n_rel - alpha)


def schoolbook_sqrt(u):
    """Reference square root: g^2 = a/c solved term by term, scaled by sqrt(c)."""
    alpha, n_rel, a = _dense_relative(u, "sqrt")
    c = a[0]
    root = F(math.isqrt(abs(c.numerator)), math.isqrt(c.denominator))
    if c < 0 or root * root != c:
        raise ValueError(f"leading coefficient {c} is not the square of a rational")
    g = [F(0)] * n_rel
    g[0] = F(1)
    for m in range(1, n_rel):
        s = sum((g[j] * g[m - j] for j in range(1, m)), F(0))
        g[m] = (a[m] / c - s) / 2
    coeffs = {2 * m + alpha: root * g[m] for m in range(n_rel)}
    return PuiseuxSeries(2 * u.denom, coeffs, 2 * n_rel + alpha)


def schoolbook_exp(u):
    """Reference exp: the recurrence m f_m = sum_j j w_j f_(m-j) from f' = u' f."""
    if not u.coeffs:
        if u.hi is None:
            return PuiseuxSeries.constant(1)
        if u.hi <= 0:
            raise ValueError("exp needs knowledge of the constant term")
        return PuiseuxSeries(u.denom, {0: F(1)}, u.hi)
    if min(u.coeffs) <= 0:
        raise ValueError("exp requires a strictly positive leading exponent")
    if u.hi is None:
        raise ValueError("exp of an exact series is infinite; truncate it first")
    n = u.hi
    w = [F(0)] * n
    for k, c in u.coeffs.items():
        if 0 < k < n:
            w[k] = c
    f = [F(0)] * n
    f[0] = F(1)
    for m in range(1, n):
        f[m] = sum((j * w[j] * f[m - j] for j in range(1, m + 1) if w[j]), F(0)) / m
    return PuiseuxSeries(u.denom, {m: f[m] for m in range(n)}, n)


def eta_product_loop(scale, order):
    """Reference eta: multiply out (1 - q^(n*scale)) one factor at a time."""
    scale = F(scale)
    step = scale.numerator
    hi = -((-F(order) * scale.denominator) // 1)
    coeffs = {0: F(1)}
    n = 1
    while n * step < hi:
        for k in sorted(coeffs, reverse=True):
            if k + n * step < hi:
                coeffs[k + n * step] = coeffs.get(k + n * step, F(0)) - coeffs[k]
        n += 1
    return PuiseuxSeries(scale.denominator, coeffs, hi)


def binomial_loop_product(spec, order):
    """Reference product form: a series accumulator multiplied by one exact
    binomial (1 - q^e) at a time, bounds as the series product gives them."""
    order = F(order)
    a, p = spec.a, spec.p
    total_neg = F(0)
    for base in (a, p - a):
        n = 0
        while n * p + base <= 0:
            if n * p + base == 0:
                raise ValueError("product form degenerates: a factor exponent is 0")
            total_neg += n * p + base
            n += 1
    exps = []
    for base in (a, p - a):
        n = 0
        while n * p + base <= 0 or n * p + base < order - total_neg:
            exps.append(n * p + base)
            n += 1
    N = math.lcm(*(e.denominator for e in exps), spec.delta.denominator)
    hi = -((-(order - total_neg) * N) // 1)
    acc = PuiseuxSeries(N, {0: F(1)}, hi)
    for e in exps:
        acc = acc * series([(0, 1), (e, -1)])
    return PuiseuxSeries.monomial(1, spec.delta) * acc


def fraction_theta_loop(a, b, order):
    """Reference alternating theta series: Fraction exponents emitted from
    the vertex outward, colliding terms accumulated."""
    a, b, order = F(a), F(b), F(order)
    if a <= 0:
        raise ValueError("theta_series requires a > 0")
    denom = a.denominator * b.denominator // gcd(a.denominator, b.denominator)
    hi = math.ceil(order * denom)
    coeffs = {}

    def emit(n):
        k = int((a * n * n + b * n) * denom)
        if k >= hi:
            return False
        coeffs[k] = coeffs.get(k, F(0)) + (1 if n % 2 == 0 else -1)
        if coeffs[k] == 0:
            del coeffs[k]
        return True

    n0 = math.floor(-b / (2 * a))
    n = n0
    while emit(n):
        n -= 1
    n = n0 + 1
    while emit(n):
        n += 1
    return PuiseuxSeries(denom, coeffs, hi)


def theta3_loop(order):
    """Reference sum over n in Z of q^(n^2)."""
    hi = math.ceil(F(order))
    coeffs = {0: F(1)}
    n = 1
    while n * n < hi:
        coeffs[n * n] = F(2)
        n += 1
    return PuiseuxSeries(1, coeffs, hi)


def theta2_half_loop(order):
    """Reference sum over n >= 0 of q^(n^2 + n)."""
    hi = math.ceil(F(order))
    coeffs = {}
    n = 0
    while n * n + n < hi:
        coeffs[n * n + n] = F(1)
        n += 1
    return PuiseuxSeries(1, coeffs, hi)


theta_orders = st.one_of(
    st.sampled_from([F(0), F(-1), F(-1, 2), F(1, 7), F(1), F(37, 3)]),
    st.fractions(min_value=-3, max_value=120, max_denominator=12),
)


def outcome(fn, *args):
    """A constructor's (denom, coeffs, hi), or its ValueError message."""
    try:
        got = fn(*args)
    except ValueError as exc:
        return str(exc)
    return got.denom, got.coeffs, got.hi


@st.composite
def unit_operands(draw):
    """A series on the 1, 1/2, 1/5 or 1/96 grid with a nonzero, possibly
    non-square leading coefficient, a possibly negative valuation and
    strided rational terms, truncated or (one draw in ten, which a unit
    operation refuses) exact."""
    denom = draw(st.sampled_from([1, 2, 5, 96]))
    lead = draw(st.integers(-3 * denom, 3 * denom))
    stride = draw(st.sampled_from([1, 2, 3, denom]))
    c0 = draw(st.sampled_from([F(1), F(-1), F(4, 9), F(9), F(1, 16), F(3)]))
    coeff = st.fractions(min_value=-50, max_value=50, max_denominator=7)
    offsets = draw(st.lists(st.integers(1, 30), max_size=12))
    coeffs = {lead + stride * j: draw(coeff) for j in offsets}
    coeffs[lead] = c0
    hi = None if draw(st.integers(0, 9)) == 0 else lead + draw(st.integers(1, 70))
    return PuiseuxSeries(denom, coeffs, hi)


@st.composite
def sparse_units(draw):
    """A unit like the theta and eta series the package inverts: about
    sqrt(N) terms on a stride from 1 to 96 of the 1, 1/2, 1/5 or 1/96 grid,
    N strides long, a leading coefficient n/d with |n| >= 2 and prime d (so
    neither the leading numerator nor the scale is 1), and integer tail
    coefficients.  The bound may fall between two strides."""
    denom = draw(st.sampled_from([1, 2, 5, 96]))
    lead = draw(st.integers(-3 * denom, 3 * denom))
    stride = draw(st.integers(1, 96))
    n = draw(st.integers(1, 100))
    d = draw(st.sampled_from([2, 3, 5, 7, 11]))
    num = draw(st.integers(2, 30).filter(lambda x: x % d))
    offsets = draw(st.sets(st.integers(1, max(n - 1, 1)), max_size=math.isqrt(n) + 1))
    coeffs = {
        lead + stride * j: F(draw(st.integers(-50, 50).filter(bool))) for j in offsets
    }
    coeffs[lead] = F(draw(st.sampled_from([num, -num])), d)
    hi = lead + stride * (n - 1) + draw(st.integers(1, stride))
    return PuiseuxSeries(denom, coeffs, hi)


@st.composite
def exp_operands(draw):
    """A series on the 1, 1/2, 1/5 or 1/96 grid with a (mostly) positive
    valuation and strided rational terms, exact or truncated, possibly
    with no known term."""
    denom = draw(st.sampled_from([1, 2, 5, 96]))
    lead = draw(st.integers(-1, 3 * denom))
    stride = draw(st.sampled_from([1, 2, 3, denom]))
    coeff = st.fractions(min_value=-50, max_value=50, max_denominator=7).filter(bool)
    offsets = draw(st.lists(st.integers(1, 30), max_size=12))
    coeffs = {lead + stride * j: draw(coeff) for j in offsets}
    coeffs[lead] = draw(coeff)
    hi = draw(st.sampled_from([None, lead + draw(st.integers(-lead, 70))]))
    return PuiseuxSeries(denom, coeffs, hi)


@st.composite
def series_arguments(draw):
    """(denom, coeffs, hi) on the 1, 1/2, 1/5 or 1/96 grid: negative
    exponents, rational, zero and negative coefficients, exact or truncated,
    possibly zero to the bound, and strided terms above an offset valuation
    (q^delta * theta)."""
    denom = draw(st.sampled_from([1, 2, 5, 96]))
    lead = draw(st.integers(-3 * denom, 3 * denom))
    stride = draw(st.sampled_from([1, 2, 3, denom, 2 * denom]))
    coeff = st.one_of(
        st.integers(-10**6, 10**6),
        st.fractions(min_value=-1000, max_value=1000, max_denominator=60),
    )
    offsets = draw(st.lists(st.integers(0, 40), max_size=25))
    coeffs = {lead + stride * j: draw(coeff) for j in offsets}
    if draw(st.booleans()):
        return denom, coeffs, None
    span = 40 * stride
    return denom, coeffs, lead + draw(st.integers(1, span))


def product_operands():
    return series_arguments().map(lambda args: PuiseuxSeries(*args))


def fraction_normalized(denom, coeffs, hi):
    """Reference normalisation of a Fraction-valued series: drop terms at or
    above hi and zero terms, then move to the coarsest grid carrying the
    rest."""
    cleaned = {}
    for k, c in coeffs.items():
        if hi is not None and k >= hi:
            continue
        c = F(c)
        if c:
            cleaned[int(k)] = c
    g = denom
    for k in cleaned:
        g = gcd(g, k)
    if g > 1:
        cleaned = {k // g: c for k, c in cleaned.items()}
        if hi is not None:
            hi = -((-hi) // g)
        denom //= g
    return denom, cleaned, hi


nonzero_scalars = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=60),
).filter(bool)


class TestCanonicalForm:
    @settings(max_examples=200, deadline=None)
    @given(series_arguments())
    def test_matches_fraction_normalization(self, args):
        got = PuiseuxSeries(*args)
        assert (got.denom, got.coeffs, got.hi) == fraction_normalized(*args)
        assert gcd(got.scale, *got.nums.values()) == 1
        assert all(got.nums.values())
        if got.is_zero():
            assert got.scale == 1

    @settings(max_examples=200, deadline=None)
    @given(product_operands(), nonzero_scalars)
    def test_scalar_round_trip(self, x, c):
        y = (x * c) * (1 / F(c))
        assert y == x
        assert hash(y) == hash(x)

    @settings(max_examples=200, deadline=None)
    @given(product_operands())
    def test_json_round_trip(self, x):
        assert PuiseuxSeries.from_json_obj(x.to_json_obj()) == x


def per_field_pack(terms, base, stride, count, width):
    """Reference packer: every field written with its own ``to_bytes``,
    positive and negative coefficients into separate byte strings."""
    pos = bytearray(count * width)
    neg = bytearray(count * width)
    for k, c in terms.items():
        at = (k - base) // stride * width
        if c > 0:
            pos[at : at + width] = c.to_bytes(width, "little")
        else:
            neg[at : at + width] = (-c).to_bytes(width, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def per_field_unpack(value, count, width, base, stride):
    """Reference reader: half a field added to every field, the xor taking
    it off again, and each field read with its own signed ``from_bytes``."""
    half = 1 << (8 * width - 1)
    offset = int.from_bytes(half.to_bytes(width, "little") * count, "little")
    low = ((value + offset) & ((1 << (8 * width * count)) - 1)) ^ offset
    raw = low.to_bytes(width * count, "little")
    out = {}
    for m in range(count):
        c = int.from_bytes(raw[m * width : (m + 1) * width], "little", signed=True)
        if c:
            out[base + m * stride] = c
    return out


@st.composite
def packed_fields(draw):
    """(terms, base, stride, count, width, cut): up to 40 fields of 1 to 40
    bytes on a stride from 1 to 96 above a possibly negative base, with
    values that include both ends of a signed field and zeros, and a read
    length ``cut`` that may stop short of the packed length, as a product's
    bound does."""
    width = draw(st.integers(1, 40))
    stride = draw(st.integers(1, 96))
    base = draw(st.integers(-10_000, 10_000))
    count = draw(st.integers(1, 40))
    half = 1 << (8 * width - 1)
    value = st.one_of(
        st.sampled_from([-half, half - 1, 0, 1, -1]), st.integers(-half, half - 1)
    )
    slots = draw(st.sets(st.integers(0, count - 1)))
    terms = {base + stride * j: draw(value) for j in slots}
    return terms, base, stride, count, width, draw(st.integers(1, count))


def _ends(width, count):
    """Fields alternating between both ends of a signed ``width``-byte field."""
    half = 1 << (8 * width - 1)
    terms = {-3 + 5 * j: (-half, half - 1)[j % 2] for j in range(count)}
    return terms, -3, 5, count, width, count - 1


class TestPackedFields:
    """The one packer and the one reader of every Kronecker product, both
    paths (fields of at most 8 bytes in bulk, wider ones field by field),
    against the per-field reference."""

    @settings(max_examples=300, deadline=None)
    @given(packed_fields())
    @example(({}, 0, 1, 1, 8, 1))
    @example(({}, -7, 3, 5, 9, 2))
    @example(_ends(8, 6))
    @example(_ends(9, 6))
    @example(_ends(1, 9))
    def test_pack_and_read_back(self, case):
        terms, base, stride, count, width, cut = case
        packed = _pack(terms, base, stride, count, width)
        assert packed == per_field_pack(terms, base, stride, count, width)
        want = {k: c for k, c in terms.items() if c and (k - base) // stride < cut}
        assert _unpack(packed, cut, width, base, stride) == want
        assert per_field_unpack(packed, cut, width, base, stride) == want

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 40), st.integers(1, 30), st.integers(1, 96),
        st.integers(-10_000, 10_000), st.data(),
    )
    @example(8, 3, 1, 0, None)
    @example(9, 3, 1, 0, None)
    def test_read_any_int(self, width, count, stride, base, data):
        # a product's int: any sign, and bits past the read fields
        span = 8 * width * count + 20
        values = [-(1 << span) + 1, (1 << span) - 1, -1, 0]
        if data is not None:
            values.append(data.draw(st.integers(-(1 << span), 1 << span)))
        for value in values:
            assert _unpack(value, count, width, base, stride) == per_field_unpack(
                value, count, width, base, stride
            )

    @pytest.mark.parametrize("width", [1, 7, 8, 9, 17])
    def test_field_out_of_range_raises(self, width):
        # -2^(8w-1) <= c < 2^(8w-1) is the contract; a value past it would
        # wrap into a neighbouring field or lose its high bytes
        half = 1 << (8 * width - 1)
        for bad in (half, -half - 1):
            with pytest.raises(ValueError, match=f"signed {width}-byte field"):
                _pack({0: 1, 3: bad, 5: -1}, 0, 1, 6, width)

    @pytest.mark.parametrize("width", [1, 5, 8, 9, 17])
    def test_path_switches_above_8_bytes(self, monkeypatch, width):
        # fields of at most 8 bytes go through 8-byte words on a
        # little-endian machine, wider ones field by field
        import thetaquot.series as series_module

        seen = []

        def recording(name, real):
            def call(*args):
                seen.append(name)
                return real(*args)

            return call

        monkeypatch.setattr(series_module, "array", recording("pack", series_module.array))
        monkeypatch.setattr(
            series_module, "compress", recording("unpack", series_module.compress)
        )
        packed = _pack({0: 5, 2: -3}, 0, 1, 3, width)
        assert _unpack(packed, 3, width, 0, 1) == {0: 5, 2: -3}
        bulk = width <= 8 and sys.byteorder == "little"
        assert seen == (["pack", "unpack"] if bulk else [])


class TestKroneckerProduct:
    @settings(max_examples=200, deadline=None)
    @given(product_operands(), product_operands())
    def test_matches_schoolbook(self, x, y):
        got, want = x * y, schoolbook_product(x, y)
        assert (got.denom, got.coeffs, got.hi) == (want.denom, want.coeffs, want.hi)
        assert got.relative_order() >= min(x.relative_order(), y.relative_order())

    @settings(max_examples=200, deadline=None)
    @given(product_operands())
    def test_square_matches_the_general_product(self, x):
        # x * x packs one factor and squares it; a copy of x is another
        # object, so x * copy takes the general path
        copy = PuiseuxSeries._make(x.denom, dict(x.nums), x.scale, x.hi)
        got, want = x * x, x * copy
        assert (got.denom, got.nums, got.scale, got.hi) == (
            want.denom, want.nums, want.scale, want.hi
        )

    def test_theta_quotient_on_the_1_96_grid(self):
        # q^delta * theta on the 1/96 grid times a series in q^(1/2)
        spec = ThetaSpec(F(1, 2), 4)
        x = A_series(spec, 30)
        y = series([(F(j, 2), (-1) ** j * (j + 1)) for j in range(40)], order=20)
        prod = x * y
        assert prod == schoolbook_product(x, y)
        assert prod.knowledge_order() == min(
            x.knowledge_order() + y.leading()[0], y.knowledge_order() + x.leading()[0]
        )


class TestInvertUnit:
    def test_geometric_series(self):
        inv = invert_unit(series([(0, 1), (1, -1)], order=8))
        assert inv.terms() == [(F(k), F(1)) for k in range(8)]

    def test_monomial(self):
        inv = invert_unit(PuiseuxSeries.monomial(2, 1).truncate(4))
        assert inv.leading() == (F(-1), F(1, 2))

    def test_eta4_inverse_against_long_division(self):
        # oracle: long division of 1 by the pentagonal expansion of the
        # scale-4 product, on the q^4 lattice
        order = 41
        inv = invert_unit(eta_series(4, order))
        pent = pentagonal_eta(4, order)
        den = {int(e): c for e, c in pent.terms()}
        q = long_division({0: F(1)}, den, order)
        expect = series(((m, c) for m, c in q.items() if c), order)
        assert inv.agrees_with(expect, through=order - 1)
        assert inv.coefficient(0) == 1
        assert inv.coefficient(4) == 1
        assert inv.coefficient(8) == 2

    def test_zero_series_rejected(self):
        with pytest.raises(ValueError):
            invert_unit(series([], order=5))

    def test_refuses_more_than_max_terms(self):
        # 1 + q^(1/10^7) + O(q): 10^7 steps of the recurrence
        with pytest.raises(ValueError, match=f"inversion: more than {MAX_TERMS} terms"):
            invert_unit(series([(0, 1), (F(1, 10 ** 7), 1)], order=1))

    @settings(max_examples=200, deadline=None)
    @given(unit_operands())
    def test_matches_schoolbook(self, u):
        assert outcome(invert_unit, u) == outcome(schoolbook_inverse, u)

    @settings(max_examples=60, deadline=None)
    @given(sparse_units())
    def test_sparse_units_match_schoolbook(self, u):
        assert u.scale != 1 and abs(u.nums[min(u.nums)]) != 1
        assert fields(invert_unit(u)) == fields(schoolbook_inverse(u))

    @settings(max_examples=200, deadline=None)
    @given(product_operands().filter(lambda x: not x.is_zero()), unit_operands())
    def test_division_is_the_product_with_the_inverse(self, num, u):
        assert outcome(_divide, num, u) == outcome(lambda: num * invert_unit(u))

    @settings(max_examples=60, deadline=None)
    @given(product_operands().filter(lambda x: not x.is_zero()), sparse_units())
    # a dense dividend over a unit on stride 96 of the 1/96 grid: one
    # recurrence over all 9,600 grid steps, whose integers grow by a power of
    # a_0 per step, took seconds; one per residue class of the dividend, 100
    # steps each, takes milliseconds
    @example(
        PuiseuxSeries(96, {j: 10**6 - j if j % 2 else F(-999, 59 - j) for j in range(25)}, None),
        PuiseuxSeries(
            96,
            {0: F(-29, 11)} | {
                96 * j: F((-1) ** j * 50) for j in (1, 4, 9, 16, 25, 36, 49, 64, 81, 98, 99)
            },
            96 * 100,
        ),
    )
    def test_division_by_sparse_units(self, num, u):
        assert fields(_divide(num, u)) == fields(num * schoolbook_inverse(u))

    def test_random_units_multiply_to_one(self):
        rng = random.Random(7177)
        for _ in range(20):
            pairs = [(0, F(rng.randint(1, 9)))] + [
                (k, F(rng.randint(-5, 5))) for k in range(1, rng.randint(2, 7))
            ]
            u = series(pairs, order=12)
            prod = u * invert_unit(u)
            assert prod.terms() == [(F(0), F(1))]


class TestExpSeries:
    def test_exponential_coefficients(self):
        e = exp_series(PuiseuxSeries.monomial(1, 1).truncate(5))
        assert e.terms() == [
            (F(0), F(1)),
            (F(1), F(1)),
            (F(2), F(1, 2)),
            (F(3), F(1, 6)),
            (F(4), F(1, 24)),
        ]

    def test_exp_of_zero(self):
        assert exp_series(PuiseuxSeries.zero()) == PuiseuxSeries.constant(1)

    def test_constant_term_rejected(self):
        with pytest.raises(ValueError):
            exp_series(series([(0, 1), (1, 1)], order=5))

    def test_exp_is_a_homomorphism(self):
        rng = random.Random(515)
        for _ in range(10):
            u = series(
                [(k, F(rng.randint(-3, 3))) for k in range(1, 5)], order=10
            )
            v = series(
                [(k, F(rng.randint(-3, 3))) for k in range(1, 5)], order=10
            )
            lhs = exp_series(u + v)
            rhs = exp_series(u) * exp_series(v)
            assert lhs.agrees_with(rhs)

    @settings(max_examples=200, deadline=None)
    @given(exp_operands())
    def test_matches_schoolbook(self, u):
        assert outcome(exp_series, u) == outcome(schoolbook_exp, u)


class TestSqrtSeries:
    def test_perfect_square(self):
        s = sqrt_series(series([(0, 1), (1, 2), (2, 1)], order=6))
        assert s.agrees_with(series([(0, 1), (1, 1)]), through=5)

    def test_monomial(self):
        s = sqrt_series(PuiseuxSeries.monomial(16, 1).truncate(4))
        assert s.leading() == (F(1, 2), F(4))

    def test_non_square_leading_coefficient_rejected(self):
        with pytest.raises(ValueError):
            sqrt_series(series([(0, 2), (1, 1)], order=5))

    def test_square_roundtrip_random(self):
        rng = random.Random(99)
        for _ in range(12):
            c = F(rng.choice([1, 4, 9, 25]), rng.choice([1, 4]))
            pairs = [(0, c)] + [
                (k, F(rng.randint(-4, 4))) for k in range(1, 6)
            ]
            u = series(pairs, order=10)
            s = sqrt_series(u)
            assert (s * s).agrees_with(u)

    def test_modulus_sqrt_leading_term(self):
        s = sqrt_series(modulus_series(10))
        assert s.leading() == (F(1, 2), F(4))

    @settings(max_examples=200, deadline=None)
    @given(unit_operands())
    def test_matches_schoolbook(self, u):
        assert outcome(sqrt_series, u) == outcome(schoolbook_sqrt, u)

    @settings(max_examples=100, deadline=None)
    @given(unit_operands(), st.sampled_from([F(1), F(4, 9), F(1, 16)]))
    def test_square_matches_schoolbook(self, u, c):
        # every square leading coefficient, and squares of units
        w = u * u * c
        assert outcome(sqrt_series, w) == outcome(schoolbook_sqrt, w)


class TestRescale:
    def test_simple(self):
        assert rescale(series([(0, 1), (1, -1)]), 2) == series([(0, 1), (2, -1)])

    def test_theta_family(self):
        assert rescale(theta_series(2, 1, 20), F(1, 2)).agrees_with(
            theta_series(1, F(1, 2), 10)
        )

    def test_theta_family_random(self):
        rng = random.Random(31337)
        for _ in range(10):
            a = F(rng.randint(1, 5), rng.choice([1, 2]))
            b = F(rng.randint(-5, 5), rng.choice([1, 2, 3]))
            s = F(rng.randint(1, 4), rng.choice([1, 2]))
            lhs = rescale(theta_series(a, b, 12), s)
            rhs = theta_series(a * s, b * s, 12 * s)
            assert lhs.agrees_with(rhs)

    def test_modulus_rescale_leading(self):
        m2 = rescale(modulus_series(8), 2)
        assert m2.leading() == (F(2), F(16))


class TestEtaSeries:
    def test_pentagonal_oracle(self):
        assert eta_series(1, 40).agrees_with(pentagonal_eta(1, 40))

    @settings(max_examples=100, deadline=None)
    @given(
        st.fractions(min_value=F(1, 96), max_value=8, max_denominator=96),
        st.fractions(min_value=-1, max_value=150, max_denominator=7),
    )
    def test_matches_product_loop(self, scale, steps):
        # eta_series itself sums over pentagonal numbers, so the oracle is
        # the product it expands
        order = scale * steps
        got, want = eta_series(scale, order), eta_product_loop(scale, order)
        assert (got.denom, got.coeffs, got.hi) == (want.denom, want.coeffs, want.hi)

    def test_scale_four_matches_rescale(self):
        assert eta_series(4, 60) == rescale(eta_series(1, 15), 4)

    def test_truncation_below_first_term(self):
        e = eta_series(4, 3)
        assert e.terms() == [(F(0), F(1))]

    def test_fractional_scale(self):
        e = eta_series(F(1, 5), 2)
        assert e.agrees_with(rescale(pentagonal_eta(1, 10), F(1, 5)))
        assert e.coefficient(F(1, 5)) == -1
        assert e.coefficient(F(2, 5)) == -1
        assert e.coefficient(F(3, 5)) == 0  # -q^(3/5) cancels q^(1/5) q^(2/5)


class TestThetaSeries:
    def test_theta_2_1_oracle(self):
        t = theta_series(2, 1, 20)
        assert t.agrees_with(brute_theta(2, 1, 20))
        assert t.terms()[:5] == [
            (F(0), F(1)),
            (F(1), F(-1)),
            (F(3), F(-1)),
            (F(6), F(1)),
            (F(10), F(1)),
        ]

    def test_negative_lowest_exponent(self):
        t = theta_series(3, -5, 10)
        assert t.leading() == (F(-2), F(-1))
        assert t.agrees_with(brute_theta(3, -5, 10))

    def test_symmetry_in_b(self):
        rng = random.Random(4242)
        for _ in range(12):
            a = F(rng.randint(1, 6), rng.choice([1, 2]))
            b = F(rng.randint(-7, 7), rng.choice([1, 2, 3]))
            assert theta_series(a, b, 15) == theta_series(a, -b, 15)

    def test_nonpositive_a_rejected(self):
        with pytest.raises(ValueError):
            theta_series(0, 1, 10)
        with pytest.raises(ValueError):
            theta_series(-2, 1, 10)

    def test_cancelling_case_is_zero(self):
        # exponents collide in pairs with opposite signs when -b/a is 1
        assert theta_series(1, 1, 25).is_zero()

    @settings(max_examples=200, deadline=None)
    @given(
        st.fractions(min_value=-1, max_value=6, max_denominator=6),
        st.fractions(min_value=-12, max_value=12, max_denominator=10),
        theta_orders,
    )
    def test_matches_fraction_loop(self, a, b, order):
        # integer grid indices A n^2 + B n against Fraction exponents
        assert outcome(theta_series, a, b, order) == outcome(
            fraction_theta_loop, a, b, order
        )

    @settings(max_examples=200, deadline=None)
    @given(theta_orders)
    def test_non_alternating_theta_constants(self, order):
        t3 = theta_series(1, 0, order, alternating=False)
        t2 = theta_series(1, 1, order, alternating=False)
        assert outcome(lambda: t3) == outcome(theta3_loop, order)
        assert outcome(lambda: t2) == outcome(lambda: theta2_half_loop(order) * 2)

    @settings(max_examples=100, deadline=None)
    @given(
        st.fractions(min_value=F(1, 6), max_value=6, max_denominator=6),
        st.fractions(min_value=-12, max_value=12, max_denominator=10),
        theta_orders,
    )
    def test_non_alternating_is_the_absolute_series(self, a, b, order):
        # the alternating sum with every coefficient's sign dropped, except
        # where two exponents collide, which the signed sum may cancel
        plain = theta_series(a, b, order, alternating=False)
        signed = theta_series(a, b, order)
        assert all(c > 0 for c in plain.nums.values())
        if (b / a).denominator != 1:  # no colliding exponents
            assert plain.hi == signed.hi
            assert plain.coeffs == {k: abs(c) for k, c in signed.coeffs.items()}


@st.composite
def packed_product_cases(draw):
    """(a, p, order) with denominators up to 3, a <= 0 and a >= p among
    them, at orders up to 400: capped where the reference's about 2 order/p
    dense products of order * N terms would take over a few milliseconds."""
    p = draw(st.fractions(min_value=F(1, 3), max_value=8, max_denominator=3))
    a = draw(st.fractions(min_value=-2 * p - 1, max_value=2 * p + 1, max_denominator=3))
    n = math.lcm(a.denominator, p.denominator)
    top = min(400, math.isqrt(int(20000 * p / n)))
    order = draw(st.fractions(min_value=-2, max_value=top, max_denominator=3))
    return a, p, order


JTP_SPECS = [
    ThetaSpec(1, 4),
    ThetaSpec(1, 3),
    ThetaSpec(-1, 6),
    ThetaSpec(-2, 8),
    ThetaSpec(1, 5),
    ThetaSpec(F(1, 2), 4),
    ThetaSpec(F(1, 2), 2),
]


class TestASeries:
    def test_a14_leading_and_product_form(self):
        a = A_series(ThetaSpec(1, 4), 12)
        assert a.leading() == (F(-1, 24), F(1))
        # odd-exponent product oracle: q^(-1/24) (1-q)(1-q^3)(1-q^5)...
        prod = PuiseuxSeries.constant(1).truncate(13)
        for e in range(1, 13, 2):
            prod = prod * series([(0, 1), (e, -1)])
        prod = PuiseuxSeries.monomial(1, F(-1, 24)) * prod
        assert a.agrees_with(prod)

    def test_a86_leading_exponent(self):
        a = A_series(ThetaSpec(8, 6), 6)
        assert a.leading() == (F(-1, 6), F(-1))

    def test_a_half_4_grid(self):
        spec = ThetaSpec(F(1, 2), 4)
        assert spec.delta == F(11, 96)
        a = A_series(spec, 4)
        assert 96 % a.denom == 0
        assert a.leading() == (F(11, 96), F(1))

    @pytest.mark.parametrize("spec", JTP_SPECS, ids=lambda s: f"a{s.a}_p{s.p}")
    def test_product_form_matches_theta_eta_form(self, spec):
        via_theta = A_series(spec, 26)
        via_product = A_series_product(spec, 26)
        assert via_theta.agrees_with(via_product)
        grid_known = min(via_theta.hi, via_product.hi * via_theta.denom // via_product.denom)
        assert grid_known >= 200

    @settings(max_examples=150, deadline=None)
    @given(
        st.fractions(min_value=-6, max_value=10, max_denominator=2),
        st.sampled_from([F(n) for n in (1, 2, 3, 4, 5, 8)] + [F(1, 2), F(5, 2), F(7, 3)]),
        st.one_of(
            st.sampled_from([F(37, 3), F(1, 7)]),
            st.fractions(min_value=-1, max_value=40, max_denominator=12),
        ),
    )
    def test_product_matches_binomial_loop(self, a, p, order):
        # a <= 0 and a >= p give negative exponents, half-integer a a finer
        # grid; the bound must round as the series accumulator's does
        spec = ThetaSpec(a, p)
        assert outcome(A_series_product, spec, order) == outcome(
            binomial_loop_product, spec, order
        )

    @pytest.mark.parametrize("order", [F(37, 3), F(1, 7), 26, F(-1, 2), -2])
    @pytest.mark.parametrize(
        "spec",
        JTP_SPECS + [ThetaSpec(F(-1, 2), 4), ThetaSpec(F(-3, 2), 2)],
        ids=lambda s: f"a{s.a}_p{s.p}",
    )
    def test_product_bound_at_fractional_orders(self, spec, order):
        # at order <= 0 nothing is known and each negative exponent moves
        # the bound, which the empty series rounds to the integer grid
        got = A_series_product(spec, order)
        want = binomial_loop_product(spec, order)
        assert (got.denom, got.coeffs, got.hi) == (want.denom, want.coeffs, want.hi)

    @settings(max_examples=40, deadline=None)
    @given(packed_product_cases())
    @example((F(1), F(4), F(202)))
    @example((F(1), F(3), F(202)))
    @example((F(-1), F(6), F(202)))
    @example((F(-2), F(8), F(202)))
    @example((F(1), F(5), F(202)))
    @example((F(1, 2), F(4), F(202)))
    @example((F(1, 2), F(2), F(202)))
    def test_packed_product_matches_binomial_loop_to_order_400(self, case):
        a, p, order = case
        spec = ThetaSpec(a, p)
        assert outcome(A_series_product, spec, order) == outcome(
            binomial_loop_product, spec, order
        )

    @pytest.mark.parametrize("order", [26, 202, 2000])
    @pytest.mark.parametrize("spec", JTP_SPECS, ids=lambda s: f"a{s.a}_p{s.p}")
    def test_product_field_width_is_sound_and_tight(self, spec, order):
        # every coefficient fits a signed field, and the closed-form bound is
        # within a factor 2 of the true size, which a width per factor is not
        w = 8 * _product_plan(spec, F(order))[3]
        biggest = max(abs(c) for c in A_series_product(spec, order).nums.values())
        assert biggest < 2 ** (w - 1)
        assert w <= 2 * (biggest.bit_length() + 1) + 16

    def test_product_field_width_of_half_two(self):
        # the bound for A(1/2, 2) at order 202 is 45 bits, one 6-byte field;
        # the largest coefficient has 29 bits
        N, steps, count, width = _product_plan(ThetaSpec(F(1, 2), 2), F(202))
        assert (N, len(steps), count, width) == (2, 202, 404, 6)
        biggest = max(abs(c) for c in A_series_product(ThetaSpec(F(1, 2), 2), 202).nums.values())
        assert biggest.bit_length() == 29

    def test_product_refuses_a_pack_past_the_limit(self):
        # inside MAX_TERMS, but 400000 fields of 229 bytes by the bound
        spec = ThetaSpec(1, 2)
        with pytest.raises(ValueError, match=f"packs to more than {MAX_PRODUCT_BYTES} bytes"):
            A_series_product(spec, 400000)

    def test_delta_recomputed_matches(self):
        spec = ThetaSpec(F(1, 2), 4)
        assert spec.delta == spec.p / 12 - spec.a / 2 + spec.a ** 2 / (2 * spec.p)

    def test_nonpositive_p_rejected(self):
        with pytest.raises(ValueError):
            ThetaSpec(1, 0)


class TestModulusSeries:
    def test_leading_term(self):
        assert modulus_series(5).leading() == (F(1), F(16))

    def test_classical_eta_quotient_oracle(self):
        # oracle: 16 q prod ((1+q^(2n)) / (1+q^(2n-1)))^8 expanded directly
        order = 24
        num = PuiseuxSeries.constant(1).truncate(order)
        den = PuiseuxSeries.constant(1).truncate(order)
        for n in range(1, order + 1):
            if 2 * n < order:
                num = num * series([(0, 1), (2 * n, 1)])
            if 2 * n - 1 < order:
                den = den * series([(0, 1), (2 * n - 1, 1)])
        oracle = PuiseuxSeries.monomial(16, 1) * num ** 8 * invert_unit(den ** 8)
        assert modulus_series(order).agrees_with(oracle)

    def test_first_coefficients(self):
        m = modulus_series(6)
        assert [m.coefficient(k) for k in (1, 2, 3)] == [16, -128, 704]

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            st.sampled_from([F(1, 7), F(1), F(3, 2), F(4), F(37, 3)]),
            st.fractions(min_value=F(1, 12), max_value=60, max_denominator=12),
        )
    )
    def test_matches_theta_constant_loops(self, order):
        # 16 q (sum_{n>=0} q^(n^2+n))^4 / theta3^4 from the loops it replaced
        s2, s3 = theta2_half_loop(order), theta3_loop(order)
        want = PuiseuxSeries.monomial(16, 1) * (s2 ** 4 * invert_unit(s3 ** 4))
        assert outcome(modulus_series, order) == outcome(lambda: want)
        m = modulus_series(order)
        head = {k: c for k, c in {1: 16, 2: -128, 3: 704}.items() if k < m.hi}
        assert {k: m.coefficient(k) for k in head} == head

    def test_exp_form_agreement(self):
        lhs = sqrt_series(modulus_series(30))
        rhs = nome_sqrt_exp_form(30)
        assert lhs.agrees_with(rhs)


class TestH5Eta5:
    def test_h5_leading(self):
        h = h5_series(4)
        assert h.leading() == (F(-1, 5), F(1))

    def test_eta5_quadratic_contract(self):
        # 126 is the size of the eta5 job in the expand benchmark
        for order in (5, 126):
            h = h5_series(order)
            e = eta5_series(order)
            resid = e * e + (1 + h) * e - 1
            assert resid.is_zero()
            assert resid.knowledge_order() >= order

    def test_eta5_rescale_power_is_integral(self):
        v = rescale(eta5_series(6), 4) ** 5
        assert v.denom == 1
        assert v.leading() == (F(4), F(1))

    def test_eta5_leading(self):
        assert eta5_series(3).leading() == (F(1, 5), F(1))


def radical_eta5(order):
    """Oracle: eta5 as the root of its quadratic, (-1 - h5 + sqrt(5 + 2 h5 +
    h5^2)) / 2, with h5 known below order + 2/5."""
    h = h5_series(F(order) + F(2, 5))
    return (sqrt_series(5 + 2 * h + h * h) - 1 - h) * F(1, 2)


def fields(s):
    return (s.denom, s.nums, s.scale, s.hi)


class TestRootFreeConstructions:
    """eta5 as A(1,5)/A(2,5) and k as q^(1/2) theta2^2/theta3^2 give the
    very series their square-root forms give."""

    ETA5_ORDERS = (
        [F(k, 5) for k in range(1, 61)]
        + [F(k, 3) for k in range(1, 31)]
        + [F(k, 7) for k in range(1, 15)]
        + [F(76), F(125), F(126), F(300)]
    )

    @pytest.mark.parametrize("order", ETA5_ORDERS, ids=str)
    def test_eta5_equals_radical(self, order):
        assert fields(eta5_series(order)) == fields(radical_eta5(order))

    @pytest.mark.parametrize(
        "order", [F(j, 4) for j in range(1, 81)] + [F(76), F(126), F(301)], ids=str
    )
    def test_k_equals_root_of_modulus(self, order):
        want = sqrt_series(modulus_series(order))
        assert fields(k_series(order)) == fields(want)

    @pytest.mark.parametrize("order", [F(5), F(69), F(119), F(150)], ids=str)
    def test_sqrt_m_binding_equals_root_of_modulus(self, order):
        from thetaquot.mining import V_BINDINGS

        got = V_BINDINGS["sqrt_m"].series(order)
        assert fields(got) == fields(sqrt_series(modulus_series(order + 1)))

    def test_no_square_root_or_h5_taken(self, monkeypatch):
        import thetaquot.mining as mining_module
        import thetaquot.series as series_module
        from thetaquot.mining import V_BINDINGS

        def boom(*args, **kwargs):
            raise AssertionError("root-free construction called it")

        monkeypatch.setattr(series_module, "sqrt_series", boom)
        monkeypatch.setattr(series_module, "h5_series", boom)
        monkeypatch.setattr(mining_module, "sqrt_series", boom, raising=False)
        assert eta5_series(126).leading() == (F(1, 5), F(1))
        assert V_BINDINGS["sqrt_m"].series(F(60)).leading() == (F(1, 2), F(4))
        assert V_BINDINGS["eta5_q4_pow5"].series(F(40)).leading() == (F(4), F(1))


def fresh_inverse_exp(u):
    """exp as it was built before the coupled iterate: Newton steps
    f <- f + f (w - log f) with log f the integral of f' times a fresh
    schoolbook inverse of f."""
    w = PuiseuxSeries(1, u.coeffs, u.hi)
    lengths = []
    n = u.hi
    while n > 1:
        lengths.append(n)
        n = (n + 1) // 2
    f = PuiseuxSeries.constant(1)
    for n in reversed(lengths):
        f = PuiseuxSeries(1, f.coeffs, n)
        df = PuiseuxSeries(1, {k - 1: k * c for k, c in f.coeffs.items()}, n - 1)
        g = df * schoolbook_inverse(f)
        log_f = PuiseuxSeries(1, {k + 1: c / (k + 1) for k, c in g.coeffs.items()}, n)
        f = f + f * (w - log_f)
    return PuiseuxSeries(u.denom, f.coeffs, u.hi)


def nome_exp_argument(order):
    """-4 sum_{n>=1} q^n sum_{d|n} (-1)^(d+n/d)/d below q^ceil(order), by a
    divisor sieve."""
    n_max = math.ceil(order)
    s = [F(0)] * (n_max + 1)
    for d in range(1, n_max + 1):
        for n in range(d, n_max + 1, d):
            s[n] += F((-1) ** (d + n // d), d)
    return PuiseuxSeries(1, {n: -4 * s[n] for n in range(1, n_max + 1)}, n_max)


class TestSparseInversions:
    """Each construction that now inverts only a sparse theta or eta series
    gives the very series of the formula it replaced, which inverted a dense
    unit (here through the schoolbook recurrence)."""

    ORDERS = list(range(1, 61)) + [100, 150, F(1, 2), F(31, 2), F(101, 4)]

    @staticmethod
    def thetas(order):
        return (
            theta_series(1, 1, order, alternating=False),
            theta_series(1, 0, order, alternating=False),
        )

    @pytest.mark.parametrize("order", ORDERS, ids=str)
    def test_modulus_and_k(self, order):
        t2, t3 = self.thetas(order)
        m = PuiseuxSeries.monomial(1, 1) * (t2 ** 4 * schoolbook_inverse(t3 ** 4))
        k = PuiseuxSeries.monomial(1, F(1, 2)) * (t2 ** 2 * schoolbook_inverse(t3 ** 2))
        assert fields(modulus_series(order)) == fields(m)
        assert fields(k_series(order)) == fields(k)

    @pytest.mark.parametrize("order", ORDERS + [1000], ids=str)
    def test_modulus_and_k_by_division(self, order):
        # k divides theta(1,1)^2 by the sparse theta(1,0) twice; the formula
        # it replaced multiplied by theta(1,0)'s inverse and squared
        t2, t3 = self.thetas(order)
        k = PuiseuxSeries.monomial(1, F(1, 2)) * (t2 * invert_unit(t3)) ** 2
        assert fields(k_series(order)) == fields(k)
        assert fields(modulus_series(order)) == fields(k ** 2)

    @pytest.mark.parametrize("order", ORDERS, ids=str)
    def test_eta5_as_quotient_of_product_forms(self, order):
        top = F(math.ceil(5 * F(order)) + 2, 5)
        n = math.ceil(top - F(1, 5))
        num = A_series_product(ThetaSpec(1, 5), n)
        den = A_series_product(ThetaSpec(2, 5), n)
        want = (num * schoolbook_inverse(den)).truncate(top)
        assert fields(eta5_series(order)) == fields(want)

    @pytest.mark.parametrize("order", ORDERS, ids=str)
    def test_exp_with_a_fresh_inverse_per_step(self, order):
        u = nome_exp_argument(order)
        assert fields(exp_series(u)) == fields(fresh_inverse_exp(u))

    @pytest.mark.parametrize("order", ORDERS, ids=str)
    def test_negative_power_of_A(self, order):
        from thetaquot.mining import ABinding

        for spec, power, qscale in ((ThetaSpec(1, 3), -12, 1), (ThetaSpec(F(1, 2), 4), -3, 2)):
            got = ABinding(spec, power, F(qscale)).series(F(order))
            a = A_series(spec, F(order) / qscale + 2)
            want = schoolbook_inverse(rescale(a, qscale)) ** -power
            assert fields(got) == fields(want)


class TestOperandsUnchanged:
    """Series share their ``nums`` dicts (a truncation, a Newton iterate,
    an operand's own terms), so no operation may write into an operand's."""

    @settings(max_examples=150, deadline=None)
    @given(product_operands(), product_operands(), unit_operands(), exp_operands())
    def test_no_operation_writes_into_an_operand(self, x, y, u, e):
        operands = (x, y, u, e)
        before = [dict(w.nums) for w in operands]
        for op in (
            lambda: x + y,
            lambda: y + x,
            lambda: x + x,
            lambda: x - y,
            lambda: y - x,
            lambda: x * y,
            lambda: x * u,
            lambda: x * x,
            lambda: x ** 2,
            lambda: u ** 3,
            lambda: u ** -2,
            lambda: x.truncate(F(7, 2)),
            lambda: rescale(x, F(3, 2)),
            lambda: invert_unit(u),
            lambda: _divide(u * u, u),
            lambda: sqrt_series(u * u),
            lambda: sqrt_series(u),
            lambda: exp_series(e),
        ):
            try:
                op()
            except ValueError:
                pass  # an exact unit operand, a non-square leading term, ...
        assert [dict(w.nums) for w in operands] == before


class TestSerialization:
    def test_json_roundtrip(self):
        a = A_series(ThetaSpec(1, 4), 8)
        assert PuiseuxSeries.from_json(a.to_json()) == a

    def test_json_shape(self):
        obj = series([(F(-1, 2), 3), (1, F(2, 7))], order=4).to_json_obj()
        assert set(obj) == {"denom", "terms", "hi"}
        assert obj["denom"] == 2
        assert obj["terms"] == [[-1, "3"], [2, "2/7"]]
        assert obj["hi"] == 8
