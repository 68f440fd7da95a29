"""Exact series ring: constructors against independent oracles, operation
contracts, and ring properties on seeded random inputs."""

import math
import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
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
from thetaquot.series import _rel_length


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
    """Reference inverse: the recurrence b_m = -sum a_j b_(m-j) / a_0."""
    alpha, n_rel, a = _dense_relative(u, "inversion")
    b = [F(0)] * n_rel
    b[0] = 1 / a[0]
    for m in range(1, n_rel):
        b[m] = -sum((a[j] * b[m - j] for j in range(1, m + 1)), F(0)) / a[0]
    coeffs = {m - alpha: b[m] for m in range(n_rel)}
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

    @settings(max_examples=200, deadline=None)
    @given(unit_operands())
    def test_matches_schoolbook(self, u):
        assert outcome(invert_unit, u) == outcome(schoolbook_inverse, u)

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
