"""Algebraic recognition: lattice route, rationals as the degree-1 case,
certification guards, and the divisor round-trip property."""

import importlib
import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from thetaquot.numeric import GUARD, BigReal, big_real, eval_A, nome_from_r
from thetaquot.recognize import (
    IntPoly,
    NotFound,
    lll_reduce,
    recognize,
)
from thetaquot.series import ThetaSpec

# the module, which the package's ``recognize`` function shadows as an attribute
recognize_mod = importlib.import_module("thetaquot.recognize")


def br(expr, digits, dps=None):
    with mp.workdps(dps or digits + 30):
        return BigReal(expr(), digits)


class TestIntPoly:
    def test_normalization(self):
        p = IntPoly.normalized([4, -8, 0])
        assert p.coeffs == (-1, 2)  # content 4 removed, leading made positive

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            IntPoly.normalized([0, 0])

    def test_str(self):
        assert str(IntPoly.normalized([1, -6, 1])) == "x^2 - 6*x + 1"

    def test_json(self):
        p = IntPoly.normalized([-2, 0, 0, 0, 0, 0, 1])
        assert p.to_json_obj() == ["-2", "0", "0", "0", "0", "0", "1"]
        assert IntPoly.from_json_obj(p.to_json_obj()) == p


def _gram_schmidt(b):
    n = len(b)
    mu = [[F(0)] * n for _ in range(n)]
    bstar = []
    norms = []
    for i in range(n):
        w = [F(x) for x in b[i]]
        mu[i][i] = F(1)
        for j in range(i):
            if norms[j]:
                mu[i][j] = _dot(b[i], bstar[j]) / norms[j]
                w = [w[k] - mu[i][j] * bstar[j][k] for k in range(len(w))]
        bstar.append(w)
        norms.append(_dot(w, w))
    return mu, norms


def _dot(a, b):
    return sum((F(x) * y for x, y in zip(a, b)), F(0))


def fraction_lll(basis, delta):
    """Reference LLL on rational Gram-Schmidt data, updated in place across
    size reductions and swaps (the recognizer's original implementation)."""
    b = [row[:] for row in basis]
    n = len(b)
    mu, norms = _gram_schmidt(b)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            m = mu[k][j]
            if abs(m) > F(1, 2):
                r = round(m)
                b[k] = [b[k][t] - r * b[j][t] for t in range(len(b[k]))]
                for t in range(j):
                    mu[k][t] -= r * mu[j][t]
                mu[k][j] -= r
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
            continue
        m = mu[k][k - 1]
        bk1_new = norms[k] + m * m * norms[k - 1]
        mu_new = m * norms[k - 1] / bk1_new
        norms[k] = norms[k - 1] * norms[k] / bk1_new
        norms[k - 1] = bk1_new
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            mu[k][j], mu[k - 1][j] = mu[k - 1][j], mu[k][j]
        mu[k][k - 1] = mu_new
        for i in range(k + 1, n):
            t = mu[i][k]
            mu[i][k] = mu[i][k - 1] - m * t
            mu[i][k - 1] = t + mu_new * mu[i][k]
        k = max(k - 1, 1)
    return b


def cohen_lll(basis, delta=F(99, 100)):
    """Reference integral LLL (Cohen, GTM 138, Alg. 2.6.7) as first written
    here: the Lovasz test always on the full products, and each later row's
    lam[i][k-1] updated through the new d_k.  lll_reduce must reproduce its
    output bit for bit."""
    b = [row[:] for row in basis]
    n = len(b)
    d = [1]
    lam = []
    for k in range(n):
        row = []
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
        g = d[k + 1] * d[k - 1] + m * m
        if den * g >= num * d[k] * d[k]:
            k += 1
            continue
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


def _det(rows):
    a = [[F(x) for x in row] for row in rows]
    det = F(1)
    for c in range(len(a)):
        p = next((r for r in range(c, len(a)) if a[r][c]), None)
        if p is None:
            return F(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


DELTAS = st.sampled_from([F(3, 4), F(99, 100)])


@st.composite
def full_rank_bases(draw):
    n = draw(st.integers(2, 7))
    cols = n + draw(st.integers(0, 2))
    bound = 10 ** draw(st.sampled_from([1, 3, 10, 30]))
    entry = st.integers(-bound, bound)
    basis = [[draw(entry) for _ in range(cols)] for _ in range(n)]
    assume(all(_gram_schmidt(basis)[1]))
    return basis


@st.composite
def tie_bases(draw):
    """Lower-triangular bases: b_j* = L[j][j] e_j, so mu_ij = L[i][j]/L[j][j].
    Even diagonals with entries h*L[j][j]/2, h in {-3, -1, 1, 3}, start the
    reduction on exact ties mu = +-1/2 and +-3/2."""
    n = draw(st.integers(2, 7))
    half = [draw(st.integers(1, 10 ** 6)) for _ in range(n)]
    tie = st.sampled_from([-3, -1, 1, 3])
    basis = []
    for i in range(n):
        row = [0] * n
        row[i] = 2 * half[i]
        for j in range(i):
            if draw(st.booleans()):
                row[j] = draw(tie) * half[j]
            else:
                row[j] = draw(st.integers(-(10 ** 7), 10 ** 7))
        basis.append(row)
    perm = draw(st.permutations(range(n)))
    return [[row[c] for c in perm] for row in basis]


@st.composite
def lovasz_tie_bases(draw):
    """b0 = L(10, 0, 0), b1 = L(1, 7, 7) + (0, 0, e) and random rows after
    them, L from 2^260 to 2^600.  mu_10 = 1/10 and B_1 = 98L^2 + 14eL + e^2,
    so at delta = 99/100 the first Lovasz test is the tie den*g = num*d_1^2
    for e = 0 and misses it by a relative 1/(7L) or less for e = +-1.
    d_1 = 100L^2 has over 512 bits, so lll_reduce tries the 64 leading bits
    first, and only its exact test can decide."""
    big = draw(st.integers(2 ** 260, 2 ** 600))
    e = draw(st.sampled_from([-1, 0, 1]))
    n = draw(st.integers(2, 6))
    cols = max(n, 3)
    pad = [0] * (cols - 3)
    basis = [[10 * big, 0, 0] + pad, [big, 7 * big, 7 * big + e] + pad]
    entry = st.integers(-(10 ** 30), 10 ** 30)
    basis += [[draw(entry) for _ in range(cols)] for _ in range(n - 2)]
    assume(all(_gram_schmidt(basis)[1]))
    return basis


class TestLLL:
    @settings(max_examples=200, deadline=None)
    @given(full_rank_bases(), DELTAS)
    def test_matches_fraction_lll(self, basis, delta):
        assert lll_reduce(basis, delta) == fraction_lll(basis, delta)

    @settings(max_examples=200, deadline=None)
    @given(tie_bases(), DELTAS)
    def test_matches_fraction_lll_on_ties(self, basis, delta):
        assert lll_reduce(basis, delta) == fraction_lll(basis, delta)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(full_rank_bases(), tie_bases()), DELTAS)
    def test_cohen_reference_matches_fraction_lll(self, basis, delta):
        assert cohen_lll(basis, delta) == fraction_lll(basis, delta)

    @settings(max_examples=60, deadline=None)
    @given(lovasz_tie_bases())
    def test_lovasz_ties_past_the_leading_bits(self, basis):
        assert lll_reduce(basis) == fraction_lll(basis, F(99, 100))

    @pytest.mark.parametrize("delta", [F(2), F(1, 4), 0])
    def test_delta_outside_the_range_rejected(self, delta):
        with pytest.raises(ValueError, match=r"\(1/4, 1\]"):
            lll_reduce([[1, 0], [0, 1]], delta)

    @pytest.mark.parametrize(
        "basis", [[[1, 0], [0, 1]], [[3, 1, 4], [1, 5, 9], [2, 6, 5]], [[12, 5], [7, 3]]]
    )
    def test_delta_one_and_float_delta(self, basis):
        assert lll_reduce(basis, F(1)) == fraction_lll(basis, F(1))
        assert lll_reduce(basis, 0.75) == lll_reduce(basis, F(3, 4))

    @pytest.mark.parametrize(
        "basis",
        [[[0, 0], [1, 0]], [[1, 0], [2, 0]], [[1, 2, 3], [4, 5, 6], [5, 7, 9]]],
    )
    def test_rank_deficient_basis_rejected(self, basis):
        with pytest.raises(ValueError, match="not of full rank"):
            lll_reduce(basis)

    def test_recognition_lattice_is_reduced(self):
        digits, deg, delta = 200, 4, F(99, 100)
        x = eval_A(ThetaSpec(1, 4), nome_from_r(5, digits), digits) ** 24
        with mp.workdps(digits + GUARD):
            cols = [int(mpmath.nint(10 ** digits * x.value ** i)) for i in range(deg + 1)]
        basis = [
            [int(i == j) for j in range(deg + 1)] + [cols[i]] for i in range(deg + 1)
        ]
        reduced = lll_reduce(basis, delta)
        assert reduced == fraction_lll(basis, delta)
        mu, norms = _gram_schmidt(reduced)
        for i in range(1, deg + 1):
            assert all(2 * abs(mu[i][j]) <= 1 for j in range(i))
            assert norms[i] >= (delta - mu[i][i - 1] ** 2) * norms[i - 1]
        # rows are U * basis, and the first deg+1 columns of basis are I
        assert abs(_det([row[: deg + 1] for row in reduced])) == 1


def _fresh_lattice(x, d, digits):
    """The degree-d recognition lattice [e_i | round(10^digits x^i)] built
    from scratch, with the powers formed as the recognizer forms them."""
    with mp.workdps(digits + GUARD):
        powers = [mpmath.mpf(1)]
        for _ in range(d):
            powers.append(powers[-1] * x.value)
        cols = [int(mpmath.nint(10 ** digits * p)) for p in powers]
    return [[int(i == j) for j in range(d + 1)] + [cols[i]] for i in range(d + 1)]


PRIMES = st.sampled_from([2, 3, 5, 7, 11, 13])


@st.composite
def algebraic_values(draw):
    """(c0 + c1 m^(1/k)) / den with m prime: degree exactly k (Eisenstein)."""
    k = draw(st.integers(1, 5))
    m = draw(PRIMES)
    c0 = draw(st.integers(-50, 50))
    c1 = draw(st.integers(-50, 50).filter(bool))
    den = draw(st.integers(1, 30))
    return lambda: (c0 + c1 * mpmath.root(m, k)) / den


class TestIncrementalLattice:
    @settings(max_examples=30, deadline=None)
    @given(
        st.one_of(algebraic_values(), st.just(lambda: +mpmath.pi)),
        st.integers(60, 200),
    )
    def test_each_degree_equals_a_fresh_reduction(self, expr, digits):
        x = br(expr, digits)
        calls = []

        def recording(basis, *args, **kwargs):
            reduced = lll_reduce(basis, *args, **kwargs)
            calls.append(reduced)
            return reduced

        with pytest.MonkeyPatch.context() as mpatch:
            mpatch.setattr(recognize_mod, "lll_reduce", recording)
            try:
                recognize(x, 5, digits)
            except NotFound:
                assert len(calls) == 5  # the NotFound path tries every degree
        assert calls
        for d, reduced in enumerate(calls, start=1):
            assert reduced == lll_reduce(_fresh_lattice(x, d, digits))


class TestRecognitionLattices:
    """lll_reduce against cohen_lll on the lattices recognize reduces."""

    @settings(max_examples=5, deadline=None)
    @given(algebraic_values(), st.integers(300, 1000), st.integers(1, 6))
    def test_fresh_lattice_matches_cohen(self, expr, digits, d):
        d = min(d, 2000 // digits)  # under a second a lattice
        basis = _fresh_lattice(br(expr, digits), d, digits)
        assert lll_reduce(basis) == cohen_lll(basis)

    @pytest.mark.parametrize("r", [5, 9, 25])
    def test_benchmark_climb_matches_cohen(self, r):
        # the precision workload's job: A(1,4; q_r)^24 at 400 digits, degree <= 8
        x = eval_A(ThetaSpec(1, 4), nome_from_r(r, 400), 400) ** 24
        seen = []

        def recording(basis):
            reduced = lll_reduce(basis)
            seen.append((basis, reduced))
            return reduced

        with pytest.MonkeyPatch.context() as mpatch:
            mpatch.setattr(recognize_mod, "lll_reduce", recording)
            recognize(x, 8, 400)
        assert len(seen) == 4  # each of these is a quartic
        for basis, reduced in seen:
            assert reduced == cohen_lll(basis)


class TestRecognize:
    def test_integer(self):
        poly = recognize(big_real(8, 60), 4)
        assert poly.coeffs == (-8, 1)

    def test_sixth_root_of_two(self):
        x = br(lambda: mpmath.root(2, 6), 80)
        assert recognize(x, 6, 80).coeffs == (-2, 0, 0, 0, 0, 0, 1)

    def test_silver_ratio_conjugate(self):
        x = br(lambda: 3 - 2 * mpmath.sqrt(2), 60)
        assert recognize(x, 4).coeffs == (1, -6, 1)

    def test_pi_not_recognized(self):
        x = br(lambda: +mpmath.pi, 60)
        with pytest.raises(NotFound):
            recognize(x, 4, 60)

    def test_diagnostic_names_precision_budget(self):
        x = br(lambda: +mpmath.pi, 40)
        with pytest.raises(NotFound, match="budget"):
            recognize(x, 6, 40)

    def test_precision_monotonicity(self):
        for digits in (80, 160):
            x = br(lambda: mpmath.root(2, 6), digits)
            assert recognize(x, 6, digits).coeffs == (-2, 0, 0, 0, 0, 0, 1)

    def test_round_trip_divisor_property(self):
        rng = random.Random(60091)
        digits = 140
        found = 0
        attempts = 0
        while found < 8 and attempts < 40:
            attempts += 1
            deg = rng.randint(2, 5)
            coeffs = [rng.randint(-1000, 1000) for _ in range(deg)] + [
                rng.randint(1, 1000)
            ]
            with mp.workdps(digits + 60):
                try:
                    roots = mpmath.polyroots(
                        list(reversed(coeffs)), maxsteps=200, extraprec=200
                    )
                except mpmath.libmp.NoConvergence:
                    continue
                real_roots = [r for r in roots if abs(mpmath.im(r)) < mpmath.mpf(10) ** -50]
                if not real_roots:
                    continue
                x = BigReal(mpmath.re(real_roots[0]), digits)
            got = recognize(x, 5, digits)
            found += 1
            # the recognized polynomial divides the sampled one over Q
            quotient, remainder = _divmod_poly(coeffs, list(got.coeffs))
            assert all(c == 0 for c in remainder)

    def test_degree_bound_respected(self):
        x = br(lambda: mpmath.root(2, 6), 200)
        with pytest.raises(NotFound):
            recognize(x, 3, 200)


def _divmod_poly(num, den):
    num = [F(c) for c in num]
    den = [F(c) for c in den]
    q = [F(0)] * (len(num) - len(den) + 1)
    r = num[:]
    for k in range(len(q) - 1, -1, -1):
        q[k] = r[k + len(den) - 1] / den[-1]
        for j, d in enumerate(den):
            r[k + j] -= q[k] * d
    return q, r


class TestRecognizeRational:
    def test_half(self):
        assert recognize(big_real(F(1, 2), 60), 1).coeffs == (-1, 2)

    def test_a14_24th_power(self):
        a = eval_A(ThetaSpec(1, 4), nome_from_r(1, 80), 80) ** 24
        assert recognize(big_real(a, 60), 1, 60).coeffs == (-8, 1)

    def test_a14_value_is_certified_algebraic(self):
        # the quotient value itself at r = 1 is the real eighth root of 2
        a = eval_A(ThetaSpec(1, 4), nome_from_r(1, 90), 90)
        assert recognize(big_real(a, 90), 8).coeffs == (-2, 0, 0, 0, 0, 0, 0, 0, 1)

    # the certificate caps the coefficients' total bits at 0.3 digits
    # decimal digits' worth, which bounds the denominator of d*x - n
    def test_pi_small_denominator_rejected(self):
        x = br(lambda: +mpmath.pi, 60)
        with pytest.raises(NotFound):
            recognize(x, 1, 60)

    def test_sqrt2_rejected_at_large_bound(self):
        x = br(lambda: mpmath.sqrt(2), 60)
        with pytest.raises(NotFound):
            recognize(x, 1, 60)

    def test_random_fractions_roundtrip(self):
        rng = random.Random(8844)
        for _ in range(20):
            fr = F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
            got = recognize(big_real(fr, 60), 1).coeffs
            assert got == (-fr.numerator, fr.denominator)
