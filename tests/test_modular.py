"""Degree-2 modular machinery: the S_n map, Landen descent, the explicit
companion radical, and the functional-equation instance."""

from fractions import Fraction as F

import mpmath
import pytest
from mpmath import mp

from thetaquot.modular import (
    check_theorem3_instance,
    landen_k4,
    p2_A14,
    q_A14,
    s_n,
    singular_chain,
)
from thetaquot.numeric import big_real, eval_A, nome_from_r, singular_modulus
from thetaquot.series import ThetaSpec


def tol(digits, guard=10):
    with mp.workdps(30):
        return mpmath.mpf(10) ** (-digits + guard)


class TestSn:
    def test_identity_at_n1(self):
        x = big_real(F(1, 2), 60).sqrt()
        assert abs((s_n(x, 1) - x).value) < tol(60)

    def test_s2_at_symmetric_point(self):
        x = big_real(F(1, 2), 60).sqrt()
        with mp.workdps(80):
            ref = 3 - 2 * mpmath.sqrt(2)
            assert abs(s_n(x, 2).value - ref) < tol(60)

    @pytest.mark.parametrize("xv", [F(3, 10), F(3, 5)])
    def test_s2_closed_form(self, xv):
        x = big_real(xv, 60)
        kp = (1 - x * x).sqrt()
        closed = (1 - kp) / (1 + kp)
        assert abs((s_n(x, 2) - closed).value) < tol(60)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("r", [1, 2])
    def test_sn_unwinds_to_singular_modulus(self, n, r):
        kr = singular_modulus(r, 60).k
        expect = singular_modulus(n * n * r, 60).k
        assert abs((s_n(kr, n) - expect).value) < tol(60)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            s_n(big_real(F(1, 2), 40), 0)


class TestLanden:
    def test_symmetric_point(self):
        k = big_real(F(1, 2), 60).sqrt()
        with mp.workdps(80):
            assert abs(landen_k4(k).value - (3 - 2 * mpmath.sqrt(2))) < tol(60)

    def test_small_modulus_quartic_behavior(self):
        got = landen_k4(big_real(F(1, 10 ** 6), 40))
        with mp.workdps(60):
            assert abs(got.value - mpmath.mpf("2.5e-13")) < mpmath.mpf("1e-18")

    @pytest.mark.parametrize("r", [1, 2])
    def test_descends_to_quadrupled_argument(self, r):
        k = singular_modulus(r, 60).k
        k4 = singular_modulus(4 * r, 60).k
        assert abs((landen_k4(k) - k4).value) < tol(60)

    def test_tiny_modulus_keeps_full_relative_precision(self):
        # (1 - k')/(1 + k') cancels at k = 1e-20; (k/(1 + k'))^2 does not
        got = landen_k4(big_real(F(1, 10 ** 20), 60))
        with mp.workdps(200):
            k = mpmath.mpf(10) ** -20
            kp = mpmath.sqrt(1 - k * k)
            want = (1 - kp) / (1 + kp)
            assert abs(got.value - want) < mpmath.mpf(10) ** -60 * want


class TestSingularChain:
    def test_chain_at_r1_reaches_k4(self):
        ep = singular_modulus(1, 60)
        ch = singular_chain(ep)
        k4 = singular_modulus(4, 60).k
        assert abs((ch.k21 - k4).value) < tol(60)
        for val in (ch.k11, ch.k12, ch.k21, ch.k22):
            assert 0 < val.value < 1

    def test_k21_is_the_modulus_at_four_times_r(self):
        # the paper's (2 - k11^2 - 2 k12)/k11^2 cancels as r grows
        ch = singular_chain(singular_modulus(300, 60))
        k4 = singular_modulus(1200, 60).k
        with mp.workdps(80):
            assert abs((ch.k21 - k4).value) < mpmath.mpf(10) ** -60 * k4.value

    def test_chain_internal_relations(self):
        ep = singular_modulus(3, 50)
        ch = singular_chain(ep)
        assert abs((ch.k12 - (1 - ch.k11 ** 2).sqrt()).value) < tol(50)
        assert abs((ch.k22 ** 2 + ch.k21 ** 2 - 1).value) < tol(50)


class TestP2:
    def test_defining_octic_at_generic_argument(self):
        u = big_real(F(11, 10), 60)
        v = p2_A14(u)
        resid = abs((16 * u ** 8 + u ** 16 * v ** 8 - v ** 16).value)
        assert resid < tol(60, 15)

    @pytest.mark.parametrize("r", [1, 2])
    def test_connects_nome_to_squared_nome(self, r):
        digits = 50
        q = nome_from_r(r, digits)
        u = eval_A(ThetaSpec(1, 4), q)
        v = eval_A(ThetaSpec(1, 4), q * q)
        assert abs((p2_A14(u) - v).value) < tol(digits)

    def test_small_argument_asymptotics(self):
        # leading behavior w^(1/2) * 8^(1/8) / 2^(1/8) = w^(1/2) * 2^(1/4)
        w = big_real(F(1, 10 ** 8), 50)
        expect = w.sqrt() * big_real(2, 50) ** F(1, 4)
        assert abs(((p2_A14(w) - expect) / expect).value) < mpmath.mpf("1e-5")

    def test_modular_equation_residual_independent_of_radical(self):
        # the octic itself at (u, v) = (A at q, A at q^2), not through p2
        for r in (1, 2):
            digits = 60
            q = nome_from_r(r, digits)
            u = eval_A(ThetaSpec(1, 4), q)
            v = eval_A(ThetaSpec(1, 4), q * q)
            resid = abs((16 * u ** 8 + u ** 16 * v ** 8 - v ** 16).value)
            assert resid < tol(digits, 15)


class TestTheorem3Instance:
    @pytest.mark.parametrize("make_x", [
        lambda d: big_real(F(3, 10), d),
        lambda d: big_real(F(1, 2), d).sqrt(),
        lambda d: big_real(F(3, 5), d),
    ])
    def test_residual_small(self, make_x):
        digits = 60
        x = make_x(digits)
        assert check_theorem3_instance(x).value < tol(digits)

    def test_q_map_value(self):
        x = big_real(F(1, 2), 60).sqrt()
        with mp.workdps(80):
            # 4 (1 - 1/2) / (1/sqrt 2) = 2 sqrt 2 = 2^(3/2); twelfth root 2^(1/8)
            assert abs(q_A14(x).value - mpmath.mpf(2) ** (mpmath.mpf(1) / 8)) < tol(60)

    def test_domain(self):
        with pytest.raises(ValueError):
            check_theorem3_instance(big_real(F(3, 2), 40))
