"""Tests for fractional polynomials, transfer functions, and controller forms."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fopid.plant import (
    ControllerParams,
    FractionalPolynomial,
    FractionalTransferFunction,
    closed_loop,
    controller_tf,
)

POLE = complex(-1.43, 1.6718552568927728)  # design pole of the bundled demo


class TestNormalization:
    def test_terms_sorted_and_merged(self):
        p = FractionalPolynomial([(1.0, 2.0), (3.0, 0.5), (2.0, 2.0)])
        assert p.terms == ((3.0, 0.5), (3.0, 2.0))

    def test_zero_coefficients_dropped(self):
        p = FractionalPolynomial([(0.0, 1.0), (2.0, 0.0), (1.0, 1.0), (-1.0, 1.0)])
        assert p.terms == ((2.0, 0.0),)

    def test_near_equal_exponents_merge(self):
        p = FractionalPolynomial([(1.0, 1.5), (1.0, 1.5 + 1e-13)])
        assert len(p.terms) == 1

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            FractionalPolynomial([(1.0, -0.5)])

    @pytest.mark.parametrize("term", [(float("inf"), 1.0), (1.0, float("nan"))])
    def test_non_finite_term_rejected(self, term):
        with pytest.raises(ValueError, match="polynomial terms must be finite"):
            FractionalPolynomial([term])

    def test_idempotence(self):
        p = FractionalPolynomial([(2.0, 1.0), (1.0, 0.3), (0.5, 1.0 + 5e-13)])
        again = FractionalPolynomial(p.terms)
        assert again.terms == p.terms

    @given(
        st.lists(
            st.tuples(
                st.floats(-1e6, 1e6, allow_nan=False),
                st.floats(0, 10, allow_nan=False),
            ),
            max_size=12,
        )
    )
    def test_idempotence_property(self, terms):
        once = FractionalPolynomial(terms)
        twice = FractionalPolynomial(once.terms)
        assert twice.terms == once.terms


class TestEvaluate:
    def test_constant(self):
        p = FractionalPolynomial([(1.0, 0.0)])
        assert p.evaluate(complex(3.7, -2.1)) == 1 + 0j

    def test_linear_real(self):
        p = FractionalPolynomial([(1.0, 1.0), (2.0, 0.0)])
        assert p.evaluate(complex(3, 0)) == pytest.approx(5 + 0j)

    def test_fractional_plant_denominator_at_design_pole(self):
        p = FractionalPolynomial([(0.8, 2.2), (0.5, 0.9), (1.0, 0.0)])
        value = p.evaluate(POLE)
        # Constants embedded in the hand-derived residual split: 1 + 0.875
        # real, -3.428 imaginary.
        assert value.real == pytest.approx(1.875, abs=5e-3)
        assert value.imag == pytest.approx(-3.428, abs=5e-3)

    def test_zero_polynomial(self):
        assert FractionalPolynomial().evaluate(complex(1, 1)) == 0j


class TestPolyMultiply:
    def test_identity(self):
        one = FractionalPolynomial([(1.0, 0.0)])
        p = FractionalPolynomial([(2.0, 1.3), (1.0, 0.0)])
        assert (one * p).terms == p.terms

    def test_exponent_addition(self):
        half = FractionalPolynomial([(1.0, 0.5)])
        assert (half * half).terms == ((1.0, 1.0),)

    def test_hand_expansion(self):
        a = FractionalPolynomial([(2.0, 1.0), (1.0, 0.0)])
        b = FractionalPolynomial([(3.0, 0.5)])
        assert (a * b).terms == ((3.0, 0.5), (6.0, 1.5))

    def test_evaluation_homomorphism(self):
        rng = np.random.default_rng(7)
        a = FractionalPolynomial([(1.2, 2.2), (-0.7, 0.9), (3.0, 0.0)])
        b = FractionalPolynomial([(0.5, 1.7), (2.0, 0.4)])
        product = a * b
        for _ in range(100):
            s = complex(-rng.uniform(0.1, 10.0), rng.uniform(-10.0, 10.0))
            direct = a.evaluate(s) * b.evaluate(s)
            assert product.evaluate(s) == pytest.approx(direct, rel=1e-10)


class TestControllerTf:
    def test_pure_gain(self):
        tf = controller_tf(ControllerParams(1.0, 0.0, 0.0, 1.0, 1.0))
        assert tf.numerator.terms == ((1.0, 1.0),)
        assert tf.denominator.terms == ((1.0, 1.0),)

    def test_fractional_orders(self):
        tf = controller_tf(ControllerParams(442.68, 324.03, 115.27, 1.5, 1.41))
        assert tf.numerator.terms == ((324.03, 0.0), (442.68, 1.5), (115.27, 2.91))
        assert tf.denominator.terms == ((1.0, 1.5),)

    def test_integer_orders(self):
        tf = controller_tf(ControllerParams(214.84, 361.57, 76.76, 1.0, 1.0))
        assert tf.numerator.terms == ((361.57, 0.0), (214.84, 1.0), (76.76, 2.0))
        assert tf.denominator.terms == ((1.0, 1.0),)

    def test_negative_lam_rejected(self):
        with pytest.raises(ValueError):
            controller_tf(ControllerParams(1.0, 1.0, 1.0, -0.5, 1.0))

    def test_matches_direct_form_at_unit_orders(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            kp, ti, td = rng.uniform(0.5, 300.0, size=3)
            tf = controller_tf(ControllerParams(kp, ti, td, 1.0, 1.0))
            s = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            if s == 0:
                continue
            direct = kp + ti / s + td * s
            value = tf.numerator.evaluate(s) / tf.denominator.evaluate(s)
            assert value == pytest.approx(direct, rel=1e-12)


class TestClosedLoop:
    def test_textbook_unity_feedback(self):
        gc = FractionalTransferFunction.from_terms([(1.0, 0.0)], [(1.0, 0.0)])
        gp = FractionalTransferFunction.from_terms([(1.0, 0.0)], [(1.0, 1.0), (1.0, 0.0)])
        loop = closed_loop(gc, gp)
        assert loop.numerator.terms == ((1.0, 0.0),)
        assert loop.denominator.terms == ((2.0, 0.0), (1.0, 1.0))

    def test_servo_integer_controller_denominator(self):
        # Hand algebra: s(s^2 + 50 s) + 400(s^2 + 3.2 s + 5.41)
        gc = controller_tf(ControllerParams(3.2, 5.41, 1.0, 1.0, 1.0))
        gp = FractionalTransferFunction.from_terms([(400.0, 0.0)], [(1.0, 2.0), (50.0, 1.0)])
        loop = closed_loop(gc, gp)
        expected = ((2164.0, 0.0), (1280.0, 1.0), (450.0, 2.0), (1.0, 3.0))
        assert len(loop.denominator.terms) == len(expected)
        for (c, e), (want_c, want_e) in zip(loop.denominator.terms, expected):
            assert c == pytest.approx(want_c, rel=1e-12)
            assert e == want_e

    def test_zero_controller_gives_zero_numerator(self):
        gc = controller_tf(ControllerParams(0.0, 0.0, 0.0, 1.0, 1.0))
        gp = FractionalTransferFunction.from_terms([(1.0, 0.0)], [(1.0, 1.0), (1.0, 0.0)])
        loop = closed_loop(gc, gp)
        assert loop.numerator.is_zero

    def test_identically_zero_denominator_rejected(self):
        gc = FractionalTransferFunction.from_terms([(-1.0, 0.0)], [(1.0, 0.0)])
        gp = FractionalTransferFunction.from_terms([(1.0, 0.0)], [(1.0, 0.0)])
        with pytest.raises(ValueError):
            closed_loop(gc, gp)


class TestValidation:
    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            FractionalTransferFunction.from_terms([(1.0, 0.0)], [(0.0, 1.0)])

    def test_non_finite_controller_rejected(self):
        with pytest.raises(ValueError):
            ControllerParams(float("nan"), 1.0, 1.0, 1.0, 1.0)
