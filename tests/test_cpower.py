"""Tests for principal-branch complex powers."""

import cmath
import math

import pytest
from hypothesis import given, strategies as st

from fopid.plant import cpow

# Evaluation point used throughout the residual math: second-quadrant pole.
Z = complex(-1.43, 1.67)


class TestPolar:
    """cpow works in polar form, with the argument in (-pi, pi]."""

    def test_positive_real_axis(self):
        assert cpow(complex(4, 0), 0.5) == 2 + 0j

    def test_second_quadrant_point(self):
        root = cpow(Z, 0.5)
        assert abs(root) ** 2 == pytest.approx(2.199, abs=5e-4)
        assert 2 * cmath.phase(root) == pytest.approx(2.2789, abs=5e-5)
        assert math.degrees(2 * cmath.phase(root)) == pytest.approx(130.57, abs=5e-3)

    def test_negative_imaginary_axis(self):
        # arg(-2j) = -pi/2, so the square root is sqrt(2) at -pi/4.
        assert cpow(complex(0, -2), 0.5) == pytest.approx(1 - 1j, rel=1e-15)

    def test_origin(self):
        for z in (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)):
            assert cpow(z, 0.5) == 0j
            assert cpow(z, 0.0) == 1 + 0j

    def test_negative_real_axis_is_plus_pi(self):
        # atan2 gives -pi for a -0.0 imaginary part; cpow folds it to +pi.
        for z in (complex(-4, 0.0), complex(-4, -0.0)):
            root = cpow(z, 0.5)
            assert root == pytest.approx(2j, abs=1e-15)
            assert root.imag == 2.0

    def test_just_below_negative_real_axis_is_minus_pi(self):
        # atan2 rounds this argument to -pi too, but the point is off the cut,
        # so its principal square root lies near -1j, not +1j.
        z = complex(-1, -2.2e-16)
        assert math.atan2(z.imag, z.real) == -math.pi
        assert cpow(z, 0.5) == pytest.approx(cmath.sqrt(z), abs=1e-15)
        assert cpow(z, 0.5).imag == pytest.approx(-1.0, rel=1e-15)


class TestCpow:
    def test_identity_exponent(self):
        result = cpow(Z, 1.0)
        assert result.real == pytest.approx(Z.real, rel=1e-15)
        assert result.imag == pytest.approx(Z.imag, rel=1e-15)

    def test_fractional_power_against_builtin(self):
        # Independent oracle: cmath's principal-branch power. Frozen value
        # computed with Z**2.2.
        expected = complex(1.6790488455940293, -5.403869881153352)
        result = cpow(Z, 2.2)
        assert result == pytest.approx(expected, rel=1e-12)
        assert result == pytest.approx(Z**2.2, rel=1e-12)

    def test_fractional_power_against_repeated_multiplication(self):
        assert cpow(Z, 2.2) == pytest.approx(Z * Z * cpow(Z, 0.2), rel=1e-12)

    def test_negative_power_against_reciprocal(self):
        assert cpow(Z, -1.5) == pytest.approx(1.0 / cpow(Z, 1.5), rel=1e-12)
        assert abs(cpow(Z, -1.5)) == pytest.approx(abs(Z) ** -1.5, rel=1e-12)

    def test_zero_base_conventions(self):
        assert cpow(0j, 2.5) == 0j
        assert cpow(0j, 0.0) == 1.0
        with pytest.raises(ValueError):
            cpow(0j, -1.0)

    def test_zero_exponent_is_exactly_one(self):
        assert cpow(Z, 0.0) == 1 + 0j


# Subnormal components are excluded: cmath.phase (used as an oracle below)
# signals a range error on them even though the values are representable.
complex_points = st.builds(
    complex,
    st.floats(min_value=-100.0, max_value=100.0, allow_subnormal=False),
    st.floats(min_value=-100.0, max_value=100.0, allow_subnormal=False),
).filter(lambda z: 1e-3 < abs(z) < 1e3)

exponents = st.floats(min_value=-3.0, max_value=3.0)


class TestProperties:
    @given(complex_points, exponents)
    def test_magnitude_matches_real_power(self, z, alpha):
        expected = abs(z) ** alpha
        assert abs(cpow(z, alpha)) == pytest.approx(expected, rel=10 * math.ulp(1.0))

    @given(complex_points, st.floats(-2, 2), st.floats(-2, 2))
    def test_exponent_addition_without_branch_wrap(self, z, alpha, beta):
        argument = cmath.phase(z)
        if max(abs(alpha * argument), abs(beta * argument), abs((alpha + beta) * argument)) > math.pi:
            return
        left = cpow(z, alpha) * cpow(z, beta)
        right = cpow(z, alpha + beta)
        assert left == pytest.approx(right, rel=1e-12)

    @given(complex_points)
    def test_square_matches_direct_multiplication(self, z):
        assert cpow(z, 2.0) == pytest.approx(z * z, rel=1e-12)
        assert cpow(z, 1.0) == pytest.approx(z, rel=1e-12)

    @given(complex_points)
    def test_polar_reconstruction(self, z):
        assert cpow(z, 0.5) ** 2 == pytest.approx(z, rel=1e-12)

    @given(complex_points)
    def test_argument_in_principal_interval(self, z):
        # On the negative real axis cpow takes the argument +pi, the upper
        # side of the cut, also for a -0.0 imaginary part; elsewhere the root
        # is cmath's principal one.
        expected = cmath.sqrt(complex(z.real, 0.0) if z.imag == 0 else z)
        assert cpow(z, 0.5) == pytest.approx(expected, rel=1e-12)
