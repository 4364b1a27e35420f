"""Tests for the Grunwald-Letnikov step simulator."""

import math

import numpy as np
import pytest

from fopid.plant import ControllerParams, FractionalTransferFunction, closed_loop, controller_tf
from fopid.simulate import (
    MAX_STEP_MEMORY_PRODUCT,
    SimConfig,
    SimulationDiverged,
    gl_derivative,
    gl_weights,
    simulate_step,
)

FIRST_ORDER = FractionalTransferFunction.from_terms(
    [(1.0, 0.0)], [(1.0, 1.0), (1.0, 0.0)]
)


def second_order(zeta, omega0):
    return FractionalTransferFunction.from_terms(
        [(omega0**2, 0.0)], [(1.0, 2.0), (2 * zeta * omega0, 1.0), (omega0**2, 0.0)]
    )


def analytic_second_order(zeta, omega0, t):
    wd = omega0 * math.sqrt(1 - zeta**2)
    decay = np.exp(-zeta * omega0 * t)
    return 1 - decay * (np.cos(wd * t) + zeta / math.sqrt(1 - zeta**2) * np.sin(wd * t))


class TestGlWeights:
    def test_first_difference(self):
        assert np.array_equal(gl_weights(1.0, 4), [1.0, -1.0, 0.0, 0.0])

    def test_identity_operator(self):
        assert np.array_equal(gl_weights(0.0, 3), [1.0, 0.0, 0.0])

    def test_half_order_by_hand(self):
        # Recurrence by hand: 1, -1/2, -1/8, -1/16.
        assert gl_weights(0.5, 4) == pytest.approx([1.0, -0.5, -0.125, -0.0625])

    def test_second_difference(self):
        assert np.array_equal(gl_weights(2.0, 5), [1.0, -2.0, 1.0, 0.0, 0.0])

    def test_recurrence_invariant(self):
        for alpha in (0.3, 0.9, 1.41, 1.97):
            w = gl_weights(alpha, 50)
            assert w[0] == 1.0
            for j in range(1, 50):
                assert w[j] == pytest.approx(w[j - 1] * (1 - (1 + alpha) / j), rel=1e-14)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            gl_weights(0.5, 0)


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.steps == 10001
        assert cfg.memory == 10000

    def test_memory_truncation(self):
        cfg = SimConfig(time_step=0.01, horizon=1.0, memory_length=25)
        assert cfg.memory == 25

    def test_full_keyword(self):
        cfg = SimConfig(time_step=0.01, horizon=1.0, memory_length=None)
        assert cfg.memory == cfg.steps - 1
        # None is the one library spelling of full memory.
        with pytest.raises(ValueError, match="memory_length"):
            SimConfig(time_step=0.01, horizon=1.0, memory_length="full")

    def test_cost_cap(self):
        # 1e7 samples at full memory would run for hours; the error points at
        # memory_length, and a short enough history is accepted.
        with pytest.raises(ValueError, match="memory_length"):
            SimConfig(time_step=1e-3, horizon=10_000.0)
        assert SimConfig(time_step=1e-3, horizon=10_000.0, memory_length=500).memory == 500
        # The largest benchmarked run: 5e4 samples at full memory.
        cfg = SimConfig(time_step=1e-3, horizon=50.0)
        assert cfg.steps * cfg.memory <= MAX_STEP_MEMORY_PRODUCT

    def test_guards(self):
        with pytest.raises(ValueError):
            SimConfig(time_step=0.0)
        with pytest.raises(ValueError):
            SimConfig(time_step=1e-9, horizon=1e3)
        with pytest.raises(ValueError):
            SimConfig(memory_length=0)


class TestSimulateStep:
    def test_first_order_against_analytic(self):
        cfg = SimConfig(time_step=1e-3, horizon=2.0)
        resp = simulate_step(FIRST_ORDER, cfg)
        t = resp.times
        assert len(resp.samples) == 2001
        error = np.max(np.abs(resp.samples - (1 - np.exp(-t))))
        assert error < 5e-3

    def test_halving_step_reduces_error(self):
        errors = []
        for h in (2e-3, 1e-3):
            cfg = SimConfig(time_step=h, horizon=2.0)
            resp = simulate_step(FIRST_ORDER, cfg)
            errors.append(np.max(np.abs(resp.samples - (1 - np.exp(-resp.times)))))
        assert errors[1] < errors[0]

    def test_second_order_against_analytic(self):
        cfg = SimConfig(time_step=1e-3, horizon=5.0)
        resp = simulate_step(second_order(0.65, 2.2), cfg)
        error = np.max(np.abs(resp.samples - analytic_second_order(0.65, 2.2, resp.times)))
        assert error < 1e-2

    def test_integer_orders_match_backward_difference_oracle(self):
        # Independent oracle: direct backward-difference discretization of
        # y'' + 2*zeta*w0*y' + w0^2*y = w0^2*step.
        zeta, omega0, h, n = 0.65, 2.2, 1e-3, 2001
        a2, a1, a0 = 1.0, 2 * zeta * omega0, omega0**2
        y = np.zeros(n)
        c0 = a2 / h**2 + a1 / h + a0
        for k in range(n):
            back1 = y[k - 1] if k >= 1 else 0.0
            back2 = y[k - 2] if k >= 2 else 0.0
            rhs = omega0**2 + (2 * a2 / h**2 + a1 / h) * back1 - a2 / h**2 * back2
            y[k] = rhs / c0
        cfg = SimConfig(time_step=h, horizon=(n - 1) * h)
        resp = simulate_step(second_order(zeta, omega0), cfg)
        assert np.max(np.abs(resp.samples - y)) < 1e-9

    def test_open_loop_fractional_plant_reaches_dc_gain(self):
        # Fractional tails decay algebraically; a long horizon at a coarser
        # step shows the unit DC gain.
        plant = FractionalTransferFunction.from_terms(
            [(1.0, 0.0)], [(0.8, 2.2), (0.5, 0.9), (1.0, 0.0)]
        )
        cfg = SimConfig(time_step=5e-3, horizon=150.0)
        resp = simulate_step(plant, cfg)
        assert resp.samples[-1] == pytest.approx(1.0, abs=0.02)

    def test_short_memory_stays_close_to_full(self):
        cfg_full = SimConfig(time_step=1e-3, horizon=2.0)
        cfg_short = SimConfig(time_step=1e-3, horizon=2.0, memory_length=500)
        full = simulate_step(FIRST_ORDER, cfg_full)
        short = simulate_step(FIRST_ORDER, cfg_short)
        assert np.max(np.abs(full.samples - short.samples)) < 1e-3

    def test_divergence_reported_with_index(self):
        unstable = FractionalTransferFunction.from_terms(
            [(1.0, 0.0)], [(1.0, 1.0), (-5.0, 0.0)]
        )
        cfg = SimConfig(time_step=0.01, horizon=400.0, memory_length=50)
        with pytest.raises(SimulationDiverged) as excinfo:
            simulate_step(unstable, cfg)
        exc = excinfo.value
        assert exc.first_bad_index > 0
        assert len(exc.partial.samples) == exc.first_bad_index
        assert np.all(np.isfinite(exc.partial.samples))

    def test_zero_isolation_coefficient(self):
        # At h = 1e-3 the terms -s and 1000 cancel in the m=0 coefficient.
        tf = FractionalTransferFunction.from_terms(
            [(1.0, 0.0)], [(-1.0, 1.0), (1000.0, 0.0)]
        )
        with pytest.raises(ValueError, match="isolation"):
            simulate_step(tf, SimConfig(time_step=1e-3, horizon=1.0))

    def test_closed_loop_demo_is_stable(self):
        plant = FractionalTransferFunction.from_terms(
            [(1.0, 0.0)], [(0.8, 2.2), (0.5, 0.9), (1.0, 0.0)]
        )
        loop = closed_loop(
            controller_tf(ControllerParams(214.84, 361.57, 76.76, 1.0, 1.0)), plant
        )
        resp = simulate_step(loop, SimConfig(time_step=1e-3, horizon=2.0))
        tail = resp.samples[-100:]
        assert np.all(np.abs(tail - 1.0) < 0.05)


class TestWeightSums:
    def test_partial_sums_shrink(self):
        # The full weight sequence sums to zero; by 5000 terms the partial
        # sum is small for orders near or above 1, and O(n^-alpha) in general.
        for alpha, bound in ((0.9, 1e-3), (1.41, 1e-4)):
            total = gl_weights(alpha, 5001).sum()
            assert abs(total) < bound

    def test_partial_sum_decays_with_length(self):
        sums = [abs(gl_weights(0.3, n).sum()) for n in (100, 1000, 10000)]
        assert sums[2] < sums[1] < sums[0]


def reference_gl_derivative(samples, alpha, time_step, memory=None):
    """The per-sample loop that gl_derivative replaced, kept as a reference.

    Returns the derivative and, per sample, h^-alpha * sum_m |w_m x_{k-m}|,
    the scale of the rounding error any summation order can make.
    """
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    lag = n - 1 if memory is None else min(memory, n - 1)
    w = gl_weights(alpha, lag + 1)
    scale = time_step**-alpha
    out = np.empty(n)
    magnitude = np.empty(n)
    for k in range(n):
        kk = min(k, lag)
        window = samples[k - kk : k + 1][::-1]
        out[k] = scale * np.dot(w[: kk + 1], window)
        magnitude[k] = scale * np.dot(np.abs(w[: kk + 1]), np.abs(window))
    return out, magnitude


class TestGlDerivative:
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 1.0, 1.41, 2.0])
    def test_matches_reference_loop(self, alpha):
        h = 1e-2
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 17, 250, 2000):
            x = 1.0 + rng.standard_normal(n)
            for memory in (None, 1, 10, n, n + 5):
                got = gl_derivative(x, alpha, h, memory)
                expected, magnitude = reference_gl_derivative(x, alpha, h, memory)
                assert got.shape == (n,)
                if alpha == 0.0:
                    assert np.array_equal(got, expected)
                else:
                    assert np.all(np.abs(got - expected) <= 1e-12 * magnitude), (n, memory)

    def test_half_derivative_composes_to_first(self):
        # Discrete GL weights convolve exactly: w^(0.5) * w^(0.5) = w^(1).
        h = 1e-2
        t = np.arange(0, 5, h)
        x = np.sin(t)
        once = gl_derivative(gl_derivative(x, 0.5, h), 0.5, h)
        direct = gl_derivative(x, 1.0, h)
        assert np.max(np.abs(once - direct)) < 1e-6

    def test_first_derivative_matches_backward_difference(self):
        h = 1e-3
        t = np.arange(0, 1, h)
        x = t**2
        d = gl_derivative(x, 1.0, h)
        assert d[1:] == pytest.approx(np.diff(x) / h)

    def test_zero_order_is_identity(self):
        x = np.array([0.3, -1.2, 4.0])
        assert np.array_equal(gl_derivative(x, 0.0, 0.1), x)
