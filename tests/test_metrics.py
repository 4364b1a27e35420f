"""Tests for step-response metrics extraction."""

import math

import numpy as np
import pytest

from fopid.metrics import analyze
from fopid.simulate import StepResponse


def response(samples, h=1e-3):
    return StepResponse(time_step=h, samples=np.asarray(samples, dtype=float))


class TestAnalyze:
    def test_constant_response(self):
        metrics = analyze(response(np.ones(1000)))
        assert metrics.overshoot_percent == 0.0
        assert metrics.rise_time == 0.0
        assert metrics.settling_time == 0.0
        assert metrics.steady_state == 1.0
        assert metrics.stable

    def test_first_order_exponential(self):
        h = 1e-3
        t = np.arange(0, 10, h)
        metrics = analyze(response(1 - np.exp(-t), h))
        # steady state is the trailing-window mean, slightly below the last
        # sample, so a monotone response shows a vanishing residual overshoot
        assert metrics.overshoot_percent < 0.01
        assert metrics.rise_time == pytest.approx(math.log(9), abs=0.01)
        # leaves the 2% band for the last time when 1 - e^-t = 0.98
        assert metrics.settling_time == pytest.approx(math.log(50), abs=0.01)
        assert metrics.stable

    def test_classical_second_order_overshoot(self):
        zeta, omega0, h = 0.65, 2.2, 1e-3
        t = np.arange(0, 10, h)
        wd = omega0 * math.sqrt(1 - zeta**2)
        y = 1 - np.exp(-zeta * omega0 * t) * (
            np.cos(wd * t) + zeta / math.sqrt(1 - zeta**2) * np.sin(wd * t)
        )
        metrics = analyze(response(y, h))
        expected = 100 * math.exp(-math.pi * zeta / math.sqrt(1 - zeta**2))
        assert metrics.overshoot_percent == pytest.approx(expected, abs=0.3)
        assert metrics.stable

    def test_amplitude_scaling_invariance(self):
        h = 1e-3
        t = np.arange(0, 8, h)
        wd = 2.2 * math.sqrt(1 - 0.65**2)
        y = 1 - np.exp(-0.65 * 2.2 * t) * (np.cos(wd * t) + 0.8505 * np.sin(wd * t))
        base = analyze(response(y, h))
        for k in (0.25, 3.7, 1e4):
            scaled = analyze(response(k * y, h))
            assert scaled.overshoot_percent == pytest.approx(
                base.overshoot_percent, rel=1e-9
            )
            assert scaled.rise_time == pytest.approx(base.rise_time, rel=1e-9)
            assert scaled.settling_time == pytest.approx(base.settling_time, rel=1e-9)
            assert scaled.steady_state == pytest.approx(k * base.steady_state, rel=1e-9)

    def test_rise_before_settling(self):
        h = 1e-3
        t = np.arange(0, 10, h)
        wd = 2.2 * math.sqrt(1 - 0.65**2)
        curves = [
            1 - np.exp(-t),
            1 - np.exp(-0.65 * 2.2 * t) * (np.cos(wd * t) + 0.8505 * np.sin(wd * t)),
        ]
        for y in curves:
            metrics = analyze(response(y, h))
            assert metrics.rise_time <= metrics.settling_time

    def test_time_scaling(self):
        t = np.arange(0, 6, 1e-3)
        y = 1 - np.exp(-t)
        base = analyze(response(y, 1e-3))
        stretched = analyze(response(y, 3e-3))
        assert stretched.rise_time == pytest.approx(3 * base.rise_time, rel=1e-12)
        assert stretched.settling_time == pytest.approx(3 * base.settling_time, rel=1e-12)

    def test_non_finite_flags_unstable(self):
        samples = np.ones(100)
        samples[50] = np.inf
        metrics = analyze(response(samples))
        assert not metrics.stable
        assert math.isnan(metrics.overshoot_percent)
        assert math.isnan(metrics.rise_time)
        assert math.isnan(metrics.settling_time)
        assert math.isnan(metrics.steady_state)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            analyze(response([1.0]))

    def test_oscillating_tail_not_stable(self):
        t = np.arange(0, 10, 1e-2)
        metrics = analyze(response(1 + 0.5 * np.sin(3 * t)))
        assert not metrics.stable

    def test_never_reaching_thresholds_gives_nan_rise(self):
        # Tail mean of a decaying-to-zero response is ~0; rising crossings
        # of its fractions still exist, but a negative steady state must not.
        samples = -np.ones(200)
        metrics = analyze(response(samples))
        assert math.isnan(metrics.overshoot_percent)
        assert math.isnan(metrics.rise_time)

    def test_deterministic(self):
        samples = np.random.default_rng(0).random(500) + 5.0
        first = analyze(response(samples))
        second = analyze(response(samples))
        assert first == second
