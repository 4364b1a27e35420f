"""Tests for the Grunwald-Letnikov step simulator."""

import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from fopid import benchmarks
from fopid.plant import ControllerParams, FractionalTransferFunction, closed_loop, controller_tf
from fopid.simulate import (
    LEAF,
    MAX_STEP_MEMORY_PRODUCT,
    SimConfig,
    SimulationDiverged,
    _combined_weights,
    _leaf_residual,
    _series_inverse,
    _split,
    _toeplitz,
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


class TestGlDerivative:
    """The GL derivative h^-alpha * (w^(alpha) conv x) that simulate_step applies per term."""

    @staticmethod
    def derivative(x, alpha, h):
        return h**-alpha * np.convolve(x, gl_weights(alpha, len(x)))[: len(x)]

    def test_half_derivative_composes_to_first(self):
        # Discrete GL weights convolve exactly: w^(0.5) * w^(0.5) = w^(1).
        h = 1e-2
        t = np.arange(0, 5, h)
        x = np.sin(t)
        once = self.derivative(self.derivative(x, 0.5, h), 0.5, h)
        direct = self.derivative(x, 1.0, h)
        assert np.max(np.abs(once - direct)) < 1e-6

    def test_first_derivative_matches_backward_difference(self):
        h = 1e-3
        t = np.arange(0, 1, h)
        x = t**2
        d = self.derivative(x, 1.0, h)
        assert d[1:] == pytest.approx(np.diff(x) / h)

    def test_zero_order_is_identity(self):
        x = np.array([0.3, -1.2, 4.0])
        assert np.array_equal(self.derivative(x, 0.0, 0.1), x)


def reference_step(tf, cfg, dtype=float):
    """The per-sample recursion that the leaf solve replaced, kept as a reference.

    With ``dtype=np.longdouble`` it runs on the same float64 weights in
    extended precision, which makes it the truth both float64 solvers are
    measured against. Returns the samples (the finite prefix on divergence)
    and the first non-finite index, or None.
    """
    lag = cfg.memory
    den = _combined_weights(tf.denominator.terms, cfg.time_step, lag + 1).astype(dtype)
    num = _combined_weights(tf.numerator.terms, cfg.time_step, lag + 1).astype(dtype)
    forced = np.cumsum(num)
    den_rev = den[::-1].copy()
    y = np.zeros(cfg.steps, dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(cfg.steps):
            kk = min(k, lag)
            history = np.dot(den_rev[lag - kk : lag], y[k - kk : k]) if kk else 0.0
            value = (forced[kk] - history) / den[0]
            if not np.isfinite(value):
                return y[:k], k
            y[k] = value
    return y, None


def simulate_or_partial(tf, cfg):
    try:
        return simulate_step(tf, cfg).samples, None
    except SimulationDiverged as exc:
        return exc.partial.samples, exc.first_bad_index


def assert_within_ten_times_recursion(tf, cfg):
    """simulate_step is at most 10x as far as the float64 recursion from the
    longdouble recursion, both relative to max |y|."""
    truth, _ = reference_step(tf, cfg, np.longdouble)
    recursion, _ = reference_step(tf, cfg)
    scale = np.max(np.abs(truth))
    error = float(np.max(np.abs(simulate_step(tf, cfg).samples - truth)) / scale)
    recursion_error = float(np.max(np.abs(recursion - truth)) / scale)
    assert error <= 10 * recursion_error, (cfg, error, recursion_error)


REFERENCE_CONTROLLERS = {
    "fractional_plant/integer": (
        benchmarks.fractional_plant, ControllerParams(214.84, 361.57, 76.76, 1.0, 1.0)
    ),
    "fractional_plant/fractional": (
        benchmarks.fractional_plant, ControllerParams(442.68, 324.03, 115.27, 1.5, 1.41)
    ),
    "servo_plant/integer": (benchmarks.servo_plant, ControllerParams(3.2, 5.41, 1.0, 1.0, 1.0)),
    "servo_plant/fractional": (
        benchmarks.servo_plant, ControllerParams(32.01, 10.14, 9.71, 1.19, 1.36)
    ),
}
REFERENCE_LOOPS = {
    label: closed_loop(controller_tf(params), make_plant())
    for label, (make_plant, params) in REFERENCE_CONTROLLERS.items()
}


class TestLeafSolve:
    """The leaf solve with its history summed in blocks.

    After each leaf, a block of the newest samples adds its history to the
    outputs that follow: blocks narrower than FFT_MIN by one np.correlate,
    oldest sample first, wider ones by FFT over the lags from LEAF on, plus a
    direct sum of the lags below LEAF in the block's corner. Runs of more
    than FFT_MIN steps, with at least FFT_MIN samples of memory, reach the
    FFT blocks.
    """

    # fractional_plant/fractional is left out: its recursion is off the
    # longdouble truth by about 3e-8, so any change of summation order moves
    # it by a few 1e-9. The accuracy gates below cover it.
    @pytest.mark.parametrize(
        "label", ["fractional_plant/integer", "servo_plant/integer", "servo_plant/fractional"]
    )
    def test_leaf_edges_match_recursion(self, label):
        h = 1e-3
        for steps in (LEAF // 2, LEAF, LEAF + 1, 7 * LEAF + 105):
            for memory in (None, 1, 5, LEAF - 1, LEAF, LEAF + 1, 500):
                cfg = SimConfig(time_step=h, horizon=(steps - 1) * h, memory_length=memory)
                assert cfg.steps == steps
                got, bad = simulate_or_partial(REFERENCE_LOOPS[label], cfg)
                expected, expected_bad = reference_step(REFERENCE_LOOPS[label], cfg)
                assert bad == expected_bad, (steps, memory)
                assert len(got) == len(expected)
                assert np.all(
                    np.abs(got - expected) <= 1e-9 * np.maximum(np.abs(expected), 1.0)
                ), (steps, memory)

    @pytest.mark.parametrize(
        "tf",
        [FIRST_ORDER, second_order(0.65, 2.2), *REFERENCE_LOOPS.values()],
        ids=["first_order", "second_order", *REFERENCE_LOOPS],
    )
    def test_error_within_ten_times_recursion(self, tf):
        # Both float64 solvers against the longdouble recursion, relative to
        # max |y|; the leaf solve may be at most 10x worse than the recursion.
        # At 10 s the history blocks reach 8192 samples, most of them by FFT.
        for horizon in (3.0, 10.0):
            cfg = SimConfig(time_step=1e-3, horizon=horizon)
            assert_within_ten_times_recursion(tf, cfg)

    @pytest.mark.parametrize(
        "label", ["fractional_plant/integer", "fractional_plant/fractional", "servo_plant/fractional"]
    )
    def test_memory_edges_within_ten_times_recursion(self, label):
        # Memory lengths next to the leaf, FFT_MIN and doubled block widths,
        # where a block is clipped to the memory window; 8193 steps end on a
        # one-sample leaf, so the last block has one output. The servo's
        # integer loop has no history past lag 2 and is left out. At memory
        # 127-129 the float64 recursion sits up to 6e-6 from the longdouble
        # truth relative to max(|y|, 1), so the gate is against the truth,
        # not the recursion.
        h = 1e-3
        for steps in (5000, 8193):
            for memory in (127, 128, 129, 511, 512, 513, 1023, 1024, 1025, 2000):
                cfg = SimConfig(time_step=h, horizon=(steps - 1) * h, memory_length=memory)
                assert cfg.steps == steps
                assert_within_ten_times_recursion(REFERENCE_LOOPS[label], cfg)

    @pytest.mark.parametrize("label", list(REFERENCE_LOOPS))
    def test_series_inverse_of_leaf_weights(self, label):
        # D g = delta over the first LEAF terms, checked in longdouble. The
        # weights reach 4e9 to 7e11, and the products cancel to 0 or 1.
        weights = _combined_weights(REFERENCE_LOOPS[label].denominator.terms, 1e-3, LEAF)
        inverse = _series_inverse(weights)
        error = np.convolve(weights.astype(np.longdouble), inverse.astype(np.longdouble))[:LEAF]
        error[0] -= 1
        assert np.max(np.abs(error)) <= 1e-9

    @pytest.mark.parametrize("memory", [None, 5])
    @pytest.mark.parametrize("label", [*REFERENCE_LOOPS, "alternating"])
    def test_split_residual_is_exact(self, label, memory):
        # The refinement residual rhs - D y against the exact one in
        # Fractions. D_hi @ y_hi must be exact in any summation order, so it
        # equals the correctly rounded sum of its products, which are exact.
        # The rest is rounded term by term: the residual may be off by a few
        # ulps of itself plus the rounding of (size + 1)-term sums of the low
        # parts. Memory 5 leaves zero weights past lag 5. The alternating
        # weights, all of nearly one size, meet an alternating leaf with
        # every product of one sign: the largest partial sums the split
        # allows, which the reference loops' weights, decaying from lag 2,
        # stay far below.
        rng = np.random.default_rng(14)
        signs = (-1.0) ** np.arange(LEAF)
        if label == "alternating":
            weights = signs * (1 - rng.random(LEAF) / 64) * 2.0**36
        else:
            weights = _combined_weights(REFERENCE_LOOPS[label].denominator.terms, 1e-3, LEAF)
        if memory is not None:
            weights[memory + 1 :] = 0.0
        weights_hi = _split(weights, np.abs(weights).max())
        den_hi, den_lo = _toeplitz(weights_hi), _toeplitz(weights - weights_hi)
        den, inverse = _toeplitz(weights), _toeplitz(_series_inverse(weights))
        exact_weights = [Fraction(w) for w in weights]
        for size in (1, 64, 127, 128):
            d, d_hi, d_lo = den[:size, :size], den_hi[:size, :size], den_lo[:size, :size]
            # A leaf solved from a random right-hand side, as simulate_step
            # refines it, then a random and an alternating leaf, each with
            # the rounded D y as its right-hand side.
            random_rhs = rng.standard_normal(size) * 10.0 ** rng.uniform(-3, 3)
            leaves = (
                rng.standard_normal(size) * 10.0 ** rng.uniform(-3, 3),
                signs[:size] * (1 - rng.random(size) / 64) * 10.0 ** rng.uniform(-3, 3),
            )
            cases = [(random_rhs, inverse[:size, :size] @ random_rhs)]
            cases += [(d @ leaf, leaf) for leaf in leaves]
            for rhs, leaf in cases:
                peak = np.abs(leaf).max()
                leaf_hi = _split(leaf, peak)
                exact = d_hi @ leaf_hi
                assert np.array_equal(exact, [math.fsum(row * leaf_hi) for row in d_hi]), size
                got = _leaf_residual(rhs, leaf, peak, d_hi, d_lo)
                exact_leaf = [Fraction(value) for value in leaf]
                truth = [
                    Fraction(rhs[i])
                    - sum(exact_weights[i - j] * exact_leaf[j] for j in range(i + 1))
                    for i in range(size)
                ]
                error = np.array([float(Fraction(g) - t) for g, t in zip(got, truth)])
                low = np.abs(d_lo) @ np.abs(leaf) + np.abs(d_hi) @ np.abs(leaf - leaf_hi)
                eps = np.finfo(float).eps
                bound = 2 * eps * (np.abs(np.array(truth, dtype=float)) + (size + 2) * low)
                assert np.all(np.abs(error) <= bound), (size, np.max(np.abs(error) / bound))

    def test_history_summed_oldest_first(self):
        # Each output's history arrives block by block, oldest block first,
        # and within an FFT block the lags below LEAF come last, summed
        # directly. Those weights are about h^-alpha = 1e11 and cancel to
        # outputs of order 1; inside the FFT, whose rounding scales with its
        # largest weight, they move the result 1.2e-6 from the recursion.
        # Split off, it drifts 3.5e-9.
        tf = REFERENCE_LOOPS["fractional_plant/fractional"]
        cfg = SimConfig(time_step=1e-3, horizon=10.0)
        expected, _ = reference_step(tf, cfg)
        got = simulate_step(tf, cfg).samples
        assert np.max(np.abs(got - expected) / np.maximum(np.abs(expected), 1.0)) < 1.5e-8

    def test_peak_memory_at_full_memory(self):
        # The FFT blocks' transients stay within a few arrays of n samples:
        # at 50 s the widest block is 32768 samples, an FFT of 65536 points.
        tf = REFERENCE_LOOPS["fractional_plant/fractional"]
        cfg = SimConfig(time_step=1e-3, horizon=50.0)
        tracemalloc.start()
        try:
            simulate_step(tf, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 8 * cfg.steps

    def test_divergence_index_matches_recursion(self):
        # Negative gains on both plants. Without the guard on max |y| before
        # overflow, a leaf that overflows inside its solve, not in the
        # recursion, reports its own first bad index (2048 for 2037 here).
        rng = np.random.default_rng(7)
        draws = [
            ControllerParams(
                -rng.uniform(1, 1e4), rng.uniform(1, 500), rng.uniform(1, 500),
                rng.uniform(0, 2), rng.uniform(0, 2),
            )
            for _ in range(40)
        ]
        diverged = 0
        for label in ("fractional_plant/fractional", "servo_plant/fractional"):
            make_plant, params = REFERENCE_CONTROLLERS[label]
            # At kp = -3.2e6 the leaf series inverse reaches 1.6e72 on the
            # fractional plant, and the leaf solve overflows to inf - inf.
            for controller in (*draws, replace(params, kp=-3.2e6)):
                tf = closed_loop(controller_tf(controller), make_plant())
                for memory in (None, 200):
                    cfg = SimConfig(time_step=1e-3, horizon=3.0, memory_length=memory)
                    got, bad = simulate_or_partial(tf, cfg)
                    expected, expected_bad = reference_step(tf, cfg)
                    assert bad == expected_bad, (controller, memory)
                    assert len(got) == len(expected)
                    diverged += bad is not None
        assert diverged == 28
