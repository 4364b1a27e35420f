"""Tests for the Grunwald-Letnikov step simulator."""

import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from fopid import benchmarks, simulate
from fopid.plant import ControllerParams, FractionalTransferFunction, closed_loop, controller_tf
from fopid.simulate import (
    LEAF,
    MAX_STEP_MEMORY_PRODUCT,
    SimConfig,
    SimulationDiverged,
    _band_residual,
    _combined_weights,
    _leaf_residual,
    _series_inverse,
    _split,
    _split_leaves,
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

    @pytest.mark.parametrize(
        "exponents",
        [(0.0,), (2.0, 1.0, 0.0), (3.0, 1.0), (2.2, 0.9, 0.0), (1.41,), (2.0, 1.5, 0.0), (-1.0,)],
        ids=["static", "integer", "integer_odd", "fractional", "one_fractional", "mixed",
             "integration"],
    )
    def test_matches_cumprod_oracle(self, exponents):
        # The cumprod of 1 - (1 + e)/m behind a leading 1, summed per term as
        # c * h^-e * w^(e) from zeros, is the oracle. Integer orders stop the
        # recurrence at its exact zero, m = e + 1, and fill the rest with
        # zeros; the sums are the same to the bit.
        def oracle_weights(alpha, count):
            m = np.arange(1, count, dtype=float)
            return np.concatenate(([1.0], np.cumprod(1.0 - (1.0 + alpha) / m)))

        h = 1e-3
        terms = tuple((1.0 + k / 3, e) for k, e in enumerate(exponents))
        top = int(max(exponents))
        for count in sorted({1, 2, top + 1, top + 2, 3001, 50001} - {0}):
            for _, e in terms:
                assert np.array_equal(gl_weights(e, count), oracle_weights(e, count)), (e, count)
            expected = np.zeros(count)
            for c, e in terms:
                expected += c * h**-e * oracle_weights(e, count)
            got = _combined_weights(terms, h, count)
            assert got.tobytes() == expected.tobytes(), count


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
        # The cap counts the memory a run uses. 1e7 samples of a fractional
        # loop at full memory would run for hours; the error points at
        # memory_length, and a short enough history is accepted.
        cfg = SimConfig(time_step=1e-3, horizon=10_000.0)
        with pytest.raises(ValueError, match="memory_length"):
            simulate_step(REFERENCE_LOOPS["fractional_plant/fractional"], cfg)
        assert SimConfig(time_step=1e-3, horizon=10_000.0, memory_length=500).memory == 500
        # The largest benchmarked run: 5e4 samples at full memory.
        cfg = SimConfig(time_step=1e-3, horizon=50.0)
        assert cfg.steps * cfg.memory <= MAX_STEP_MEMORY_PRODUCT
        # The servo's integer PID runs with a memory of 3, its highest order,
        # so 1e6 samples at full memory are accepted.
        cfg = SimConfig(time_step=1e-3, horizon=1000.0)
        assert cfg.steps * cfg.memory > MAX_STEP_MEMORY_PRODUCT
        samples = simulate_step(REFERENCE_LOOPS["servo_plant/integer"], cfg).samples
        assert len(samples) == cfg.steps
        assert samples[-1] == pytest.approx(1.0, abs=1e-9)

    def test_guards(self):
        with pytest.raises(ValueError):
            SimConfig(time_step=0.0)
        with pytest.raises(ValueError):
            SimConfig(time_step=1e-9, horizon=1e3)
        with pytest.raises(ValueError):
            SimConfig(memory_length=0)
        with pytest.raises(ValueError, match="memory_length"):
            SimConfig(memory_length=True)

    def test_horizon_shorter_than_a_step_refused(self):
        with pytest.raises(ValueError, match="horizon must cover at least one step"):
            SimConfig(time_step=1.0, horizon=0.5)


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


def reference_step(tf, cfg):
    """The per-sample recursion that the leaf solve replaced, kept as a reference.

    Returns the samples (the finite prefix on divergence) and the first
    non-finite index, or None.
    """
    lag = cfg.memory
    den = _combined_weights(tf.denominator.terms, cfg.time_step, lag + 1)
    num = _combined_weights(tf.numerator.terms, cfg.time_step, lag + 1)
    forced = np.cumsum(num)
    den_rev = den[::-1].copy()
    y = np.zeros(cfg.steps)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(cfg.steps):
            kk = min(k, lag)
            history = np.dot(den_rev[lag - kk : lag], y[k - kk : k]) if kk else 0.0
            value = (forced[kk] - history) / den[0]
            if not np.isfinite(value):
                return y[:k], k
            y[k] = value
    return y, None


# Veltkamp's splitter for float64: a * SPLITTER splits a into two halves of
# 26 bits whose pairwise products are exact.
SPLITTER = 2.0**27 + 1.0


def two_product(a, b):
    """(p, e) with p = fl(a * b) and p + e = a * b exactly (Dekker 1971)."""
    p = a * b
    t = SPLITTER * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    t = SPLITTER * b
    b_hi = t - (t - b)
    b_lo = b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def exact_step(tf, cfg):
    """The per-sample recursion on the same float64 weights, with every sample
    a double-double (hi, lo) and every history dot exact to far below its
    rounding; the truth the float64 solvers are measured against.

    Each history dot is split as in Ozaki, Ogita, Oishi and Rump (2012): the
    weights, and the samples it reads, are each cut into two slices on grids
    of `bits` bits below their peak plus a remainder. Every product of two
    slices is then a multiple of one quantum and every partial sum of width
    of them stays below 2^53 quanta, so the four slice dots are exact in
    BLAS's order; the five dots with a remainder are rounded, but their terms
    are 2^-bits of the largest or less. The samples' grid follows the
    largest sample a dot can read, so a loop that grows by orders of
    magnitude keeps its relative accuracy. math.fsum adds the nine dots and
    the double-double forced side exactly, and the quotient by the lag-0
    weight is kept to double-double precision. It needs float64 alone, so it
    gives the same truth on every platform. Weights past the last nonzero
    one are skipped, as they only add exact zeros. Returns (hi, lo); a
    non-finite sample fails the calling test.
    """
    lag = cfg.memory
    den = _combined_weights(tf.denominator.terms, cfg.time_step, lag + 1)
    num = _combined_weights(tf.numerator.terms, cfg.time_step, lag + 1)
    width = min(lag, max(1, int(np.flatnonzero(den)[-1])))
    bits = (53 - math.ceil(math.log2(width + 1))) // 2

    def slices(values, top, rint=np.rint):
        """values = first + second + rest, on grids of 2^(top - bits) and 2^(top - 2 bits)."""
        first = rint(values * 2.0 ** (bits - top)) * 2.0 ** (top - bits)
        second = rint((values - first) * 2.0 ** (2 * bits - top)) * 2.0 ** (top - 2 * bits)
        return first, second, values - first - second

    weights = den[1 : width + 1]
    history_weights = np.vstack(slices(weights, math.frexp(np.abs(weights).max())[1]))
    # The forced side at lag kk, a prefix sum of the input weights, as
    # (sum, error) by a TwoSum cascade (Ogita, Rump and Oishi's Sum2).
    forced = []
    total = error = 0.0
    for weight in num.tolist():
        new_total = total + weight
        part = new_total - total
        error += (total - (new_total - part)) + (weight - part)
        total = new_total
        forced.append((total, error))
    n = cfg.steps
    # Column n - 1 - k holds sample k's two slices and its remainder plus lo,
    # so that the samples a history dot reads, newest first, are contiguous.
    sliced = np.zeros((3, n))
    hi = np.zeros(n)
    lo = np.zeros(n)
    lead = float(den[0])
    top = -1074  # every nonzero sample so far is below 2^top
    for k in range(n):
        kk = min(k, width)
        terms = list(forced[min(k, lag)])
        if kk:
            dots = history_weights[:, :kk] @ sliced[:, n - k : n - k + kk].T
            terms += (-dots).ravel().tolist()
        numerator = math.fsum(terms)
        numerator_lo = math.fsum(terms + [-numerator])
        quotient = numerator / lead
        assert math.isfinite(quotient), f"the exact recursion diverged at sample {k}"
        product, product_error = two_product(quotient, lead)
        quotient_lo = math.fsum([numerator, numerator_lo, -product, -product_error]) / lead
        hi[k] = value = quotient + quotient_lo
        lo[k] = quotient_lo - (value - quotient)
        if not value:
            continue
        if math.frexp(value)[1] > top:
            # A coarser grid, for every sample that later dots read.
            top = math.frexp(value)[1]
            first = max(0, k + 1 - width)
            first_slice, second_slice, rest = slices(hi[first : k + 1], top)
            sliced[:, n - 1 - k : n - first] = np.vstack(
                (first_slice, second_slice, rest + lo[first : k + 1])
            )[:, ::-1]
        else:
            first_slice, second_slice, rest = slices(value, top, round)
            sliced[:, n - 1 - k] = (first_slice, second_slice, rest + lo[k])
    return hi, lo


def simulate_or_partial(tf, cfg):
    try:
        return simulate_step(tf, cfg).samples, None
    except SimulationDiverged as exc:
        return exc.partial.samples, exc.first_bad_index


def assert_within_ten_times_recursion(tf, cfg):
    """simulate_step is at most 10x as far as the float64 recursion from the
    exact recursion, both relative to max |y|."""
    recursion, _ = reference_step(tf, cfg)
    hi, lo = exact_step(tf, cfg)
    scale = np.abs(hi).max()
    # Each difference from hi is exact where the two agree to a factor of 2.
    error = float(np.max(np.abs((simulate_step(tf, cfg).samples - hi) - lo)) / scale)
    recursion_error = float(np.max(np.abs((recursion - hi) - lo)) / scale)
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
    than FFT_MIN steps, with at least FFT_MIN samples of memory and an
    order that is not an integer, reach the FFT blocks.
    """

    # fractional_plant/fractional is left out: its recursion is off the
    # exact one by about 3.6e-8, so any change of summation order moves
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
        # Both float64 solvers against the exact recursion, relative to
        # max |y|; the leaf solve may be at most 10x worse than the recursion.
        # At 10 s the history blocks of a fractional-order loop reach 8192
        # samples, most of them by FFT.
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
        # 127-129 the float64 recursion sits up to 8e-6 from the exact one
        # relative to max(|y|, 1), so the gate is against the truth, not the
        # recursion.
        h = 1e-3
        for steps in (5000, 8193):
            for memory in (127, 128, 129, 511, 512, 513, 1023, 1024, 1025, 2000):
                cfg = SimConfig(time_step=h, horizon=(steps - 1) * h, memory_length=memory)
                assert cfg.steps == steps
                assert_within_ten_times_recursion(REFERENCE_LOOPS[label], cfg)

    @pytest.mark.parametrize("memory, steps", [(None, 100), (5, 200)])
    @pytest.mark.parametrize("label", list(REFERENCE_LOOPS))
    def test_exact_recursion_against_fractions(self, label, memory, steps):
        # The truth of the accuracy gates, against the recursion run in
        # Fractions on the same float64 weights. At memory 5 the fractional
        # plant's loops grow by about 1.16 per sample, and a grid fixed by
        # the largest sample would leave the small early samples, and so
        # every later one, at float64 accuracy.
        tf = REFERENCE_LOOPS[label]
        cfg = SimConfig(time_step=1e-3, horizon=(steps - 1) * 1e-3, memory_length=memory)
        lag = cfg.memory
        den = [Fraction(w) for w in _combined_weights(tf.denominator.terms, 1e-3, lag + 1)]
        num = [Fraction(w) for w in _combined_weights(tf.numerator.terms, 1e-3, lag + 1)]
        forced = [sum(num[: j + 1]) for j in range(lag + 1)]
        exact = []
        for k in range(cfg.steps):
            kk = min(k, lag)
            history = sum(den[j] * exact[k - j] for j in range(1, kk + 1))
            exact.append((forced[kk] - history) / den[0])
        hi, lo = exact_step(tf, cfg)
        scale = max(map(abs, exact))
        error = max(
            abs(Fraction(h) + Fraction(l) - e) for h, l, e in zip(hi.tolist(), lo.tolist(), exact)
        )
        assert error <= Fraction(1, 10**20) * scale

    @pytest.mark.parametrize("label", list(REFERENCE_LOOPS))
    def test_series_inverse_of_leaf_weights(self, label):
        # D g = delta over the first LEAF terms, each row's products made
        # exact by two_product and summed exactly by math.fsum. The weights
        # reach 4e9 to 7e11, and the products cancel to 0 or 1.
        weights = _combined_weights(REFERENCE_LOOPS[label].denominator.terms, 1e-3, LEAF)
        inverse = _series_inverse(weights)
        error = []
        for k in range(LEAF):
            products, product_errors = two_product(weights[k::-1], inverse[: k + 1])
            error.append(
                math.fsum([*products.tolist(), *product_errors.tolist(), -float(k == 0)])
            )
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

    @pytest.mark.parametrize(
        "tf",
        [FIRST_ORDER, second_order(0.65, 2.2), REFERENCE_LOOPS["servo_plant/integer"]],
        ids=["first_order", "second_order", "servo_plant/integer"],
    )
    def test_integer_orders_need_only_their_order_of_memory(self, tf):
        # Past the highest integer order every weight is exactly 0, so the
        # full memory gives the samples of a memory of that order, bit for
        # bit, and stays on the full-memory recursion.
        top = int(max(e for _, e in tf.numerator.terms + tf.denominator.terms))
        cfg = SimConfig(time_step=1e-3, horizon=3.0)
        got = simulate_step(tf, cfg).samples
        short = simulate_step(tf, replace(cfg, memory_length=top)).samples
        assert got.tobytes() == short.tobytes()
        expected, _ = reference_step(tf, cfg)
        assert np.all(np.abs(got - expected) <= 1e-9 * np.maximum(np.abs(expected), 1.0))

    @pytest.mark.parametrize(
        "tf",
        [
            FractionalTransferFunction.from_terms(
                [(1.0, 0.0)], [(1.0, 2.0), (1.0, 0.5), (1.0, 0.0)]
            ),
            FractionalTransferFunction.from_terms(
                [(1.0, 0.0), (0.1, 0.5)], [(1.0, 1.0), (1.0, 0.0)]
            ),
        ],
        ids=["denominator", "numerator"],
    )
    def test_one_fractional_order_keeps_full_memory(self, tf):
        cfg = SimConfig(time_step=1e-3, horizon=3.0)
        got = simulate_step(tf, cfg).samples
        short = simulate_step(tf, replace(cfg, memory_length=4)).samples
        assert np.max(np.abs(got - short)) > 1e-6
        expected, _ = reference_step(tf, cfg)
        assert np.all(np.abs(got - expected) <= 1e-9 * np.maximum(np.abs(expected), 1.0))

    def test_weight_spectrum_transformed_once_per_width(self, monkeypatch):
        # At 50 s the history blocks are 512 to 32768 wide. A block's FFT
        # has fft_size / 2 samples; a weight spectrum covers the lags from
        # LEAF to 2 * width - 1, fft_size - LEAF of them.
        rfft = np.fft.rfft
        spectra = {}

        def counting_rfft(a, n):
            if len(a) > n // 2:
                spectra[n] = spectra.get(n, 0) + 1
            return rfft(a, n)

        monkeypatch.setattr(np.fft, "rfft", counting_rfft)
        tf = REFERENCE_LOOPS["fractional_plant/fractional"]
        simulate_step(tf, SimConfig(time_step=1e-3, horizon=50.0))
        assert spectra == {2 * width: 1 for width in (512, 1024, 2048, 4096, 8192, 16384, 32768)}

    @pytest.mark.parametrize(
        "tf",
        [*REFERENCE_LOOPS.values(), FIRST_ORDER, second_order(0.65, 2.2)],
        ids=[*REFERENCE_LOOPS, "first_order", "second_order"],
    )
    def test_peak_memory_at_full_memory(self, tf):
        # The FFT blocks' transients, and the weight spectra kept while their
        # width can recur, stay within a few arrays of n samples: at 50 s the
        # widest block is 32768 samples, an FFT of 65536 points. The integer
        # loops take the block scan, which holds a few arrays of n at once.
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

    def test_recursion_that_finishes_ends_the_run(self, monkeypatch):
        # The leaf that starts at sample 8576 reaches the overflow guard, so
        # the recursion takes the run from there, finds every sample finite
        # and ends it: all 8,701 samples come back, max |y| about 1.37e298.
        # The recursion at memory 3, the loop's order, diverges at 8723.
        starts = []
        recurse = simulate._recurse

        def counted(y, start, *args):
            recurse(y, start, *args)
            starts.append(start)

        monkeypatch.setattr(simulate, "_recurse", counted)
        tf = closed_loop(
            controller_tf(ControllerParams(-100.0, 1.0, 1.0, 1.0, 1.0)), benchmarks.servo_plant()
        )
        got = simulate_step(tf, SimConfig(time_step=1e-3, horizon=8.7)).samples
        assert starts == [8576]
        expected, bad = reference_step(tf, SimConfig(time_step=1e-3, horizon=8.7, memory_length=3))
        assert bad is None and len(got) == len(expected) == 8701
        peak = np.abs(expected).max()
        assert np.abs(got - expected).max() <= 1e-9 * peak


@pytest.mark.parametrize(
    "denominator", [[(1.0, 1.5), (1.0, 0.0)], [(1.0, 1.0), (1.0, 0.0)]],
    ids=["leaves", "block_scan"],
)
def test_subnormal_response_solved_without_recursion(denominator, monkeypatch):
    # At a gain of 1e-318 every sample is subnormal. The exact splits clamp
    # their quantum at the smallest subnormal: a quantum that underflows to
    # 0 divides by zero, an error under this suite's warning filter, and
    # sends the run to the per-sample recursion. Subnormals near 1e-318
    # resolve about 5 digits.
    def recurse(*args):
        raise AssertionError("the run fell back to the per-sample recursion")

    monkeypatch.setattr(simulate, "_recurse", recurse)
    cfg = SimConfig(time_step=1e-3, horizon=3.0)
    unit = simulate_step(FractionalTransferFunction.from_terms([(1.0, 0.0)], denominator), cfg)
    tiny = simulate_step(
        FractionalTransferFunction.from_terms([(1e-318, 0.0)], denominator), cfg
    ).samples
    assert np.abs(tiny / 1e-318 - unit.samples).max() <= 1e-2 * np.abs(unit.samples).max()


class TestBlockScan:
    """Runs whose memory is shorter than a leaf, solved by two block scans.

    Every loop of integer orders takes this path, and so does any loop with
    memory_length < LEAF, unless its tail map predicts, or the scan's
    correction shows, that it is too ill-conditioned for one refinement, or
    a sample of the scan comes near overflow, and the leaves solve the run.
    The gates at memory 1, 5 and 127 in TestLeafSolve reach it too.
    """

    @pytest.mark.parametrize(
        "tf",
        [FIRST_ORDER, second_order(0.65, 2.2), REFERENCE_LOOPS["servo_plant/integer"]],
        ids=["first_order", "second_order", "servo_plant/integer"],
    )
    def test_integer_loops_within_ten_times_recursion_at_50s(self, tf):
        # The weights past the highest order are exactly 0, so the recursion
        # at a memory of that order is the full-memory one, and 5e4 samples
        # of it run exactly in about a second.
        top = int(max(e for _, e in tf.numerator.terms + tf.denominator.terms))
        cfg = SimConfig(time_step=1e-3, horizon=50.0, memory_length=top)
        full = simulate_step(tf, replace(cfg, memory_length=None)).samples
        assert full.tobytes() == simulate_step(tf, cfg).samples.tobytes()
        assert_within_ten_times_recursion(tf, cfg)

    @pytest.mark.parametrize("order", [3, 4, 5])
    def test_ill_conditioned_scan_left_to_leaves(self, order):
        # (s + 1)^order at 1 ms: the last `order` samples of a leaf are so
        # nearly equal that the 128-step map between tails has entries of
        # 1.5e4 at order 3 and 1e6 at order 4, and after one refinement the
        # scan alone would be 2e4 (order 4) and 3e9 (order 5) times the
        # recursion's error. Its correction, above sqrt(eps) of the peak,
        # hands the run to the leaves.
        tf = FractionalTransferFunction.from_terms(
            [(1.0, 0.0)], [(float(math.comb(order, k)), float(k)) for k in range(order + 1)]
        )
        assert_within_ten_times_recursion(tf, SimConfig(time_step=1e-3, horizon=3.0))

    @pytest.mark.parametrize(
        "order, scanned", [(1, True), (2, True), (3, True), (4, False), (5, False)]
    )
    def test_scan_skipped_when_its_tail_map_predicts_failure(self, order, scanned, monkeypatch):
        # At 1 ms the tail map of (s + 1)^4 has a 1-norm of about 4e6, so
        # eps * norm^2 is 3e-3, above SCAN_LIMIT, and the run goes to the
        # leaves without paying for a scan whose correction would fail.
        # Orders up to 3 stay below it and are scanned.
        scans = []
        block_scan = simulate._block_scan
        monkeypatch.setattr(
            simulate, "_block_scan", lambda *args: scans.append(1) or block_scan(*args)
        )
        tf = FractionalTransferFunction.from_terms(
            [(1.0, 0.0)], [(float(math.comb(order, k)), float(k)) for k in range(order + 1)]
        )
        simulate_step(tf, SimConfig(time_step=1e-3, horizon=3.0))
        assert bool(scans) == scanned

    def test_growing_loop_solved_by_leaves(self, monkeypatch):
        # The servo with kp = -100 grows by about 2.5e4 per leaf, to 2e102
        # at 3 s. Its tail map's norm, 4e6, is that growth, so eps * norm^2
        # is 3e-3, above SCAN_LIMIT, and the run goes to the leaves without
        # a scan, although a scan would pass. The leaves solve it as
        # accurately.
        scans = []
        block_scan = simulate._block_scan
        monkeypatch.setattr(
            simulate, "_block_scan", lambda *args: scans.append(1) or block_scan(*args)
        )
        tf = closed_loop(
            controller_tf(ControllerParams(-100.0, 1.0, 1.0, 1.0, 1.0)), benchmarks.servo_plant()
        )
        cfg = SimConfig(time_step=1e-3, horizon=3.0)
        samples = simulate_step(tf, cfg).samples
        assert not scans
        assert np.abs(samples).max() > 1e100
        expected, bad = reference_step(tf, cfg)
        assert bad is None
        assert np.all(np.abs(samples - expected) <= 1e-9 * np.maximum(np.abs(expected), 1.0))

    def test_skipped_scans_would_fail(self, monkeypatch):
        # Stable loops of integer orders 1-5 with real negative roots from
        # 0.1 to 30. The norm test skips 30 of the 60, every one of order 4
        # or 5, and each of those, forced through the scan, must fail its
        # correction check. At 1 ms the scans that pass predict at most
        # 1.4e-11 here, and the skipped ones at least 6.4 times SCAN_LIMIT.
        results = []
        scan_solve = simulate._scan_solve
        monkeypatch.setattr(
            simulate,
            "_scan_solve",
            lambda *args: results.append(scan_solve(*args)) or results[-1],
        )
        scans = []
        block_scan = simulate._block_scan
        monkeypatch.setattr(
            simulate, "_block_scan", lambda *args: scans.append(1) or block_scan(*args)
        )
        limit = simulate.SCAN_LIMIT
        rng = np.random.default_rng(26)
        cfg = SimConfig(time_step=1e-3, horizon=3.0)
        skipped = 0
        for _ in range(60):
            roots = 10 ** rng.uniform(-1, math.log10(30), rng.integers(1, 6))
            coefficients = np.poly(-roots)[::-1]
            tf = FractionalTransferFunction.from_terms(
                [(float(coefficients[0]), 0.0)],
                [(float(c), float(k)) for k, c in enumerate(coefficients)],
            )
            scans.clear()
            simulate_step(tf, cfg)
            if scans:
                continue
            skipped += 1
            monkeypatch.setattr(simulate, "SCAN_LIMIT", math.inf)
            results.clear()
            simulate_step(tf, cfg)
            monkeypatch.setattr(simulate, "SCAN_LIMIT", limit)
            assert scans and len(results) == 1 and results[0] is None, roots
        assert skipped == 30

    def test_divergence_index_matches_recursion(self, monkeypatch):
        # Negative gains: integer PIDs on the servo, whose recursion is
        # compared at a memory of the loop's order, 3, where it sums the
        # same three products in the same order as simulate_step's; and the
        # fractional reference controllers at memory 5 and 100, where every
        # loop grows. A scan that reaches the overflow guard, or yields a
        # non-finite sample, gives the run to the leaves, whose first bad
        # leaf goes to the recursion. The last two loops, the first with a
        # positive kp, pass the tail-map test and overflow in the scan itself.
        results = []
        scan_solve = simulate._scan_solve
        monkeypatch.setattr(
            simulate,
            "_scan_solve",
            lambda *args: results.append(scan_solve(*args)) or results[-1],
        )
        rng = np.random.default_rng(16)
        cases = [
            (
                closed_loop(
                    controller_tf(
                        ControllerParams(
                            -(10 ** rng.uniform(2, 7)), rng.uniform(1, 500), rng.uniform(1, 500),
                            1.0, 1.0,
                        )
                    ),
                    benchmarks.servo_plant(),
                ),
                SimConfig(time_step=1e-3, horizon=3.0, memory_length=3),
            )
            for _ in range(20)
        ]
        for label in ("fractional_plant/fractional", "servo_plant/fractional"):
            make_plant, params = REFERENCE_CONTROLLERS[label]
            for kp in (-1.0, -1e2, -1e4, -1e6):
                tf = closed_loop(controller_tf(replace(params, kp=kp)), make_plant())
                for memory in (5, 100):
                    cases.append((tf, SimConfig(time_step=1e-3, horizon=10.0, memory_length=memory)))
        for params, memory, horizon in (
            (
                ControllerParams(
                    692.1142839496924, 287.0297761580692, 92.08399919699063,
                    1.174793779195437, 1.8447367917619013,
                ),
                10,
                20.0,
            ),
            (
                ControllerParams(
                    -508.70627994822223, 415.7086638978797, 399.45903207001106,
                    0.345867097878402, 1.871543458605083,
                ),
                3,
                10.0,
            ),
        ):
            tf = closed_loop(controller_tf(params), benchmarks.fractional_plant())
            cases.append((tf, SimConfig(time_step=1e-3, horizon=horizon, memory_length=memory)))
        bad_indices = []
        for tf, cfg in cases:
            results.clear()
            got, bad = simulate_or_partial(tf, cfg)
            expected, expected_bad = reference_step(tf, cfg)
            assert bad == expected_bad, cfg
            assert len(got) == len(expected)
            if bad is not None:
                bad_indices.append(bad)
                assert results == [None], cfg
                assert np.all(
                    np.abs(got - expected) <= 1e-8 * np.maximum(np.abs(expected), 1.0)
                ), cfg
        assert len(bad_indices) == 15
        assert bad_indices[-2:] == [16827, 8606]

    @pytest.mark.parametrize("memory", [1, 5, LEAF - 1])
    @pytest.mark.parametrize("label", [*REFERENCE_LOOPS, "alternating"])
    def test_band_residual_is_exact_across_leaf_boundaries(self, label, memory):
        # As test_split_residual_is_exact, over three leaves of one run whose
        # peaks differ by up to 1e6, so that the first rows of a leaf read
        # samples of the leaf before, which has another quantum.
        # conv(weights_hi, y_hi) must be exact in any summation order; the
        # residual may be off by a few ulps of itself plus the rounding of
        # the (memory + 2)-term sums of the low parts.
        rng = np.random.default_rng(16)
        if label == "alternating":
            weights = (-1.0) ** np.arange(memory + 1) * (1 - rng.random(memory + 1) / 64) * 2.0**36
        else:
            weights = _combined_weights(
                REFERENCE_LOOPS[label].denominator.terms, 1e-3, memory + 1
            )
        weights_hi = _split(weights, np.abs(weights).max())
        weights_lo = weights - weights_hi
        exact_weights = [Fraction(w) for w in weights]
        # Up by 1e6, then down by 1e3: a leaf's last samples are read on
        # a larger quantum, then on a smaller one.
        scales = np.array([[1e-3], [1e3], [1.0]])
        signs = (-1.0) ** np.arange(3 * LEAF).reshape(3, LEAF)
        for leaves in (
            rng.standard_normal((3, LEAF)) * scales,
            signs * (1 - rng.random((3, LEAF)) / 64) * scales,
        ):
            y = leaves.reshape(-1)
            y_hi = _split_leaves(leaves, memory).reshape(-1)
            exact = np.convolve(weights_hi, y_hi)[: len(y)]
            rows = [
                math.fsum(weights_hi[m] * y_hi[i - m] for m in range(min(i, memory) + 1))
                for i in range(len(y))
            ]
            assert np.array_equal(exact, rows)
            rhs = np.convolve(weights, y)[: len(y)]
            got = _band_residual(rhs, leaves, weights_hi, weights_lo)
            exact_y = [Fraction(value) for value in y]
            truth = [
                Fraction(rhs[i])
                - sum(exact_weights[m] * exact_y[i - m] for m in range(min(i, memory) + 1))
                for i in range(len(y))
            ]
            error = np.array([float(Fraction(g) - t) for g, t in zip(got, truth)])
            low = np.convolve(np.abs(weights_lo), np.abs(y))[: len(y)]
            low += np.convolve(np.abs(weights_hi), np.abs(y - y_hi))[: len(y)]
            eps = np.finfo(float).eps
            bound = 2 * eps * (np.abs(np.array(truth, dtype=float)) + (memory + 3) * low)
            assert np.all(np.abs(error) <= bound), np.max(np.abs(error) / bound)
