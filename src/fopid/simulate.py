"""Time-domain unit-step simulation via Grunwald-Letnikov discretization.

A transfer function N(s)/D(s) built from fractional powers of s maps to the
fractional differential equation

    sum_i a_i D^{alpha_i} y(t) = sum_j b_j D^{beta_j} r(t)

with zero initial conditions. Each derivative is approximated by the
fixed-step Grunwald-Letnikov sum

    D^alpha x(t_k) ~= h^-alpha * sum_{m=0}^{min(k, L)} w_m^{(alpha)} x_{k-m}

whose weights follow the binomial recurrence w_0 = 1,
w_m = w_{m-1} * (1 - (1 + alpha)/m). Isolating the m = 0 term of the output
side yields an explicit update for y_k. L is the short-memory truncation
depth; by default the full history is kept.

The step input is sampled with zero pre-history (r_k = 1 for k >= 0), so
numerator derivative orders produce a known impulsive transient in the first
few samples rather than being smoothed away.

The samples are solved in leaves of LEAF consecutive steps rather than one
at a time, with the history split as in Hairer, Lubich and Schlichte, "Fast
numerical solution of nonlinear Volterra convolution equations" (SIAM J.
Sci. Stat. Comput., 1985). Each output's history, the weighted sum of the
samples before its leaf, builds up in a ``history`` array:

1. After leaf number c (1-based) ends at sample e, its last
   B = LEAF * (c & -c) samples add their history to the next B outputs,
   both sides clipped to the memory window. These blocks tile every pair of
   samples in different leaves exactly once, and each output receives its
   blocks oldest first.
2. A block narrower than FFT_MIN is one ``np.correlate`` against the
   reversed denominator weights, each dot oldest sample first, with zeros
   past the memory window. A wider block is summed by ``rfft``/``irfft``
   over the lags from LEAF on, and its corner, the lags below LEAF, is
   summed directly afterwards. The weights are of order h^-alpha, about
   1e11 at the short lags, and cancel to outputs of order 1; an FFT's
   rounding scales with its largest weight, so with the short lags inside
   it the fractional reference loop moves about 1e-6, against 4e-9 without.
3. The leaf's lower-triangular Toeplitz system D y = rhs, with the leaf's
   history subtracted, is solved as y = G rhs, a matrix-vector product with
   the Toeplitz matrix G of the series inverse of the first LEAF weights.
   The inverse is computed once per simulation by forward substitution in
   float64, which is backward stable (Higham, "Accuracy and Stability of
   Numerical Algorithms", ch. 8).
4. One refinement step, y += G (rhs - D y), follows. The residual cancels
   to far below the products D y, so it is formed without rounding them,
   by the error-free splitting of Ozaki, Ogita, Oishi and Rump, "Error-free
   transformations of matrix multiplication by using fast routines of
   matrix multiplication and its applications" (Numer. Algorithms, 2012).
   D = D_hi + D_lo, where D_hi rounds each weight to a multiple of
   2^(e - SPLIT_BITS) with 2^e > max |weight|, and y_hi rounds y the same
   way. Each product in D_hi y_hi is then an integer times the product q of
   the two quanta, at most 2^(2 * SPLIT_BITS) = 2^44 of it, and a sum of LEAF
   of them stays at most 2^51 q, so D_hi y_hi is exact in any summation order
   that BLAS picks. Only rest = D_lo y + D_hi (y - y_hi), about 2^-22 of the
   products, is rounded, and rhs - D_hi y_hi - rest gives the residual.

The FFT blocks cost about steps x log(memory)^2, where the per-sample
recursion cost steps x memory. Measured against the same recursion in
80-bit extended precision on the same float64 weights, the result is as
accurate as the per-sample recursion in float64: over 78 bundled, tuned
and random closed loops at full memory, at most 2.13 times its error and
0.26 times in the median at 3 s, and at most 1.04 times at 10 s. The 3 s
maximum is a loop that amplifies every sample's rounding alike, where an
exactly rounded residual gives 2.61.

A leaf that is non-finite, or whose max |y| reaches
DBL_MAX / (2 * (sum |den weights| + max |forced side|)), is solved again with
the per-sample recursion, and so is every later leaf. Below that size no
partial sum of the recursion can overflow, so a divergence is reported at
the recursion's own first non-finite sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .plant import FractionalTransferFunction

# Samples per leaf of the step solve (module docstring).
LEAF = 128
# History blocks this wide or wider are summed by FFT, narrower ones directly.
FFT_MIN = 512
# Weight spectra of FFTs up to this size are kept for the rest of the run.
# Larger ones are recomputed: a block of width B recurs only every 2B
# samples, and keeping them all would hold about 2.6 more arrays of n samples.
SPECTRUM_CACHE_SIZE = 4096
MAX_STEPS = 10_000_000
# Cap on steps x memory, kept from when the history sum took that many
# multiply-adds. With the FFT blocks a run costs about 0.7 us per sample plus
# FFTs growing as steps x log(memory)^2: on a loaded 2-core VM with one BLAS
# thread, 1e5 samples at full memory took 0.11-0.12 s and 1e6 samples with
# 1e4 of memory 0.67-0.80 s, both at the cap, and 5e4 samples with 2e3 of
# memory 0.033-0.042 s. The largest bundled or benchmarked run, 5e4 samples
# at full memory, is 2.5e9.
MAX_STEP_MEMORY_PRODUCT = 10**10
# Bits kept by the high part of each exact split (module docstring, step 4).
SPLIT_BITS = 22
# TOEPLITZ_INDEX[i, j] is i - j on and below the diagonal and -1 above it,
# which picks the zero that _toeplitz appends to the first column.
TOEPLITZ_INDEX = np.maximum(np.subtract.outer(np.arange(LEAF), np.arange(LEAF)), -1)


@dataclass(frozen=True)
class SimConfig:
    """Step size, duration, and memory depth of one simulation."""

    time_step: float = 1e-3
    horizon: float = 10.0
    memory_length: int | None = None  # None keeps the full history

    def __post_init__(self) -> None:
        if not self.time_step > 0:
            raise ValueError("time_step must be positive")
        if not self.horizon >= self.time_step:
            raise ValueError("horizon must cover at least one step")
        if self.horizon / self.time_step > MAX_STEPS:
            raise ValueError(f"horizon/time_step exceeds {MAX_STEPS}")
        if self.memory_length is not None:
            if not isinstance(self.memory_length, int) or self.memory_length < 1:
                raise ValueError("memory_length must be a positive integer or None")
        if self.steps * self.memory > MAX_STEP_MEMORY_PRODUCT:
            raise ValueError(
                f"steps x memory = {self.steps} x {self.memory} exceeds "
                f"{MAX_STEP_MEMORY_PRODUCT:.0e}; shorten the history with "
                "memory_length, or the horizon"
            )

    @property
    def steps(self) -> int:
        """Number of samples including t = 0."""
        return int(round(self.horizon / self.time_step)) + 1

    @property
    def memory(self) -> int:
        """Maximum history lag actually used."""
        full = self.steps - 1
        if self.memory_length is None:
            return full
        return min(self.memory_length, full)


@dataclass(frozen=True)
class StepResponse:
    """Uniformly sampled output of a unit-step simulation."""

    time_step: float
    samples: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.samples)) * self.time_step


class SimulationDiverged(RuntimeError):
    """The recursion produced a non-finite sample.

    Carries the index of the first bad sample and the finite prefix of the
    response, which is a legal (divergent) output for reporting layers.
    """

    def __init__(self, first_bad_index: int, partial: StepResponse):
        super().__init__(
            f"simulation diverged at sample {first_bad_index} "
            f"(t = {first_bad_index * partial.time_step:.6g} s)"
        )
        self.first_bad_index = first_bad_index
        self.partial = partial


def gl_weights(alpha: float, count: int) -> np.ndarray:
    """First ``count`` Grunwald-Letnikov weights w_0..w_{count-1} for order alpha."""
    if count < 1:
        raise ValueError("count must be >= 1")
    m = np.arange(1, count, dtype=float)
    return np.concatenate(([1.0], np.cumprod(1.0 - (1.0 + alpha) / m)))


def _combined_weights(
    terms: tuple[tuple[float, float], ...], h: float, count: int
) -> np.ndarray:
    """Sum of c * h^-e * w^(e) over all polynomial terms.

    Raises:
        ValueError: if a weight overflows; the message names time_step.
    """
    total = np.zeros(count)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for coefficient, exponent in terms:
                total += coefficient * h**-exponent * gl_weights(exponent, count)
        if np.isfinite(total).all():
            return total
    except OverflowError:  # from h**-exponent
        pass
    raise ValueError(
        f"the weights c * h^-e overflow at time_step {h!r}: the step is too small "
        "or a coefficient too large"
    )


def _series_inverse(weights: np.ndarray) -> np.ndarray:
    """First len(weights) coefficients of 1 / sum_j weights[j] z^j, by forward substitution."""
    inverse = np.empty(len(weights))
    inverse[0] = 1 / weights[0]
    for k in range(1, len(weights)):
        inverse[k] = -np.dot(weights[k:0:-1], inverse[:k]) * inverse[0]
    return inverse


def _toeplitz(column: np.ndarray) -> np.ndarray:
    """The LEAF x LEAF lower-triangular Toeplitz matrix with first column ``column``."""
    return np.append(column, 0.0)[TOEPLITZ_INDEX]


def _split(values: np.ndarray, peak: float) -> np.ndarray:
    """values rounded to multiples of q = 2^(e - SPLIT_BITS), where 2^e > peak >= max |values|.

    Each entry is an integer of magnitude at most 2^SPLIT_BITS times q, and
    values minus the result is exact in float64.
    """
    quantum = math.ldexp(1.0, math.frexp(peak)[1] - SPLIT_BITS)
    return np.rint(values / quantum) * quantum


def _leaf_residual(
    rhs: np.ndarray, leaf: np.ndarray, peak: float, den_hi: np.ndarray, den_lo: np.ndarray
) -> np.ndarray:
    """rhs - (den_hi + den_lo) @ leaf, with den_hi @ _split(leaf, peak) formed exactly.

    Only the sums of the low parts, about 2^-SPLIT_BITS of the products, are
    rounded (module docstring, step 4).
    """
    leaf_hi = _split(leaf, peak)
    exact = den_hi @ leaf_hi
    rest = den_lo @ leaf + den_hi @ (leaf - leaf_hi)
    return (rhs - exact) - rest


def simulate_step(tf: FractionalTransferFunction, cfg: SimConfig) -> StepResponse:
    """Unit-step response of a fractional transfer function from rest.

    Raises:
        ValueError: if the output isolation coefficient sum_i a_i h^-alpha_i
            is zero (the update cannot be solved for y_k), or if the weights
            overflow at this time_step.
        SimulationDiverged: on the first non-finite sample; the exception
            carries the finite prefix.
    """
    h = cfg.time_step
    n = cfg.steps
    lag = cfg.memory
    # den_rev[end - j] = den_weights[j]. The leading zeros give no weight to
    # lags past the memory window: a direct block reaches at most
    # min(lag, FFT_MIN) past it, and a leaf needs LEAF weights.
    den_rev = np.zeros(max(LEAF, min(lag, FFT_MIN)) + lag + 1)
    end = len(den_rev) - 1
    den_weights = den_rev[::-1]
    den_weights[: lag + 1] = _combined_weights(tf.denominator.terms, h, lag + 1)
    if den_weights[0] == 0.0:
        raise ValueError("isolation coefficient sum(a_i * h^-alpha_i) is zero")
    # Unit step input: the forced side at step k is the prefix sum of the
    # input weights, saturating once the memory window is full.
    forced = np.cumsum(_combined_weights(tf.numerator.terms, h, lag + 1))
    # The lags below LEAF alone, for the corner of an FFT block.
    near_rev = np.concatenate((np.zeros(LEAF), den_rev[end + 1 - LEAF :]))
    y = np.zeros(n)
    history = np.zeros(n)
    spectra = {}
    # An overflow shows up as a non-finite sample, which is reported below.
    with np.errstate(over="ignore", invalid="ignore"):
        # Below this size no partial sum of the recursion can overflow, so a
        # leaf that reaches it is handed to the recursion, which finds the
        # first bad sample.
        limit = np.finfo(float).max / (2 * (np.abs(den_weights).sum() + np.abs(forced).max()))
        leaf_weights = den_weights[:LEAF]
        inverse = _toeplitz(_series_inverse(leaf_weights))
        weights_hi = _split(leaf_weights, np.abs(leaf_weights).max())
        den_hi, den_lo = _toeplitz(weights_hi), _toeplitz(leaf_weights - weights_hi)
        for start in range(0, n, LEAF):
            stop = min(start + LEAF, n)
            size = stop - start
            # The forced side stays at forced[lag] once the memory window is full.
            if stop <= lag + 1:
                rhs = forced[start:stop] - history[start:stop]
            elif start >= lag:
                rhs = forced[lag] - history[start:stop]
            else:
                saturated = np.full(stop - lag - 1, forced[lag])
                rhs = np.concatenate((forced[start:], saturated)) - history[start:stop]
            g = inverse[:size, :size]
            leaf = g @ rhs
            peak = np.abs(leaf).max()
            if peak < limit:
                # One refinement step. A non-finite leaf, or one past the
                # limit, skips it and goes to the recursion below.
                leaf += g @ _leaf_residual(
                    rhs, leaf, peak, den_hi[:size, :size], den_lo[:size, :size]
                )
                peak = np.abs(leaf).max()
            if not peak < limit:
                _recurse(y, start, den_rev, forced, lag, h)
                break
            y[start:stop] = leaf
            if stop == n:
                break
            # Leaf number c has ended: its last `width` samples add their
            # history to the next `width` outputs.
            c = stop // LEAF
            width = min(LEAF * (c & -c), lag)
            first = stop - width
            last = min(stop + width, n)
            if width < FFT_MIN:
                # Output stop + t gets the dot of y[first:stop], oldest
                # sample first, with den_weights[stop + t - first] down to
                # den_weights[t + 1].
                window = den_rev[end + 1 - last + first : end]
                history[stop:last] += np.correlate(window, y[first:stop], "valid")[::-1]
                continue
            fft_size = 1 << (2 * width - 1).bit_length()
            spectrum = spectra.get(width)
            if spectrum is None:
                # Lags LEAF up to 2 * width - 1, shifted down by LEAF.
                spectrum = np.fft.rfft(den_weights[LEAF : 2 * width], fft_size)
                if fft_size <= SPECTRUM_CACHE_SIZE:
                    spectra[width] = spectrum
            # Output stop + t is entry width - LEAF + t of the cyclic
            # convolution; at fft_size >= 2 * width no entry read wraps round.
            far = np.fft.rfft(y[first:stop], fft_size)
            far *= spectrum
            del spectrum
            far = np.fft.irfft(far, fft_size)
            history[stop:last] += far[width - LEAF : width - LEAF + last - stop]
            del far
            # The corner, lags 1 to LEAF - 1, goes last, summed directly.
            corner = min(stop + LEAF, last)
            window = near_rev[LEAF - corner + stop : 2 * LEAF - 1]
            history[stop:corner] += np.correlate(window, y[stop - LEAF : stop], "valid")[::-1]
    return StepResponse(time_step=h, samples=y)


def _recurse(
    y: np.ndarray, start: int, den_rev: np.ndarray, forced: np.ndarray, lag: int, h: float
) -> None:
    """Fill y[start:] one sample at a time, raising on the first non-finite one."""
    end = len(den_rev) - 1
    w0 = den_rev[end]
    for k in range(start, len(y)):
        kk = min(k, lag)
        history = np.dot(den_rev[end - kk : end], y[k - kk : k]) if kk else 0.0
        value = (forced[kk] - history) / w0
        if not math.isfinite(value):
            raise SimulationDiverged(k, StepResponse(time_step=h, samples=y[:k].copy()))
        y[k] = value
