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

For an integer order e >= 0 the weights are w_m = (-1)^m C(e, m), and the
recurrence makes them exactly 0 from m = e + 1 on. A loop whose orders are
all integers therefore runs with L = max(1, highest order) when that is
shorter than its memory: the recursion is the same in exact arithmetic,
and only the rounding of the summed zeros is gone.

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
   A width's weight spectrum is transformed once and kept while
   stop + 2 * width < n. A block of width B recurs 2B samples later, or
   sooner when B is clipped to the memory window, so only a clipped width
   can be transformed again, once, near the end of the run.
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
5. A run whose memory is shorter than a leaf, which includes every loop of
   integer orders, skips steps 1-4 and the ``history`` array. A leaf then
   depends on the one before only through that leaf's last lag samples
   s_{j-1}, a block linear recurrence (Kogge and Stone, "A parallel
   algorithm for the efficient solution of a general class of recurrence
   equations", IEEE Trans. Comput., 1973): y_j = G f_j - P s_{j-1}, where
   P = G H and H maps s_{j-1} to the history of the leaf's first lag rows.
   The forced side f_j is the same for every leaf after the first, so all
   the G f_j take two matrix-vector products. The tails
   s_j = (G f_j)_tail - P_tail s_{j-1} are carried leaf to leaf in lag x lag
   steps, and then every head takes its P s_{j-1} in one matrix product.
   Step 4's refinement follows once for the whole run: the residual
   f - D y, with D the banded Toeplitz matrix of the lag + 1 weights, is
   formed by np.convolve and the same split, and the same scan solves for
   the correction. A row reads only its own leaf and the last lag samples
   of the one before, so each leaf's y_hi uses the quantum of the larger
   peak of the two, and its last lag samples the larger quantum of the two
   leaves that read them. Every sample a row reads is then a multiple of
   its leaf's quantum and below 2^23 of it, and its sum of at most LEAF
   products stays below 2^52 of their unit: exact, also across a leaf
   boundary. The refinement leaves about the square of the first pass's
   relative error, which the correction measures. When the correction
   exceeds sqrt(eps) of the peak, as for (s + 1)^4 at 1 ms, whose 128-step
   map between tails has entries of 1e6, the run is solved by steps 1-4
   instead. A run whose tail map P_tail predicts that skips the scan: the
   first pass errs by about eps ||P_tail||_1 of the samples per leaf, so
   the correction is about eps ||P_tail||_1^2 of the peak, and a run goes
   straight to steps 1-4 when that exceeds SCAN_LIMIT. Over 890 random
   stable short-lag runs at 1 to 10 ms the largest prediction of a scan
   that passed was 1.1e-5, and SCAN_LIMIT = 1e-4 sends 282 of the 419 that
   failed, and no other, straight to steps 1-4. Runs of three leaves pass
   with more: at 10 ms for 3 s, 9 of the 2,150 stable integer loops whose
   scans passed predicted 1.2e-4 to 4.1e-4 and are sent too. A loop whose
   samples grow has a large tail map whether its scan passes or not: over
   544 such runs, 20 of the 264 that passed predicted 2.5e-4 to 1.7e136
   and are sent too, with 113 of the 280 that failed. Steps 1-4 solve them
   as accurately, only more slowly. They also solve a run whose scan, in
   either pass, yields a sample that is non-finite or reaches the overflow
   guard below.

The FFT blocks cost about steps x log(memory)^2, where the per-sample
recursion cost steps x memory. Measured against the same recursion on the
same float64 weights with double-double samples and exact history dots,
the result is as accurate as the per-sample recursion in float64: over 78
bundled, tuned and random closed loops at full memory, at most 2.13 times
its error and 0.24 times in the median at 3 s, and at most 1.04 times at
10 s. The 3 s
maximum is a loop that amplifies every sample's rounding alike, where an
exactly rounded residual gives 2.61. On the block scan of step 5, the
servo's integer loop and first- and second-order loops are at most 0.041
times its error at 3 to 50 s, and the reference loops at memory 5, whose
recursion grows by about 1.16 per sample, at most 6.5 times.

A leaf of steps 1-4 that is non-finite, or whose max |y| reaches
DBL_MAX / (2 * (sum |den weights| + max |forced side|)), is solved again with
the per-sample recursion, and so is every later leaf. A block scan of step 5
whose samples reach that size leaves the run to steps 1-4, which hand its
first such leaf to the recursion. Below that size no partial sum of the
recursion can overflow, so a divergence is reported at the recursion's own
first non-finite sample.
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
MAX_STEPS = 10_000_000
# Cap on steps x memory, kept from when the history sum took that many
# multiply-adds. simulate_step checks it against the memory a run uses, so a
# loop of integer orders, which runs with a memory of its highest order, is
# never refused by it. With the FFT blocks a
# run costs about 0.7 us per sample plus FFTs growing as
# steps x log(memory)^2: on a loaded 2-core VM with one BLAS thread, the
# fractional reference loop took 0.081-0.10 s for 1e5 samples at full
# memory and 0.61-0.63 s for 1e6 samples with 1e4 of memory, both at the
# cap, and 0.023-0.031 s for 5e4 samples with 2e3 of memory. The integer
# servo loop, solved by the block scan, took 0.0076-0.0083 s, 0.097-0.11 s
# and 0.0043-0.0055 s, against 0.036-0.043 s, 0.38-0.39 s and
# 0.019-0.021 s leaf by leaf. The largest bundled or benchmarked run, 5e4
# samples at full memory, is 2.5e9.
MAX_STEP_MEMORY_PRODUCT = 10**10
# Bits kept by the high part of each exact split (module docstring, step 4).
SPLIT_BITS = 22
# The smallest subnormal, 2^-1074, the finest quantum a split can use.
MIN_QUANTUM = math.ldexp(1.0, -1074)
# The block scan is skipped when its predicted correction,
# eps * ||P_tail||_1^2, exceeds this (module docstring, step 5).
SCAN_LIMIT = 1e-4
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
            memory = self.memory_length
            if isinstance(memory, bool) or not isinstance(memory, int) or memory < 1:
                raise ValueError("memory_length must be a positive integer or None")

    @property
    def steps(self) -> int:
        """Number of samples including t = 0."""
        return int(round(self.horizon / self.time_step)) + 1

    @property
    def memory(self) -> int:
        """Maximum history lag; simulate_step stops at the highest order if all are integers."""
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
    """First ``count`` Grunwald-Letnikov weights w_0..w_{count-1} for order alpha.

    For an integer alpha >= 0 the factor 1 - (1 + alpha)/m is exactly 0 at
    m = alpha + 1, so only the first alpha + 2 weights are computed and the
    rest are zero.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    support = count
    if alpha >= 0 and float(alpha).is_integer():
        support = min(count, int(alpha) + 2)
    # weights[m] = m, turned in place into the factors and their product.
    weights = np.arange(count, dtype=float)
    factors = weights[1:support]
    np.divide(1.0 + alpha, factors, out=factors)
    np.subtract(1.0, factors, out=factors)
    weights[0] = 1.0
    head = weights[:support]
    np.cumprod(head, out=head)
    weights[support:] = 0.0
    return weights


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
                weights = gl_weights(exponent, count)
                weights *= coefficient * h**-exponent
                total += weights
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
    values minus the result is exact in float64. q is at least
    MIN_QUANTUM, so a subnormal peak is split with the few bits that
    subnormals have.
    """
    quantum = max(math.ldexp(1.0, math.frexp(peak)[1] - SPLIT_BITS), MIN_QUANTUM)
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


def _split_leaves(leaves: np.ndarray, lag: int) -> np.ndarray:
    """Each row of ``leaves`` rounded as _split rounds it, on a quantum of its own.

    The first rows of a leaf also read the last lag samples of the leaf
    before, so a leaf's quantum covers the peak of both, and those lag
    samples take the larger quantum of the two leaves that read them. Every
    quantum is a power of two, so each sample a row reads is a multiple of
    its leaf's quantum, and below 2^(SPLIT_BITS + 1) of it.
    """
    peaks = np.abs(leaves).max(axis=1)
    peaks[1:] = np.maximum(peaks[1:], peaks[:-1])
    quanta = np.maximum(np.ldexp(1.0, np.frexp(peaks)[1] - SPLIT_BITS), MIN_QUANTUM)[:, None]
    split = leaves / quanta
    np.rint(split, out=split)
    split *= quanta
    tail_quanta = np.maximum(quanta[:-1], quanta[1:])
    split[:-1, LEAF - lag :] = np.rint(leaves[:-1, LEAF - lag :] / tail_quanta) * tail_quanta
    return split


def _band_residual(
    rhs: np.ndarray, leaves: np.ndarray, weights_hi: np.ndarray, weights_lo: np.ndarray
) -> np.ndarray:
    """rhs - conv(weights_hi + weights_lo, y)[:len(y)] for the samples y of ``leaves``.

    The banded form of _leaf_residual over a whole run, with y_hi from
    _split_leaves: each output sums at most LEAF products below 2^45 times
    one unit, its leaf's quantum times the weights', also across a leaf
    boundary, so conv(weights_hi, y_hi) is exact and only the low parts
    are rounded.
    """
    size = len(rhs)
    y = leaves.reshape(-1)
    y_hi = _split_leaves(leaves, len(weights_hi) - 1).reshape(-1)
    residual = np.convolve(weights_hi, y_hi)[:size]
    np.subtract(rhs, residual, out=residual)
    # y - y_hi is exact; it takes y_hi's place.
    low = np.subtract(y, y_hi, out=y_hi)
    del y_hi
    rest = np.convolve(weights_hi, low)[:size]
    del low
    rest += np.convolve(weights_lo, y)[:size]
    residual -= rest
    return residual


def _block_scan(leaves: np.ndarray, coupling: np.ndarray) -> None:
    """Turn each row of ``leaves`` from G f_j into y_j = G f_j - coupling @ s_{j-1}, in place.

    s_j is the last lag samples of y_j and s_{-1} = 0. The tails are carried
    leaf to leaf, then every head takes its history in one product.
    """
    lag = coupling.shape[1]
    tails = leaves[:, LEAF - lag :]
    step = coupling[LEAF - lag :].T
    previous = tails[0]
    for tail in tails[1:]:
        tail -= previous @ step
        previous = tail
    leaves[1:, : LEAF - lag] -= tails[:-1] @ coupling[: LEAF - lag].T


def _scan_solve(
    n: int,
    den_rev: np.ndarray,
    forced: np.ndarray,
    lag: int,
    limit: float,
    inverse: np.ndarray,
    weights_hi: np.ndarray,
) -> np.ndarray | None:
    """The n samples of a run with lag < LEAF, by two block scans (module docstring, step 5).

    Returns None when the scan is too ill-conditioned for one refinement,
    before it runs when the tail map predicts that, and when a sample of
    either pass is non-finite or reaches limit.
    """
    den_weights = den_rev[::-1]
    # Row r < lag of a leaf takes den_weights[lag + r - t] times sample t of
    # the previous leaf's last lag samples; the weights past lag are zero.
    lags = lag + np.subtract.outer(np.arange(lag), np.arange(lag))
    coupling = inverse[:, :lag] @ den_weights[lags]
    norm = np.abs(coupling[LEAF - lag :]).sum(axis=0).max()
    eps = np.finfo(float).eps
    # norm is a numpy scalar, so a square that overflows is inf under
    # simulate_step's errstate, where a Python float would raise.
    if eps * norm**2 > SCAN_LIMIT:
        return None
    leaves = np.empty((len(forced) // LEAF, LEAF))
    flat = leaves.reshape(-1)
    # The forced side saturates at sample lag, inside the first leaf.
    leaves[:] = inverse @ np.full(LEAF, forced[lag])
    leaves[0] = inverse @ forced[:LEAF]
    _block_scan(leaves, coupling)
    flat[n:] = 0.0
    if not np.abs(leaves).max() < limit:
        return None
    band_hi = weights_hi[: lag + 1]
    residual = _band_residual(forced, leaves, band_hi, den_weights[: lag + 1] - band_hi)
    correction = residual.reshape(leaves.shape) @ inverse.T
    del residual
    _block_scan(correction, coupling)
    correction.reshape(-1)[n:] = 0.0
    leaves += correction
    peak = np.abs(leaves).max()
    # One refinement leaves about the square of the correction's share of
    # the peak (module docstring, step 5).
    if not (np.abs(correction).max() <= math.sqrt(eps) * peak and peak < limit):
        return None
    return flat[:n]


def simulate_step(tf: FractionalTransferFunction, cfg: SimConfig) -> StepResponse:
    """Unit-step response of a fractional transfer function from rest.

    Raises:
        ValueError: if steps x memory exceeds MAX_STEP_MEMORY_PRODUCT, with
            the memory this run uses; if the output isolation coefficient
            sum_i a_i h^-alpha_i is zero (the update cannot be solved for
            y_k); or if the weights overflow at this time_step.
        SimulationDiverged: on the first non-finite sample; the exception
            carries the finite prefix.
    """
    h = cfg.time_step
    n = cfg.steps
    lag = cfg.memory
    orders = [exponent for _, exponent in tf.numerator.terms + tf.denominator.terms]
    if all(order.is_integer() for order in orders):
        # Every weight past the highest order is exactly 0, so a longer
        # memory would only sum zeros.
        lag = min(lag, max(1, int(max(orders))))
    if n * lag > MAX_STEP_MEMORY_PRODUCT:
        raise ValueError(
            f"steps x memory = {n} x {lag} exceeds {MAX_STEP_MEMORY_PRODUCT:.0e}; "
            "shorten the history with memory_length, or the horizon"
        )
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
    # input weights, saturating once the memory window is full. It spans
    # whole leaves.
    forced = np.empty(-(-n // LEAF) * LEAF)
    np.cumsum(_combined_weights(tf.numerator.terms, h, lag + 1), out=forced[: lag + 1])
    forced[lag + 1 :] = forced[lag]
    # An overflow shows up as a non-finite sample, which is reported below.
    with np.errstate(over="ignore", invalid="ignore"):
        # Below this size no partial sum of the recursion can overflow, so a
        # leaf that reaches it is handed to the recursion, which finds the
        # first bad sample.
        limit = np.finfo(float).max / (
            2 * (np.abs(den_weights).sum() + np.abs(forced[: lag + 1]).max())
        )
        leaf_weights = den_weights[:LEAF]
        inverse = _toeplitz(_series_inverse(leaf_weights))
        weights_hi = _split(leaf_weights, np.abs(leaf_weights).max())
        if lag < LEAF:
            y = _scan_solve(n, den_rev, forced, lag, limit, inverse, weights_hi)
            if y is not None:
                return StepResponse(time_step=h, samples=y)
        den_hi, den_lo = _toeplitz(weights_hi), _toeplitz(leaf_weights - weights_hi)
        # The lags below LEAF alone, for the corner of an FFT block.
        near_rev = np.concatenate((np.zeros(LEAF), den_rev[end + 1 - LEAF :]))
        y = np.zeros(n)
        history = np.zeros(n)
        spectra = {}
        for start in range(0, n, LEAF):
            stop = min(start + LEAF, n)
            size = stop - start
            rhs = forced[start:stop] - history[start:stop]
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
            spectrum = spectra.pop(width, None)
            if spectrum is None:
                # Lags LEAF up to 2 * width - 1, shifted down by LEAF.
                spectrum = np.fft.rfft(den_weights[LEAF : 2 * width], fft_size)
            if stop + 2 * width < n:
                # Blocks of one width are at most 2 * width samples apart.
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
        value = (forced[k] - history) / w0
        if not math.isfinite(value):
            raise SimulationDiverged(k, StepResponse(time_step=h, samples=y[:k].copy()))
        y[k] = value
