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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .plant import FractionalTransferFunction

MAX_STEPS = 10_000_000
# Cap on steps x memory, which sets the run's cost: the history sum takes
# about steps x memory multiply-adds (half that at full memory). The largest
# bundled or benchmarked run, 5e4 samples at full memory, is 2.5e9. On a
# 2-core VM a full-memory run at the cap (about 1e5 samples) took about 1 s;
# MAX_STEPS alone would let a full-memory run take hours.
MAX_STEP_MEMORY_PRODUCT = 10**10


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


def gl_derivative(
    samples: np.ndarray, alpha: float, time_step: float, memory: int | None = None
) -> np.ndarray:
    """Apply D^alpha to a sampled signal with zero pre-history."""
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    lag = n - 1 if memory is None else min(memory, n - 1)
    return time_step**-alpha * np.convolve(samples, gl_weights(alpha, lag + 1))[:n]


def _combined_weights(
    terms: tuple[tuple[float, float], ...], h: float, count: int
) -> np.ndarray:
    """Sum of c * h^-e * w^(e) over all polynomial terms."""
    total = np.zeros(count)
    for coefficient, exponent in terms:
        total += coefficient * h**-exponent * gl_weights(exponent, count)
    return total


def simulate_step(tf: FractionalTransferFunction, cfg: SimConfig) -> StepResponse:
    """Unit-step response of a fractional transfer function from rest.

    Raises:
        ValueError: if the output isolation coefficient sum_i a_i h^-alpha_i
            is zero (the update cannot be solved for y_k).
        SimulationDiverged: on the first non-finite sample; the exception
            carries the finite prefix.
    """
    h = cfg.time_step
    n = cfg.steps
    lag = cfg.memory
    m = lag + 1
    den_weights = _combined_weights(tf.denominator.terms, h, m)
    num_weights = _combined_weights(tf.numerator.terms, h, m)
    if den_weights[0] == 0.0:
        raise ValueError("isolation coefficient sum(a_i * h^-alpha_i) is zero")
    # Unit step input: the forced side at step k is the prefix sum of the
    # input weights, saturating once the memory window is full.
    forced = np.cumsum(num_weights)
    den_rev = den_weights[::-1].copy()  # den_rev[m-1-j] = den_weights[j]
    y = np.zeros(n)
    w0 = den_weights[0]
    # An overflow shows up as a non-finite sample, which is reported below.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            kk = min(k, lag)
            history = np.dot(den_rev[m - 1 - kk : m - 1], y[k - kk : k]) if kk else 0.0
            value = (forced[kk] - history) / w0
            if not math.isfinite(value):
                raise SimulationDiverged(
                    k, StepResponse(time_step=h, samples=y[:k].copy())
                )
            y[k] = value
    return StepResponse(time_step=h, samples=y)
