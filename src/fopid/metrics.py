"""Step-response metrics: overshoot, 10-90% rise time, settling time, stability.

Every band and fraction is a module constant; analyze() takes no options.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .simulate import StepResponse

# Fraction of trailing samples averaged into the steady-state estimate.
STEADY_WINDOW = 0.05
# Fractions of steady state between which the rise time is measured (10-90 %).
RISE_FRACTIONS = (0.1, 0.9)
# Settling band around steady state.
SETTLING_BAND = 0.02
# Tail flatness band for the stability flag.
STABILITY_BAND = 0.05


@dataclass(frozen=True)
class ResponseMetrics:
    """Extracted transient figures; NaN marks undefined fields."""

    overshoot_percent: float
    rise_time: float
    settling_time: float
    steady_state: float
    stable: bool


def _first_crossing(times: np.ndarray, samples: np.ndarray, threshold: float) -> float:
    """Time of the first upward crossing of ``threshold``, interpolated.

    Returns NaN if the response never reaches the threshold. A response that
    starts at or above the threshold crosses at t = 0.
    """
    above = samples >= threshold
    if not above.any():
        return math.nan
    k = int(np.argmax(above))
    if k == 0:
        return 0.0
    y0, y1 = samples[k - 1], samples[k]
    fraction = (threshold - y0) / (y1 - y0)
    return float(times[k - 1] + fraction * (times[k] - times[k - 1]))


def analyze(resp: StepResponse) -> ResponseMetrics:
    """Extract metrics from a sampled step response.

    Steady state is the mean of the trailing 5% of samples. Overshoot is the
    excess of the peak over steady state (when steady state is positive).
    Rise time is measured between the 10% and 90% crossings of steady state
    (RISE_FRACTIONS), with linear interpolation between samples. Settling
    time is the time of the first sample after which the response stays
    inside the +/-2% band; the stability flag checks that the trailing window
    sits within +/-5% of steady state.

    A response containing non-finite samples yields stable=False with every
    other field NaN.

    Raises:
        ValueError: on fewer than two samples.
    """
    samples = np.asarray(resp.samples, dtype=float)
    if samples.size < 2:
        raise ValueError("need at least two samples")
    if not np.all(np.isfinite(samples)):
        return ResponseMetrics(math.nan, math.nan, math.nan, math.nan, stable=False)
    times = resp.times
    tail = samples[-max(1, int(round(STEADY_WINDOW * samples.size))) :]
    steady = float(tail.mean())
    stable = bool(np.all(np.abs(tail - steady) <= STABILITY_BAND * abs(steady)))

    if steady > 0:
        overshoot = max(0.0, (float(samples.max()) - steady) / steady * 100.0)
        t_low = _first_crossing(times, samples, RISE_FRACTIONS[0] * steady)
        t_high = _first_crossing(times, samples, RISE_FRACTIONS[1] * steady)
        rise = t_high - t_low  # NaN propagates if either crossing is missing
    else:
        overshoot = math.nan
        rise = math.nan

    outside = np.abs(samples - steady) > SETTLING_BAND * abs(steady)
    if not outside.any():
        settling = 0.0
    else:
        last_outside = int(np.nonzero(outside)[0][-1])
        if last_outside == samples.size - 1:
            settling = float(times[-1])  # never settles within the horizon
        else:
            settling = float(times[last_outside + 1])

    return ResponseMetrics(
        overshoot_percent=overshoot,
        rise_time=rise,
        settling_time=settling,
        steady_state=steady,
        stable=stable,
    )
