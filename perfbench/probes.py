"""Machine-speed probes that the gated times are normalised by.

The benchmark shares its cores with other tenants, and their load changes
its speed by up to 60% within minutes: on a 2-core VM, medians of tune()
over consecutive 20-second windows ranged from 0.33 to 0.50 s. Before each
timed operation the runner therefore times a fixed probe whose work
resembles the operation's, and the gated time is

    wall time x NOMINAL_S / probe wall time,

that is, seconds at the probe's nominal speed. Over the same windows the
normalised medians stayed within about 4% for tune() and truncated-memory
simulations, and within about 6% for full-memory simulations (streaming
probe). Raw wall times are reported beside them.
"""

import math
import time

import numpy as np

_V = np.linspace(0.0, 1.0, 100_001)
_W = _V[::-1].copy()


def interpreter_probe() -> float:
    """Interpreter-bound work: a Python loop of short dot products and complex powers."""
    total = 0.0
    head = _V[:2000]
    z = complex(-1.43, 1.67)
    for k in range(4000):
        total += float(np.dot(head, _V[k : k + 2000]))
        w = z ** (1.0 + k * 1e-4)
        total += math.atan(w.imag / w.real)
    return total


def streaming_probe() -> float:
    """Dot products over growing prefixes of 0.8 MB vectors, like a GL history sum."""
    total = 0.0
    for _ in range(8):
        for k in range(1000, len(_V), 1000):
            total += float(np.dot(_W[-k:], _V[:k]))
    return total


# Probe and its median wall time on a quiet 2-core x86 VM (Python 3.11, numpy 2.4).
PROBES = {
    "interpreter": (interpreter_probe, 0.0060),
    "streaming": (streaming_probe, 0.0104),
}


def timed_probe(kind: str) -> float:
    """Wall time of one probe run, as a multiple of its nominal time."""
    probe, nominal_s = PROBES[kind]
    started = time.perf_counter()
    probe()
    return (time.perf_counter() - started) / nominal_s
