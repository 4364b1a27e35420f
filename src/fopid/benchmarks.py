"""Bundled benchmark plants and their shared design pole pair.

Two demonstration processes are shipped: a fractional-order lag
1/(0.8 s^2.2 + 0.5 s^0.9 + 1) and an integer-order servo 400/(s^2 + 50 s).
Both are tuned against the same transient specification (10% overshoot,
0.3 s rise), taken as damping ratio 0.65 and natural frequency 2.2 rad/s.
"""

from __future__ import annotations

from .plant import FractionalTransferFunction
from .tuning import DominantPoles, Mode, TuningProblem, poles_from_damping

DESIGN_ZETA = 0.65
DESIGN_OMEGA0 = 2.2


def fractional_plant() -> FractionalTransferFunction:
    """The fractional-order lag 1 / (0.8 s^2.2 + 0.5 s^0.9 + 1)."""
    return FractionalTransferFunction.from_terms(
        [(1.0, 0.0)], [(0.8, 2.2), (0.5, 0.9), (1.0, 0.0)]
    )


def servo_plant() -> FractionalTransferFunction:
    """The integer-order servo 400 / (s^2 + 50 s)."""
    return FractionalTransferFunction.from_terms(
        [(400.0, 0.0)], [(1.0, 2.0), (50.0, 1.0)]
    )


def design_poles() -> DominantPoles:
    """Dominant pole pair for the shared transient specification."""
    return poles_from_damping(DESIGN_ZETA, DESIGN_OMEGA0)


def fractional_problem(mode: Mode = "fractional") -> TuningProblem:
    return TuningProblem(fractional_plant(), design_poles(), mode=mode)


def servo_problem(mode: Mode = "fractional") -> TuningProblem:
    return TuningProblem(servo_plant(), design_poles(), mode=mode)
