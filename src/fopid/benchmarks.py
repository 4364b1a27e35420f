"""Bundled benchmark plants and a hand-expanded residual cross-check.

Two demonstration processes are shipped: a fractional-order lag
1/(0.8 s^2.2 + 0.5 s^0.9 + 1) and an integer-order servo 400/(s^2 + 50 s).
Both are tuned against the same transient specification (10% overshoot,
0.3 s rise), taken as damping ratio 0.65 and natural frequency 2.2 rad/s.
"""

from __future__ import annotations

import math

import numpy as np

from .plant import ControllerParams, FractionalTransferFunction
from .tuning import (
    DominantPoles,
    Mode,
    ResidualValue,
    TuningProblem,
    _phase_columns,
    poles_from_damping,
)

DESIGN_ZETA = 0.65
DESIGN_OMEGA0 = 2.2

# Polar form of the design pole after rounding to the figures used when the
# fractional-plant residual was expanded by hand: magnitude 2.2, angle
# 130.57 degrees. The offsets are the plant denominator evaluated there.
POLAR_MAGNITUDE = 2.2
POLAR_ANGLE_DEG = 130.57
REAL_OFFSET = 1.875
IMAG_OFFSET = -3.428


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


def rounded_polar_pole() -> DominantPoles:
    """The design pole reconstructed from its rounded polar form.

    This is the exact evaluation point implied by the constants baked into
    closed_form_residual(); use it when cross-checking that oracle against
    the generic residual so both sides evaluate at the same point.
    """
    angle = math.radians(POLAR_ANGLE_DEG)
    return DominantPoles(
        x=-POLAR_MAGNITUDE * math.cos(angle), y=POLAR_MAGNITUDE * math.sin(angle)
    )


def closed_form_residual(params: ControllerParams) -> ResidualValue:
    """Hand-expanded residual for the fractional plant at its design pole.

    Specialization of the cleared characteristic expression to
    fractional_plant() with the pole written in rounded polar form
    (magnitude 2.2, angle 130.57 deg):

        r = (kp + 1) + ti/2.2^lam * cos(130.57 lam deg)
                     + td*2.2^delta * cos(130.57 delta deg) + 0.875
        i = -ti/2.2^lam * sin(130.57 lam deg)
                     + td*2.2^delta * sin(130.57 delta deg) - 3.428

    Kept solely as an independent cross-check oracle for tuning.residual();
    its constants carry about 4 significant figures, so agreement is limited
    to roughly 1e-3 absolute.
    """
    lam_angle = math.radians(POLAR_ANGLE_DEG * params.lam)
    delta_angle = math.radians(POLAR_ANGLE_DEG * params.delta)
    ti_scale = params.ti / POLAR_MAGNITUDE**params.lam
    td_scale = params.td * POLAR_MAGNITUDE**params.delta
    r = (
        (params.kp + 1.0)
        + ti_scale * math.cos(lam_angle)
        + td_scale * math.cos(delta_angle)
        + (REAL_OFFSET - 1.0)
    )
    i = -ti_scale * math.sin(lam_angle) + td_scale * math.sin(delta_angle) + IMAG_OFFSET
    p = float(_phase_columns(np.array([r]), np.array([i]))[0])
    return ResidualValue(r=r, i=i, p=p, f=abs(r) + abs(i) + abs(p))
