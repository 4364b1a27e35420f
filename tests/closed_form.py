"""Hand-expanded residual of the fractional demo plant, a test oracle.

Acceptance criterion 2 and tests/test_tuning.py check the generic residual
against it. It does its own scalar arithmetic and takes only the
DominantPoles and ResidualValue types from fopid.tuning.
"""

import math

from fopid.plant import ControllerParams
from fopid.tuning import DominantPoles, ResidualValue

# Polar form of the design pole after rounding to the figures used when the
# fractional-plant residual was expanded by hand: magnitude 2.2, angle
# 130.57 degrees. The offsets are the plant denominator evaluated there.
POLAR_MAGNITUDE = 2.2
POLAR_ANGLE_DEG = 130.57
REAL_OFFSET = 1.875
IMAG_OFFSET = -3.428


def scalar_phase(r, i):
    """atan(i/r), 0 at the origin and +/-pi/2 on r = 0, in scalar math."""
    if r == 0.0:
        if i == 0.0:
            return 0.0
        return math.copysign(math.pi / 2.0, i)
    return math.atan(i / r)


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
    benchmarks.fractional_plant() with the pole written in rounded polar
    form (magnitude 2.2, angle 130.57 deg):

        r = (kp + 1) + ti/2.2^lam * cos(130.57 lam deg)
                     + td*2.2^delta * cos(130.57 delta deg) + 0.875
        i = -ti/2.2^lam * sin(130.57 lam deg)
                     + td*2.2^delta * sin(130.57 delta deg) - 3.428

    Its constants carry about 4 significant figures, so agreement with
    tuning.residual() is limited to roughly 1e-3 absolute.
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
    p = scalar_phase(r, i)
    return ResidualValue(r=r, i=i, p=p, f=abs(r) + abs(i) + abs(p))
