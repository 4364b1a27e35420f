"""Principal-branch powers of complex numbers."""

from __future__ import annotations

import math


def cpow(z: complex, alpha: float) -> complex:
    """Raise ``z`` to the real power ``alpha`` on the principal branch.

    Computed in polar form: |z|**alpha * (cos(alpha*arg z) + j sin(alpha*arg z))
    with arg z in (-pi, pi]. ``atan2`` gives exactly -pi on the negative real
    axis when the imaginary part is -0.0; that argument is folded to +pi, so
    cpow(-4 - 0j, 0.5) is +2j, not -2j. A point just below the axis keeps the
    -pi that ``atan2`` may round its argument to: cpow(-1 - 2.2e-16j, 0.5) is
    about -1j.

    Conventions at the origin: cpow(0, alpha) = 0 for alpha > 0, and
    cpow(0, 0) = 1 (useful when evaluating polynomials at s = 0).

    Raises:
        ValueError: if z == 0 and alpha < 0.
    """
    z = complex(z)
    if z == 0:
        if alpha > 0:
            return 0j
        if alpha == 0:
            return 1 + 0j
        raise ValueError("0 cannot be raised to a negative power")
    argument = math.atan2(z.imag, z.real)
    if argument == -math.pi and z.imag == 0:
        argument = math.pi
    scale = abs(z) ** alpha
    angle = alpha * argument
    return complex(scale * math.cos(angle), scale * math.sin(angle))
