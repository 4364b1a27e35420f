"""Fractional polynomials, transfer functions, and the controller form.

A fractional polynomial is a finite sum of terms c * s**e with real
coefficients and real non-negative exponents. Ratios of two of them model
both plants and controllers; negative controller exponents are cleared at
construction so every stored polynomial has non-negative exponents, which
keeps the time-domain discretization uniform. Polynomials are evaluated
through cpow, the principal-branch complex power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

# Exponents arriving from sums such as lam + delta must merge deterministically.
EXPONENT_MERGE_TOL = 1e-12


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


class FractionalPolynomial:
    """Sum of c * s**e terms, canonicalized on construction.

    Terms are sorted by strictly increasing exponent, exponents within
    EXPONENT_MERGE_TOL of each other are merged (coefficients summed), and
    terms whose coefficient is exactly zero are dropped. An empty term list
    is the zero polynomial.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[float, float]] = ()):
        self.terms: tuple[tuple[float, float], ...] = _normalize(terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, s: complex) -> complex:
        """Evaluate the polynomial at a complex point via principal powers."""
        total = 0j
        for coefficient, exponent in self.terms:
            total += coefficient * cpow(s, exponent)
        return total

    def __mul__(self, other: "FractionalPolynomial") -> "FractionalPolynomial":
        if not isinstance(other, FractionalPolynomial):
            return NotImplemented
        products = [
            (ca * cb, ea + eb) for ca, ea in self.terms for cb, eb in other.terms
        ]
        return FractionalPolynomial(products)

    def __add__(self, other: "FractionalPolynomial") -> "FractionalPolynomial":
        if not isinstance(other, FractionalPolynomial):
            return NotImplemented
        return FractionalPolynomial(list(self.terms) + list(other.terms))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FractionalPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        body = " + ".join(f"{c!r}*s^{e!r}" for c, e in self.terms) or "0"
        return f"FractionalPolynomial({body})"


def _normalize(terms: Iterable[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    cleaned = []
    for coefficient, exponent in terms:
        coefficient = float(coefficient)
        exponent = float(exponent)
        if not (math.isfinite(coefficient) and math.isfinite(exponent)):
            raise ValueError("polynomial terms must be finite")
        if exponent < 0:
            raise ValueError(f"negative exponent {exponent} (clear it first)")
        cleaned.append((coefficient, exponent))
    cleaned.sort(key=lambda t: t[1])
    merged: list[tuple[float, float]] = []
    for coefficient, exponent in cleaned:
        if merged and exponent - merged[-1][1] <= EXPONENT_MERGE_TOL:
            merged[-1] = (merged[-1][0] + coefficient, merged[-1][1])
        else:
            merged.append((coefficient, exponent))
    return tuple((c, e) for c, e in merged if c != 0.0)


@dataclass(frozen=True)
class FractionalTransferFunction:
    """Ratio of two fractional polynomials."""

    numerator: FractionalPolynomial
    denominator: FractionalPolynomial

    def __post_init__(self) -> None:
        if self.denominator.is_zero:
            raise ValueError("transfer function denominator is identically zero")

    @classmethod
    def from_terms(
        cls,
        numerator: Iterable[tuple[float, float]],
        denominator: Iterable[tuple[float, float]],
    ) -> "FractionalTransferFunction":
        return cls(FractionalPolynomial(numerator), FractionalPolynomial(denominator))


@dataclass(frozen=True)
class ControllerParams:
    """The five controller parameters kp + ti*s^-lam + td*s^delta."""

    kp: float
    ti: float
    td: float
    lam: float
    delta: float

    def __post_init__(self) -> None:
        for name in ("kp", "ti", "td", "lam", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"controller parameter {name} must be finite")


def controller_tf(params: ControllerParams) -> FractionalTransferFunction:
    """Build the controller transfer function with the s^-lam term cleared.

    Returns (kp*s^lam + ti + td*s^(lam+delta)) / s^lam so that both
    polynomials carry non-negative exponents.
    """
    for name, order in (("lambda", params.lam), ("lambda + delta", params.lam + params.delta)):
        if order < 0:
            raise ValueError(f"order {name} must be >= 0, got {order!r}")
    numerator = FractionalPolynomial(
        [
            (params.kp, params.lam),
            (params.ti, 0.0),
            (params.td, params.lam + params.delta),
        ]
    )
    denominator = FractionalPolynomial([(1.0, params.lam)])
    return FractionalTransferFunction(numerator, denominator)


def closed_loop(
    gc: FractionalTransferFunction, gp: FractionalTransferFunction
) -> FractionalTransferFunction:
    """Unity-feedback closed loop Gc*Gp / (1 + Gc*Gp) in cleared form.

    Returns (Nc*Np) / (Dc*Dp + Nc*Np).

    Raises:
        ValueError: if the combined denominator is identically zero.
    """
    forward = gc.numerator * gp.numerator
    denominator = gc.denominator * gp.denominator + forward
    if denominator.is_zero:
        raise ValueError("closed-loop denominator is identically zero")
    return FractionalTransferFunction(forward, denominator)
