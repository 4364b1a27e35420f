"""Fractional polynomials, transfer functions, and the controller form.

A fractional polynomial is a finite sum of terms c * s**e with real
coefficients and real non-negative exponents. Ratios of two of them model
both plants and controllers; negative controller exponents are cleared at
construction so every stored polynomial has non-negative exponents, which
keeps the time-domain discretization uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .cpower import cpow

# Exponents arriving from sums such as lam + delta must merge deterministically.
EXPONENT_MERGE_TOL = 1e-12


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
