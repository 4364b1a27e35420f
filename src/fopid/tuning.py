"""Dominant-pole placement and the characteristic-equation residual fitness.

Design requirements (overshoot and rise time, or damping ratio and natural
frequency directly) fix a complex-conjugate dominant pole pair. Forcing a
pole to satisfy the closed-loop characteristic equation constrains the five
controller parameters; the constraint violation is folded into a scalar
fitness that a bounded particle swarm minimizes, one (N, dims) array of
positions per swarm iteration. Because the residual is affine in the gains,
tune() then solves for (ti, td) exactly at the swarm's (kp, lam, delta) and
keeps that point when it lies in the box and lowers the fitness.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from typing import Literal

import numpy as np

# Not used here; kept importable as tuning.cpow for callers that look the
# entry point up on this module (the traced run in perfbench/spans.py).
from .cpower import cpow  # noqa: F401
from .plant import ControllerParams, FractionalTransferFunction
from .pso import PsoConfig, SwarmResult, minimize

Mode = Literal["fractional", "integer"]

# Search-box defaults for (kp, ti, td, lam, delta).
DEFAULT_KP_BOUNDS = (1.0, 1000.0)
DEFAULT_TI_BOUNDS = (1.0, 500.0)
DEFAULT_TD_BOUNDS = (1.0, 500.0)
DEFAULT_ORDER_BOUNDS = (0.0, 2.0)

# Componentwise velocity clamp fraction used by tune()'s default optimizer
# setup. A full-range clamp lets early overshoots pile the swarm onto a
# bound corner where it stalls; 0.05 measured best on the bundled problems.
DEFAULT_VELOCITY_FRACTION = 0.05

# Real part the (ti, td) solve aims the residual at, with I = 0. An exact root
# would leave the phase term atan(I/R) at 0/0, so f would be rounding noise;
# 1e-6 sits well above the cancellation floor of the residual's terms.
SOLVE_REAL_TARGET = 1e-6

# Orders (lam, delta) of every integer-mode row, and the signs that turn them
# into the exponents (-lam, delta) of p in Gc(p).
UNIT_ORDERS = np.ones((1, 2))
EXPONENT_SIGNS = np.array([-1.0, 1.0])


@dataclass(frozen=True)
class DominantPoles:
    """Conjugate pole pair -x +/- jy with x > 0 (decay) and y > 0 (ringing)."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (self.x > 0 and self.y > 0):
            raise ValueError("pole pair requires x > 0 and y > 0")
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("pole coordinates must be finite")

    @property
    def upper(self) -> complex:
        """The pole in the upper half plane, -x + jy."""
        return complex(-self.x, self.y)

    @property
    def lower(self) -> complex:
        """The conjugate pole, -x - jy."""
        return complex(-self.x, -self.y)


def poles_from_damping(zeta: float, omega0: float) -> DominantPoles:
    """Place the dominant pair at -zeta*omega0 +/- j*omega0*sqrt(1 - zeta^2).

    Requires an underdamped specification: 0 < zeta < 1 and omega0 > 0.
    """
    if not 0 < zeta < 1:
        raise ValueError(f"zeta must be in (0, 1) for a complex pole pair, got {zeta}")
    if not omega0 > 0:
        raise ValueError(f"omega0 must be positive, got {omega0}")
    return DominantPoles(x=zeta * omega0, y=omega0 * math.sqrt(1.0 - zeta * zeta))


def spec_to_damping(mp: float, trise: float) -> tuple[float, float]:
    """Map (peak overshoot fraction, 10-90-ish rise time) to (zeta, omega0).

    Classical underdamped second-order relations:
        zeta   = -ln(mp) / sqrt(pi^2 + ln(mp)^2)
        omega0 = (pi - arccos(zeta)) / (trise * sqrt(1 - zeta^2))
    """
    if not 0 < mp < 1:
        raise ValueError(f"mp must be a fraction in (0, 1), got {mp}")
    if not trise > 0:
        raise ValueError(f"trise must be positive, got {trise}")
    log_mp = math.log(mp)
    zeta = -log_mp / math.sqrt(math.pi**2 + log_mp**2)
    omega0 = (math.pi - math.acos(zeta)) / (trise * math.sqrt(1.0 - zeta * zeta))
    return zeta, omega0


@dataclass(frozen=True)
class DesignSpec:
    """Either (mp, trise) or (zeta, omega0); exactly one form is active."""

    mp: float | None = None
    trise: float | None = None
    zeta: float | None = None
    omega0: float | None = None

    def __post_init__(self) -> None:
        overshoot_form = self.mp is not None or self.trise is not None
        damping_form = self.zeta is not None or self.omega0 is not None
        if overshoot_form and damping_form:
            raise ValueError("give either (mp, trise) or (zeta, omega0), not both")
        if overshoot_form:
            if self.mp is None or self.trise is None:
                raise ValueError("overshoot form needs both mp and trise")
        elif damping_form:
            if self.zeta is None or self.omega0 is None:
                raise ValueError("damping form needs both zeta and omega0")
        else:
            raise ValueError("empty design spec")
        # The range checks, with messages that name the field.
        self.poles()

    def damping(self) -> tuple[float, float]:
        if self.zeta is not None:
            return self.zeta, self.omega0  # type: ignore[return-value]
        return spec_to_damping(self.mp, self.trise)  # type: ignore[arg-type]

    def poles(self) -> DominantPoles:
        return poles_from_damping(*self.damping())


@dataclass(frozen=True)
class ParameterBounds:
    """Inclusive search ranges for the five controller parameters."""

    kp: tuple[float, float] = DEFAULT_KP_BOUNDS
    ti: tuple[float, float] = DEFAULT_TI_BOUNDS
    td: tuple[float, float] = DEFAULT_TD_BOUNDS
    lam: tuple[float, float] = DEFAULT_ORDER_BOUNDS
    delta: tuple[float, float] = DEFAULT_ORDER_BOUNDS

    def vectors(self, mode: Mode) -> tuple[np.ndarray, np.ndarray]:
        """Lower/upper bound vectors for the given search mode."""
        gains = [self.kp, self.ti, self.td]
        ranges = gains + ([self.lam, self.delta] if mode == "fractional" else [])
        lower = np.array([lo for lo, _ in ranges])
        upper = np.array([hi for _, hi in ranges])
        return lower, upper


@dataclass(frozen=True)
class ResidualValue:
    """Real part, imaginary part, phase, and the scalar fitness |r|+|i|+|p|."""

    r: float
    i: float
    p: float
    f: float


@dataclass(frozen=True)
class TuningProblem:
    """Plant, target pole pair, search mode, and parameter box.

    Integer mode pins lam = delta = 1 and searches only (kp, ti, td).
    The plant and the logarithms the residual needs are evaluated at both
    poles once, on construction.

    Raises:
        ValueError: if the plant denominator vanishes at a design pole.
    """

    plant: FractionalTransferFunction
    poles: DominantPoles
    mode: Mode = "fractional"
    bounds: ParameterBounds = field(default_factory=ParameterBounds)
    # (pole, Dp(pole), Np(pole)) at the upper pole, then at the lower one.
    plant_at_poles: tuple[tuple[complex, complex, complex], ...] = field(
        init=False, compare=False, repr=False
    )
    # log(pole) in the same order. A design pole has x > 0, so it is never on
    # the branch cut, and p^e = exp(e*log p) on the principal branch.
    log_poles: tuple[complex, complex] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.mode not in ("fractional", "integer"):
            raise ValueError(f"mode must be 'fractional' or 'integer', got {self.mode!r}")
        values = []
        for pole in (self.poles.upper, self.poles.lower):
            den_value = self.plant.denominator.evaluate(pole)
            # Collision guard: at a (numerical) plant pole the cleared expression
            # no longer represents the characteristic condition.
            den_scale = sum(abs(c) * abs(pole) ** e for c, e in self.plant.denominator.terms)
            if abs(den_value) <= 1e-12 * den_scale:
                raise ValueError(f"plant denominator vanishes at the design pole {pole}")
            values.append((pole, den_value, self.plant.numerator.evaluate(pole)))
        object.__setattr__(self, "plant_at_poles", tuple(values))
        log_poles = (cmath.log(self.poles.upper), cmath.log(self.poles.lower))
        object.__setattr__(self, "log_poles", log_poles)

    @property
    def dims(self) -> int:
        return 5 if self.mode == "fractional" else 3

    def decode(self, position: np.ndarray) -> ControllerParams:
        """Translate an optimizer position vector into controller parameters."""
        values = [float(v) for v in position]
        if self.mode == "fractional":
            if len(values) != 5:
                raise ValueError("fractional mode expects a 5-vector")
            return ControllerParams(*values)
        if len(values) != 3:
            raise ValueError("integer mode expects a 3-vector")
        return ControllerParams(values[0], values[1], values[2], 1.0, 1.0)

    def fitness(self, positions: np.ndarray) -> np.ndarray:
        """Residual fitness f of each row of an (N, dims) array of positions.

        Returns an (N,) array. Row k gives exactly residual(decode(row k)).f,
        whatever N is.
        """
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != self.dims:
            raise ValueError(
                f"{self.mode} mode expects positions of shape (N, {self.dims}), "
                f"got {positions.shape}"
            )
        orders = positions[:, 3:] if self.mode == "fractional" else UNIT_ORDERS
        return _residual_columns(self, positions[:, :3], orders)[3]


def _phase(r: float, i: float) -> float:
    """atan(i/r) with the conventions p=0 at the origin, +/-pi/2 on r=0."""
    if r == 0.0:
        if i == 0.0:
            return 0.0
        return math.copysign(math.pi / 2.0, i)
    return math.atan(i / r)


def _phase_columns(r: np.ndarray, i: np.ndarray) -> np.ndarray:
    """_phase elementwise, without dividing by a zero r."""
    if np.count_nonzero(r) == len(r):
        return np.arctan(i / r)
    on_axis = r == 0.0
    ratio = np.divide(i, r, out=np.zeros_like(r), where=~on_axis)
    phase = np.arctan(ratio)
    phase[on_axis] = np.where(i[on_axis] == 0.0, 0.0, np.copysign(math.pi / 2.0, i[on_axis]))
    return phase


def _powers(problem: TuningProblem, orders: np.ndarray, conjugate: bool = False) -> np.ndarray:
    """p^-lam and p^delta, as exp(e*log p), for each row of (lam, delta) in orders."""
    return np.exp(orders * (EXPONENT_SIGNS * problem.log_poles[conjugate]))


def _residual_columns(
    problem: TuningProblem, gains: np.ndarray, orders: np.ndarray, conjugate: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Columns r, i, p, f of the residual for rows of (kp, ti, td) and (lam, delta).

    gains is (N, 3); orders is (N, 2), or (1, 2) to share one pair of orders.
    """
    _, den_value, num_value = problem.plant_at_poles[conjugate]
    terms = gains[:, 1:] * _powers(problem, orders, conjugate)
    expression = den_value + (gains[:, 0] + terms[:, 0] + terms[:, 1]) * num_value
    r = expression.real
    i = expression.imag
    p = _phase_columns(r, i)
    return r, i, p, np.abs(r) + np.abs(i) + np.abs(p)


def residual(
    params: ControllerParams, problem: TuningProblem, conjugate: bool = False
) -> ResidualValue:
    """Characteristic-equation residual at the dominant pole.

    The unity-feedback characteristic condition 1 + Gc(p)*Gp(p) = 0 is
    evaluated with the plant denominator cleared: the returned complex value
    is Dp(p) + Gc(p)*Np(p), whose zero set matches the original condition
    wherever Dp(p) != 0 and whose real/imaginary split matches the
    hand-derived component expressions for the bundled benchmark. The phase
    is atan(i/r) (not the quadrant-corrected form) and the fitness is
    f = |r| + |i| + |p|. Dp(p), Np(p) and log p come from the problem. This
    is a one-row call into the kernel behind TuningProblem.fitness, so the
    two agree bit for bit.
    """
    gains = np.array([[params.kp, params.ti, params.td]])
    orders = np.array([[params.lam, params.delta]])
    columns = _residual_columns(problem, gains, orders, conjugate)
    r, i, p, f = (float(column[0]) for column in columns)
    return ResidualValue(r=r, i=i, p=p, f=f)


def default_pso_config(problem: TuningProblem, seed: int = 0, **overrides) -> PsoConfig:
    """Optimizer setup matched to a tuning problem's mode and bounds."""
    lower, upper = problem.bounds.vectors(problem.mode)
    settings = dict(
        dims=problem.dims,
        lower_bounds=lower,
        upper_bounds=upper,
        seed=seed,
        velocity_limit_fraction=DEFAULT_VELOCITY_FRACTION,
    )
    settings.update(overrides)
    return PsoConfig(**settings)


def solve_gains(position: np.ndarray, problem: TuningProblem) -> np.ndarray | None:
    """The position with (ti, td) solved so that R = SOLVE_REAL_TARGET, I = 0.

    The cleared residual Dp(p) + Np(p)*(kp + ti*p^-lam + td*p^delta) is affine
    in (ti, td), so with (kp, lam, delta) held the two real equations are a
    2x2 linear system. Returns None when the system is singular or its
    solution leaves the parameter box.
    """
    params = problem.decode(position)
    _, den_value, num_value = problem.plant_at_poles[0]
    base = den_value + params.kp * num_value
    u, v = num_value * _powers(problem, np.array([[params.lam, params.delta]]))[0]
    det = u.real * v.imag - v.real * u.imag
    if det == 0.0:
        return None
    rhs_r = SOLVE_REAL_TARGET - base.real
    rhs_i = -base.imag
    solved = np.array(position, dtype=float)
    solved[1] = (rhs_r * v.imag - v.real * rhs_i) / det
    solved[2] = (u.real * rhs_i - u.imag * rhs_r) / det
    lower, upper = problem.bounds.vectors(problem.mode)
    # Written so that a NaN or infinite solution also counts as outside.
    if not np.all((lower <= solved) & (solved <= upper)):
        return None
    return solved


def tune(problem: TuningProblem, pso: PsoConfig) -> tuple[ControllerParams, SwarmResult]:
    """Minimize the residual fitness with the swarm, then solve for (ti, td).

    After minimize(), solve_gains() keeps the swarm's (kp, lam, delta) and
    solves the gains (ti, td) exactly. The solved point replaces the swarm's
    only if it lies in the box and its fitness is strictly lower; its fitness
    then becomes best_fitness and the last fitness_history entry (the history
    keeps iterations_run + 1 entries). result.swarm_fitness keeps the
    swarm-only value either way.

    The returned parameters reproduce the reported fitness exactly:
    residual(params, problem).f == result.best_fitness. Non-convergence
    (best fitness above target) is not an error; callers decide how to flag
    it.
    """
    if pso.dims != problem.dims:
        raise ValueError(
            f"optimizer dims {pso.dims} do not match {problem.mode} mode "
            f"(expected {problem.dims})"
        )
    lower, upper = problem.bounds.vectors(problem.mode)
    if not (
        np.array_equal(pso.lower_bounds, lower)
        and np.array_equal(pso.upper_bounds, upper)
    ):
        raise ValueError("optimizer bounds do not match the problem bounds")
    result = minimize(pso, problem.fitness)
    solved = solve_gains(result.best_position, problem)
    if solved is not None:
        solved_fitness = float(problem.fitness(solved[np.newaxis])[0])
        if solved_fitness < result.best_fitness:
            result = replace(
                result,
                best_position=solved,
                best_fitness=solved_fitness,
                fitness_history=result.fitness_history[:-1] + [solved_fitness],
            )
    return problem.decode(result.best_position), result
