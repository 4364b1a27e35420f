"""Dominant-pole placement and the characteristic-equation residual fitness.

Design requirements (overshoot and rise time, or damping ratio and natural
frequency directly) fix a complex-conjugate dominant pole pair. Forcing a
pole to satisfy the closed-loop characteristic equation constrains the five
controller parameters; the constraint violation is folded into a scalar
fitness that a bounded particle swarm minimizes, one (N, dims) array of
positions per swarm iteration. Because the residual is affine in the gains,
tune() solves for (ti, td) exactly at the swarm's (kp, lam, delta) each time
the swarm's best improves, keeps the solved point when it lies in the box and
lowers the fitness, and stops the swarm once that point meets the target.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Literal

import numpy as np

# Not used here; kept importable as tuning.cpow for callers that look the
# entry point up on this module (the traced run in perfbench/spans.py).
from .plant import cpow  # noqa: F401
from .plant import ControllerParams, FractionalTransferFunction
from .pso import PsoConfig, SwarmResult, minimize

Mode = Literal["fractional", "integer"]

# Search-box defaults for (kp, ti, td, lam, delta).
DEFAULT_KP_BOUNDS = (1.0, 1000.0)
DEFAULT_TI_BOUNDS = (1.0, 500.0)
DEFAULT_TD_BOUNDS = (1.0, 500.0)
DEFAULT_ORDER_BOUNDS = (0.0, 2.0)

# Real part the (ti, td) solve aims the residual at, with I = 0. An exact root
# would leave the phase term atan(I/R) at 0/0, so f would be rounding noise.
# A solved point has f = |R| + |I| + |atan(I/R)|, slightly above R itself, so
# R is set to half the default target of 1e-6: aimed at 1e-6, f lands near
# 1.01e-6 and the swarm could never stop on a solve at that target. Where the
# residual's terms are large, the kernel's rounding of I, divided by R, keeps
# f above 1e-6 at most solved points (up to 4e-5 on the servo); solve_gains
# returns that rounding floor, and the swarm stops on it (stop_reason "floor").
SOLVE_REAL_TARGET = 5e-7

# Signs that turn the orders (lam, delta) into the exponents (-lam, delta) of p.
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
    if not 0 < omega0 < math.inf:
        raise ValueError(f"omega0 must be positive and finite, got {omega0}")
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
    if not 0 < omega0 < math.inf:
        raise ValueError(
            f"trise {trise} gives a natural frequency {omega0} that is not positive "
            "and finite"
        )
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
    The plant and the logarithm the residual needs are evaluated at the
    upper pole once, on construction, as are the box's bound vectors. The
    plant has real coefficients, so its values at the lower pole are the
    conjugates of these.

    Raises:
        ValueError: if Dp(p) or Np(p) overflows or is not finite at the design
            pole, the plant denominator vanishes there, or the residual can
            overflow inside the search box.
    """

    plant: FractionalTransferFunction
    poles: DominantPoles
    mode: Mode = "fractional"
    bounds: ParameterBounds = field(default_factory=ParameterBounds)
    # (Dp(p), Np(p)) at the upper pole p.
    plant_at_pole: tuple[complex, complex] = field(init=False, compare=False, repr=False)
    # log p at the upper pole. A design pole has x > 0, so it is never on the
    # branch cut, and p^e = exp(e*log p) on the principal branch.
    log_pole: complex = field(init=False, compare=False, repr=False)
    # Integer mode's powers (p^-1, p^1), one (1, 2) row as _powers gives it.
    unit_powers: np.ndarray = field(init=False, compare=False, repr=False)
    # bounds.vectors(mode), read-only.
    box: tuple[np.ndarray, np.ndarray] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.mode not in ("fractional", "integer"):
            raise ValueError(f"mode must be 'fractional' or 'integer', got {self.mode!r}")
        pole = self.poles.upper
        try:
            den_value = self.plant.denominator.evaluate(pole)
            num_value = self.plant.numerator.evaluate(pole)
            den_scale = sum(abs(c) * abs(pole) ** e for c, e in self.plant.denominator.terms)
        except OverflowError:
            den_value = num_value = den_scale = math.inf
        if not all(map(cmath.isfinite, (den_value, num_value, den_scale))):
            raise ValueError(
                f"the plant overflows at the design pole {pole}: Dp(p) or Np(p) "
                "is not finite"
            )
        # Collision guard: at a (numerical) plant pole the cleared expression
        # no longer represents the characteristic condition.
        if abs(den_value) <= 1e-12 * den_scale:
            raise ValueError(f"plant denominator vanishes at the design pole {pole}")
        box = self.bounds.vectors(self.mode)
        # A bound on |r + ji| in the box. f = |r| + |i| + |atan(i/r)| is at most
        # sqrt(2)*|r + ji| + pi/2, below twice the bound wherever either can overflow.
        scale = abs(den_value) + abs(num_value) * _gain_bound(abs(pole), box)
        if not math.isfinite(2.0 * scale):
            raise ValueError(
                f"the residual overflows inside the search box at the design pole {pole}: "
                "|Dp(p)| + |Np(p)|*(|kp| + |ti*p^-lam| + |td*p^delta|) is too large there "
                f"(|Dp(p)| = {abs(den_value):.3g}, |Np(p)| = {abs(num_value):.3g})"
            )
        object.__setattr__(self, "plant_at_pole", (den_value, num_value))
        object.__setattr__(self, "log_pole", cmath.log(pole))
        object.__setattr__(self, "unit_powers", _powers(self, np.ones((1, 2))))
        for vector in box:
            vector.flags.writeable = False
        object.__setattr__(self, "box", box)

    @property
    def dims(self) -> int:
        return 5 if self.mode == "fractional" else 3

    def decode(self, position: np.ndarray) -> ControllerParams:
        """Translate an optimizer position vector into controller parameters."""
        values = [float(v) for v in position]
        if len(values) != self.dims:
            raise ValueError(f"{self.mode} mode expects a {self.dims}-vector")
        if self.mode == "integer":
            values += [1.0, 1.0]
        return ControllerParams(*values)

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
        return _residual_columns(self, positions[:, :3], _position_powers(self, positions))[3]


def _gain_bound(radius: float, box: tuple[np.ndarray, np.ndarray]) -> float:
    """Largest |kp| + |ti|*|p|^-lam + |td|*|p|^delta in the box; inf on overflow.

    radius is |p|. |p|^e is monotone in e, so it is largest at an end of the
    order's range. Integer mode pins both orders to 1.
    """
    lower, upper = (vector.tolist() for vector in box)
    ends = list(zip(lower, upper)) + [(1.0, 1.0)] * (5 - len(lower))
    kp, ti, td = (max(map(abs, end)) for end in ends[:3])
    try:
        return kp + ti * max(radius**-e for e in ends[3]) + td * max(radius**e for e in ends[4])
    except OverflowError:
        return math.inf


def _phase_columns(r: np.ndarray, i: np.ndarray) -> np.ndarray:
    """atan(i/r) elementwise, 0 at the origin and +/-pi/2 on r = 0.

    Never divides by a zero r.
    """
    if np.count_nonzero(r) == len(r):
        return np.arctan(i / r)
    on_axis = r == 0.0
    ratio = np.divide(i, r, out=np.zeros_like(r), where=~on_axis)
    phase = np.arctan(ratio)
    phase[on_axis] = np.where(i[on_axis] == 0.0, 0.0, np.copysign(math.pi / 2.0, i[on_axis]))
    return phase


def _powers(problem: TuningProblem, orders: np.ndarray) -> np.ndarray:
    """p^-lam and p^delta, as exp(e*log p), for each row of (lam, delta) in orders."""
    return np.exp(orders * (EXPONENT_SIGNS * problem.log_pole))


def _position_powers(problem: TuningProblem, positions: np.ndarray) -> np.ndarray:
    """(p^-lam, p^delta) per row: (N, 2), or integer mode's shared (1, 2)."""
    if problem.mode == "fractional":
        return _powers(problem, positions[:, 3:])
    return problem.unit_powers


def _residual_columns(
    problem: TuningProblem, gains: np.ndarray, powers: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Columns r, i, p, f of the residual for rows of (kp, ti, td) and (p^-lam, p^delta).

    gains is (N, 3); powers is (N, 2), or (1, 2) to share one pair of powers.
    """
    den_value, num_value = problem.plant_at_pole
    terms = gains[:, 1:] * powers
    expression = den_value + (gains[:, 0] + terms[:, 0] + terms[:, 1]) * num_value
    r = expression.real
    i = expression.imag
    p = _phase_columns(r, i)
    return r, i, p, np.abs(r) + np.abs(i) + np.abs(p)


def residual(
    params: ControllerParams, problem: TuningProblem, conjugate: bool = False
) -> ResidualValue:
    """Characteristic-equation residual at the upper dominant pole, or the lower one.

    The unity-feedback characteristic condition 1 + Gc(p)*Gp(p) = 0 is
    evaluated with the plant denominator cleared: the returned complex value
    is Dp(p) + Gc(p)*Np(p), whose zero set matches the original condition
    wherever Dp(p) != 0 and whose real/imaginary split matches the
    hand-derived component expressions for the bundled benchmark. The phase
    is atan(i/r) (not the quadrant-corrected form) and the fitness is
    f = |r| + |i| + |p|. Dp(p), Np(p) and log p come from the problem. This
    is a one-row call into the kernel behind TuningProblem.fitness, so the
    two agree bit for bit.

    Plant and controller have real coefficients and the pole is off the
    branch cut, so the residual at the lower pole (conjugate=True) is the
    conjugate of the upper pole's: the same r and f, with i and p negated.
    """
    gains = np.array([[params.kp, params.ti, params.td]])
    powers = _powers(problem, np.array([[params.lam, params.delta]]))
    r, i, p, f = (float(column[0]) for column in _residual_columns(problem, gains, powers))
    if conjugate:
        i, p = -i, -p
    return ResidualValue(r=r, i=i, p=p, f=f)


def default_pso_config(problem: TuningProblem, **overrides) -> PsoConfig:
    """Optimizer setup over the problem's box; overrides set other PsoConfig fields."""
    lower, upper = problem.box
    return PsoConfig(lower_bounds=lower, upper_bounds=upper, **overrides)


def solve_gains(
    position: np.ndarray, problem: TuningProblem
) -> tuple[np.ndarray, float, float] | None:
    """The position with (ti, td) solved so that R = SOLVE_REAL_TARGET, I = 0, its f and floor.

    The cleared residual Dp(p) + Np(p)*(kp + ti*p^-lam + td*p^delta) is affine
    in (ti, td), so with (kp, lam, delta) held the two real equations are a
    2x2 linear system. The powers of p are the ones TuningProblem.fitness
    uses, and f comes from the same kernel, so it equals
    residual(problem.decode(solved), problem).f bit for bit. Returns None when
    the system is singular or its solution leaves the parameter box.

    The floor is the largest f the kernel can show at a point whose exact
    residual is R + 0j, when its rounding moves r and i each by at most
    E = eps*(|Dp| + |Np|*(|kp| + |ti*p^-lam| + |td*p^delta|)): then
    f <= R + 2E + atan(E/(R - E)). That E is a measured bound, not the worst
    case. The first-order worst case of the kernel's six or so roundings in
    a row is about 3.6 E (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3), but they do not line up: over 20,000 random in-box
    solved points per bundled plant/mode pair, the kernel's rounding reached
    0.47 E, and |I| itself, the solve's own error included, 0.78 E.
    """
    solved = np.array(position, dtype=float)
    if solved.shape != (problem.dims,):
        raise ValueError(f"{problem.mode} mode expects a {problem.dims}-vector")
    powers = _position_powers(problem, solved[np.newaxis])
    den_value, num_value = problem.plant_at_pole
    kp = float(solved[0])
    base = den_value + kp * num_value
    u, v = (num_value * power for power in powers[0].tolist())
    det = u.real * v.imag - v.real * u.imag
    if det == 0.0:
        return None
    rhs_r = SOLVE_REAL_TARGET - base.real
    rhs_i = -base.imag
    ti = (rhs_r * v.imag - v.real * rhs_i) / det
    td = (u.real * rhs_i - u.imag * rhs_r) / det
    solved[1] = ti
    solved[2] = td
    lower, upper = problem.box
    # Written so that a NaN or infinite solution also counts as outside.
    if not all(
        lo <= x <= hi for lo, x, hi in zip(lower.tolist(), solved.tolist(), upper.tolist())
    ):
        return None
    fitness = float(_residual_columns(problem, solved[np.newaxis, :3], powers)[3][0])
    error = sys.float_info.epsilon * (
        abs(den_value) + abs(kp * num_value) + abs(ti) * abs(u) + abs(td) * abs(v)
    )
    floor = (
        SOLVE_REAL_TARGET
        + 2.0 * error
        + math.atan2(error, max(SOLVE_REAL_TARGET - error, 0.0))
    )
    return solved, fitness, floor


def tune(problem: TuningProblem, pso: PsoConfig) -> tuple[ControllerParams, SwarmResult]:
    """Minimize the residual fitness with the swarm, solving for (ti, td) on the way.

    Each time the swarm's gbest improves (and on the first one), solve_gains()
    keeps its (kp, lam, delta), solves the gains (ti, td) exactly and scores
    the solved point; it is minimize()'s polish step. A solved point counts
    only if it lies in the box and its fitness is strictly lower than the
    gbest it came from. The swarm stops (stop_reason "solve") as soon as
    such a point meets the target, or ("floor") as soon as one is at or below
    the floor solve_gains() gives it; otherwise the last solved point is kept
    after a "target" or "budget" stop if it is lower. A kept point's fitness
    becomes best_fitness and the last fitness_history entry (the history
    keeps iterations_run + 1 entries), and its floor result.fitness_floor.
    result.swarm_fitness keeps the swarm's own gbest either way.

    The returned parameters reproduce the reported fitness exactly:
    residual(params, problem).f == result.best_fitness. Non-convergence
    (best fitness above target) is not an error; callers decide how to flag
    it.
    """
    # Bounds of the other mode have another length, so they never compare equal.
    lower, upper = problem.box
    if not (
        np.array_equal(pso.lower_bounds, lower)
        and np.array_equal(pso.upper_bounds, upper)
    ):
        raise ValueError(
            f"optimizer bounds ({pso.dims} dims) do not match the problem box of "
            f"{problem.mode} mode ({problem.dims} dims)"
        )

    result = minimize(pso, problem.fitness, polish=partial(solve_gains, problem=problem))
    return problem.decode(result.best_position), result
