"""Bounded continuous particle swarm optimizer (global best, synchronous).

Velocity and position of every particle follow the constriction-coefficient
update of Clerc and Kennedy (IEEE Trans. Evol. Comput. 6(1), 2002): per
dimension,

    v <- INERTIA*v + COGNITIVE*phi1*(pbest - x) + SOCIAL*phi2*(gbest - x)
    x <- x + v

with INERTIA = 0.729, COGNITIVE = SOCIAL = 1.494, and phi1, phi2 drawn fresh,
uniformly on [0, 1], per particle and per dimension. Positions are clamped to
the search box; velocities are clamped componentwise to
VELOCITY_FRACTION * (upper - lower). The global best is advanced only after
all fitness evaluations of an iteration complete, and personal/global bests
are replaced only on strict improvement, which keeps runs deterministic for a
fixed seed.

The swarm is held as arrays, one row per particle. Random draws come in
(swarm_size, 2, dims) blocks: per particle, position then velocity at start,
phi1 then phi2 in each step.

The fitness is evaluated once per iteration on the whole swarm: it takes the
(swarm_size, dims) array of positions, must not modify it, and returns the
(swarm_size,) array of fitness values, one per row. Row k's value must not
depend on the other rows, so that a swarm's results do not depend on how
its rows are batched.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Literal

import numpy as np

# (N, dims) positions -> (N,) fitness values.
FitnessFunction = Callable[[np.ndarray], np.ndarray]
# A deterministic local step from one position: the improved point, its
# fitness, and its fitness floor (the lowest fitness that rounding lets that
# point show, 0 when there is none), or None when it has nothing to offer.
PolishFunction = Callable[[np.ndarray], tuple[np.ndarray, float, float] | None]
StopReason = Literal["solve", "floor", "target", "budget"]

# Constriction coefficients (module docstring).
INERTIA = 0.729
COGNITIVE = SOCIAL = 1.494
# Fraction of (upper - lower) used as the componentwise velocity clamp. A
# full-range clamp lets early overshoots pile the swarm onto a bound corner
# where it stalls; 0.05 measured best on the bundled problems.
VELOCITY_FRACTION = 0.05


@dataclass
class PsoConfig:
    """Search box, swarm size and stopping rule; dims is the length of the bounds."""

    lower_bounds: np.ndarray
    upper_bounds: np.ndarray
    swarm_size: int = 30
    max_iterations: int = 500
    target_fitness: float = 1e-6
    seed: int = 0
    # The velocity clamp and its negative, set once from the bounds.
    velocity_limit: np.ndarray = field(init=False, repr=False, compare=False)
    velocity_floor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.lower_bounds = np.asarray(self.lower_bounds, dtype=float)
        self.upper_bounds = np.asarray(self.upper_bounds, dtype=float)
        if self.lower_bounds.ndim != 1 or self.lower_bounds.size < 1:
            raise ValueError("bounds must be non-empty vectors")
        if self.upper_bounds.shape != self.lower_bounds.shape:
            raise ValueError("lower and upper bounds must have the same length")
        if not np.all(self.lower_bounds < self.upper_bounds):
            raise ValueError("every lower bound must be strictly below its upper bound")
        for name in ("swarm_size", "max_iterations", "seed"):
            value = getattr(self, name)
            # numpy integers are Integral, and so is bool, which is refused here.
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.swarm_size < 1:
            raise ValueError("swarm_size must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.target_fitness >= 0:
            raise ValueError("target_fitness must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        self.velocity_limit = VELOCITY_FRACTION * (self.upper_bounds - self.lower_bounds)
        self.velocity_floor = -self.velocity_limit

    @property
    def dims(self) -> int:
        return len(self.lower_bounds)


@dataclass
class Swarm:
    """Swarm state: positions, velocities and personal bests, one row per particle."""

    position: np.ndarray  # (swarm_size, dims)
    velocity: np.ndarray  # (swarm_size, dims)
    best_positions: np.ndarray  # (swarm_size, dims)
    best_values: np.ndarray  # (swarm_size,)


@dataclass
class SwarmResult:
    """Best point found, its fitness, and the per-iteration gbest trace.

    swarm_fitness is the gbest fitness the swarm itself held when it stopped.
    It equals best_fitness unless a polished point (see minimize) was lower;
    that point then becomes best_position and best_fitness, replaces the last
    history entry, and gives fitness_floor its floor (None when the swarm's
    own point is kept). stop_reason is "solve" when a polished point met the
    target, "floor" when one reached its own floor above the target, "target"
    when the swarm's own gbest met the target, and "budget" when the
    iterations ran out.
    """

    best_position: np.ndarray
    best_fitness: float
    iterations_run: int
    fitness_history: list[float]
    swarm_fitness: float
    stop_reason: StopReason
    fitness_floor: float | None


def initialize(config: PsoConfig, rng: np.random.Generator) -> Swarm:
    """Draw the starting swarm.

    Positions are uniform inside the box; velocity components are uniform in
    [-(upper-lower), +(upper-lower)]. Personal bests start at the initial
    positions with unset (infinite) fitness; the first evaluation records it.
    """
    span = config.upper_bounds - config.lower_bounds
    draws = rng.random((config.swarm_size, 2, config.dims))
    position = config.lower_bounds + draws[:, 0] * span
    velocity = -span + draws[:, 1] * (2.0 * span)
    return Swarm(position, velocity, position.copy(), np.full(config.swarm_size, math.inf))


def _clamp(values: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> None:
    """np.clip(values, lower, upper, out=values) with less call overhead."""
    np.minimum(np.maximum(values, lower, out=values), upper, out=values)


def _evaluate(fitness: FitnessFunction, positions: np.ndarray) -> np.ndarray:
    """The fitness of every row of positions, checked to be one float per row."""
    values = np.asarray(fitness(positions), dtype=float)
    if values.shape != positions.shape[:1]:
        raise ValueError(
            f"fitness returned shape {values.shape} for {len(positions)} positions"
        )
    return values


def step(
    swarm: Swarm,
    best_position: np.ndarray,
    best_fitness: float,
    config: PsoConfig,
    rng: np.random.Generator,
    fitness: FitnessFunction,
) -> tuple[np.ndarray, float]:
    """Advance the swarm one iteration; returns the (possibly new) global best.

    All particles move and are evaluated against the incumbent global best
    before it advances (synchronous update). The swarm is updated in place.
    """
    phi = rng.random((len(swarm.position), 2, config.dims))
    swarm.velocity = (
        INERTIA * swarm.velocity
        + COGNITIVE * phi[:, 0] * (swarm.best_positions - swarm.position)
        + SOCIAL * phi[:, 1] * (best_position - swarm.position)
    )
    _clamp(swarm.velocity, config.velocity_floor, config.velocity_limit)
    swarm.position = swarm.position + swarm.velocity
    _clamp(swarm.position, config.lower_bounds, config.upper_bounds)
    values = _evaluate(fitness, swarm.position)
    improved = values < swarm.best_values
    np.copyto(swarm.best_values, values, where=improved)
    np.copyto(swarm.best_positions, swarm.position, where=improved[:, np.newaxis])
    leader = int(swarm.best_values.argmin())
    if swarm.best_values[leader] < best_fitness:
        return swarm.best_positions[leader].copy(), float(swarm.best_values[leader])
    return best_position, best_fitness


def _stop_reason(
    config: PsoConfig,
    best_fitness: float,
    polished: tuple[np.ndarray, float, float] | None,
    iterations: int,
) -> StopReason | None:
    """Why the run stops now, or None to run another iteration."""
    if polished is not None and polished[1] < best_fitness:
        if polished[1] <= config.target_fitness:
            return "solve"
        if polished[1] <= polished[2]:
            return "floor"
    if best_fitness <= config.target_fitness:
        return "target"
    if iterations >= config.max_iterations:
        return "budget"
    return None


def minimize(
    config: PsoConfig, fitness: FitnessFunction, polish: PolishFunction | None = None
) -> SwarmResult:
    """Run the optimizer until the iteration budget or target fitness is hit.

    The fitness history holds the global best after initialization plus one
    entry per iteration; it is monotone non-increasing. Identical seeds give
    bit-identical results. An exception raised by the fitness function
    propagates unchanged.

    polish, when given, is called on the first gbest and again each time
    gbest strictly improves; it never touches the swarm or its random stream.
    The run stops with stop_reason "solve" as soon as a polished point is
    strictly below the gbest it came from and meets target_fitness, and with
    "floor" when such a point misses the target but is at or below its own
    floor: more iterations could only move its rounding. On a "target" or
    "budget" stop, the latest polished point is kept if it is below the final
    gbest. Either way the kept point replaces the last history entry.
    """
    rng = np.random.default_rng(config.seed)
    swarm = initialize(config, rng)
    swarm.best_values = _evaluate(fitness, swarm.position)
    leader = int(swarm.best_values.argmin())
    best_position = swarm.best_positions[leader].copy()
    best_fitness = float(swarm.best_values[leader])
    history = [best_fitness]
    iterations = 0
    polished = polish(best_position) if polish is not None else None
    while (stop_reason := _stop_reason(config, best_fitness, polished, iterations)) is None:
        previous = best_fitness
        best_position, best_fitness = step(
            swarm, best_position, best_fitness, config, rng, fitness
        )
        history.append(best_fitness)
        iterations += 1
        if polish is not None and best_fitness < previous:
            polished = polish(best_position)
    swarm_fitness = best_fitness
    fitness_floor = None
    if polished is not None and polished[1] < best_fitness:
        best_position, best_fitness, fitness_floor = polished
        history[-1] = best_fitness
    return SwarmResult(
        best_position.copy(),
        best_fitness,
        iterations,
        history,
        swarm_fitness,
        stop_reason,
        fitness_floor,
    )
