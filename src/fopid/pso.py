"""Bounded continuous particle swarm optimizer (global best, synchronous).

Velocity and position of every particle follow the classic inertia-weight
update: per dimension,

    v <- inertia*v + cognitive*phi1*(pbest - x) + social*phi2*(gbest - x)
    x <- x + v

with phi1, phi2 drawn fresh, uniformly on [0, 1], per particle and per
dimension. Positions are clamped to the search box; velocities are clamped
componentwise to velocity_limit_fraction * (upper - lower). The global best
is advanced only after all fitness evaluations of an iteration complete, and
personal/global bests are replaced only on strict improvement, which keeps
runs deterministic for a fixed seed.

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
from dataclasses import dataclass, field
from typing import Callable, Literal

import numpy as np

# (N, dims) positions -> (N,) fitness values.
FitnessFunction = Callable[[np.ndarray], np.ndarray]
# A deterministic local step from one position: the improved point and its
# fitness, or None when it has nothing to offer.
PolishFunction = Callable[[np.ndarray], tuple[np.ndarray, float] | None]
StopReason = Literal["solve", "target", "budget"]


@dataclass
class PsoConfig:
    """Swarm geometry, coefficients, bounds, and stopping rule."""

    dims: int
    lower_bounds: np.ndarray
    upper_bounds: np.ndarray
    swarm_size: int = 30
    inertia: float = 0.729
    cognitive: float = 1.494
    social: float = 1.494
    max_iterations: int = 500
    target_fitness: float = 1e-6
    seed: int = 0
    # Fraction of (upper - lower) used as the componentwise velocity clamp.
    velocity_limit_fraction: float = 1.0
    # The clamp itself and its negative, set once from the fields above.
    velocity_limit: np.ndarray = field(init=False, repr=False, compare=False)
    velocity_floor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.lower_bounds = np.asarray(self.lower_bounds, dtype=float)
        self.upper_bounds = np.asarray(self.upper_bounds, dtype=float)
        if self.dims < 1:
            raise ValueError("dims must be >= 1")
        if self.lower_bounds.shape != (self.dims,) or self.upper_bounds.shape != (
            self.dims,
        ):
            raise ValueError("bounds must be vectors of length dims")
        if not np.all(self.lower_bounds < self.upper_bounds):
            raise ValueError("every lower bound must be strictly below its upper bound")
        if min(self.inertia, self.cognitive, self.social) < 0:
            raise ValueError("inertia, cognitive and social coefficients must be >= 0")
        if self.swarm_size < 1:
            raise ValueError("swarm_size must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.target_fitness < 0:
            raise ValueError("target_fitness must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if not 0 < self.velocity_limit_fraction <= 1:
            raise ValueError("velocity_limit_fraction must be in (0, 1]")
        self.velocity_limit = self.velocity_limit_fraction * (
            self.upper_bounds - self.lower_bounds
        )
        self.velocity_floor = -self.velocity_limit


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
    that point then becomes best_position and best_fitness, and replaces the
    last history entry. stop_reason is "solve" when a polished point met the
    target, "target" when the swarm's own gbest did, and "budget" when the
    iterations ran out.
    """

    best_position: np.ndarray
    best_fitness: float
    iterations_run: int
    fitness_history: list[float]
    swarm_fitness: float
    stop_reason: StopReason


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
        config.inertia * swarm.velocity
        + config.cognitive * phi[:, 0] * (swarm.best_positions - swarm.position)
        + config.social * phi[:, 1] * (best_position - swarm.position)
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
    polished: tuple[np.ndarray, float] | None,
    iterations: int,
) -> StopReason | None:
    """Why the run stops now, or None to run another iteration."""
    if (
        polished is not None
        and polished[1] < best_fitness
        and polished[1] <= config.target_fitness
    ):
        return "solve"
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
    strictly below the gbest it came from and meets target_fitness. On a
    "target" or "budget" stop, the latest polished point is kept if it is
    below the final gbest. Either way the kept point replaces the last
    history entry.
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
    if polished is not None and polished[1] < best_fitness:
        best_position, best_fitness = polished
        history[-1] = best_fitness
    return SwarmResult(
        best_position.copy(), best_fitness, iterations, history, swarm_fitness, stop_reason
    )
