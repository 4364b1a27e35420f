"""Tests for the particle swarm optimizer."""

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
import pytest

from fopid import benchmarks
from fopid.pso import (
    COGNITIVE,
    INERTIA,
    SOCIAL,
    VELOCITY_FRACTION,
    PsoConfig,
    Swarm,
    initialize,
    minimize,
    step,
)
from fopid.tuning import default_pso_config, solve_gains


def sphere(positions):
    return np.sum(positions * positions, axis=1)


def one_row(fitness, position):
    """The fitness of a single position, through a one-row batch."""
    return float(fitness(position[np.newaxis])[0])


def make_config(**overrides):
    settings = dict(
        lower_bounds=np.full(5, -10.0),
        upper_bounds=np.full(5, 10.0),
    )
    settings.update(overrides)
    return PsoConfig(**settings)


def evaluated_swarm(config, rng, fitness=sphere):
    """A fresh swarm with its personal-best values recorded, and its leader."""
    swarm = initialize(config, rng)
    swarm.best_values = fitness(swarm.position)
    leader = int(np.argmin(swarm.best_values))
    return swarm, swarm.best_positions[leader].copy(), float(swarm.best_values[leader])


# --- reference: the swarm as a list of particles, moved and evaluated one at
# a time, each through a one-row call of the batched fitness ------------------


@dataclass
class ReferenceParticle:
    position: np.ndarray
    velocity: np.ndarray
    best_position: np.ndarray
    best_fitness: float = math.inf


def reference_step(particles, best_position, best_fitness, config, rng, fitness):
    vmax = VELOCITY_FRACTION * (config.upper_bounds - config.lower_bounds)
    for particle in particles:
        phi1 = rng.random(config.dims)
        phi2 = rng.random(config.dims)
        particle.velocity = (
            INERTIA * particle.velocity
            + COGNITIVE * phi1 * (particle.best_position - particle.position)
            + SOCIAL * phi2 * (best_position - particle.position)
        )
        np.clip(particle.velocity, -vmax, vmax, out=particle.velocity)
        particle.position = particle.position + particle.velocity
        np.clip(
            particle.position, config.lower_bounds, config.upper_bounds,
            out=particle.position,
        )
        value = one_row(fitness, particle.position)
        if value < particle.best_fitness:
            particle.best_fitness = value
            particle.best_position = particle.position.copy()
    for particle in particles:
        if particle.best_fitness < best_fitness:
            best_fitness = particle.best_fitness
            best_position = particle.best_position.copy()
    return best_position, best_fitness


def reference_minimize(config, fitness, polish=None):
    """Returns (best_position, best_fitness, fitness_history, swarm_fitness,
    stop_reason, fitness_floor)."""
    rng = np.random.default_rng(config.seed)
    span = config.upper_bounds - config.lower_bounds
    particles = []
    for _ in range(config.swarm_size):
        position = config.lower_bounds + rng.random(config.dims) * span
        velocity = -span + rng.random(config.dims) * (2.0 * span)
        particles.append(ReferenceParticle(position, velocity, position.copy()))
    for particle in particles:
        particle.best_fitness = one_row(fitness, particle.position)
    best_position = particles[0].best_position.copy()
    best_fitness = particles[0].best_fitness
    for particle in particles[1:]:
        if particle.best_fitness < best_fitness:
            best_fitness = particle.best_fitness
            best_position = particle.best_position.copy()
    history = [best_fitness]
    polished = polish(best_position) if polish else None
    stop_reason = "budget"
    for _ in range(config.max_iterations + 1):
        if polished and polished[1] <= config.target_fitness and polished[1] < best_fitness:
            stop_reason = "solve"
            break
        if polished and polished[1] <= polished[2] and polished[1] < best_fitness:
            stop_reason = "floor"
            break
        if best_fitness <= config.target_fitness:
            stop_reason = "target"
            break
        if len(history) > config.max_iterations:
            break
        best_position, best_fitness = reference_step(
            particles, best_position, best_fitness, config, rng, fitness
        )
        history.append(best_fitness)
        if polish and history[-1] < history[-2]:
            polished = polish(best_position)
    swarm_fitness = best_fitness
    floor = None
    if polished and polished[1] < best_fitness:
        best_position, best_fitness, floor = polished
        history[-1] = best_fitness
    return best_position, best_fitness, history, swarm_fitness, stop_reason, floor


def assert_matches_reference(config, fitness, polish=None):
    position, best, history, swarm_fitness, stop_reason, floor = reference_minimize(
        config, fitness, polish
    )
    result = minimize(config, fitness, polish=polish)
    assert result.best_position.tobytes() == position.tobytes()
    assert result.best_fitness == best
    assert result.fitness_history == history
    assert result.iterations_run == len(history) - 1
    assert result.swarm_fitness == swarm_fitness
    assert result.stop_reason == stop_reason
    assert result.fitness_floor == floor


def halve_if_positive(positions_seen, floor=0.0):
    """A polish for sphere: x/2 when x[0] > 0, else nothing; records its inputs."""

    def polish(position):
        positions_seen.append(position.copy())
        if position[0] <= 0.0:
            return None
        half = position / 2.0
        return half, one_row(sphere, half), floor

    return polish


class TestConfigValidation:
    def test_bounds_order(self):
        with pytest.raises(ValueError):
            make_config(lower_bounds=np.full(5, 1.0), upper_bounds=np.full(5, 1.0))

    def test_bad_dims(self):
        # dims is the length of the bounds, so they must be non-empty vectors
        # of one length.
        assert make_config().dims == 5
        with pytest.raises(ValueError, match="non-empty"):
            make_config(lower_bounds=np.array([]), upper_bounds=np.array([]))
        with pytest.raises(ValueError, match="non-empty"):
            make_config(lower_bounds=np.zeros((1, 5)), upper_bounds=np.ones((1, 5)))
        with pytest.raises(ValueError, match="same length"):
            make_config(upper_bounds=np.full(4, 10.0))

    @pytest.mark.parametrize("name", ["swarm_size", "max_iterations", "seed"])
    def test_booleans_refused(self, name):
        # True would otherwise pass as 1, and seed=False as 0.
        for flag in (True, False):
            with pytest.raises(ValueError, match=name):
                make_config(**{name: flag})

    @pytest.mark.parametrize("name", ["swarm_size", "max_iterations", "seed"])
    def test_non_integers_refused(self, name):
        # Before the check, swarm_size=2.5 and seed=1.5 were accepted and
        # failed later inside minimize with a TypeError.
        for value in (2.5, 3.0, "3", None):
            with pytest.raises(ValueError, match=name):
                make_config(**{name: value})

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("swarm_size", 0, "swarm_size must be >= 1"),
            ("max_iterations", 0, "max_iterations must be >= 1"),
            ("seed", -1, "seed must be a non-negative integer"),
        ],
    )
    def test_out_of_range_integers_refused(self, name, value, message):
        with pytest.raises(ValueError, match=message):
            make_config(**{name: value})

    @pytest.mark.parametrize("value", [-1e-9, math.nan])
    def test_bad_target_fitness_refused(self, value):
        # NaN compares False with everything, so a check of target < 0 let
        # it through, and the swarm stopped on its floor after one iteration.
        with pytest.raises(ValueError, match="target_fitness"):
            make_config(target_fitness=value)

    @pytest.mark.parametrize("kind", [np.int32, np.int64, np.uint8])
    def test_numpy_integers_accepted(self, kind):
        config = make_config(swarm_size=kind(4), max_iterations=kind(3), seed=kind(2))
        got = minimize(config, sphere)
        expected = minimize(make_config(swarm_size=4, max_iterations=3, seed=2), sphere)
        assert np.array_equal(got.best_position, expected.best_position)
        assert got.fitness_history == expected.fitness_history


class TestInitialize:
    def test_positions_within_bounds(self):
        config = make_config(swarm_size=30)
        swarm = initialize(config, np.random.default_rng(0))
        assert swarm.position.shape == (30, 5)
        assert swarm.velocity.shape == (30, 5)
        assert np.all(swarm.position >= config.lower_bounds)
        assert np.all(swarm.position <= config.upper_bounds)
        assert np.all(np.abs(swarm.velocity) <= 20.0)
        assert np.array_equal(swarm.best_positions, swarm.position)
        assert swarm.best_positions is not swarm.position
        assert swarm.best_values.shape == (30,)
        assert np.all(swarm.best_values == math.inf)

    def test_tuning_box_containment(self):
        # The 5-D controller search box: every component of every particle
        # starts inside its own range.
        config = PsoConfig(
            lower_bounds=np.array([1.0, 1.0, 1.0, 0.0, 0.0]),
            upper_bounds=np.array([1000.0, 500.0, 500.0, 2.0, 2.0]),
            swarm_size=30,
        )
        swarm = initialize(config, np.random.default_rng(17))
        assert swarm.position.shape == (30, 5)
        assert np.all(swarm.position >= config.lower_bounds)
        assert np.all(swarm.position <= config.upper_bounds)

    def test_single_particle_tight_box(self):
        config = PsoConfig(
            lower_bounds=np.array([0.0]), upper_bounds=np.array([1.0]), swarm_size=1
        )
        swarm = initialize(config, np.random.default_rng(5))
        assert swarm.position.shape == (1, 1)
        assert 0.0 <= swarm.position[0, 0] <= 1.0

    def test_same_seed_bit_identical(self):
        config = make_config()
        a = initialize(config, np.random.default_rng(42))
        b = initialize(config, np.random.default_rng(42))
        assert np.array_equal(a.position, b.position)
        assert np.array_equal(a.velocity, b.velocity)


class TestStep:
    def test_particle_at_both_bests_keeps_only_inertia(self):
        config = make_config(swarm_size=1)
        position = np.zeros((1, 5))
        velocity = np.full((1, 5), 0.25)
        swarm = Swarm(position.copy(), velocity.copy(), position.copy(), np.zeros(1))
        step(swarm, position[0].copy(), 0.0, config, np.random.default_rng(2), sphere)
        assert swarm.velocity == pytest.approx(0.729 * velocity, rel=1e-15)
        assert swarm.position == pytest.approx(0.729 * velocity, rel=1e-15)

    def test_positions_clamped(self):
        config = make_config(swarm_size=8)
        rng = np.random.default_rng(3)
        swarm, gbest, gfit = evaluated_swarm(config, rng)
        for _ in range(20):
            gbest, gfit = step(swarm, gbest, gfit, config, rng, sphere)
            assert np.all(swarm.position >= config.lower_bounds)
            assert np.all(swarm.position <= config.upper_bounds)
            assert np.all(np.abs(swarm.velocity) <= config.velocity_limit)

    def test_matches_reference_step(self):
        config = make_config(swarm_size=6)
        rng = np.random.default_rng(9)
        swarm, gbest, gfit = evaluated_swarm(config, rng)
        particles = [
            ReferenceParticle(p.copy(), v.copy(), b.copy(), float(f))
            for p, v, b, f in zip(
                swarm.position, swarm.velocity, swarm.best_positions, swarm.best_values
            )
        ]
        reference_rng = np.random.default_rng(9)
        reference_rng.random((6, 2, 5))  # the draws initialize() consumed
        ref_best, ref_fit = gbest.copy(), gfit
        for _ in range(10):
            gbest, gfit = step(swarm, gbest, gfit, config, rng, sphere)
            ref_best, ref_fit = reference_step(
                particles, ref_best, ref_fit, config, reference_rng, sphere
            )
            assert gbest.tobytes() == ref_best.tobytes() and gfit == ref_fit
            for k, particle in enumerate(particles):
                assert swarm.position[k].tobytes() == particle.position.tobytes()
                assert swarm.velocity[k].tobytes() == particle.velocity.tobytes()
                assert swarm.best_positions[k].tobytes() == particle.best_position.tobytes()
                assert swarm.best_values[k] == particle.best_fitness

    def test_fitness_exception_keeps_its_type(self):
        class Boom(Exception):
            pass

        def broken(x):
            raise Boom("boom")

        config = make_config(swarm_size=2)
        rng = np.random.default_rng(4)
        swarm = initialize(config, rng)
        with pytest.raises(Boom, match="boom"):
            step(swarm, swarm.position[0].copy(), math.inf, config, rng, broken)
        with pytest.raises(Boom, match="boom"):
            minimize(config, broken)


class TestMinimize:
    def test_sphere_benchmark(self):
        # Classical benchmark: most seeds reach 1e-6 well within 200 iterations.
        hits = 0
        for seed in range(10):
            config = make_config(max_iterations=200, target_fitness=0.0, seed=seed)
            result = minimize(config, sphere)
            hits += result.best_fitness < 1e-6
        assert hits >= 9

    def test_constant_fitness(self):
        config = make_config(max_iterations=25, target_fitness=0.0, seed=6)
        result = minimize(config, lambda x: np.full(len(x), 3.5))
        assert result.best_fitness == 3.5
        assert result.fitness_history == [3.5] * len(result.fitness_history)

    def test_distance_to_point(self):
        target = np.array([2.5, -1.5, 3.0, 0.5, -7.0])
        config = make_config(max_iterations=300, target_fitness=0.0, seed=11)
        result = minimize(config, lambda x: np.linalg.norm(x - target, axis=1))
        assert np.all(np.abs(result.best_position - target) < 1e-4)

    def test_history_monotone_and_matches_best(self):
        config = make_config(max_iterations=60, target_fitness=0.0, seed=12)
        result = minimize(config, sphere)
        history = np.array(result.fitness_history)
        assert np.all(np.diff(history) <= 0)
        assert history[-1] == result.best_fitness
        assert len(history) == result.iterations_run + 1

    def test_deterministic_for_fixed_seed(self):
        config = make_config(max_iterations=40, seed=13)
        a = minimize(config, sphere)
        b = minimize(make_config(max_iterations=40, seed=13), sphere)
        assert np.array_equal(a.best_position, b.best_position)
        assert a.best_fitness == b.best_fitness
        assert a.fitness_history == b.fitness_history

    def test_target_stops_early(self):
        config = make_config(max_iterations=500, target_fitness=1.0, seed=14)
        result = minimize(config, sphere)
        assert result.best_fitness <= 1.0
        assert result.iterations_run < 500

    def test_pbest_never_worse_than_current_position(self):
        config = make_config(max_iterations=30, target_fitness=0.0, seed=15)
        rng = np.random.default_rng(config.seed)
        swarm, gbest, gfit = evaluated_swarm(config, rng)
        for _ in range(30):
            gbest, gfit = step(swarm, gbest, gfit, config, rng, sphere)
            current = sphere(swarm.position)
            assert np.all(swarm.best_values <= current)
            assert gfit == swarm.best_values.min()

    def test_first_minimum_leads_on_ties(self):
        # Every particle ties, so the first one is gbest and nothing replaces it.
        config = make_config(max_iterations=5, target_fitness=0.0, seed=16)
        result = minimize(config, lambda x: np.ones(len(x)))
        first = initialize(config, np.random.default_rng(16)).position[0]
        assert result.best_position.tobytes() == first.tobytes()

    def test_fitness_called_once_per_iteration_on_the_whole_swarm(self):
        shapes = []

        def recording(positions):
            shapes.append(positions.shape)
            return sphere(positions)

        config = make_config(swarm_size=12, max_iterations=20, target_fitness=0.0, seed=3)
        result = minimize(config, recording)
        assert result.iterations_run == 20
        assert shapes == [(12, 5)] * (result.iterations_run + 1)

    @pytest.mark.parametrize(
        "returned",
        [lambda x: 1.0, lambda x: np.ones(len(x) - 1), lambda x: np.ones((len(x), 1))],
        ids=["scalar", "short", "column"],
    )
    def test_fitness_must_give_one_value_per_row(self, returned):
        with pytest.raises(ValueError, match="shape"):
            minimize(make_config(swarm_size=4), returned)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_reference_on_sphere(self, seed):
        assert_matches_reference(
            make_config(max_iterations=200, target_fitness=0.0, seed=seed), sphere
        )

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("mode", ["fractional", "integer"])
    @pytest.mark.parametrize(
        "make", [benchmarks.fractional_problem, benchmarks.servo_problem]
    )
    def test_matches_reference_on_bundled_problems(self, make, mode, seed):
        problem = make(mode)
        assert_matches_reference(default_pso_config(problem, seed=seed), problem.fitness)


class TestPolish:
    @pytest.mark.parametrize("target", [0.0, 1e-3, 1.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_reference_on_sphere(self, seed, target):
        config = make_config(max_iterations=150, target_fitness=target, seed=seed)
        assert_matches_reference(config, sphere, halve_if_positive([]))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("mode", ["fractional", "integer"])
    @pytest.mark.parametrize(
        "make", [benchmarks.fractional_problem, benchmarks.servo_problem]
    )
    def test_matches_reference_on_bundled_problems(self, make, mode, seed):
        problem = make(mode)
        config = default_pso_config(problem, seed=seed)
        polish = partial(solve_gains, problem=problem)
        assert_matches_reference(config, problem.fitness, polish)

    def test_called_on_first_gbest_and_each_improvement(self):
        # A polish that never meets the target leaves the swarm's run
        # bit-identical, apart from a lower final point replacing the last entry.
        config = make_config(max_iterations=80, target_fitness=0.0, seed=5)
        seen = []
        result = minimize(config, sphere, polish=halve_if_positive(seen))
        history = result.fitness_history[:-1] + [result.swarm_fitness]
        improvements = sum(b < a for a, b in zip(history, history[1:]))
        assert len(seen) == 1 + improvements
        plain = minimize(config, sphere)
        assert result.stop_reason == plain.stop_reason == "budget"
        assert result.iterations_run == plain.iterations_run == 80
        assert result.swarm_fitness == plain.best_fitness
        assert result.fitness_history[:-1] == plain.fitness_history[:-1]
        assert result.best_fitness <= plain.best_fitness

    def test_solve_stop_needs_target_and_improvement(self):
        # Polished points that meet the target but are not below gbest, or
        # are below gbest but miss the target, never stop the run.
        config = make_config(max_iterations=30, target_fitness=0.5, seed=9)
        plain = minimize(config, sphere)
        not_lower = minimize(config, sphere, polish=lambda x: (x, one_row(sphere, x), 0.0))
        missing = minimize(config, sphere, polish=lambda x: (x / 2, 0.75, 0.0))
        for result in (not_lower, missing):
            assert result.stop_reason == plain.stop_reason
            assert result.fitness_history == plain.fitness_history
            assert result.best_position.tobytes() == plain.best_position.tobytes()

    def test_stop_reasons(self):
        config = make_config(max_iterations=50, target_fitness=1e-2, seed=10)
        assert minimize(config, sphere).stop_reason == "target"
        assert minimize(replace(config, target_fitness=0.0), sphere).stop_reason == "budget"
        solved = minimize(config, sphere, polish=lambda x: (x * 0.0, 0.0, 0.0))
        assert solved.stop_reason == "solve"
        assert solved.iterations_run == 0
        assert solved.fitness_history == [0.0]
        assert solved.best_fitness == 0.0 < solved.swarm_fitness
        assert solved.fitness_floor == 0.0
        assert minimize(config, sphere).fitness_floor is None


class TestFloorStop:
    def test_matches_reference_on_sphere(self):
        # x/2 reaches a floor of 0.1 long before the 1e-9 target; the
        # reference stops on it at the same point.
        for seed in range(3):
            config = make_config(max_iterations=150, target_fitness=1e-9, seed=seed)
            assert_matches_reference(config, sphere, halve_if_positive([], floor=0.1))

    def test_solve_wins_over_floor(self):
        # A polished point below its gbest that meets the target and its own
        # floor stops on "solve".
        config = make_config(max_iterations=50, target_fitness=1e-2, seed=10)
        result = minimize(config, sphere, polish=lambda x: (x * 0.0, 0.0, 1.0))
        assert result.stop_reason == "solve"
        assert result.iterations_run == 0
        assert result.fitness_floor == 1.0

    def test_floor_stop_above_target(self):
        config = make_config(max_iterations=50, target_fitness=0.0, seed=10)
        result = minimize(config, sphere, polish=lambda x: (x * 0.0, 0.5, 0.5))
        plain = minimize(config, sphere)
        assert plain.fitness_history[0] > 0.5
        assert result.stop_reason == "floor"
        assert result.iterations_run == 0
        assert result.best_fitness == result.fitness_floor == 0.5
        assert result.fitness_history == [0.5]
        assert result.swarm_fitness == plain.fitness_history[0]

    def test_floor_stop_needs_improvement(self):
        # A polished point at its floor but not strictly below the gbest it
        # came from leaves the run as it is without a polish.
        config = make_config(max_iterations=30, target_fitness=0.0, seed=9)
        plain = minimize(config, sphere)
        level = minimize(
            config, sphere, polish=lambda x: (x, one_row(sphere, x), math.inf)
        )
        assert level.stop_reason == plain.stop_reason == "budget"
        assert level.fitness_history == plain.fitness_history
        assert level.best_position.tobytes() == plain.best_position.tobytes()
        assert level.fitness_floor is None

    def test_zero_floor_never_stops_on_floor(self):
        # A polished f at or below a floor of 0 is 0, which meets any target,
        # so only "solve" can fire; a positive f never reaches the floor.
        config = make_config(max_iterations=40, target_fitness=0.0, seed=3)
        seen = []
        result = minimize(config, sphere, polish=halve_if_positive(seen))
        assert result.stop_reason == "budget"
        assert result.iterations_run == 40
        assert len(seen) > 1

    def test_floor_above_gbest_stops_at_first_polish_below(self):
        # An infinite floor stops the run at the first polished point below
        # its gbest, after the polish calls that came before it.
        config = make_config(max_iterations=80, target_fitness=0.0, seed=5)
        seen = []
        result = minimize(config, sphere, polish=halve_if_positive(seen, floor=math.inf))
        assert result.stop_reason == "floor"
        assert result.best_fitness < result.swarm_fitness
        assert all(position[0] <= 0.0 for position in seen[:-1])
        assert seen[-1][0] > 0.0
        assert_matches_reference(config, sphere, halve_if_positive([], floor=math.inf))
