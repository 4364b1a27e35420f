"""Tests for pole placement, the residual fitness, and tuning."""

import cmath
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fopid import benchmarks
from fopid.cpower import cpow
from fopid.plant import ControllerParams, FractionalPolynomial, FractionalTransferFunction
from fopid.pso import PsoConfig, minimize
from fopid.tuning import (
    SOLVE_REAL_TARGET,
    DesignSpec,
    DominantPoles,
    ParameterBounds,
    ResidualValue,
    TuningProblem,
    _phase,
    default_pso_config,
    poles_from_damping,
    residual,
    solve_gains,
    spec_to_damping,
    tune,
)

INTEGER_PARAMS = ControllerParams(214.84, 361.57, 76.76, 1.0, 1.0)
FRACTIONAL_PARAMS = ControllerParams(442.68, 324.03, 115.27, 1.5, 1.41)


class TestPolesFromDamping:
    def test_design_point(self):
        poles = poles_from_damping(0.65, 2.2)
        assert poles.x == pytest.approx(1.43, rel=1e-12)
        assert poles.y == pytest.approx(1.672, abs=5e-4)

    def test_nearly_undamped(self):
        poles = poles_from_damping(1e-9, 3.0)
        assert poles.x == pytest.approx(0.0, abs=1e-8)
        assert poles.y == pytest.approx(3.0, rel=1e-12)

    def test_half_damping(self):
        poles = poles_from_damping(0.5, 2.0)
        assert poles.x == 1.0
        assert poles.y == pytest.approx(math.sqrt(3.0), rel=1e-15)

    def test_radius_and_decay_invariants(self):
        for zeta, omega0 in [(0.1, 0.5), (0.65, 2.2), (0.93, 11.0)]:
            poles = poles_from_damping(zeta, omega0)
            assert math.hypot(poles.x, poles.y) == pytest.approx(omega0, rel=1e-12)
            assert poles.x == pytest.approx(zeta * omega0, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            poles_from_damping(1.0, 2.0)
        with pytest.raises(ValueError):
            poles_from_damping(0.5, 0.0)

    def test_pole_pair_values(self):
        poles = DominantPoles(1.43, 1.67)
        assert poles.upper == complex(-1.43, 1.67)
        assert poles.lower == complex(-1.43, -1.67)


class TestSpecToDamping:
    def test_ten_percent_overshoot(self):
        zeta, omega0 = spec_to_damping(0.10, 0.3)
        assert zeta == pytest.approx(0.5912, abs=1e-4)
        assert omega0 == pytest.approx(9.1057, abs=1e-3)

    def test_round_trip_through_overshoot_formula(self):
        # Independent check: zeta must invert the overshoot relation
        # mp = exp(-pi*zeta/sqrt(1-zeta^2)).
        for mp in (0.02, 0.1, 0.35, 0.8):
            zeta, _ = spec_to_damping(mp, 1.0)
            back = math.exp(-math.pi * zeta / math.sqrt(1.0 - zeta * zeta))
            assert back == pytest.approx(mp, rel=1e-12)

    def test_full_overshoot_limit(self):
        zeta, _ = spec_to_damping(0.999999, 1.0)
        assert zeta == pytest.approx(0.0, abs=1e-5)

    def test_exp_minus_pi_gives_sqrt_half(self):
        zeta, _ = spec_to_damping(math.exp(-math.pi), 1.0)
        assert zeta == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)


class TestDesignSpec:
    def test_damping_form(self):
        spec = DesignSpec(zeta=0.65, omega0=2.2)
        assert spec.damping() == (0.65, 2.2)

    def test_overshoot_form(self):
        spec = DesignSpec(mp=0.1, trise=0.3)
        zeta, _ = spec.damping()
        assert zeta == pytest.approx(0.5912, abs=1e-4)

    def test_rejects_mixed_and_partial_forms(self):
        with pytest.raises(ValueError):
            DesignSpec(zeta=0.5, omega0=1.0, mp=0.1, trise=0.3)
        with pytest.raises(ValueError):
            DesignSpec(zeta=0.5)
        with pytest.raises(ValueError):
            DesignSpec()

    def test_rejects_overdamped(self):
        with pytest.raises(ValueError, match="zeta"):
            DesignSpec(zeta=1.2, omega0=2.0)

    @pytest.mark.parametrize(
        "values, field_name",
        [
            ({"mp": 1.5, "trise": 0.3}, "mp"),
            ({"mp": 0.1, "trise": 0.0}, "trise"),
            ({"zeta": 0.0, "omega0": 2.0}, "zeta"),
            ({"zeta": 0.5, "omega0": -1.0}, "omega0"),
            ({"zeta": 0.5, "omega0": math.inf}, "finite"),
        ],
    )
    def test_range_checked_when_built(self, values, field_name):
        with pytest.raises(ValueError, match=field_name):
            DesignSpec(**values)


class TestResidual:
    def test_reference_integer_parameters_nearly_solve(self):
        value = residual(INTEGER_PARAMS, benchmarks.fractional_problem("integer"))
        assert value.r == pytest.approx(0.116, abs=2e-3)
        assert abs(value.i) < 0.01
        assert value.f < 0.2

    def test_no_integral_or_derivative_action(self):
        problem = benchmarks.fractional_problem()
        for kp in (1.0, 57.0, 813.0):
            value = residual(ControllerParams(kp, 0.0, 0.0, 1.0, 1.0), problem)
            assert value.i == pytest.approx(-3.428, abs=5e-3)

    def test_zero_controller_equals_plant_denominator(self):
        # With no control action the cleared expression reduces to the plant
        # denominator at the pole (not 1: the expression is denominator-cleared).
        problem = benchmarks.fractional_problem()
        pole = problem.poles.upper
        expected = problem.plant.denominator.evaluate(pole)
        value = residual(ControllerParams(0.0, 0.0, 0.0, 1.0, 1.0), problem)
        assert value.r == expected.real
        assert value.i == expected.imag
        assert value.f == abs(value.r) + abs(value.i) + abs(value.p)

    def test_mode_consistency_at_unit_orders(self):
        problem = benchmarks.fractional_problem()
        pole = problem.poles.upper
        rng = np.random.default_rng(8)
        for _ in range(50):
            kp, ti, td = rng.uniform(1.0, 500.0, size=3)
            value = residual(ControllerParams(kp, ti, td, 1.0, 1.0), problem)
            gc = kp + ti / pole + td * pole
            direct = problem.plant.denominator.evaluate(pole) + gc
            assert value.r == pytest.approx(direct.real, rel=1e-12)
            assert value.i == pytest.approx(direct.imag, rel=1e-12)

    def test_conjugate_pole_has_identical_fitness(self):
        rng = np.random.default_rng(9)
        for problem in (benchmarks.fractional_problem(), benchmarks.servo_problem()):
            for _ in range(25):
                params = ControllerParams(
                    rng.uniform(1, 1000), rng.uniform(1, 500), rng.uniform(1, 500),
                    rng.uniform(0, 2), rng.uniform(0, 2),
                )
                upper = residual(params, problem)
                lower = residual(params, problem, conjugate=True)
                assert lower.r == upper.r
                assert lower.i == -upper.i
                assert lower.f == upper.f

    def test_phase_stays_in_half_interval(self):
        rng = np.random.default_rng(10)
        problem = benchmarks.servo_problem()
        for _ in range(50):
            params = ControllerParams(
                rng.uniform(1, 1000), rng.uniform(1, 500), rng.uniform(1, 500),
                rng.uniform(0, 2), rng.uniform(0, 2),
            )
            value = residual(params, problem)
            assert -math.pi / 2 <= value.p <= math.pi / 2
            assert value.f == abs(value.r) + abs(value.i) + abs(value.p)

    def test_servo_integer_parameters(self):
        value = residual(
            ControllerParams(3.2, 5.41, 1.0, 1.0, 1.0),
            benchmarks.servo_problem("integer"),
        )
        assert value.r == pytest.approx(-3.6138, abs=1e-3)
        assert value.i == pytest.approx(0.0544, abs=1e-3)

    def test_pole_collision_raises(self):
        # Denominator (s - p)(s - conj p) = s^2 + 2.86 s + 4.84 vanishes at
        # the design pole.
        plant = FractionalTransferFunction.from_terms(
            [(1.0, 0.0)], [(1.0, 2.0), (2.86, 1.0), (4.84, 0.0)]
        )
        with pytest.raises(ValueError, match="vanishes"):
            TuningProblem(plant, poles_from_damping(0.65, 2.2))

    def test_plant_evaluated_once_per_problem(self, monkeypatch):
        problem = benchmarks.servo_problem()
        poles = (problem.poles.upper, problem.poles.lower)
        for (pole, den_value, num_value), log_pole, expected in zip(
            problem.plant_at_poles, problem.log_poles, poles
        ):
            assert pole == expected
            assert den_value == problem.plant.denominator.evaluate(pole)
            assert num_value == problem.plant.numerator.evaluate(pole)
            assert log_pole == cmath.log(pole)
        # The lower pole's logarithm is the exact conjugate of the upper's.
        assert problem.log_poles[1] == problem.log_poles[0].conjugate()

        def evaluate(self, s):
            raise AssertionError("plant evaluated after construction")

        monkeypatch.setattr(FractionalPolynomial, "evaluate", evaluate)
        residual(FRACTIONAL_PARAMS, problem)
        residual(FRACTIONAL_PARAMS, problem, conjugate=True)
        tune(problem, default_pso_config(problem, max_iterations=3))


def cpow_residual(params, problem, conjugate=False):
    """Reference: the residual in scalar complex arithmetic through cpow."""
    pole, den_value, num_value = problem.plant_at_poles[1 if conjugate else 0]
    gc_value = (
        params.kp
        + params.ti * cpow(pole, -params.lam)
        + params.td * cpow(pole, params.delta)
    )
    expression = den_value + gc_value * num_value
    r, i = expression.real, expression.imag
    p = _phase(r, i)
    return ResidualValue(r=r, i=i, p=p, f=abs(r) + abs(i) + abs(p))


def box_draws(rng, count):
    """(count, 5) positions drawn as the acceptance criteria draw parameters."""
    return np.array(
        [
            [rng.uniform(1.0, 1000.0), rng.uniform(1.0, 500.0), rng.uniform(1.0, 500.0),
             rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)]
            for _ in range(count)
        ]
    )


def in_box_swarm(problem, rng, count=30):
    lower, upper = problem.bounds.vectors(problem.mode)
    return lower + rng.random((count, problem.dims)) * (upper - lower)


BUNDLED_PROBLEMS = [
    make(mode)
    for make in (benchmarks.fractional_problem, benchmarks.servo_problem)
    for mode in ("fractional", "integer")
]


class TestFitnessKernel:
    def assert_matches_cpow(self, problem, positions, conjugate=False):
        if conjugate:
            values = [residual(problem.decode(row), problem, conjugate=True).f
                      for row in positions]
        else:
            values = problem.fitness(positions)
        for row, value in zip(positions, values):
            expected = cpow_residual(problem.decode(row), problem, conjugate).f
            assert value == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_matches_cpow_on_criterion_2_draws(self):
        problem = TuningProblem(benchmarks.fractional_plant(), benchmarks.rounded_polar_pole())
        positions = box_draws(np.random.default_rng(20260808), 1000)
        self.assert_matches_cpow(problem, positions)

    def test_matches_cpow_on_criterion_8_draws(self):
        rng = np.random.default_rng(88)
        for problem in (benchmarks.fractional_problem(), benchmarks.servo_problem()):
            positions = box_draws(rng, 100)
            self.assert_matches_cpow(problem, positions)
            self.assert_matches_cpow(problem, positions, conjugate=True)

    @pytest.mark.parametrize("problem", BUNDLED_PROBLEMS, ids=lambda p: p.mode)
    def test_rows_equal_one_row_residual_bit_for_bit(self, problem):
        rng = np.random.default_rng(21)
        for count in (1, 7, 30, 64):
            positions = in_box_swarm(problem, rng, count)
            values = problem.fitness(positions)
            assert values.shape == (count,)
            for row, value in zip(positions, values):
                assert residual(problem.decode(row), problem).f == value
                assert problem.fitness(row[np.newaxis])[0] == value

    def test_phase_conventions_on_the_imaginary_axis_and_origin(self):
        # The fractional plant's numerator is 1, so kp = -Re Dp(p) with no
        # integral or derivative action leaves r = 0 exactly; a constant
        # denominator c with kp = -c leaves r = i = 0.
        axis = benchmarks.fractional_problem()
        den_value = axis.plant_at_poles[0][1]
        origin = TuningProblem(
            FractionalTransferFunction.from_terms([(1.0, 0.0)], [(2.0, 0.0)]),
            benchmarks.design_poles(),
        )
        on_axis_phase = math.copysign(math.pi / 2, den_value.imag)
        cases = [
            (axis, [-den_value.real, 0.0, 0.0, 1.5, 0.5], on_axis_phase),
            (origin, [-2.0, 0.0, 0.0, 1.5, 0.5], 0.0),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for problem, special, phase in cases:
                positions = np.array([[10.0, 20.0, 30.0, 0.5, 0.5], special, special])
                values = problem.fitness(positions)
                value = residual(problem.decode(positions[1]), problem)
                assert value.r == 0.0
                assert value.p == phase == _phase(value.r, value.i)
                assert value.f == abs(value.i) + abs(phase)
                assert values[1] == values[2] == value.f
                assert values[0] == residual(problem.decode(positions[0]), problem).f

    def test_zero_numerator_leaves_the_plant_denominator(self):
        problem = TuningProblem(
            FractionalTransferFunction.from_terms([], [(0.8, 2.2), (1.0, 0.0)]),
            benchmarks.design_poles(),
        )
        den_value = problem.plant_at_poles[0][1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = problem.fitness(in_box_swarm(problem, np.random.default_rng(3)))
            value = residual(FRACTIONAL_PARAMS, problem)
        assert (value.r, value.i) == (den_value.real, den_value.imag)
        assert np.all(values == value.f)

    def test_rejects_positions_of_the_wrong_shape(self):
        problem = benchmarks.fractional_problem("integer")
        for shape in ((3,), (4, 5), (4, 2)):
            with pytest.raises(ValueError, match="shape"):
                problem.fitness(np.ones(shape))


class TestClosedFormOracle:
    def test_agreement_at_matching_pole(self):
        # The oracle's constants encode the design pole in rounded polar
        # form; the generic residual must agree there to ~1e-3 (limited by
        # the 4-figure constants).
        problem = TuningProblem(
            benchmarks.fractional_plant(), benchmarks.rounded_polar_pole()
        )
        rng = np.random.default_rng(11)
        for _ in range(100):
            params = ControllerParams(
                rng.uniform(1, 1000), rng.uniform(1, 500), rng.uniform(1, 500),
                rng.uniform(0, 2), rng.uniform(0, 2),
            )
            generic = residual(params, problem)
            oracle = benchmarks.closed_form_residual(params)
            assert generic.r == pytest.approx(oracle.r, abs=1e-3)
            assert generic.i == pytest.approx(oracle.i, abs=1e-3)
            assert generic.f == pytest.approx(oracle.f, abs=1e-3)

    def test_offsets_without_integral_derivative_action(self):
        value = benchmarks.closed_form_residual(ControllerParams(10.0, 0.0, 0.0, 1.0, 1.0))
        assert value.r == 10.0 + 1.0 + 0.875
        assert value.i == -3.428

    def test_ti_cosine_term_vanishes_at_quadrature(self):
        lam = 90.0 / 130.57
        a = benchmarks.closed_form_residual(ControllerParams(5.0, 100.0, 0.0, lam, 1.0))
        b = benchmarks.closed_form_residual(ControllerParams(5.0, 400.0, 0.0, lam, 1.0))
        assert a.r == pytest.approx(b.r, abs=1e-9)


class TestTune:
    def test_integer_mode_pins_unit_orders(self):
        problem = benchmarks.fractional_problem("integer")
        config = default_pso_config(problem, seed=3, swarm_size=15, max_iterations=60)
        params, result = tune(problem, config)
        assert params.lam == 1.0
        assert params.delta == 1.0
        assert residual(params, problem).f == result.best_fitness

    def test_parameters_respect_bounds(self):
        problem = benchmarks.servo_problem()
        config = default_pso_config(problem, seed=4, swarm_size=15, max_iterations=60)
        params, result = tune(problem, config)
        bounds = problem.bounds
        assert bounds.kp[0] <= params.kp <= bounds.kp[1]
        assert bounds.ti[0] <= params.ti <= bounds.ti[1]
        assert bounds.td[0] <= params.td <= bounds.td[1]
        assert bounds.lam[0] <= params.lam <= bounds.lam[1]
        assert bounds.delta[0] <= params.delta <= bounds.delta[1]
        assert result.best_fitness == residual(params, problem).f

    def test_dims_mismatch_rejected(self):
        problem = benchmarks.fractional_problem("integer")
        lower, upper = ParameterBounds().vectors("fractional")
        config = PsoConfig(dims=5, lower_bounds=lower, upper_bounds=upper)
        with pytest.raises(ValueError, match="dims"):
            tune(problem, config)

    def test_bounds_mismatch_rejected(self):
        problem = benchmarks.fractional_problem()
        lower, upper = ParameterBounds().vectors("fractional")
        config = PsoConfig(dims=5, lower_bounds=lower * 0.5, upper_bounds=upper)
        with pytest.raises(ValueError, match="bounds"):
            tune(problem, config)

    def test_characteristic_magnitude_bounded_by_fitness(self):
        # |1 + Gc(p)Gp(p)| = |cleared residual| / |Dp(p)| <= sqrt(2) * f
        # whenever |Dp(p)| >= 1, which holds for both bundled plants.
        from fopid.plant import controller_tf

        for problem in (
            benchmarks.fractional_problem("integer"),
            benchmarks.servo_problem("integer"),
        ):
            config = default_pso_config(problem, seed=5, swarm_size=20,
                                        max_iterations=150)
            params, result = tune(problem, config)
            pole = problem.poles.upper
            gc = controller_tf(params).evaluate(pole)
            gp = problem.plant.evaluate(pole)
            assert abs(1 + gc * gp) < math.sqrt(2) * result.best_fitness


def assert_tune_contracts(problem, params, result):
    """The guarantees tune() documents for its (params, SwarmResult) pair."""
    assert residual(params, problem).f == result.best_fitness
    assert problem.decode(result.best_position) == params
    history = result.fitness_history
    assert len(history) == result.iterations_run + 1
    assert history[-1] == result.best_fitness
    assert all(later <= earlier for earlier, later in zip(history, history[1:]))
    assert result.best_fitness <= result.swarm_fitness
    lower, upper = problem.bounds.vectors(problem.mode)
    assert np.all((lower <= result.best_position) & (result.best_position <= upper))


class TestSolveGains:
    def test_solved_point_hits_real_target(self):
        problem = benchmarks.fractional_problem("fractional")
        config = default_pso_config(problem, seed=0, swarm_size=15, max_iterations=60)
        swarm = minimize(config, problem.fitness)
        solved = solve_gains(swarm.best_position, problem)
        assert solved is not None
        # Only (ti, td) move; kp and the orders keep the swarm's values.
        assert np.array_equal(solved[[0, 3, 4]], swarm.best_position[[0, 3, 4]])
        value = residual(problem.decode(solved), problem)
        assert value.r == pytest.approx(SOLVE_REAL_TARGET, abs=1e-9)
        assert abs(value.i) < 1e-9

    def test_solution_outside_narrowed_box_rejected(self):
        problem = benchmarks.fractional_problem("fractional")
        config = default_pso_config(problem, seed=0, swarm_size=15, max_iterations=60)
        position = minimize(config, problem.fitness).best_position
        solved = solve_gains(position, problem)
        narrowed = replace(
            problem, bounds=ParameterBounds(ti=(1.0, 0.999 * solved[1]))
        )
        assert solve_gains(position, narrowed) is None

    def test_falls_back_to_swarm_point_outside_box(self):
        # Servo plant, fractional mode, seed 0: the solve wants td just below
        # its lower bound 1, so tune() must return minimize()'s result as is.
        problem = benchmarks.servo_problem("fractional")
        config = default_pso_config(problem, seed=0)
        swarm = minimize(config, problem.fitness)
        assert solve_gains(swarm.best_position, problem) is None
        params, result = tune(problem, config)
        assert np.array_equal(result.best_position, swarm.best_position)
        assert result.best_fitness == swarm.best_fitness == result.swarm_fitness
        assert result.fitness_history == swarm.fitness_history
        assert result.iterations_run == swarm.iterations_run
        assert_tune_contracts(problem, params, result)

    def test_never_raises_fitness(self):
        # This integer-mode run stops below the 1e-6 target, under the floor
        # the solve reaches, so the swarm's point must be kept.
        problem = benchmarks.fractional_problem("integer")
        config = default_pso_config(problem, seed=0)
        swarm = minimize(config, problem.fitness)
        assert swarm.best_fitness <= config.target_fitness
        params, result = tune(problem, config)
        assert result.best_fitness <= swarm.best_fitness
        assert result.swarm_fitness == swarm.best_fitness
        assert_tune_contracts(problem, params, result)

    def test_kept_solution_meets_contracts(self):
        for problem in (
            benchmarks.fractional_problem("fractional"),
            benchmarks.servo_problem("integer"),
        ):
            config = default_pso_config(problem, seed=1, swarm_size=15, max_iterations=60)
            swarm = minimize(config, problem.fitness)
            params, result = tune(problem, config)
            assert result.best_fitness < swarm.best_fitness
            assert result.swarm_fitness == swarm.best_fitness
            assert result.iterations_run == swarm.iterations_run
            assert result.fitness_history[:-1] == swarm.fitness_history[:-1]
            assert_tune_contracts(problem, params, result)

    def test_deterministic_for_fixed_seed(self):
        problem = benchmarks.servo_problem("fractional")
        config = default_pso_config(problem, seed=2, swarm_size=15, max_iterations=60)
        first_params, first = tune(problem, config)
        second_params, second = tune(problem, config)
        assert first_params == second_params
        assert np.array_equal(first.best_position, second.best_position)
        assert first.fitness_history == second.fitness_history
        assert first.swarm_fitness == second.swarm_fitness
