"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they execute.
"""

import json
import math

import numpy as np
import pytest

from fopid import benchmarks
from fopid.cli import main as cli_main
from fopid.metrics import analyze
from fopid.plant import ControllerParams, closed_loop, controller_tf
from fopid.simulate import SimConfig, gl_weights, simulate_step
from fopid.tuning import TuningProblem, default_pso_config, residual, tune

INTEGER_PARAMS = ControllerParams(214.84, 361.57, 76.76, 1.0, 1.0)
FRACTIONAL_PARAMS = ControllerParams(442.68, 324.03, 115.27, 1.5, 1.41)
SERVO_INTEGER_PARAMS = ControllerParams(3.2, 5.41, 1.0, 1.0, 1.0)
SERVO_FRACTIONAL_PARAMS = ControllerParams(32.01, 10.14, 9.71, 1.19, 1.36)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def random_params(rng) -> ControllerParams:
    return ControllerParams(
        rng.uniform(1.0, 1000.0),
        rng.uniform(1.0, 500.0),
        rng.uniform(1.0, 500.0),
        rng.uniform(0.0, 2.0),
        rng.uniform(0.0, 2.0),
    )


def test_criterion_1_denominator_constants():
    """Plant denominator at the design pole embeds the split constants."""
    pole = benchmarks.design_poles().upper
    value = benchmarks.fractional_plant().denominator.evaluate(pole)
    ok = abs(value.real - 1.875) <= 5e-3 and abs(value.imag + 3.428) <= 5e-3
    report(1, ok, f"denominator at {pole:.6g} = {value.real:.6f} {value.imag:+.6f}j "
                  f"(targets 1.875, -3.428, tol 5e-3)")
    assert abs(value.real - 1.875) <= 5e-3
    assert abs(value.imag + 3.428) <= 5e-3


def test_criterion_2_closed_form_agreement():
    """Generic residual matches the hand-expanded polar form to 1e-3."""
    problem = TuningProblem(
        benchmarks.fractional_plant(), benchmarks.rounded_polar_pole()
    )
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for _ in range(1000):
        params = random_params(rng)
        generic = residual(params, problem)
        oracle = benchmarks.closed_form_residual(params)
        worst = max(
            worst,
            abs(generic.r - oracle.r),
            abs(generic.i - oracle.i),
            abs(generic.f - oracle.f),
        )
    ok = worst <= 1e-3
    report(2, ok, f"max |difference| over 1000 draws = {worst:.3e} (tol 1e-3)")
    assert worst <= 1e-3


def test_criterion_3_reference_parameter_residuals():
    """Reference parameter sets give small residuals on the fractional demo."""
    problem_int = benchmarks.fractional_problem("integer")
    problem_frac = benchmarks.fractional_problem("fractional")
    integer_value = residual(INTEGER_PARAMS, problem_int)
    fractional_value = residual(FRACTIONAL_PARAMS, problem_frac)
    ok = integer_value.f < 0.2 and fractional_value.f < 4.0
    report(
        3,
        ok,
        f"integer f = {integer_value.f:.4f} (< 0.2); "
        f"fractional f = {fractional_value.f:.4f} (< 4, dominated by the "
        f"2-decimal rounding of the reference orders)",
    )
    assert integer_value.f < 0.2
    assert fractional_value.f < 4.0


def test_criterion_4_pso_convergence():
    """Tuning reaches f < 1e-3 in >= 9 of 10 seeds for every mode/example."""
    cases = [
        ("fractional-plant fractional", benchmarks.fractional_problem("fractional")),
        ("fractional-plant integer", benchmarks.fractional_problem("integer")),
        ("servo-plant fractional", benchmarks.servo_problem("fractional")),
        ("servo-plant integer", benchmarks.servo_problem("integer")),
    ]
    counts = {}
    swarm_counts = {}
    for name, problem in cases:
        hits = swarm_hits = 0
        for seed in range(10):
            config = default_pso_config(problem, seed=seed)
            assert config.swarm_size == 30
            assert config.max_iterations == 500
            assert config.inertia == 0.729
            assert config.cognitive == config.social == 1.494
            _, result = tune(problem, config)
            hits += result.best_fitness < 1e-3
            swarm_hits += result.swarm_fitness < 1e-3
        counts[name] = hits
        swarm_counts[name] = swarm_hits
    ok = all(hits >= 9 for hits in counts.values())
    detail = "; ".join(
        f"{name}: {hits}/10 (swarm alone {swarm_counts[name]}/10)"
        for name, hits in counts.items()
    )
    report(4, ok, detail + " (need >= 9/10 each)")
    for name, hits in counts.items():
        assert hits >= 9, f"{name}: only {hits}/10 seeds reached f < 1e-3"


def test_criterion_5_simulator_oracles():
    """Integer-order simulations match analytic step responses."""
    cfg = SimConfig(time_step=1e-3, horizon=10.0)
    first = simulate_step(
        benchmarks.FractionalTransferFunction.from_terms(
            [(1.0, 0.0)], [(1.0, 1.0), (1.0, 0.0)]
        ),
        cfg,
    )
    first_error = float(np.max(np.abs(first.samples - (1 - np.exp(-first.times)))))

    zeta, omega0 = 0.65, 2.2
    second = simulate_step(
        benchmarks.FractionalTransferFunction.from_terms(
            [(omega0**2, 0.0)],
            [(1.0, 2.0), (2 * zeta * omega0, 1.0), (omega0**2, 0.0)],
        ),
        cfg,
    )
    wd = omega0 * math.sqrt(1 - zeta**2)
    t = second.times
    analytic = 1 - np.exp(-zeta * omega0 * t) * (
        np.cos(wd * t) + zeta / math.sqrt(1 - zeta**2) * np.sin(wd * t)
    )
    second_error = float(np.max(np.abs(second.samples - analytic)))
    overshoot = analyze(second).overshoot_percent

    ok = first_error < 5e-3 and second_error < 1e-2 and abs(overshoot - 6.81) <= 0.3
    report(
        5,
        ok,
        f"first-order err {first_error:.2e} (<5e-3), second-order err "
        f"{second_error:.2e} (<1e-2), overshoot {overshoot:.3f}% (6.81 +/- 0.3)",
    )
    assert first_error < 5e-3
    assert second_error < 1e-2
    assert overshoot == pytest.approx(6.81, abs=0.3)


def gl_partial_sum(alpha: float, count: int) -> float:
    """Sum of the first ``count`` GL weights in closed form.

    sum_{k<N} w_k = prod_{m=1}^{N-1} (1 - alpha/m)
                  = Gamma(N - alpha) / (Gamma(1 - alpha) Gamma(N)),
    computed through log-gamma; Gamma(N - alpha) > 0 here, so the sign is
    that of Gamma(1 - alpha).
    """
    sign = math.copysign(1.0, math.gamma(1.0 - alpha))
    return sign * math.exp(
        math.lgamma(count - alpha) - math.lgamma(1.0 - alpha) - math.lgamma(count)
    )


def test_criterion_6_gl_weight_properties():
    """Weight recurrence values, closed-form partial sums, and their decay."""
    half = gl_weights(0.5, 4)
    unit = gl_weights(1.0, 6)
    half_ok = np.allclose(half, [1.0, -0.5, -0.125, -0.0625], rtol=0, atol=1e-15)
    unit_ok = np.array_equal(unit, [1.0, -1.0, 0.0, 0.0, 0.0, 0.0])
    lengths = (501, 5001)
    errors = {}
    sums = {}
    for alpha in (0.3, 0.9, 1.41):
        for count in lengths:
            value = float(gl_weights(alpha, count).sum())
            expected = gl_partial_sum(alpha, count)
            sums[alpha, count] = value
            errors[alpha, count] = abs(value - expected) / abs(expected)
    worst = max(errors.values())
    sums_ok = worst <= 1e-9
    decay = {
        alpha: abs(sums[alpha, lengths[1]]) < abs(sums[alpha, lengths[0]])
        for alpha in (0.3, 0.9, 1.41)
    }
    ok = half_ok and unit_ok and sums_ok and all(decay.values())
    report(
        6,
        ok,
        "recurrence values ok; sums of 501 -> 5001 weights: "
        + ", ".join(
            f"alpha={a}: {sums[a, lengths[0]]:.4g} -> {sums[a, lengths[1]]:.4g}"
            for a in decay
        )
        + f"; worst relative distance from Gamma(N-a)/(Gamma(1-a)Gamma(N)) "
        f"{worst:.1e} (tol 1e-9)",
    )
    assert half_ok
    assert unit_ok
    for (alpha, count), error in errors.items():
        assert error <= 1e-9, (
            f"partial sum of {count} weights for alpha={alpha} is "
            f"{sums[alpha, count]!r}, closed form {gl_partial_sum(alpha, count)!r}"
        )
    for alpha, shrinks in decay.items():
        assert shrinks, f"partial sum for alpha={alpha} did not shrink from 501 to 5001 weights"


def test_criterion_7_figure_level_reproduction():
    """Reference controllers: overshoot windows and fractional < integer."""
    cfg = SimConfig(time_step=1e-3, horizon=3.0)
    fractional_plant = benchmarks.fractional_plant()
    servo_plant = benchmarks.servo_plant()

    def overshoot_of(params, plant):
        loop = closed_loop(controller_tf(params), plant)
        metrics = analyze(simulate_step(loop, cfg))
        assert metrics.stable, "reference parameter set simulated unstable"
        return metrics.overshoot_percent

    frac_int = overshoot_of(INTEGER_PARAMS, fractional_plant)
    frac_frac = overshoot_of(FRACTIONAL_PARAMS, fractional_plant)
    servo_int = overshoot_of(SERVO_INTEGER_PARAMS, servo_plant)
    servo_frac = overshoot_of(SERVO_FRACTIONAL_PARAMS, servo_plant)

    ok = (
        1.0 <= servo_int <= 8.0
        and frac_frac < 5.0
        and frac_frac < frac_int
        and servo_frac < servo_int
    )
    report(
        7,
        ok,
        f"servo integer {servo_int:.2f}% (in [1, 8]); fractional-plant "
        f"fractional {frac_frac:.2f}% (< 5); orderings "
        f"{frac_frac:.2f} < {frac_int:.2f} and {servo_frac:.2f} < {servo_int:.2f}",
    )
    assert 1.0 <= servo_int <= 8.0
    assert frac_frac < 5.0
    assert frac_frac < frac_int
    assert servo_frac < servo_int


def test_criterion_8_conjugate_pole_invariance():
    """Fitness is identical at the second- and third-quadrant poles."""
    rng = np.random.default_rng(88)
    worst = 0.0
    for problem in (benchmarks.fractional_problem(), benchmarks.servo_problem()):
        for _ in range(100):
            params = random_params(rng)
            upper = residual(params, problem)
            lower = residual(params, problem, conjugate=True)
            worst = max(worst, abs(upper.f - lower.f))
    ok = worst <= 1e-12
    report(8, ok, f"max |f(upper) - f(lower)| over 200 draws = {worst:.3e} (tol 1e-12)")
    assert worst <= 1e-12


def test_criterion_9_byte_identical_runs(tmp_path, capsys):
    """Same seed and config give byte-identical reports and CSVs."""
    config_text = """\
plant:
  numerator: [[1.0, 0.0]]
  denominator: [[0.8, 2.2], [0.5, 0.9], [1.0, 0.0]]
spec:
  zeta: 0.65
  omega0: 2.2
mode: both
pso:
  swarm_size: 12
  iterations: 40
  seed: 5
sim:
  time_step: 0.002
  horizon: 1.5
include_open_loop: true
controllers:
  - {kp: 214.84, ti: 361.57, td: 76.76, lambda: 1.0, delta: 1.0, label: classic}
"""
    config = tmp_path / "job.yaml"
    config.write_text(config_text)
    pairs = []
    for run in ("one", "two"):
        tune_out = tmp_path / f"tune_{run}"
        sim_out = tmp_path / f"sim_{run}"
        cli_main(["tune", "--config", str(config), "--out", str(tune_out)])
        cli_main(["simulate", "--config", str(config), "--out", str(sim_out)])
        pairs.append((tune_out, sim_out))
    (tune_a, sim_a), (tune_b, sim_b) = pairs
    same = True
    for fname in ("tune_report.json", "tune_report.txt", "manifest.json"):
        same &= (tune_a / fname).read_bytes() == (tune_b / fname).read_bytes()
    for fname in ("response_classic.csv", "response_open_loop.csv", "metrics.json"):
        same &= (sim_a / fname).read_bytes() == (sim_b / fname).read_bytes()
    with capsys.disabled():
        report(9, same, "tune reports and simulation CSVs byte-identical across reruns")
    assert same
