"""The three workloads of the fopid benchmark.

Each workload builds its inputs from the benchmark seed when it is
constructed (that is the set-up), then hands out passes of operations. An
operation is timed around the call into the program only. Its check runs
afterwards, untimed and untraced, and returns a failure message or None.
A tune that misses f < 1e-3 is not a failure; it counts as a miss in the
hit share.

tune_sweep
    Library ``tune()`` with ``default_pso_config`` on the four bundled
    problem/mode pairs (fractional or servo plant, fractional or integer
    mode), TUNES_PER_PAIR swarm seeds per pair in each pass, drawn from the
    benchmark seed and the pass number. It loads pso, tuning, cpower and
    plant, and bypasses simulate, metrics and cli. The servo plant in
    fractional mode misses f < 1e-3 on most seeds, so the hit share starts
    below 1 and a change in convergence shows.
simulate_long
    Library ``simulate_step`` + ``analyze`` on closed loops over HORIZON
    seconds at TIME_STEP (5e4 samples), where the full-memory history sum,
    quadratic in the sample count, takes about three quarters of the time.
    At 1e5 samples the two 0.8 MB history operands no longer fit a core's
    2 MB L2 cache beside the interpreter, and medians moved by 20% with the
    neighbours' load; at 5e4 they stay within about 5%. The loops are the four
    reference controllers on their plants, checked against checkpoint
    samples recorded in reference.json, and a first- and a second-order
    integer loop drawn from the seed, checked against their analytic step
    responses. Each loop also runs with memory_length = MEMORY. It loads
    simulate and metrics, and bypasses pso, tuning and cli.
cli_jobs
    In-process ``fopid.cli.main`` on both bundled configs: ``tune --mode
    both`` on the config as shipped, then ``simulate`` and ``verify`` on a
    generated job file holding CONTROLLERS_PER_JOB inline controllers drawn
    from the seed inside the bundled search box, at the configs' 3 s
    horizon. The whole user job: config parsing, report and CSV writing,
    and many short simulations where per-sample overhead outweighs the
    history sum. Outputs must be byte-identical across repeats in a run.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import shutil
import statistics
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from fopid import benchmarks, cli, metrics, simulate, tuning
from fopid.plant import ControllerParams, FractionalTransferFunction, closed_loop, controller_tf

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_FILE = Path(__file__).with_name("reference.json")

HIT_FITNESS = 1e-3
TUNES_PER_PAIR = 4

TIME_STEP = 1e-3
HORIZON = 50.0
MEMORY = 2000
# Deviation from the recorded checkpoints, relative to max(|y_ref|, 1): the
# unit step sets the scale of every response. A change of summation order
# alone moves samples by up to 1.6e-8 (multi- against single-threaded BLAS
# on the fractional reference loop), so the bound sits well above that and
# well below the 1e-4 that truncating the memory to MEMORY costs.
CHECKPOINT_TOL = 1e-6
# Criterion 5's bounds on the distance from the analytic step responses.
FIRST_ORDER_TOL = 5e-3
SECOND_ORDER_TOL = 1e-2

CLI_CONFIGS = ("fractional_plant", "servo_plant")
CONTROLLERS_PER_JOB = 16

REFERENCE_CONTROLLERS = {
    "fractional_plant/integer": (
        benchmarks.fractional_plant,
        ControllerParams(214.84, 361.57, 76.76, 1.0, 1.0),
    ),
    "fractional_plant/fractional": (
        benchmarks.fractional_plant,
        ControllerParams(442.68, 324.03, 115.27, 1.5, 1.41),
    ),
    "servo_plant/integer": (
        benchmarks.servo_plant,
        ControllerParams(3.2, 5.41, 1.0, 1.0, 1.0),
    ),
    "servo_plant/fractional": (
        benchmarks.servo_plant,
        ControllerParams(32.01, 10.14, 9.71, 1.19, 1.36),
    ),
}


@dataclass
class Op:
    """One timed call into the program and the check of its result."""

    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    prepare: Callable[[], None] | None = None
    probe: str = "interpreter"


@dataclass
class Stats:
    """What the checks observed, besides pass or fail."""

    times: dict[str, list[float]] = field(default_factory=dict)
    norm: dict[str, list[float]] = field(default_factory=dict)
    hits: int = 0
    trials: int = 0
    outcomes: Counter = field(default_factory=Counter)
    max_rel_dev: float = 0.0
    bytes_written: dict[str, int] = field(default_factory=dict)

    def record_hit(self, hit: bool) -> None:
        self.hits += hit
        self.trials += 1

    @property
    def hit_share(self) -> float:
        return self.hits / self.trials if self.trials else 0.0

    def outcome_shares(self) -> dict[str, float]:
        total = sum(self.outcomes.values()) or 1
        return {key: self.outcomes[key] / total for key in ("stable", "unsettled", "diverged")}


def timing(stats: Stats, *kinds: str) -> dict:
    """Median wall time of the given kinds of operation, with its sample count,
    the highest percentile that has ten samples beyond it, and the median of
    the probe-normalised times that the gated metrics use."""
    values = [value for kind in kinds for value in stats.times[kind]]
    summary = {"value": statistics.median(values), "unit": "s", "n": len(values)}
    if len(values) >= 20:
        q = math.floor(100 * (len(values) - 10) / len(values))
        summary[f"p{q}"] = statistics.quantiles(values, n=100)[q - 1]
    summary["normalised_s"] = statistics.median(
        value for kind in kinds for value in stats.norm[kind]
    )
    return summary


def in_box(params: ControllerParams, problem: tuning.TuningProblem) -> bool:
    values = [params.kp, params.ti, params.td]
    if problem.mode == "fractional":
        values += [params.lam, params.delta]
    elif (params.lam, params.delta) != (1.0, 1.0):
        return False
    lower, upper = problem.bounds.vectors(problem.mode)
    values = np.array(values)
    return bool(np.all((lower <= values) & (values <= upper)))


class TuneSweep:
    name = "tune_sweep"

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.stats = Stats()
        self.problems = [
            (f"{plant}/{mode}", make(mode))
            for plant, make in (
                ("fractional_plant", benchmarks.fractional_problem),
                ("servo_plant", benchmarks.servo_problem),
            )
            for mode in ("fractional", "integer")
        ]
        self.pair_hits = Counter()
        self._first_pass = self._configs(0)

    def _configs(self, pass_index: int) -> list:
        seeds = np.random.SeedSequence([self.seed, pass_index]).generate_state(
            TUNES_PER_PAIR * len(self.problems)
        )
        pairs = self.problems * TUNES_PER_PAIR
        return [
            (label, problem, tuning.default_pso_config(problem, seed=int(swarm_seed)))
            for (label, problem), swarm_seed in zip(pairs, seeds)
        ]

    def ops(self, pass_index: int) -> list[Op]:
        configs = self._first_pass if pass_index == 0 else self._configs(pass_index)
        return [
            Op(
                kind=problem.mode,
                label=f"tune {label} seed {config.seed}",
                run=partial(self._tune, problem, config),
                check=partial(self._check, label, problem),
            )
            for label, problem, config in configs
        ]

    @staticmethod
    def _tune(problem, config):
        return tuning.tune(problem, config)

    def _check(self, label, problem, result) -> str | None:
        params, swarm = result
        if not in_box(params, problem):
            return "tuned parameters outside the search box"
        if tuning.residual(params, problem).f != swarm.best_fitness:
            return "residual f at the tuned parameters differs from best_fitness"
        history = swarm.fitness_history
        if (
            len(history) != swarm.iterations_run + 1
            or history[-1] != swarm.best_fitness
            or any(later > earlier for earlier, later in zip(history, history[1:]))
        ):
            return "fitness history inconsistent with the result"
        hit = swarm.best_fitness < HIT_FITNESS
        self.stats.record_hit(hit)
        self.pair_hits[label] += hit
        return None

    def end_to_end(self) -> dict:
        norm = self.stats.norm
        return {
            "hit_share": self.stats.hit_share,
            "main_op_s": statistics.median(norm["fractional"]),
            "second_op_s": statistics.median(norm["integer"]),
        }

    def report(self) -> dict:
        return {
            "tune_s": timing(self.stats, "fractional", "integer"),
            "tune_s.fractional_mode": timing(self.stats, "fractional"),
            "tune_s.integer_mode": timing(self.stats, "integer"),
            "tune_hit_share": {
                "value": self.stats.hit_share,
                "unit": "share",
                "n": self.stats.trials,
            },
            "hits_by_pair": dict(self.pair_hits),
        }


def first_order_loop(tau: float) -> FractionalTransferFunction:
    """1 / (tau s + 1)."""
    return FractionalTransferFunction.from_terms([(1.0, 0.0)], [(tau, 1.0), (1.0, 0.0)])


def second_order_loop(zeta: float, omega0: float) -> FractionalTransferFunction:
    """omega0^2 / (s^2 + 2 zeta omega0 s + omega0^2)."""
    return FractionalTransferFunction.from_terms(
        [(omega0**2, 0.0)], [(1.0, 2.0), (2 * zeta * omega0, 1.0), (omega0**2, 0.0)]
    )


def second_order_step(zeta: float, omega0: float, t: np.ndarray) -> np.ndarray:
    wd = omega0 * math.sqrt(1 - zeta**2)
    return 1 - np.exp(-zeta * omega0 * t) * (
        np.cos(wd * t) + zeta / math.sqrt(1 - zeta**2) * np.sin(wd * t)
    )


def reference_loops() -> dict[str, FractionalTransferFunction]:
    return {
        label: closed_loop(controller_tf(params), make_plant())
        for label, (make_plant, params) in REFERENCE_CONTROLLERS.items()
    }


def sim_configs() -> dict[str, simulate.SimConfig]:
    return {
        "full": simulate.SimConfig(time_step=TIME_STEP, horizon=HORIZON),
        "truncated": simulate.SimConfig(
            time_step=TIME_STEP, horizon=HORIZON, memory_length=MEMORY
        ),
    }


def run_loop(tf, cfg):
    """simulate_step + analyze; a divergence is an outcome, returned as such."""
    try:
        response = simulate.simulate_step(tf, cfg)
    except simulate.SimulationDiverged as exc:
        return exc, None
    return response, metrics.analyze(response)


class SimulateLong:
    name = "simulate_long"

    def __init__(self, seed: int, work_dir: Path):
        self.stats = Stats()
        self.configs = sim_configs()
        self.reference = json.loads(REFERENCE_FILE.read_text())
        expected = {"time_step": TIME_STEP, "horizon": HORIZON, "memory_length": MEMORY}
        if {key: self.reference[key] for key in expected} != expected:
            raise ValueError(f"{REFERENCE_FILE.name} was recorded for other settings")
        self.checkpoints = np.array(self.reference["checkpoints"])
        rng = np.random.default_rng(seed)
        tau = rng.uniform(0.5, 2.0)
        zeta, omega0 = rng.uniform(0.3, 0.9), rng.uniform(1.5, 3.0)
        self.loops = [
            (label, tf, partial(self._check_reference, label))
            for label, tf in reference_loops().items()
        ]
        self.loops.append(
            (
                f"first_order/tau={tau:.4g}",
                first_order_loop(tau),
                partial(self._check_oracle, lambda t: 1 - np.exp(-t / tau), FIRST_ORDER_TOL),
            )
        )
        self.loops.append(
            (
                f"second_order/zeta={zeta:.4g},omega0={omega0:.4g}",
                second_order_loop(zeta, omega0),
                partial(
                    self._check_oracle,
                    partial(second_order_step, zeta, omega0),
                    SECOND_ORDER_TOL,
                ),
            )
        )

    def ops(self, pass_index: int) -> list[Op]:
        return [
            Op(
                kind=memory,
                label=f"simulate {label} ({memory} memory)",
                run=partial(run_loop, tf, cfg),
                check=partial(check, memory),
                probe="streaming" if memory == "full" else "interpreter",
            )
            for label, tf, check in self.loops
            for memory, cfg in self.configs.items()
        ]

    def _record(self, memory, result) -> tuple[np.ndarray, int | None] | str:
        outcome, figures = result
        if isinstance(outcome, simulate.SimulationDiverged):
            self.stats.outcomes["diverged"] += 1
            self.stats.record_hit(False)
            return outcome.partial.samples, outcome.first_bad_index
        if len(outcome.samples) != self.configs[memory].steps:
            return "response has the wrong number of samples"
        self.stats.outcomes["stable" if figures.stable else "unsettled"] += 1
        self.stats.record_hit(figures.stable)
        return outcome.samples, None

    def _check_reference(self, label, memory, result) -> str | None:
        recorded = self.reference["loops"][label][memory]
        observed = self._record(memory, result)
        if isinstance(observed, str):
            return observed
        samples, diverged_at = observed
        if diverged_at != recorded["diverged_at"]:
            return f"diverged at {diverged_at}, recorded {recorded['diverged_at']}"
        expected = np.array(recorded["samples"])
        indices = self.checkpoints[: len(expected)]
        deviation = np.abs(samples[indices] - expected) / np.maximum(np.abs(expected), 1.0)
        worst = float(deviation.max())
        self.stats.max_rel_dev = max(self.stats.max_rel_dev, worst)
        if not worst <= CHECKPOINT_TOL:
            return f"checkpoint deviation {worst:.3e} above {CHECKPOINT_TOL:g}"
        return None

    def _check_oracle(self, oracle, tolerance, memory, result) -> str | None:
        observed = self._record(memory, result)
        if isinstance(observed, str):
            return observed
        samples, diverged_at = observed
        if diverged_at is not None:
            return f"analytic loop diverged at sample {diverged_at}"
        error = float(np.max(np.abs(samples - oracle(np.arange(len(samples)) * TIME_STEP))))
        if not error < tolerance:
            return f"distance {error:.3e} from the analytic response, bound {tolerance:g}"
        return None

    def end_to_end(self) -> dict:
        norm = self.stats.norm
        return {
            "hit_share": self.stats.hit_share,
            "main_op_s": statistics.median(norm["full"]),
            "second_op_s": statistics.median(norm["truncated"]),
        }

    def report(self) -> dict:
        return {
            "sim_s": timing(self.stats, "full"),
            "sim_trunc_s": timing(self.stats, "truncated"),
            "samples_per_sim": self.configs["full"].steps,
            "memory_length": MEMORY,
            "loops": [label for label, _, _ in self.loops],
            "outcome_shares": self.stats.outcome_shares(),
        }


def random_controllers(seed: int, config: str) -> list[dict]:
    """Controllers drawn uniformly inside the bundled search box."""
    rng = np.random.default_rng([seed, CLI_CONFIGS.index(config)])
    bounds = tuning.ParameterBounds()
    ranges = {
        "kp": bounds.kp, "ti": bounds.ti, "td": bounds.td,
        "lambda": bounds.lam, "delta": bounds.delta,
    }
    return [
        {"label": f"c{k:02d}", **{key: float(rng.uniform(*span)) for key, span in ranges.items()}}
        for k in range(CONTROLLERS_PER_JOB)
    ]


def read_outputs(out_dir: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


def run_cli(argv: list[str]):
    """fopid.cli.main with its console output captured; returns the exit code."""
    with redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code


def controller_params(entry: dict) -> ControllerParams:
    return ControllerParams(
        entry["kp"], entry["ti"], entry["td"], entry["lambda"], entry["delta"]
    )


class CliJobs:
    name = "cli_jobs"

    def __init__(self, seed: int, work_dir: Path):
        self.stats = Stats()
        self.work_dir = work_dir
        self.digests: dict[str, str] = {}
        self.jobs = {}
        for config in CLI_CONFIGS:
            shipped = ROOT / "configs" / f"{config}.yaml"
            data = yaml.safe_load(shipped.read_text())
            data["controllers"] = random_controllers(seed, config)
            job_file = work_dir / f"job_{config}.yaml"
            job_file.write_text(yaml.safe_dump(data, sort_keys=False))
            job = cli.load_config(shipped)
            self.jobs[config] = {
                "shipped": shipped,
                "job_file": job_file,
                "job": job,
                "controllers": data["controllers"],
                "problems": {
                    mode: tuning.TuningProblem(job.plant, job.spec.poles(), mode=mode)
                    for mode in ("fractional", "integer")
                },
            }

    def ops(self, pass_index: int) -> list[Op]:
        ops = []
        for command in ("tune", "simulate", "verify"):
            for config, entry in self.jobs.items():
                out_dir = self.work_dir / f"{command}_{config}"
                if command == "tune":
                    argv = ["tune", "--config", str(entry["shipped"]), "--mode", "both"]
                else:
                    argv = [command, "--config", str(entry["job_file"])]
                ops.append(
                    Op(
                        kind=f"{command}:{config}",
                        label=f"fopid {command} ({config})",
                        prepare=partial(shutil.rmtree, out_dir, ignore_errors=True),
                        run=partial(run_cli, argv + ["--out", str(out_dir)]),
                        check=partial(self._check, command, config, out_dir),
                    )
                )
        return ops

    def _check(self, command, config, out_dir, code) -> str | None:
        key = f"{command}:{config}"
        if code != 0 and not (command == "tune" and code == 2):
            return f"exit code {code}"
        files = read_outputs(out_dir)
        digest = hashlib.sha256(json.dumps(sorted(files)).encode())
        for name in sorted(files):
            digest.update(files[name])
        first_run = key not in self.digests
        if self.digests.setdefault(key, digest.hexdigest()) != digest.hexdigest():
            return "outputs differ from the first run of the same command"
        self.stats.bytes_written[key] = sum(len(data) for data in files.values())
        entry = self.jobs[config]
        if command == "tune":
            return self._check_tune(entry, code, json.loads(files["tune_report.json"]))
        if command == "verify":
            return self._check_verify(entry, json.loads(files["verify_report.json"]))
        if first_run:
            return self._check_simulate(entry, out_dir, json.loads(files["metrics.json"]))
        return None

    def _check_tune(self, entry, code, report) -> str | None:
        converged = True
        if sorted(report["results"]) != ["fractional", "integer"]:
            return "tune report lacks a mode"
        for mode, result in report["results"].items():
            problem = entry["problems"][mode]
            params = controller_params(result["params"])
            if not in_box(params, problem):
                return f"{mode}: tuned parameters outside the search box"
            if tuning.residual(params, problem).f != result["fitness"]:
                return f"{mode}: residual f differs from the reported fitness"
            converged &= result["fitness"] <= report["target_fitness"]
            self.stats.record_hit(result["fitness"] < HIT_FITNESS)
        if code != (0 if converged else 2):
            return f"exit code {code} does not match convergence {converged}"
        return None

    def _check_verify(self, entry, report) -> str | None:
        problem = entry["problems"]["fractional"]
        if sorted(report) != sorted(c["label"] for c in entry["controllers"]):
            return "verify report labels differ from the job's controllers"
        for controller in entry["controllers"]:
            params = controller_params(controller)
            reported = report[controller["label"]]
            if controller_params(reported["params"]) != params:
                return f"{controller['label']}: parameters changed on the way"
            for pole, conjugate in (("upper", False), ("lower", True)):
                value = tuning.residual(params, problem, conjugate=conjugate)
                expected = {"r": value.r, "i": value.i, "p": value.p, "f": value.f}
                if reported["residuals"][pole] != expected:
                    return f"{controller['label']}: residual at the {pole} pole differs"
        return None

    def _check_simulate(self, entry, out_dir, report) -> str | None:
        job = entry["job"]
        curves = [("open_loop", job.plant)] if job.include_open_loop else []
        curves += [
            (c["label"], closed_loop(controller_tf(controller_params(c)), job.plant))
            for c in entry["controllers"]
        ]
        if sorted(report) != sorted(label for label, _ in curves):
            return "metrics.json labels differ from the job's curves"
        for label, tf in curves:
            outcome, figures = run_loop(tf, job.sim)
            diverged_at = None
            if isinstance(outcome, simulate.SimulationDiverged):
                diverged_at, samples = outcome.first_bad_index, outcome.partial.samples
                self.stats.outcomes["diverged"] += 1
            else:
                samples = outcome.samples
                self.stats.outcomes["stable" if figures.stable else "unsettled"] += 1
                if report[label]["stable"] != figures.stable:
                    return f"{label}: stability flag differs from analyze()"
            if report[label]["diverged_at_sample"] != diverged_at:
                return f"{label}: divergence index differs from simulate_step()"
            rows = (out_dir / f"response_{label}.csv").read_text().splitlines()[1:]
            written = np.array([float(row.split(",")[1]) for row in rows])
            if written.shape != samples.shape:
                return f"{label}: CSV has {len(written)} samples, expected {len(samples)}"
            deviation = np.abs(written - samples) / np.maximum(np.abs(samples), 1.0)
            self.stats.max_rel_dev = max(self.stats.max_rel_dev, float(deviation.max()))
            if not np.array_equal(written, samples):
                return f"{label}: CSV samples differ from simulate_step()"
        return None

    def end_to_end(self) -> dict:
        norm = self.stats.norm

        def both_configs(command):
            return sum(statistics.median(norm[f"{command}:{c}"]) for c in CLI_CONFIGS)

        return {
            "hit_share": self.stats.hit_share,
            "main_op_s": both_configs("tune"),
            "second_op_s": both_configs("simulate") + both_configs("verify"),
        }

    def report(self) -> dict:
        report = {
            f"{command}_job_s.{config}": timing(self.stats, f"{command}:{config}")
            for command in ("tune", "simulate", "verify")
            for config in CLI_CONFIGS
        }
        report["tune_hit_share"] = {
            "value": self.stats.hit_share, "unit": "share", "n": self.stats.trials
        }
        report["controllers_per_job"] = CONTROLLERS_PER_JOB
        report["outcome_shares"] = self.stats.outcome_shares()
        return report


WORKLOADS = {w.name: w for w in (TuneSweep, SimulateLong, CliJobs)}
