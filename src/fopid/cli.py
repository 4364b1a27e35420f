"""Batch front end: tune controllers, simulate step responses, verify residuals.

Subcommands:
    fopid tune     --config job.yaml [--out DIR] [--seed N] [--mode M]
    fopid simulate --config job.yaml [--params tune_report.json] [--out DIR]
    fopid verify   --config job.yaml [--params tune_report.json] [--out DIR]

The job file is YAML. Each command writes manifest.json (config hash, seed,
tool version) plus: tune, tune_report.json and its text summary
tune_report.txt; simulate, metrics.json, metrics.txt and a response_<label>.csv
per loop; verify, verify_report.json only, printing its table to stdout.
Exit codes: 0 success, 1 input error or an output directory that cannot be
written, 2 tuning finished above the target fitness (report still written).

Each CSV row is f"{t!r},{y!r}", t = k * time_step. The bytes of those reprs
come from reprs.float_reprs, which forms the shortest round-trip digits of a
whole column with numpy and hands the values it cannot decide exactly to
float.__repr__: zero, values below 1e-4 or from 1e15 up (exponent notation
from 1e16), powers of two, a carry to an extra digit, and the rare value
within a relative 1e-6 of a rounding edge or tie. The time column is formatted once per job; each
curve's rows are one uint8 matrix whose NUL bytes one mask drops.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, astuple, dataclass
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .metrics import ResponseMetrics, analyze
from .plant import ControllerParams, FractionalTransferFunction, closed_loop, controller_tf
from .simulate import SimConfig, SimulationDiverged, simulate_step
from .tuning import DesignSpec, TuningProblem, default_pso_config, residual, tune

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NOT_CONVERGED = 2

PARAM_KEYS = ("kp", "ti", "td", "lambda", "delta")
# "lam" is accepted as another spelling of "lambda", but not beside it.
CONTROLLER_KEYS = {*PARAM_KEYS, "lam", "label"}
CONFIG_KEYS = {
    "plant", "spec", "mode", "pso", "sim", "include_open_loop", "output_dir", "controllers",
}
PSO_KEYS = {"swarm_size", "iterations", "seed", "target_fitness"}
SIM_KEYS = {"time_step", "horizon", "memory_length"}
# The longest file name, in bytes, that common file systems accept.
MAX_FILE_NAME_BYTES = 255
# The libyaml parser, where PyYAML was built with it, is four to five times faster.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigError(ValueError):
    """Invalid job configuration; the message names the offending field."""


@dataclass
class JobConfig:
    plant: FractionalTransferFunction
    spec: DesignSpec | None
    mode: str
    pso_overrides: dict
    sim: SimConfig
    controllers: list[tuple[str, ControllerParams]]
    include_open_loop: bool
    output_dir: str | None
    source_bytes: bytes

    @property
    def config_sha256(self) -> str:
        return hashlib.sha256(self.source_bytes).hexdigest()


def _as_float(value, where: str) -> float:
    # YAML's true/false would otherwise pass as 1.0/0.0.
    if isinstance(value, bool):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        result = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where} must be a number, got {value!r}") from None
    if not math.isfinite(result):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return result


def _as_int(value, where: str, least: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"{where} must be >= {least}, got {value}")
    return value


def _reject_unknown(raw: dict, known: set, where: str) -> None:
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"{where} has unknown fields: {sorted(unknown, key=str)}")


def _parse_terms(raw, where: str) -> list[tuple[float, float]]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{where} must be a non-empty list of [coefficient, exponent] pairs")
    terms = []
    for k, item in enumerate(raw):
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ConfigError(f"{where}[{k}] must be a [coefficient, exponent] pair")
        coefficient = _as_float(item[0], f"{where}[{k}] coefficient")
        exponent = _as_float(item[1], f"{where}[{k}] exponent")
        if exponent < 0:
            raise ConfigError(f"{where}[{k}] exponent must be >= 0, got {exponent}")
        terms.append((coefficient, exponent))
    return terms


def _parse_plant(raw) -> FractionalTransferFunction:
    if not isinstance(raw, dict):
        raise ConfigError("plant must be a mapping with numerator and denominator")
    _reject_unknown(raw, {"numerator", "denominator"}, "plant")
    for key in ("numerator", "denominator"):
        if key not in raw:
            raise ConfigError(f"plant.{key} is required")
    numerator = _parse_terms(raw["numerator"], "plant.numerator")
    denominator = _parse_terms(raw["denominator"], "plant.denominator")
    try:
        return FractionalTransferFunction.from_terms(numerator, denominator)
    except ValueError as exc:
        raise ConfigError(f"plant: {exc}") from exc


def _parse_spec(raw) -> DesignSpec:
    if not isinstance(raw, dict):
        raise ConfigError("spec must be a mapping")
    _reject_unknown(raw, {"zeta", "omega0", "mp", "trise"}, "spec")
    values = {key: _as_float(raw[key], f"spec.{key}") for key in raw}
    try:
        return DesignSpec(**values)
    except ValueError as exc:
        raise ConfigError(f"spec: {exc}") from exc


def _check_label(label, where: str) -> str:
    """A label names an output file, so it must be a plain file-name part."""
    if not isinstance(label, str) or not label:
        raise ConfigError(f"{where} must be a non-empty string, got {label!r}")
    if label == "open_loop":
        raise ConfigError(f"{where} 'open_loop' would replace the open-loop curve")
    if "/" in label or "\\" in label or label in (".", ".."):
        raise ConfigError(f"{where} {label!r} must not contain / or \\ or be . or ..")
    if "\0" in label:
        raise ConfigError(f"{where} {label!r} must not contain a NUL character")
    size = len(f"response_{label}.csv".encode())
    if size > MAX_FILE_NAME_BYTES:
        raise ConfigError(
            f"{where} is too long: response_<label>.csv would be {size} bytes, "
            f"over the {MAX_FILE_NAME_BYTES} a file name may have"
        )
    return label


def _parse_controller(raw, where: str, known: set) -> tuple[str | None, ControllerParams]:
    """Parameters and label (None when not given) of one entry, which may hold the known keys."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a mapping")
    _reject_unknown(raw, known, where)
    if "lam" in raw and "lambda" in raw:
        raise ConfigError(f"{where} gives both lam and lambda; give one of them")
    values = {}
    for key in PARAM_KEYS:
        source = "lam" if key == "lambda" and "lam" in raw else key
        if source not in raw:
            raise ConfigError(f"{where}.{key} is required")
        values[key] = _as_float(raw[source], f"{where}.{key}")
    label = _check_label(raw["label"], f"{where}.label") if "label" in raw else None
    params = ControllerParams(
        kp=values["kp"], ti=values["ti"], td=values["td"],
        lam=values["lambda"], delta=values["delta"],
    )
    return label, params


def _parse_sim(raw) -> SimConfig:
    if raw is None:
        return SimConfig()
    if not isinstance(raw, dict):
        raise ConfigError("sim must be a mapping")
    _reject_unknown(raw, SIM_KEYS, "sim")
    kwargs = {}
    if "time_step" in raw:
        kwargs["time_step"] = _as_float(raw["time_step"], "sim.time_step")
    if "horizon" in raw:
        kwargs["horizon"] = _as_float(raw["horizon"], "sim.horizon")
    if "memory_length" in raw:
        # The job file spells full memory "full"; SimConfig spells it None.
        memory = raw["memory_length"]
        if memory != "full":
            kwargs["memory_length"] = _as_int(memory, "sim.memory_length", 1)
    try:
        return SimConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"sim: {exc}") from exc


def load_config(path: str | Path) -> JobConfig:
    path = Path(path)
    try:
        raw_bytes = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = yaml.load(raw_bytes, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file is not valid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    _reject_unknown(data, CONFIG_KEYS, "config")

    if "plant" not in data:
        raise ConfigError("plant is required")
    plant = _parse_plant(data["plant"])
    spec = _parse_spec(data["spec"]) if data.get("spec") is not None else None

    mode = data.get("mode", "fractional")
    if mode not in ("fractional", "integer", "both"):
        raise ConfigError(f"mode must be fractional, integer or both, got {mode!r}")

    pso_raw = {} if data.get("pso") is None else data["pso"]
    if not isinstance(pso_raw, dict):
        raise ConfigError("pso must be a mapping")
    _reject_unknown(pso_raw, PSO_KEYS, "pso")
    pso_overrides = {}
    # PsoConfig checks these too, but only tune builds one, and by its own names.
    if "swarm_size" in pso_raw:
        pso_overrides["swarm_size"] = _as_int(pso_raw["swarm_size"], "pso.swarm_size", 1)
    if "iterations" in pso_raw:
        pso_overrides["max_iterations"] = _as_int(pso_raw["iterations"], "pso.iterations", 1)
    if "seed" in pso_raw:
        pso_overrides["seed"] = _as_int(pso_raw["seed"], "pso.seed", 0)
    if "target_fitness" in pso_raw:
        target = _as_float(pso_raw["target_fitness"], "pso.target_fitness")
        if target < 0:
            raise ConfigError(f"pso.target_fitness must be >= 0, got {target}")
        pso_overrides["target_fitness"] = target

    output_dir = data.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError(f"output_dir must be a string, got {output_dir!r}")

    include_open_loop = data.get("include_open_loop", False)
    if not isinstance(include_open_loop, bool):
        raise ConfigError(f"include_open_loop must be true or false, got {include_open_loop!r}")

    controllers = []
    raw_controllers = [] if data.get("controllers") is None else data["controllers"]
    if not isinstance(raw_controllers, list):
        raise ConfigError("controllers must be a list")
    seen_labels = set()
    for k, raw in enumerate(raw_controllers):
        label, params = _parse_controller(raw, f"controllers[{k}]", CONTROLLER_KEYS)
        if label is None:
            label = f"controller{k + 1}"
            taken = f"controllers[{k}] has no label, and its default label {label!r} is taken"
        else:
            taken = f"controllers[{k}].label {label!r} is not unique"
        if label in seen_labels:
            raise ConfigError(taken)
        seen_labels.add(label)
        controllers.append((label, params))

    return JobConfig(
        plant=plant,
        spec=spec,
        mode=mode,
        pso_overrides=pso_overrides,
        sim=_parse_sim(data.get("sim")),
        controllers=controllers,
        include_open_loop=include_open_loop,
        output_dir=output_dir,
        source_bytes=raw_bytes,
    )


# --- report helpers ---------------------------------------------------------


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _check_out_dir(out_dir: Path) -> None:
    """Raise the OSError that creating out_dir would meet at a file in its way.

    Nothing is created, so an input error found later leaves no directory.
    """
    for path in (out_dir, *out_dir.parents):
        if path.is_dir():
            return
        if path.exists():
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(path))


def _write_manifest(out_dir: Path, command: str, config: JobConfig, seed, mode) -> None:
    _write_json(
        out_dir / "manifest.json",
        {
            "command": command,
            "config_sha256": config.config_sha256,
            "mode": mode,
            "seed": seed,
            "version": __version__,
        },
    )


def _params_dict(params: ControllerParams) -> dict:
    return dict(zip(PARAM_KEYS, astuple(params)))


def _metrics_dict(metrics: ResponseMetrics) -> dict:
    """The metrics with NaN, an undefined figure, as None."""
    return {key: None if math.isnan(value) else value for key, value in asdict(metrics).items()}


def _write_csv(path: Path, times: np.ndarray, values: np.ndarray) -> None:
    """Write one curve from the float_reprs of the job's time column and of its samples.

    A curve that diverged writes its finite prefix, and one that diverged
    at sample 0 the header alone.
    """
    rows, width = len(values), times.shape[1]
    table = np.empty((rows, width + values.shape[1] + 2), np.uint8)
    table[:, :width] = times[:rows]
    table[:, width] = ord(",")
    table[:, width + 1 : -1] = values
    table[:, -1] = ord("\n")
    with path.open("wb") as handle:
        handle.write(b"t,y\n")
        handle.write(table[table != 0])


def _resolve_problem(config: JobConfig, mode: str) -> TuningProblem:
    if config.spec is None:
        raise ConfigError("spec is required for this command")
    return TuningProblem(config.plant, config.spec.poles(), mode=mode)


def _load_params_file(path: str) -> list[tuple[str, ControllerParams]]:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read params file {path}: {exc}") from exc
    results = data.get("results") if isinstance(data, dict) else None
    if not isinstance(results, dict):
        raise ConfigError(f"params file {path} has no results section")
    controllers = []
    for label in sorted(results):
        entry = results[label]
        _check_label(label, "params file entry")
        if not isinstance(entry, dict) or "params" not in entry:
            raise ConfigError(f"params file entry {label!r} has no params")
        # The entry's key is its label, so its params may not carry one.
        _, params = _parse_controller(
            entry["params"], f"results.{label}.params", CONTROLLER_KEYS - {"label"}
        )
        controllers.append((label, params))
    return controllers


# --- subcommands ------------------------------------------------------------


def cmd_tune(config: JobConfig, out_dir: Path, seed, mode) -> int:
    # The swarm can run for minutes; a file in the way is refused before it.
    _check_out_dir(out_dir)
    modes = ["integer", "fractional"] if mode == "both" else [mode]
    overrides = dict(config.pso_overrides)
    if seed is not None:
        overrides["seed"] = seed

    results = {}
    all_converged = True
    for run_mode in modes:
        problem = _resolve_problem(config, run_mode)
        pso_config = default_pso_config(problem, **overrides)
        target = pso_config.target_fitness
        used_seed = pso_config.seed
        params, swarm = tune(problem, pso_config)
        converged = swarm.best_fitness <= target
        all_converged &= converged
        results[run_mode] = {
            "params": _params_dict(params),
            "fitness": swarm.best_fitness,
            "fitness_floor": swarm.fitness_floor,
            "swarm_fitness": swarm.swarm_fitness,
            "iterations": swarm.iterations_run,
            "stop_reason": swarm.stop_reason,
            "converged": converged,
            "fitness_history": swarm.fitness_history,
        }

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(out_dir, "tune", config, used_seed, mode)
    _write_json(
        out_dir / "tune_report.json",
        {"mode": mode, "seed": used_seed, "target_fitness": target, "results": results},
    )

    lines = [f"tune report (mode={mode}, seed={used_seed})", ""]
    for run_mode, entry in results.items():
        lines.append(f"[{run_mode}]")
        for key in PARAM_KEYS:
            lines.append(f"  {key} = {entry['params'][key]!r}")
        lines.append(f"  fitness = {entry['fitness']!r}")
        lines.append(f"  fitness floor = {entry['fitness_floor']!r}")
        lines.append(f"  swarm fitness = {entry['swarm_fitness']!r}")
        lines.append(f"  iterations = {entry['iterations']}")
        lines.append(f"  stop reason = {entry['stop_reason']}")
        lines.append(f"  converged = {entry['converged']} (target {target!r})")
        lines.append("")
    (out_dir / "tune_report.txt").write_text("\n".join(lines))

    for run_mode, entry in results.items():
        print(
            f"{run_mode}: fitness {entry['fitness']:.6g} after {entry['iterations']} "
            f"iterations (stop: {entry['stop_reason']})"
        )
        if entry["stop_reason"] == "floor":
            print(
                f"{run_mode}: the target {target!r} is below the rounding floor "
                f"{entry['fitness_floor']:.6g} of the residual at the solved point; "
                "the swarm stopped there",
                file=sys.stderr,
            )
    print(f"report written to {out_dir}")
    return EXIT_OK if all_converged else EXIT_NOT_CONVERGED


def cmd_simulate(config: JobConfig, out_dir: Path, params_path) -> int:
    controllers = _load_params_file(params_path) if params_path else config.controllers
    if not controllers and not config.include_open_loop:
        raise ConfigError("nothing to simulate: give controllers or include_open_loop")

    curves: list[tuple[str, FractionalTransferFunction]] = []
    if config.include_open_loop:
        curves.append(("open_loop", config.plant))
    for label, params in controllers:
        try:
            curves.append((label, closed_loop(controller_tf(params), config.plant)))
        except ValueError as exc:
            raise ConfigError(f"controller {label!r}: {exc}") from exc

    # Every curve is simulated before anything is written, so that an input
    # error leaves no partial output.
    responses = {}
    report = {}
    for label, tf in curves:
        diverged_at = None
        try:
            response = simulate_step(tf, config.sim)
            metrics = analyze(response)
        except SimulationDiverged as exc:
            response = exc.partial
            diverged_at = exc.first_bad_index
            metrics = ResponseMetrics(math.nan, math.nan, math.nan, math.nan, stable=False)
        except ValueError as exc:
            raise ConfigError(f"curve {label!r}: {exc}") from exc
        responses[label] = response
        entry = _metrics_dict(metrics)
        entry["diverged_at_sample"] = diverged_at
        report[label] = entry

    longest = max(responses.values(), key=lambda response: len(response.samples))
    # Imported here: its tables and the numpy code they run add about
    # 0.3 MiB of resident memory, which tune and verify need not pay.
    from .reprs import float_reprs

    times = float_reprs(longest.times)
    out_dir.mkdir(parents=True, exist_ok=True)
    for label, response in responses.items():
        _write_csv(out_dir / f"response_{label}.csv", times, float_reprs(response.samples))
    _write_manifest(out_dir, "simulate", config, None, config.mode)
    _write_json(out_dir / "metrics.json", report)

    lines = ["step response metrics", ""]
    for label in sorted(report):
        lines.append(f"[{label}]")
        for key, value in report[label].items():
            if value is not None:
                lines.append(f"  {key} = {value!r}")
            elif key != "diverged_at_sample":
                lines.append(f"  {key} = undefined")
        lines.append("")
    (out_dir / "metrics.txt").write_text("\n".join(lines))

    for label in sorted(report):
        entry = report[label]
        overshoot = entry["overshoot_percent"]
        shown = "n/a" if overshoot is None else f"{overshoot:.3g}%"
        print(f"{label}: overshoot {shown}, stable={entry['stable']}")
    print(f"results written to {out_dir}")
    return EXIT_OK


def cmd_verify(config: JobConfig, out_dir: Path, params_path) -> int:
    controllers = _load_params_file(params_path) if params_path else config.controllers
    if not controllers:
        raise ConfigError("nothing to verify: give controllers inline or via --params")
    problem = _resolve_problem(config, "fractional")

    report = {}
    print(f"dominant poles: {problem.poles.upper} and {problem.poles.lower}")
    for label, params in controllers:
        entries = {}
        for pole_name, conjugate in (("upper", False), ("lower", True)):
            # Huge gains overflow to inf or nan, which is refused below.
            with np.errstate(over="ignore", invalid="ignore"):
                value = residual(params, problem, conjugate=conjugate)
            if not math.isfinite(value.f):
                raise ConfigError(
                    f"controller {label!r}: the residual at the {pole_name} pole is not "
                    "finite; its parameters are too large"
                )
            entries[pole_name] = {"r": value.r, "i": value.i, "p": value.p, "f": value.f}
            print(
                f"{label} @ {pole_name} pole: R={value.r:.6g} I={value.i:.6g} "
                f"P={value.p:.6g} f={value.f:.6g}"
            )
        report[label] = {"params": _params_dict(params), "residuals": entries}

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(out_dir, "verify", config, None, config.mode)
    _write_json(out_dir / "verify_report.json", report)
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fopid",
        description="Tune, simulate and verify fractional-order PID controllers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("tune", "search controller parameters for the configured plant"),
        ("simulate", "simulate unit-step responses and extract metrics"),
        ("verify", "evaluate the characteristic residual for given parameters"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="job description YAML file")
        cmd.add_argument("--out", help="output directory (default from config)")
        if name == "tune":
            cmd.add_argument("--seed", type=int, help="random seed override")
            cmd.add_argument(
                "--mode", choices=["fractional", "integer", "both"],
                help="search mode override",
            )
        else:
            cmd.add_argument("--params", help="tune_report.json with controller parameters")

    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        out_dir = Path(args.out or config.output_dir or "out")
        if args.command == "tune":
            seed = None if args.seed is None else _as_int(args.seed, "--seed", 0)
            return cmd_tune(config, out_dir, seed, args.mode or config.mode)
        if args.command == "simulate":
            return cmd_simulate(config, out_dir, args.params)
        return cmd_verify(config, out_dir, args.params)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        # Reading errors are ConfigErrors already, so this one is from writing.
        print(f"error: cannot write the output to {out_dir}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
