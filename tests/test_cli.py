"""End-to-end tests of the command-line front end."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from fopid import cli
from fopid.cli import load_config, main
from fopid.pso import PsoConfig

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

FRACTIONAL_PLANT = """\
plant:
  numerator: [[1.0, 0.0]]
  denominator: [[0.8, 2.2], [0.5, 0.9], [1.0, 0.0]]
spec:
  zeta: 0.65
  omega0: 2.2
mode: both
pso:
  swarm_size: 10
  iterations: 25
  seed: 7
  target_fitness: 1.0e-6
sim:
  time_step: 0.01
  horizon: 2.0
"""


def write_config(tmp_path, text, name="job.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestValidation:
    def test_invalid_zeta_named_in_error(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            FRACTIONAL_PLANT.replace("zeta: 0.65", "zeta: 1.2"),
        )
        code = main(["tune", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "zeta" in capsys.readouterr().err

    def test_overflowing_spec_names_trise(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            FRACTIONAL_PLANT.replace("zeta: 0.65\n  omega0: 2.2", "mp: 0.1\n  trise: 1.0e-320"),
        )
        code = main(["tune", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "trise" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["tune", "verify"])
    def test_overflowing_design_pole(self, tmp_path, capsys, command):
        # omega0 is finite, but Dp(p) = 0.8 p^2.2 + ... overflows at the pole.
        text = FRACTIONAL_PLANT.replace("omega0: 2.2", "omega0: 1.0e200") + (
            "controllers:\n  - {kp: 1.0, ti: 1.0, td: 1.0, lambda: 1.0, delta: 1.0}\n"
        )
        config = write_config(tmp_path, text)
        code = main([command, "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "design pole" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_missing_plant(self, tmp_path, capsys):
        config = write_config(tmp_path, "spec: {zeta: 0.5, omega0: 1.0}\n")
        code = main(["tune", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "plant" in capsys.readouterr().err

    def test_malformed_yaml(self, tmp_path, capsys):
        config = write_config(tmp_path, FRACTIONAL_PLANT.replace("mode: both", "mode: [both"))
        code = main(["tune", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "not valid YAML" in err
        assert re.search(r"line \d+", err)
        assert "Traceback" not in err

    def test_unreadable_config(self, tmp_path, capsys):
        code = main(["tune", "--config", str(tmp_path / "missing.yaml")])
        assert code == 1

    def test_zero_denominator_plant(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            FRACTIONAL_PLANT.replace(
                "denominator: [[0.8, 2.2], [0.5, 0.9], [1.0, 0.0]]",
                "denominator: [[0.0, 1.0]]",
            ),
        )
        code = main(["tune", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "plant" in capsys.readouterr().err

    def test_bad_mode(self, tmp_path, capsys):
        config = write_config(tmp_path, FRACTIONAL_PLANT.replace("mode: both", "mode: wild"))
        code = main(["tune", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "mode" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("mode: both", "mode: both\ncontollers: []", "contollers"),
            ("  seed: 7", "  seeed: 7", "seeed"),
            ("  time_step: 0.01", "  tim_step: 0.01", "tim_step"),
            ("  numerator:", "  denominaor: [[1.0, 0.0]]\n  numerator:", "denominaor"),
        ],
    )
    def test_unknown_key_named_in_error(self, tmp_path, capsys, old, new, key):
        config = write_config(tmp_path, FRACTIONAL_PLANT.replace(old, new))
        code = main(["tune", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section, value, message",
        [
            ("pso", "[]", "pso must be a mapping"),
            ("pso", "0", "pso must be a mapping"),
            ("pso", "false", "pso must be a mapping"),
            ("pso", '""', "pso must be a mapping"),
            ("pso", "[1]", "pso must be a mapping"),
            ("controllers", "{}", "controllers must be a list"),
            ("controllers", "0", "controllers must be a list"),
            ("controllers", "false", "controllers must be a list"),
            ("controllers", "{a: 1}", "controllers must be a list"),
        ],
    )
    def test_section_of_wrong_type_refused(self, tmp_path, capsys, section, value, message):
        # Only a missing section or null counts as empty; an empty or false
        # value of the wrong type is refused like any other.
        text = FRACTIONAL_PLANT.split("pso:")[0] + f"{section}: {value}\n"
        config = write_config(tmp_path, text)
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_null_sections_are_empty(self, tmp_path):
        text = FRACTIONAL_PLANT.split("pso:")[0] + "pso: null\ncontrollers: null\n"
        config = load_config(write_config(tmp_path, text))
        assert config.pso_overrides == {}
        assert config.controllers == []

    @pytest.mark.parametrize("value", ['"no"', "0", "1", "yes please"])
    def test_include_open_loop_must_be_bool(self, tmp_path, capsys, value):
        config = write_config(tmp_path, FRACTIONAL_PLANT + f"include_open_loop: {value}\n")
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "include_open_loop must be true or false" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, field",
        [
            ("kp: 214.84", "kp: true", "controllers[0].kp"),
            ("td: 76.76", "td: false", "controllers[0].td"),
            ("horizon: 2.0", "horizon: true", "sim.horizon"),
            ("numerator: [[1.0, 0.0]]", "numerator: [[true, 0.0]]",
             "plant.numerator[0] coefficient"),
        ],
        ids=["gain_true", "gain_false", "sim_field", "plant_coefficient"],
    )
    def test_boolean_is_not_a_number(self, tmp_path, capsys, old, new, field):
        config = write_config(tmp_path, TestSimulate.CONFIG.replace(old, new))
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{field} must be a number" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_numeric_string_is_a_number(self, tmp_path):
        # PyYAML reads 1e-3 (no dot) as the string "1e-3".
        text = TestSimulate.CONFIG.replace("time_step: 0.001", "time_step: 1e-3")
        assert yaml.safe_load(text)["sim"]["time_step"] == "1e-3"
        assert load_config(write_config(tmp_path, text)).sim.time_step == 0.001

    @pytest.mark.parametrize("name", ["fractional_plant", "servo_plant"])
    def test_bundled_configs_and_job_files_load(self, tmp_path, name):
        shipped = CONFIG_DIR / f"{name}.yaml"
        assert load_config(shipped).spec is not None
        # A job file as the benchmark writes it: the shipped keys plus
        # labelled controllers, dumped back to YAML.
        data = yaml.safe_load(shipped.read_text())
        data["controllers"] = [
            {"label": "c00", "kp": 3.0, "ti": 2.0, "td": 1.5, "lambda": 0.9, "delta": 1.1}
        ]
        job = write_config(tmp_path, yaml.safe_dump(data, sort_keys=False))
        config = load_config(job)
        assert [label for label, _ in config.controllers] == ["c00"]
        assert config.include_open_loop is data.get("include_open_loop", False)

    @pytest.mark.parametrize("name", ["fractional_plant", "servo_plant"])
    def test_memory_length_full_keeps_whole_history(self, name):
        sim = load_config(CONFIG_DIR / f"{name}.yaml").sim
        assert sim.memory_length is None
        assert sim.memory == sim.steps - 1

    @pytest.mark.parametrize("payload", ["[1, 2]", '"results"', "3"])
    def test_params_file_must_be_an_object(self, tmp_path, capsys, payload):
        config = write_config(tmp_path, FRACTIONAL_PLANT)
        params = tmp_path / "params.json"
        params.write_text(payload)
        code = main(
            ["simulate", "--config", str(config), "--params", str(params),
             "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert "params file" in capsys.readouterr().err


    def test_output_dir_must_be_a_string(self, tmp_path, capsys):
        config = write_config(tmp_path, TestVerify.CONFIG + "output_dir: 5\n")
        code = main(["verify", "--config", str(config)])
        assert code == 1
        err = capsys.readouterr().err
        assert "output_dir must be a string" in err
        assert "Traceback" not in err

    def test_controller_unknown_key_named_in_error(self, tmp_path, capsys):
        config = write_config(
            tmp_path, TestVerify.CONFIG.replace("label: none", "lable: mine")
        )
        code = main(["verify", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "controllers[1] has unknown fields: ['lable']" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_controller_lam_and_lambda_conflict(self, tmp_path, capsys):
        config = write_config(
            tmp_path, TestVerify.CONFIG.replace("lambda: 1.0, delta", "lam: 0.5, lambda: 1, delta")
        )
        code = main(["verify", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "both lam and lambda" in capsys.readouterr().err

    def test_controller_lam_alone_is_lambda(self, tmp_path, capsys):
        config = write_config(
            tmp_path, TestVerify.CONFIG.replace("lambda: 1.0, delta: 1.0, label: classic",
                                                "lam: 0.5, delta: 1.0, label: classic")
        )
        out = tmp_path / "o"
        assert main(["verify", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "verify_report.json").read_text())
        assert report["classic"]["params"]["lambda"] == 0.5

    @pytest.mark.parametrize(
        "label, message",
        [
            ('"x/y"', "must not contain"),
            ('"x\\\\y"', "must not contain"),
            ('"."', "must not contain"),
            ('".."', "must not contain"),
            ('""', "non-empty string"),
            ("5", "non-empty string"),
            pytest.param('"a\\0b"', "must not contain a NUL character", id="nul"),
            # response_<label>.csv is 256 bytes, one more than a file name may have.
            pytest.param("x" * 243, "is too long", id="too_long"),
        ],
    )
    def test_bad_controller_label(self, tmp_path, capsys, label, message):
        config = write_config(
            tmp_path, TestSimulate.CONFIG.replace("label: classic", f"label: {label}")
        )
        out = tmp_path / "o"
        code = main(["simulate", "--config", str(config), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "controllers[0].label" in err and message in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "label, message",
        [
            ("../escape", "must not contain"),
            ("open_loop", "replace the open-loop curve"),
            pytest.param("a\0b", "must not contain a NUL character", id="nul"),
            # 122 characters but 244 bytes in UTF-8, so the file name has 257.
            pytest.param("\u00e9" * 122, "is too long", id="too_long"),
        ],
    )
    def test_bad_label_in_params_file(self, tmp_path, capsys, label, message):
        config = write_config(tmp_path, TestSimulate.CONFIG)
        params = tmp_path / "params.json"
        entry = {"params": {"kp": 1.0, "ti": 1.0, "td": 1.0, "lambda": 1.0, "delta": 1.0}}
        params.write_text(json.dumps({"results": {label: entry}}))
        out = tmp_path / "o"
        code = main(
            ["simulate", "--config", str(config), "--params", str(params), "--out", str(out)]
        )
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "escape.csv").exists()


class TestTune:
    def test_pole_collision_exit_code(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            FRACTIONAL_PLANT.replace(
                "denominator: [[0.8, 2.2], [0.5, 0.9], [1.0, 0.0]]",
                "denominator: [[1.0, 2.0], [2.86, 1.0], [4.84, 0.0]]",
            ),
        )
        code = main(["tune", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "vanishes" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("out_name", ["taken", "taken/o", "taken/o/p"])
    def test_unusable_output_directory_refused_before_tuning(
        self, tmp_path, capsys, monkeypatch, out_name
    ):
        # An existing file, and paths under one, are refused before the swarm.
        def no_tune(*args):
            raise AssertionError("tune() ran before the output directory was checked")

        monkeypatch.setattr(cli, "tune", no_tune)
        (tmp_path / "taken").write_text("")
        config = write_config(tmp_path, FRACTIONAL_PLANT)
        before = sorted(tmp_path.rglob("*"))
        out = tmp_path / out_name
        code = main(["tune", "--config", str(config), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"cannot write the output to {out}" in err
        assert "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before

    def test_default_target_is_the_optimizer_default(self, tmp_path, capsys):
        config = write_config(tmp_path, FRACTIONAL_PLANT.replace("  target_fitness: 1.0e-6\n", ""))
        out = tmp_path / "out"
        main(["tune", "--config", str(config), "--out", str(out), "--mode", "integer"])
        report = json.loads((out / "tune_report.json").read_text())
        default = PsoConfig(lower_bounds=[0.0], upper_bounds=[1.0]).target_fitness
        assert report["target_fitness"] == default

    def test_default_seed_is_the_optimizer_default(self, tmp_path, capsys):
        config = write_config(tmp_path, FRACTIONAL_PLANT.replace("  seed: 7\n", ""))
        out = tmp_path / "out"
        main(["tune", "--config", str(config), "--out", str(out), "--mode", "integer"])
        default = PsoConfig(lower_bounds=[0.0], upper_bounds=[1.0]).seed
        assert json.loads((out / "tune_report.json").read_text())["seed"] == default
        assert json.loads((out / "manifest.json").read_text())["seed"] == default

    def test_writes_reports_and_manifest(self, tmp_path, capsys):
        config = write_config(tmp_path, FRACTIONAL_PLANT)
        out = tmp_path / "out"
        code = main(["tune", "--config", str(config), "--out", str(out)])
        assert code in (0, 2)  # tiny budget may legitimately stay above target
        report = json.loads((out / "tune_report.json").read_text())
        assert set(report["results"]) == {"integer", "fractional"}
        integer = report["results"]["integer"]
        assert integer["params"]["lambda"] == 1.0
        assert integer["params"]["delta"] == 1.0
        fractional = report["results"]["fractional"]
        assert 0.0 <= fractional["params"]["lambda"] <= 2.0
        history = fractional["fitness_history"]
        assert all(b <= a for a, b in zip(history, history[1:]))
        assert history[-1] == fractional["fitness"] <= fractional["swarm_fitness"]
        stdout = capsys.readouterr().out
        text = (out / "tune_report.txt").read_text()
        for mode in ("integer", "fractional"):
            reason = report["results"][mode]["stop_reason"]
            assert reason in ("solve", "target", "budget")
            assert f"(stop: {reason})" in stdout
        assert text.count("stop reason = ") == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["command"] == "tune"
        assert len(manifest["config_sha256"]) == 64
        assert (out / "tune_report.txt").exists()

    def test_byte_identical_reruns(self, tmp_path, capsys):
        config = write_config(tmp_path, FRACTIONAL_PLANT)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["tune", "--config", str(config), "--out", str(out)])
            outs.append(out)
        for fname in ("tune_report.json", "tune_report.txt", "manifest.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        config = write_config(tmp_path, FRACTIONAL_PLANT)
        out = tmp_path / "out"
        main(["tune", "--config", str(config), "--out", str(out), "--seed", "99"])
        report = json.loads((out / "tune_report.json").read_text())
        assert report["seed"] == 99

    def test_nonconvergence_exit_code(self, tmp_path, capsys):
        text = FRACTIONAL_PLANT.replace("iterations: 25", "iterations: 2").replace(
            "target_fitness: 1.0e-6", "target_fitness: 1.0e-15"
        )
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        code = main(["tune", "--config", str(config), "--out", str(out)])
        assert code == 2
        assert (out / "tune_report.json").exists()


class TestSimulate:
    CONFIG = """\
plant:
  numerator: [[1.0, 0.0]]
  denominator: [[0.8, 2.2], [0.5, 0.9], [1.0, 0.0]]
spec:
  zeta: 0.65
  omega0: 2.2
sim:
  time_step: 0.001
  horizon: 2.0
include_open_loop: true
controllers:
  - {kp: 214.84, ti: 361.57, td: 76.76, lambda: 1.0, delta: 1.0, label: classic}
"""

    def test_csv_and_metrics(self, tmp_path, capsys):
        config = write_config(tmp_path, self.CONFIG)
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(config), "--out", str(out)])
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) == {"open_loop", "classic"}
        assert metrics["classic"]["stable"] is True
        assert metrics["classic"]["overshoot_percent"] < 20.0
        csv_lines = (out / "response_classic.csv").read_text().splitlines()
        assert csv_lines[0] == "t,y"
        assert len(csv_lines) == 2002

    def test_csv_round_trip_full_precision(self, tmp_path, capsys):
        config = write_config(tmp_path, self.CONFIG)
        out = tmp_path / "out"
        main(["simulate", "--config", str(config), "--out", str(out)])
        rows = (out / "response_classic.csv").read_text().splitlines()[1:]
        parsed = np.array([[float(cell) for cell in row.split(",")] for row in rows])
        from fopid.plant import ControllerParams, controller_tf, closed_loop
        from fopid.cli import load_config
        from fopid.simulate import simulate_step

        job = load_config(config)
        loop = closed_loop(
            controller_tf(ControllerParams(214.84, 361.57, 76.76, 1.0, 1.0)), job.plant
        )
        resp = simulate_step(loop, job.sim)
        assert np.array_equal(parsed[:, 1], resp.samples)
        assert np.array_equal(parsed[:, 0], np.arange(len(resp.samples)) * 0.001)

    @pytest.mark.parametrize(
        "old, new",
        [
            (None, None),
            ("{kp: 214.84, ti: 361.57, td: 76.76, lambda: 1.0, delta: 1.0, label: classic}",
             "{kp: -3.2e6, ti: 0.0, td: 0.0, lambda: 1.0, delta: 1.0, label: wild}"),
            ("time_step: 0.001", "time_step: 0.0007"),
        ],
        ids=["full_length", "diverged_prefix", "long_time_reprs"],
    )
    def test_csv_bytes_follow_per_sample_rule(self, tmp_path, capsys, old, new):
        # Each row is f"{float(k * h)!r},{float(y)!r}" over the samples that
        # simulate_step gives, or over the finite prefix when it diverges.
        from fopid.plant import closed_loop, controller_tf
        from fopid.simulate import SimulationDiverged, simulate_step

        text = self.CONFIG if old is None else self.CONFIG.replace(old, new)
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        job = load_config(config)
        curves = [("open_loop", job.plant)] + [
            (label, closed_loop(controller_tf(params), job.plant))
            for label, params in job.controllers
        ]
        h = job.sim.time_step
        lengths = {}
        for label, tf in curves:
            try:
                samples = simulate_step(tf, job.sim).samples
            except SimulationDiverged as exc:
                samples = exc.partial.samples
            lengths[label] = len(samples)
            expected = "t,y\n" + "".join(
                f"{float(k * h)!r},{float(y)!r}\n" for k, y in enumerate(samples)
            )
            assert (out / f"response_{label}.csv").read_bytes() == expected.encode()
        if old is None:
            assert lengths == {"open_loop": 2001, "classic": 2001}
        elif "wild" in new:
            assert lengths["wild"] < lengths["open_loop"] == 2001
        else:
            assert any(len(repr(k * h)) > 15 for k in range(lengths["classic"]))

    def test_byte_identical_reruns(self, tmp_path, capsys):
        config = write_config(tmp_path, self.CONFIG)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(config), "--out", str(a)])
        main(["simulate", "--config", str(config), "--out", str(b)])
        for fname in ("response_classic.csv", "response_open_loop.csv", "metrics.json"):
            assert (a / fname).read_bytes() == (b / fname).read_bytes()

    def test_divergent_controller_flagged_not_fatal(self, tmp_path, capsys):
        # Strong positive feedback: the loop grows ~e^350t and overflows
        # well inside the horizon.
        text = self.CONFIG.replace(
            "{kp: 214.84, ti: 361.57, td: 76.76, lambda: 1.0, delta: 1.0, label: classic}",
            "{kp: -3.2e6, ti: 0.0, td: 0.0, lambda: 1.0, delta: 1.0, label: wild}",
        )
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(config), "--out", str(out)])
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        entry = metrics["wild"]
        assert entry["diverged_at_sample"] is not None
        assert entry["stable"] is False
        assert entry["overshoot_percent"] is None
        csv_lines = (out / "response_wild.csv").read_text().splitlines()
        assert len(csv_lines) == entry["diverged_at_sample"] + 1  # header + prefix

    def test_params_from_tune_report(self, tmp_path, capsys):
        tune_config = write_config(tmp_path, FRACTIONAL_PLANT, "tune.yaml")
        tune_out = tmp_path / "tuned"
        main(["tune", "--config", str(tune_config), "--out", str(tune_out)])
        sim_config = write_config(tmp_path, self.CONFIG, "sim.yaml")
        out = tmp_path / "simulated"
        code = main(
            [
                "simulate",
                "--config", str(sim_config),
                "--params", str(tune_out / "tune_report.json"),
                "--out", str(out),
            ]
        )
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) == {"open_loop", "integer", "fractional"}

    def test_nothing_to_simulate(self, tmp_path, capsys):
        text = self.CONFIG.replace("include_open_loop: true", "include_open_loop: false")
        text = text[: text.index("controllers:")]
        config = write_config(tmp_path, text)
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1

    @pytest.mark.parametrize(
        "orders, field",
        [("lambda: 0.5, delta: -1.5", "lambda + delta"), ("lambda: -0.5, delta: 1.0", "lambda")],
    )
    def test_bad_controller_order_named(self, tmp_path, capsys, orders, field):
        text = self.CONFIG.replace("lambda: 1.0, delta: 1.0, label: classic", f"{orders}, label: odd")
        config = write_config(tmp_path, text)
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "controller 'odd'" in err
        assert f"{field} must be >= 0" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_overflowing_time_step(self, tmp_path, capsys):
        # h^-2.2 overflows at h = 1e-200 (the horizon keeps the step count small).
        text = self.CONFIG.replace("time_step: 0.001", "time_step: 1.0e-200")
        text = text.replace("horizon: 2.0", "horizon: 1.0e-199")
        config = write_config(tmp_path, text)
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "time_step" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_overflowing_gain_names_controller(self, tmp_path, capsys):
        # kp * h^-lambda = 1e306 * 1e3 overflows; the step itself is fine.
        text = self.CONFIG.replace("kp: 214.84", "kp: 1.0e306")
        config = write_config(tmp_path, text)
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "'classic'" in err and "time_step" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("out_name", ["taken", "taken/o"])
    def test_unusable_output_directory(self, tmp_path, capsys, out_name):
        # An existing file, and a path under one.
        (tmp_path / "taken").write_text("")
        config = write_config(tmp_path, self.CONFIG)
        out = tmp_path / out_name
        code = main(["simulate", "--config", str(config), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"cannot write the output to {out}" in err
        assert "Traceback" not in err

    def test_run_cost_capped(self, tmp_path, capsys):
        text = self.CONFIG.replace("horizon: 2.0", "horizon: 10000.0")
        config = write_config(tmp_path, text)
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "sim: steps x memory" in err
        assert "memory_length" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()


class TestVerify:
    CONFIG = """\
plant:
  numerator: [[1.0, 0.0]]
  denominator: [[0.8, 2.2], [0.5, 0.9], [1.0, 0.0]]
spec:
  zeta: 0.65
  omega0: 2.2
controllers:
  - {kp: 214.84, ti: 361.57, td: 76.76, lambda: 1.0, delta: 1.0, label: classic}
  - {kp: 0.0, ti: 0.0, td: 0.0, lambda: 1.0, delta: 1.0, label: none}
"""

    def test_residual_report(self, tmp_path, capsys):
        config = write_config(tmp_path, self.CONFIG)
        out = tmp_path / "out"
        code = main(["verify", "--config", str(config), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "verify_report.json").read_text())
        classic = report["classic"]["residuals"]
        assert classic["upper"]["f"] < 0.2
        assert classic["upper"]["f"] == classic["lower"]["f"]
        # zero controller: the cleared expression reduces to the plant
        # denominator at the pole
        none = report["none"]["residuals"]["upper"]
        assert none["r"] == pytest.approx(1.875, abs=5e-3)
        assert none["i"] == pytest.approx(-3.428, abs=5e-3)
        printed = capsys.readouterr().out
        assert "classic @ upper pole" in printed

    def test_pole_collision_exit_code(self, tmp_path, capsys):
        text = """\
plant:
  numerator: [[1.0, 0.0]]
  denominator: [[1.0, 2.0], [2.86, 1.0], [4.84, 0.0]]
spec:
  zeta: 0.65
  omega0: 2.2
controllers:
  - {kp: 1.0, ti: 1.0, td: 1.0, lambda: 1.0, delta: 1.0}
"""
        config = write_config(tmp_path, text)
        code = main(["verify", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "vanishes" in capsys.readouterr().err

    def test_non_finite_residual_rejected(self, tmp_path, capsys):
        # The residual overflows to inf, which is not valid JSON; the label
        # is named and nothing is written.
        text = self.CONFIG + (
            "  - {kp: 1.0e308, ti: 1.0e308, td: 1.0e308, lambda: 1.0, delta: 1.0, "
            "label: huge}\n"
        )
        config = write_config(tmp_path, text)
        code = main(["verify", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "'huge'" in err and "not finite" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_requires_controllers(self, tmp_path, capsys):
        text = self.CONFIG[: self.CONFIG.index("controllers:")]
        config = write_config(tmp_path, text)
        code = main(["verify", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1

    def test_overshoot_form_spec(self, tmp_path, capsys):
        text = self.CONFIG.replace(
            "spec:\n  zeta: 0.65\n  omega0: 2.2",
            "spec:\n  mp: 0.10\n  trise: 0.3",
        )
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        code = main(["verify", "--config", str(config), "--out", str(out)])
        assert code == 0
        # classical mapping: zeta ~ 0.5912, omega0 ~ 9.106
        printed = capsys.readouterr().out
        assert "-5.3828" in printed  # x = zeta * omega0 ~ 5.3829
