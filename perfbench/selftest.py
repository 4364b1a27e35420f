"""Self-tests of the benchmark: every metric is emitted, corrupted results fail.

Run from the repository root (takes about two minutes):

    python3 perfbench/selftest.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


class EmittedMetrics(unittest.TestCase):
    def test_workload_names_agree(self):
        names = tuple(w["name"] for w in SPEC["workloads"])
        self.assertEqual(names, bench.WORKLOAD_NAMES)
        self.assertEqual(names, tuple(workloads.WORKLOADS))

    def test_every_metric_is_emitted(self):
        for workload in bench.WORKLOAD_NAMES:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = run_benchmark(workload, trace)
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    units = {key: value["unit"] for key, value in result["metrics"].items()}
                    self.assertEqual(units, {m["name"]: m["unit"] for m in SPEC[section]})
                    if trace == 0:
                        for key, value in result["metrics"].items():
                            self.assertGreater(value["value"], 0, key)


class CorruptedResults(unittest.TestCase):
    """A result altered after the program produced it is counted as failed."""

    def setUp(self):
        bench.OUT.mkdir(exist_ok=True)
        self.work_dir = Path(tempfile.mkdtemp(dir=bench.OUT))

    def tearDown(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def run_pair(self, workload, first, second, corrupt):
        """Run ``first`` as is and ``second`` with its result corrupted."""
        run = second.run
        second.run = lambda: corrupt(run())
        runner = bench.Runner(workload)
        runner.run_op(first)
        runner.run_op(second)
        self.assertEqual(runner.attempted, 2)
        self.assertEqual(runner.ok_share, 0.5, runner.failures)
        self.assertIn(second.label, runner.failures[0])

    def test_tune_fitness(self):
        workload = workloads.TuneSweep(3, self.work_dir)
        first, second = workload.ops(0)[1:4:2]  # the two integer-mode tunes

        def corrupt(result):
            params, swarm = result
            swarm.best_fitness *= 1 + 1e-12
            return params, swarm

        self.run_pair(workload, first, second, corrupt)

    def test_tune_exception(self):
        workload = workloads.TuneSweep(3, self.work_dir)
        first, second = workload.ops(0)[1:4:2]

        def corrupt(result):
            raise RuntimeError("injected")

        self.run_pair(workload, first, second, corrupt)

    def test_simulated_sample(self):
        workload = workloads.SimulateLong(3, self.work_dir)
        truncated = [op for op in workload.ops(0) if op.kind == "truncated"]
        first, second = truncated[1], truncated[3]  # the fractional reference loops

        def corrupt(result):
            response, figures = result
            response.samples[workload.checkpoints[-1]] += 1e-5
            return response, figures

        self.run_pair(workload, first, second, corrupt)

    def test_cli_output_changes_between_repeats(self):
        workload = workloads.CliJobs(3, self.work_dir)
        verify = [op for op in workload.ops(0) if op.kind == "verify:servo_plant"][0]
        repeat = [op for op in workload.ops(1) if op.kind == "verify:servo_plant"][0]
        report = self.work_dir / "verify_servo_plant" / "verify_report.json"

        def corrupt(code):
            report.write_text(report.read_text().replace('"f": ', '"f": 1', 1))
            return code

        self.run_pair(workload, verify, repeat, corrupt)


if __name__ == "__main__":
    unittest.main()
