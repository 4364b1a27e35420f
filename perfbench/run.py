"""Benchmark of the fopid toolkit: tuning sweeps, long simulations, CLI jobs.

Run from the repository root:

    python3 perfbench/run.py --workload tune_sweep --seed 1 --seconds 30 --trace 0

The workloads are described in workloads.py. One workload runs in this
single process, with BLAS pinned to one thread, for ``--seconds`` seconds,
as a closed loop with one caller: each operation starts once the previous
one has been checked. The first pass over its operations always completes. Every result is
checked. Two JSON lines go to standard output: a report (run record, the
workload's named metrics with units and sample counts, failures), then, as
the last line, ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` gives the end-to-end metrics of BENCHMARK.json. Times are
normalised by a machine-speed probe (see probes.py); the report gives the
raw wall times beside them.

    setup_s      median of SETUP_REPEATS fresh processes that import the
                 program and build the workload's inputs
    peak_rss_mib peak resident memory of the run
    ok_share     operations that passed their check, over those attempted
    hit_share    tunes reaching f < 1e-3 (tune_sweep, cli_jobs); loops that
                 analyze() calls stable (simulate_long)
    main_op_s    tune_sweep: median tune() in fractional mode;
                 simulate_long: median full-memory simulate_step + analyze;
                 cli_jobs: median `fopid tune --mode both`, summed over both
                 configs
    second_op_s  tune_sweep: median tune() in integer mode;
                 simulate_long: median truncated-memory simulate_step +
                 analyze; cli_jobs: median `fopid simulate` plus median
                 `fopid verify`, summed over both configs

``--trace 1`` runs each operation untraced and then traced (see spans.py)
and gives the per-layer metrics instead. Counts are totals over the first
pass, which depends only on the seed, so they repeat exactly; times are
seconds per pass, averaged over the complete passes run.
"""

import os

# One thread: pin the BLAS pools before numpy is first imported.
BLAS_THREADS = {
    var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("tune_sweep", "simulate_long", "cli_jobs")
SETUP_REPEATS = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


class Runner:
    """Runs a workload's passes, times and checks each operation."""

    def __init__(self, workload, tracer=None):
        from probes import timed_probe

        self.timed_probe = timed_probe
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.passes = 0
        self.first_pass = None
        self.untraced_s = 0.0
        self.traced_s = 0.0

    def execute(self, op, traced: bool = False) -> tuple[float, float]:
        """Run and check one operation; return its wall time and the probe's slowdown."""
        if op.prepare is not None:
            op.prepare()
        slowdown = 1.0 if traced else self.timed_probe(op.probe)
        self.attempted += 1
        if traced:
            self.tracer.install()
        started = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:
            result = exc
        finally:
            elapsed = time.perf_counter() - started
            if traced:
                self.tracer.uninstall()
        if isinstance(result, Exception):
            problem = f"raised {type(result).__name__}: {result}"
        else:
            try:
                problem = op.check(result)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            self.failures.append(f"{op.label}: {problem}")
        return elapsed, slowdown

    @property
    def ok_share(self) -> float:
        """Operations that passed their check, over those attempted."""
        return (self.attempted - len(self.failures)) / self.attempted

    def run_op(self, op) -> None:
        elapsed, slowdown = self.execute(op)
        self.workload.stats.times.setdefault(op.kind, []).append(elapsed)
        self.workload.stats.norm.setdefault(op.kind, []).append(elapsed / slowdown)
        if self.tracer is not None:
            traced, _ = self.execute(op, traced=True)
            self.tracer.fold()
            self.untraced_s += elapsed
            self.traced_s += traced

    def run(self, seconds: float) -> None:
        """Run passes until ``seconds`` have gone by and the first pass is done.

        Untraced runs stop at the first operation boundary after that;
        traced runs stop at a pass boundary, so per-pass times are whole.
        """
        deadline = time.perf_counter() + seconds
        pass_index = 0
        while True:
            for op in self.workload.ops(pass_index):
                self.run_op(op)
                if pass_index and self.tracer is None and time.perf_counter() >= deadline:
                    return
            self.passes += 1
            if self.tracer is not None and pass_index == 0:
                self.first_pass = self.tracer.snapshot()
            if time.perf_counter() >= deadline:
                return
            pass_index += 1


def measure_setup(args) -> tuple[float, float]:
    """Set-up time of one fresh process (import the program, build the inputs),
    as measured and normalised by the interpreter probe."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    raw, normalised = completed.stdout.split()[-2:]
    return float(raw), float(normalised)


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(seed: int) -> dict:
    import numpy
    import yaml

    digest = hashlib.sha256()
    for path in sorted((SRC / "fopid").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def run(args, work_dir: Path) -> int:
    setup_raw, setup_norm = zip(*(measure_setup(args) for _ in range(SETUP_REPEATS)))
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    tracer = spans.Tracer() if args.trace else None
    runner = Runner(workload, tracer)
    runner.run(args.seconds)

    stats = workload.stats
    failed = len(runner.failures)
    common = {
        "setup_s": {
            "value": statistics.median(setup_norm),
            "unit": "s",
            "n": SETUP_REPEATS,
            "wall_s": statistics.median(setup_raw),
        },
        "peak_rss_mib": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MiB",
        },
        "ok_share": {"value": runner.ok_share, "unit": "share", "n": runner.attempted},
    }
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": runner.passes,
        "record": run_record(args.seed),
        "metrics": {**common, **workload.report()},
        "failures": runner.failures[:20],
    }
    if tracer is not None:
        metrics = spans.layer_metrics(
            tracer,
            runner.first_pass,
            runner.passes,
            runner.traced_s,
            runner.untraced_s,
            {
                "max_rel_dev": stats.max_rel_dev,
                "bytes_written": sum(stats.bytes_written.values()),
            },
        )
        report["layer_self_share"] = spans.layer_shares(tracer, runner.traced_s)
        tracer.write_last_spans(OUT / f"spans-{args.workload}-{args.seed}.json")
    else:
        units = {"hit_share": "share", "main_op_s": "s", "second_op_s": "s"}
        metrics = {key: {"value": m["value"], "unit": m["unit"]} for key, m in common.items()}
        for key, value in workload.end_to_end().items():
            metrics[key] = {"value": value, "unit": units[key]}
    for failure in runner.failures:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fopid" / "__init__.py").is_file():
        print("error: the fopid sources (src/fopid) are missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        if args.setup_only:
            started = time.perf_counter()
            import workloads

            workloads.WORKLOADS[args.workload](args.seed, work_dir)
            elapsed = time.perf_counter() - started
            from probes import timed_probe

            slowdown = statistics.median(timed_probe("interpreter") for _ in range(3))
            print(elapsed, elapsed / slowdown)
            return 0
        return run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
