"""Record the checkpoint samples that the simulate_long workload checks.

Run from the repository root:

    python3 perfbench/record_reference.py

It overwrites perfbench/reference.json with the responses of the program
as it is now. Record again only when a change is meant to alter the
simulator's results, and report the largest deviation from the old file.
"""

import json
import os
import sys

from run import BLAS_THREADS, SRC

# The benchmark runs BLAS on one thread; record with the same summation order.
os.environ.update(BLAS_THREADS)
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402
from fopid.simulate import SimulationDiverged, simulate_step  # noqa: E402

CHECKPOINT_STRIDE = 1000


def main() -> None:
    configs = workloads.sim_configs()
    steps = configs["full"].steps
    checkpoints = sorted({1, 10, 100} | set(range(0, steps, CHECKPOINT_STRIDE)))
    loops = {}
    for label, tf in workloads.reference_loops().items():
        loops[label] = {}
        for memory, cfg in configs.items():
            try:
                samples, diverged_at = simulate_step(tf, cfg).samples, None
            except SimulationDiverged as exc:
                samples, diverged_at = exc.partial.samples, exc.first_bad_index
            loops[label][memory] = {
                "diverged_at": diverged_at,
                "samples": [float(samples[k]) for k in checkpoints if k < len(samples)],
            }
    payload = {
        "time_step": workloads.TIME_STEP,
        "horizon": workloads.HORIZON,
        "memory_length": workloads.MEMORY,
        "checkpoints": checkpoints,
        "loops": loops,
    }
    workloads.REFERENCE_FILE.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()
