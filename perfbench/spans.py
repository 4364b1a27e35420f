"""Spans around calls into the fopid modules, for the traced benchmark run.

The program is not modified: ``Tracer.install`` replaces each public entry
point where its callers look it up (a module global or a class attribute)
with a wrapper that records a span, and ``uninstall`` puts the original
back. A span is (name, start, end, parent). Spans are kept in memory in
flat arrays; ``fold`` derives per-name call counts, inclusive time and self
time (duration minus the time covered by child spans) and clears the arrays,
so memory stays bounded by one operation's spans. The spans of the last
folded operation are kept and written out when the run ends.

Counts that must repeat exactly are derived from the inputs and outputs of
the wrapped calls, never from timings: swarm evaluations and improvements
from ``SwarmResult``, simulated samples and history multiply-adds from the
``SimConfig`` and the response length.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

from fopid import cli, metrics, plant, pso, simulate, tuning

# (owner, attribute, span name). Owners are the modules or classes through
# which callers look each entry point up at call time.
ENTRY_POINTS = (
    (cli, "main", "cli.main"),
    (cli, "load_config", "cli.load_config"),
    (cli, "tune", "tuning.tune"),
    (tuning, "tune", "tuning.tune"),
    (tuning, "minimize", "pso.minimize"),
    (pso, "step", "pso.step"),
    (tuning.TuningProblem, "fitness", "tuning.fitness"),
    (tuning, "residual", "tuning.residual"),
    (cli, "residual", "tuning.residual"),
    (tuning, "cpow", "cpower.cpow"),
    (plant, "cpow", "cpower.cpow"),
    (plant.FractionalPolynomial, "evaluate", "plant.evaluate"),
    (simulate, "simulate_step", "simulate.simulate_step"),
    (cli, "simulate_step", "simulate.simulate_step"),
    (simulate, "gl_weights", "simulate.gl_weights"),
    (metrics, "analyze", "metrics.analyze"),
    (cli, "analyze", "metrics.analyze"),
)

LAYERS = ("pso", "tuning", "cpower", "plant", "simulate", "metrics", "cli")


def history_macs(samples: int, memory: int) -> int:
    """Multiply-adds of the GL history sum over ``samples`` steps: sum_k min(k, L)."""
    last = samples - 1
    if last <= memory:
        return last * (last + 1) // 2
    return memory * (memory + 1) // 2 + (last - memory) * memory


class Tracer:
    """Records spans around the entry points while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.calls = Counter()
        self.incl_s = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self.last_spans: dict[str, np.ndarray] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, on_exit=None):
        nid = self._name_id(name)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[index] = clock()
                stack.pop()
                if on_exit is not None:
                    on_exit(args, None, exc)
                raise
            ends[index] = clock()
            stack.pop()
            if on_exit is not None:
                on_exit(args, result, None)
            return result

        return span

    def _on_minimize(self, args, result, exc) -> None:
        if result is None:
            return
        config = args[0]
        history = result.fitness_history
        improving = [i for i in range(1, len(history)) if history[i] < history[i - 1]]
        self.counts["pso.tunes"] += 1
        self.counts["pso.evals"] += config.swarm_size * (result.iterations_run + 1)
        self.counts["pso.iterations"] += result.iterations_run
        self.counts["pso.improving_iters"] += len(improving)
        self.counts["pso.iters_after_last_improvement"] += result.iterations_run - (
            improving[-1] if improving else 0
        )

    def _on_simulate(self, args, result, exc) -> None:
        cfg = args[1]
        if isinstance(exc, simulate.SimulationDiverged):
            samples = exc.first_bad_index + 1
            self.counts["simulate.diverged"] += 1
        elif result is not None:
            samples = len(result.samples)
        else:
            return
        self.counts["simulate.samples"] += samples
        self.counts["simulate.history_macs"] += history_macs(samples, cfg.memory)

    def install(self) -> None:
        hooks = {"pso.minimize": self._on_minimize, "simulate.simulate_step": self._on_simulate}
        for owner, attribute, name in ENTRY_POINTS:
            original = getattr(owner, attribute)
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original, hooks.get(name)))

    def uninstall(self) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def fold(self) -> None:
        """Fold the recorded spans into per-name totals and clear them."""
        if not self._start:
            return
        name = np.array(self._name, dtype=np.int32)
        parent = np.array(self._parent, dtype=np.int32)
        start = np.array(self._start)
        duration = np.array(self._end) - start
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        width = len(self.names)
        calls = np.bincount(name, minlength=width)
        incl = np.bincount(name, weights=duration, minlength=width)
        own = np.bincount(name, weights=duration - covered, minlength=width)
        for nid, label in enumerate(self.names):
            if calls[nid]:
                self.calls[label] += int(calls[nid])
                self.incl_s[label] += float(incl[nid])
                self.self_s[label] += float(own[nid])
        self.last_spans = {"name": name, "parent": parent, "start": start, "end": start + duration}
        for buffer in (self._name, self._parent, self._start, self._end):
            del buffer[:]

    def snapshot(self) -> dict:
        """Copy of the call counts and derived counts folded so far."""
        return {"calls": Counter(self.calls), "counts": Counter(self.counts)}

    def write_last_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = {key: values.tolist() for key, values in self.last_spans.items()}
        path.write_text(json.dumps({"names": self.names, **spans}))


def layer_metrics(
    tracer: Tracer,
    first_pass: dict,
    passes: int,
    traced_s: float,
    untraced_s: float,
    extra: dict,
) -> dict:
    """Per-layer metrics: counts over the first pass, times per complete pass."""
    calls, counts = first_pass["calls"], first_pass["counts"]

    def per_pass(total: float) -> float:
        return total / passes

    tunes = counts["pso.tunes"]
    iterations = counts["pso.iterations"]
    macs = counts["simulate.history_macs"]
    values = {
        "pso.evals": (counts["pso.evals"], "count"),
        "pso.step.calls": (calls["pso.step"], "count"),
        "pso.step.self_s": (per_pass(tracer.self_s["pso.step"]), "s"),
        "pso.improving_iter_share": (
            counts["pso.improving_iters"] / iterations if iterations else 0.0,
            "share",
        ),
        "pso.iters_after_last_improvement": (
            counts["pso.iters_after_last_improvement"] / tunes if tunes else 0.0,
            "count",
        ),
        "tuning.tune.s": (per_pass(tracer.incl_s["tuning.tune"]), "s"),
        "tuning.residual.calls": (calls["tuning.residual"], "count"),
        "tuning.residual.self_s": (per_pass(tracer.self_s["tuning.residual"]), "s"),
        "cpower.cpow.calls": (calls["cpower.cpow"], "count"),
        "cpower.cpow.s": (per_pass(tracer.incl_s["cpower.cpow"]), "s"),
        "plant.evaluate.calls": (calls["plant.evaluate"], "count"),
        "plant.evaluate.s": (per_pass(tracer.incl_s["plant.evaluate"]), "s"),
        "simulate.simulate_step.calls": (calls["simulate.simulate_step"], "count"),
        "simulate.simulate_step.self_s": (
            per_pass(tracer.self_s["simulate.simulate_step"]),
            "s",
        ),
        "simulate.samples": (counts["simulate.samples"], "count"),
        "simulate.history_macs": (macs, "count"),
        "simulate.bytes_computed": (16 * macs, "B"),
        "simulate.gl_weights.s": (per_pass(tracer.incl_s["simulate.gl_weights"]), "s"),
        "simulate.diverged": (counts["simulate.diverged"], "count"),
        "simulate.max_rel_dev": (extra["max_rel_dev"], "ratio"),
        "metrics.analyze.calls": (calls["metrics.analyze"], "count"),
        "metrics.analyze.s": (per_pass(tracer.incl_s["metrics.analyze"]), "s"),
        "cli.load_config.s": (per_pass(tracer.incl_s["cli.load_config"]), "s"),
        "cli.self_s": (per_pass(tracer.self_s["cli.main"]), "s"),
        "cli.bytes_written": (extra["bytes_written"], "B"),
        "trace.overhead_ratio": (traced_s / untraced_s if untraced_s else 0.0, "ratio"),
    }
    return {key: {"value": value, "unit": unit} for key, (value, unit) in values.items()}


def layer_shares(tracer: Tracer, traced_s: float) -> dict:
    """Self time of each layer as a share of the traced wall time."""
    shares = {layer: 0.0 for layer in LAYERS}
    for name, seconds in tracer.self_s.items():
        shares[name.split(".", 1)[0]] += seconds / traced_s
    shares["outside_spans"] = 1.0 - sum(shares.values())
    return shares
