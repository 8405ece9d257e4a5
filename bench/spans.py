"""Outside-in tracing of debox for the benchmark's per-layer metrics.

The tracer swaps public functions and methods of the debox modules for
wrappers that record one span per call: (name, start, end, parent, run id).
Each function is patched where its caller looks it up (``debox.engine.correct``,
not ``debox.bchm.correct``), so nothing under ``src/`` is edited, and every
patch is undone when the traced block ends.  Spans live in flat arrays in
memory and are written out once, when the benchmark ends.

A span's self time is its duration minus the time covered by its direct
children; per-layer seconds are sums of self time, so nested layers (an RNG
draw inside a correction inside a generation) are never counted twice.
"""

from __future__ import annotations

import math
import os
import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Span recorder; one instance per traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.run_id = -1
        self._next_run = 0
        self._stack = [-1]
        #: span indices flagged by observers, e.g. infeasible evaluations
        self.marks: dict[str, list[int]] = {}
        self.bytes_written = 0

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, new_run: bool = False):
        """A span opened by the benchmark itself, around a call into debox."""
        outer_run = self.run_id
        if new_run:
            self.run_id = self._next_run
            self._next_run += 1
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)
            self.run_id = outer_run

    def wrap(self, name: str, fn, observe=None, new_run: bool = False):
        """Return ``fn`` wrapped so that each call records a span ``name``.

        ``observe(tracer, span_index, args, result)`` runs after the span
        closes, to count what the call did.
        """
        nid = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            outer_run = tracer.run_id
            if new_run:
                tracer.run_id = tracer._next_run
                tracer._next_run += 1
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                tracer.run_id = outer_run
            if observe is not None:
                observe(tracer, idx, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- analysis of the recorded spans -------------------------------------
    def _arrays(self):
        """Copies of the span columns (a view would pin the growable buffers)."""
        return (np.array(self.name, dtype=np.intc), np.array(self.parent, dtype=np.intc),
                np.array(self.start, dtype=float), np.array(self.end, dtype=float))

    def self_times(self) -> np.ndarray:
        name, parent, start, end = self._arrays()
        duration = end - start
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested], minlength=duration.size)
        return duration - covered

    def totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, summed self time in seconds)."""
        name = self._arrays()[0]
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        seconds = np.bincount(name, weights=self.self_times(), minlength=k)
        return {n: (int(calls[i]), float(seconds[i])) for i, n in enumerate(self.names)}

    def count_where_parent(self, child: str, parent_name: str, exclude_mark: str | None = None) -> int:
        """Number of ``child`` spans whose direct parent is a ``parent_name`` span."""
        if child not in self._name_ids or parent_name not in self._name_ids:
            return 0
        name, parent, _, _ = self._arrays()
        selected = name == self._name_ids[child]
        if exclude_mark is not None and self.marks.get(exclude_mark):
            selected[np.asarray(self.marks[exclude_mark])] = False
        idx = np.nonzero(selected)[0]
        par = parent[idx]
        par = par[par >= 0]
        return int(np.sum(name[par] == self._name_ids[parent_name]))

    def distinct_ancestors(self, child: str, ancestor: str) -> int:
        """Number of distinct ``ancestor`` spans that enclose a ``child`` span."""
        if child not in self._name_ids or ancestor not in self._name_ids:
            return 0
        name, parent, _, _ = self._arrays()
        target = self._name_ids[ancestor]
        node = parent[name == self._name_ids[child]]
        found = []
        while node.size:
            node = node[node >= 0]
            hit = name[node] == target
            found.append(node[hit])
            node = parent[node[~hit]]
        return int(np.unique(np.concatenate(found)).size) if found else 0

    def save(self, path: str) -> None:
        name, parent, start, end = self._arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=name,
            parent=parent,
            run=np.array(self.run, dtype=np.intc),
            start=start,
            end=end,
        )


# ---------------------------------------------------------------------------
# what is patched
# ---------------------------------------------------------------------------

def _mark_infeasible(tracer: Tracer, idx: int, args, result) -> None:
    if result == math.inf:
        tracer.marks.setdefault("infeasible", []).append(idx)


def _bytes_of(position: int):
    def observe(tracer: Tracer, idx: int, args, result) -> None:
        tracer.bytes_written += os.path.getsize(args[position])

    return observe


def _targets():
    """(owner, attribute, span name, observer, opens a run) for every patch."""
    from debox import analysis, bchm, benchmarks, cli, core, engine, telemetry

    targets = [(core.RngStream, m, "core.rng", None, False)
               for m in ("random", "uniform", "normal", "cauchy", "beta", "integers")]
    targets += [
        (core.Bounds, "contains", "core.contains", None, False),
        (engine, "population_stats", "core.stats", None, False),
        (telemetry, "population_stats", "core.stats", None, False),
        (benchmarks.BenchmarkProblem, "evaluate", "benchmarks.evaluate", _mark_infeasible, False),
        (benchmarks, "create_problem", "setup.instance", None, False),
        (engine, "correct", "bchm.correct", None, False),
        (engine, "adaptive_correct", "bchm.correct", None, False),
        (bchm, "fit_beta_params", "bchm.fit_beta", None, False),
        (engine, "classic_generation", "engine.generation", None, False),
        (engine, "lshade_generation", "engine.generation", None, False),
    ]
    # one crossover per trial, so its span doubles as the trial count
    targets.append((engine, "binomial_crossover", "engine.crossover", None, False))
    targets += [(engine, f, "engine.variation", None, False) for f in (
        "sample_scale_factor", "sample_crossover_rate", "rand1_mutant")]
    targets += [(engine, f, "engine.adaptation", None, False) for f in (
        "lehmer_mean", "lpsr_target_size", "adaptive_update")]
    targets += [
        (telemetry, "record_generation", "telemetry.record", None, False),
        (telemetry, "write_trajectory_csv", "telemetry.write", _bytes_of(1), False),
        (telemetry, "write_run_summary", "telemetry.write", _bytes_of(0), False),
        (telemetry, "read_trajectory_csv", "telemetry.read", None, False),
        (telemetry, "read_run_summary", "telemetry.read", None, False),
        (analysis, "build_trajectory_matrix", "analysis.matrix", None, False),
        (analysis, "similarity_matrix", "analysis.similarity", None, False),
        (analysis, "complete_linkage_cluster", "analysis.cluster", None, False),
        (analysis, "rank_methods", "analysis.rank", None, False),
        (cli, "run", "engine.run", None, True),
    ]
    return targets


@contextmanager
def installed(tracer: Tracer):
    """Patch every target for the duration of the block, then restore it."""
    undo = []
    try:
        for owner, attr, name, observe, new_run in _targets():
            original = owner.__dict__[attr]
            setattr(owner, attr, tracer.wrap(name, original, observe, new_run))
            undo.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: (name, unit) of every per-layer metric, in report order
LAYER_METRICS = [
    ("core.rng_calls", "count"), ("core.rng_s", "s"),
    ("core.contains_calls", "count"), ("core.contains_s", "s"),
    ("core.stats_calls", "count"), ("core.stats_s", "s"),
    ("benchmarks.evaluate_calls", "count"), ("benchmarks.evaluate_s", "s"),
    ("benchmarks.infeasible_frac", "ratio"),
    ("bchm.correct_calls", "count"), ("bchm.correct_s", "s"), ("bchm.correct_share", "ratio"),
    ("bchm.repair_frac", "ratio"), ("bchm.fit_beta_calls", "count"),
    ("bchm.fit_beta_per_gen", "ratio"), ("bchm.fit_beta_s", "s"),
    ("engine.generations", "count"), ("engine.trials", "count"), ("engine.evals_per_trial", "ratio"),
    ("engine.generation_self_s", "s"), ("engine.variation_calls", "count"),
    ("engine.variation_s", "s"), ("engine.adaptation_s", "s"),
    ("telemetry.record_calls", "count"), ("telemetry.record_s", "s"),
    ("telemetry.write_calls", "count"), ("telemetry.write_s", "s"), ("telemetry.bytes_written", "B"),
    ("telemetry.read_calls", "count"), ("telemetry.read_s", "s"),
    ("analysis.matrix_s", "s"), ("analysis.similarity_s", "s"),
    ("analysis.cluster_s", "s"), ("analysis.rank_s", "s"),
    ("cli.cells", "count"), ("cli.sweep_self_s", "s"), ("cli.scaling_eff", "ratio"), ("cli.resume_s", "s"),
    ("setup.import_s", "s"), ("setup.instance_s", "s"),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("machine.speed", "ratio"),
]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_values(tracer: Tracer, traced_wall: float, extra: dict[str, float]) -> dict[str, float]:
    """Per-layer values from the spans of one traced pass.

    ``extra`` supplies what spans cannot: ``setup.import_s``, ``cli.scaling_eff``,
    ``cli.resume_s`` and ``trace.overhead_s``, all measured untraced.
    """
    t = tracer.totals()

    def calls(name):
        return t.get(name, (0, 0.0))[0]

    def secs(name):
        return t.get(name, (0, 0.0))[1]

    trials = calls("engine.crossover")
    evaluate_calls = calls("benchmarks.evaluate")
    infeasible = len(tracer.marks.get("infeasible", []))
    feasible_in_generations = tracer.count_where_parent(
        "benchmarks.evaluate", "engine.generation", exclude_mark="infeasible")
    fit_beta_generations = tracer.distinct_ancestors("bchm.fit_beta", "engine.generation")
    values = {
        "core.rng_calls": calls("core.rng"), "core.rng_s": secs("core.rng"),
        "core.contains_calls": calls("core.contains"), "core.contains_s": secs("core.contains"),
        "core.stats_calls": calls("core.stats"), "core.stats_s": secs("core.stats"),
        "benchmarks.evaluate_calls": evaluate_calls, "benchmarks.evaluate_s": secs("benchmarks.evaluate"),
        "benchmarks.infeasible_frac": _ratio(infeasible, evaluate_calls),
        "bchm.correct_calls": calls("bchm.correct"), "bchm.correct_s": secs("bchm.correct"),
        "bchm.correct_share": _ratio(secs("bchm.correct"), traced_wall),
        "bchm.repair_frac": _ratio(calls("bchm.correct"), trials),
        "bchm.fit_beta_calls": calls("bchm.fit_beta"),
        "bchm.fit_beta_per_gen": _ratio(calls("bchm.fit_beta"), fit_beta_generations),
        "bchm.fit_beta_s": secs("bchm.fit_beta"),
        "engine.generations": calls("engine.generation"), "engine.trials": trials,
        "engine.evals_per_trial": _ratio(feasible_in_generations, trials),
        "engine.generation_self_s": secs("engine.generation"),
        "engine.variation_calls": calls("engine.variation") + trials,
        "engine.variation_s": secs("engine.variation") + secs("engine.crossover"),
        "engine.adaptation_s": secs("engine.adaptation"),
        "telemetry.record_calls": calls("telemetry.record"), "telemetry.record_s": secs("telemetry.record"),
        "telemetry.write_calls": calls("telemetry.write"), "telemetry.write_s": secs("telemetry.write"),
        "telemetry.bytes_written": tracer.bytes_written,
        "telemetry.read_calls": calls("telemetry.read"), "telemetry.read_s": secs("telemetry.read"),
        "analysis.matrix_s": secs("analysis.matrix"), "analysis.similarity_s": secs("analysis.similarity"),
        "analysis.cluster_s": secs("analysis.cluster"), "analysis.rank_s": secs("analysis.rank"),
        "cli.cells": tracer.count_where_parent("engine.run", "cli.sweep"),
        "cli.sweep_self_s": secs("cli.sweep"),
        "setup.instance_s": secs("setup.instance"),
        "trace.wall_s": traced_wall,
    }
    values.update(extra)
    return values

