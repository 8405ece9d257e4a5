"""The benchmark's workloads and the output checks that count toward ``failed``.

Every input (instance ids, run seeds, the sweep's base seed) is derived from
the workload seed, so the same seed gives the same work.  debox is driven only
through its public surface: ``debox.run(RunConfig)`` for library runs,
``debox.cli.main([...])`` for sweeps and their analysis, and the
``debox.analysis`` functions for analysing library runs held in memory.

A workload is a list of steps.  The harness repeats the steps in order, one
pass after another, until its time is up; every step appends its timings to
the workload, and every repeat must reproduce the first pass exactly.

Each timing is summarised by the mean of its repeats, for the reason given
in ``speed.py``.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import shutil
import statistics
import time

import numpy as np

import debox
from debox import analysis, cli, telemetry
from speed import mean

ERROR_FLOOR = 1e-12
ANALYSIS_REPEATS = 5  # library analysis repeats per slot
SWEEP_PARALLELISM = 2


class BenchmarkError(Exception):
    """The benchmark cannot run as configured on this machine."""


def error_decades(errors) -> float:
    """Mean over runs of log10(max(error, 1e-12) / 1e-12): decades above the floor."""
    return statistics.fmean(math.log10(max(e, ERROR_FLOOR) / ERROR_FLOOR) for e in errors)


def result_hash(pairs) -> str:
    """Digest of the per-run (best_error, generations) pairs, in run order."""
    text = ";".join(f"{float(e).hex()}:{int(g)}" for e, g in pairs)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _span(tracer, name: str, new_run: bool = False):
    return tracer.span(name, new_run) if tracer is not None else contextlib.nullcontext()




# ---------------------------------------------------------------------------
# library workloads: boundary-lshade, interior-mixed
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Unit:
    """One library run."""

    engine: str
    bchm: str
    function: str
    mode: str
    dimension: int
    instance: int
    seed: int
    budget: int

    def label(self, key: str) -> str:
        return "/".join(str(getattr(self, part)) for part in key.split("+"))


def _check_run(unit: Unit, problem, result) -> list[str]:
    """Output checks of one library run; each message is one failed check."""
    problems = []
    position = np.asarray(result.best_position)
    bounds = problem.bounds
    if not bool(np.all((position >= bounds.lower) & (position <= bounds.upper))):
        problems.append("best_position outside the box")
    if not (math.isfinite(result.best_error) and result.best_error >= 0.0):
        problems.append(f"best_error not finite and >= 0: {result.best_error!r}")
    if result.best_error != result.best_fitness - problem.optimum_value:
        problems.append("best_error != best_fitness - f*")
    if result.evaluations_used > unit.budget:
        problems.append(f"evaluations_used {result.evaluations_used} > budget {unit.budget}")
    if unit.bchm != "dismiss" and problem.infeasible_evaluations != 0:
        problems.append(f"{problem.infeasible_evaluations} infeasible evaluations under {unit.bchm}")
    for rec in result.records:
        if not 0.0 <= rec.infeasible_component_ratio <= rec.infeasible_individual_ratio <= 1.0:
            problems.append(f"violation ratios out of order in generation {rec.generation}")
            break
    return problems


class LibraryWorkload:
    """Library runs through ``debox.run``, then an in-memory analysis of them."""

    def __init__(self, name: str, units: list[Unit], cluster_key: str, rank_key: str) -> None:
        self.name = name
        self.units = units
        self.cluster_key = cluster_key
        self.rank_key = rank_key
        self.steps = len(units) + 1  # the runs, then the analysis
        self.attempted = 0
        self.failures: list[str] = []
        self.run_times: list[list[float]] = [[] for _ in units]
        self.analysis_times: list[float] = []
        self.first: dict[int, tuple] = {}  # unit index -> outcome of its first run
        self.results: dict[int, object] = {}
        self.first_analysis = None
        self.trace_wall = 0.0

    def first_setup(self):
        """What precedes the first run: its problem instance and config."""
        unit = self.units[0]
        problem = debox.make_instance(unit.function, unit.instance, unit.dimension, unit.mode)
        return debox.RunConfig(problem=problem, engine=unit.engine, bchm=unit.bchm,
                               seed=unit.seed, budget=unit.budget)

    def run_step(self, k: int, tracer=None) -> None:
        # The analysis takes milliseconds, so short slowdowns of the machine
        # would dominate a block of repeats; once every run has a result, a
        # few repeats follow each run instead, spread over the whole pass.
        if k < len(self.units):
            self._run_unit(k, tracer)
            if tracer is None and len(self.results) == len(self.units):
                self._analyse(None, ANALYSIS_REPEATS)
        else:
            self._analyse(tracer, 1 if tracer is not None else ANALYSIS_REPEATS)

    def _fail(self, message: str) -> None:
        self.failures.append(f"{self.name}: {message}")

    def _run_unit(self, k: int, tracer) -> None:
        unit = self.units[k]
        self.attempted += 1
        try:
            with _span(tracer, "setup.instance"):
                problem = debox.make_instance(unit.function, unit.instance, unit.dimension, unit.mode)
            config = debox.RunConfig(problem=problem, engine=unit.engine, bchm=unit.bchm,
                                     seed=unit.seed, budget=unit.budget)
            started = time.perf_counter()
            with _span(tracer, "engine.run", new_run=True):
                result = debox.run(config)
            elapsed = time.perf_counter() - started
        except Exception as exc:  # a failing run is counted, the others go on
            self._fail(f"{unit.label('engine+bchm+function')}: {type(exc).__name__}: {exc}")
            return
        problems = _check_run(unit, problem, result)
        outcome = (
            result.best_error,
            result.generations,
            problem.feasible_evaluations,
            problem.infeasible_evaluations,
            sum(rec.corrections_applied for rec in result.records),
        )
        if k not in self.first:
            self.first[k] = outcome
            self.results[k] = result
        elif outcome != self.first[k]:
            problems.append("repeat run differs from the first run with the same seed")
        if problems:
            self._fail(f"{unit.label('engine+bchm+function')}: {'; '.join(problems)}")
            return
        if tracer is None:
            self.run_times[k].append(elapsed)
        else:
            self.trace_wall += elapsed

    def _analysis_once(self):
        """Similarity, clustering and ranking of the first pass's runs."""
        runs_by_label: dict[str, list] = {}
        errors: dict[tuple[str, str], list[float]] = {}
        for k, result in sorted(self.results.items()):
            unit = self.units[k]
            columns = telemetry.records_to_columns(result.records)
            runs_by_label.setdefault(unit.label(self.cluster_key), []).append(columns)
            errors.setdefault((unit.function, unit.label(self.rank_key)), []).append(result.best_error)
        trees = []
        for metric in sorted(analysis.METRICS):
            matrix = analysis.build_trajectory_matrix(runs_by_label, metric)
            similarity = analysis.similarity_matrix(matrix)
            trees.append(analysis.complete_linkage_cluster(similarity, matrix.row_labels).to_newick())
        table = analysis.rank_methods(errors)
        return trees, table.methods, table.mean_rank.tolist(), sorted(runs_by_label)

    def _analyse(self, tracer, repeats: int) -> None:
        for _ in range(repeats):
            self.attempted += 1
            try:
                started = time.perf_counter()
                with _span(tracer, "analysis.library"):
                    output = self._analysis_once()
                elapsed = time.perf_counter() - started
            except Exception as exc:
                self._fail(f"analysis: {type(exc).__name__}: {exc}")
                return
            trees, methods, mean_rank, labels = output
            problems = []
            if not all(tree.endswith(";") and all(label in tree for label in labels) for tree in trees):
                problems.append("a dendrogram is missing a leaf")
            if not all(math.isfinite(r) for r in mean_rank) or len(methods) != len(set(methods)):
                problems.append("rank table is malformed")
            if self.first_analysis is None:
                self.first_analysis = output
            elif output != self.first_analysis:
                problems.append("repeat analysis differs from the first")
            if problems:
                self._fail(f"analysis: {'; '.join(problems)}")
                return
            if tracer is None:
                self.analysis_times.append(elapsed)
            else:
                self.trace_wall += elapsed

    # -- results ------------------------------------------------------------
    def _run_seconds(self) -> float:
        return sum(mean(times) for times in self.run_times)

    def end_to_end(self) -> dict[str, float]:
        total = self._run_seconds()
        timed = [k for k, times in enumerate(self.run_times) if times]
        feasible = sum(self.first[k][2] for k in timed)
        return {
            "evals_per_s": feasible / total if total else 0.0,
            "cells_per_s": len(timed) / total if total else 0.0,
            "analysis_s": mean(self.analysis_times),
            "final_error_decades": error_decades(o[0] for o in self.first.values()) if self.first else 0.0,
        }

    def fingerprint(self) -> dict:
        outcomes = [self.first[k] for k in sorted(self.first)]
        return {
            "runs": len(outcomes),
            "generations": sum(o[1] for o in outcomes),
            "evaluate_calls": sum(o[2] + o[3] for o in outcomes),
            "corrections": sum(o[4] for o in outcomes),
            "result_hash": result_hash((o[0], o[1]) for o in outcomes),
        }

    def untraced_scope_s(self) -> float:
        """Untraced wall time of what one traced pass runs."""
        return self._run_seconds() + mean(self.analysis_times)

    def step_times(self) -> dict:
        """Every untraced timing, for the result file."""
        labels = [unit.label("engine+bchm+function") for unit in self.units]
        return {"runs_s": dict(zip(labels, self.run_times)), "analysis_s": self.analysis_times}

    def layer_extras(self) -> dict[str, float]:
        return {"cli.scaling_eff": 0.0, "cli.resume_s": 0.0}


def boundary_lshade(seed: int, size: str) -> LibraryWorkload:
    """L-SHADE on the SBOX linear slope (optimum on a box corner), n=10,
    one run per BCHM: most trials leave the box, so repair is on the hot path."""
    rng = random.Random(f"boundary-lshade:{seed}")
    n = 10
    budget = (1000 if size == "full" else 40) * n
    instance = rng.randrange(1, 10_000)
    units = [
        Unit("lshade", bchm, "linear_slope", "SBOX", n, instance, rng.randrange(2**31), budget)
        for bchm in ("sat", "mirror", "beta", "expBest", "vectorBest", "dismiss", "adaptive")
    ]
    return LibraryWorkload("boundary-lshade", units, cluster_key="bchm", rank_key="bchm")


def interior_mixed(seed: int, size: str) -> LibraryWorkload:
    """Classic DE and L-SHADE on BBOB_LIKE sphere and rastrigin, n=20, sat:
    the optimum keeps a margin from the bound, so repair is a small share."""
    rng = random.Random(f"interior-mixed:{seed}")
    n = 20
    budget = (1000 if size == "full" else 40) * n
    instances = {f: rng.randrange(1, 10_000) for f in ("sphere", "rastrigin")}
    units = [
        Unit(engine, "sat", function, "BBOB_LIKE", n, instances[function], rng.randrange(2**31), budget)
        for engine in ("classic", "lshade")
        for function in ("sphere", "rastrigin")
    ]
    return LibraryWorkload("interior-mixed", units, cluster_key="engine+function", rank_key="engine")


# ---------------------------------------------------------------------------
# sweep-analysis
# ---------------------------------------------------------------------------

def _cluster_files(label_by: str) -> list[str]:
    return [f"{kind}_{metric}_{label_by}.{ext}" for metric in analysis.METRICS
            for kind, ext in (("similarity", "csv"), ("dendrogram", "json"), ("dendrogram", "newick"))]


#: (command, extra arguments, files it must write)
_ANALYSIS_COMMANDS = (
    ("classify", [], ["classes.csv", "classes_summary.csv"]),
    ("cluster", ["--label-by", "bchm"], _cluster_files("bchm")),
    ("cluster", ["--label-by", "function"], _cluster_files("function")),
    ("rank", [], ["ranking.csv"]),
)


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


class SweepWorkload:
    """In-process ``debox sweep`` at parallelism 1 and 2, a resume pass,
    then ``classify``, ``cluster`` (by bchm and by function) and ``rank``."""

    name = "sweep-analysis"
    steps = 1

    def __init__(self, seed: int, size: str, workdir: str) -> None:
        if SWEEP_PARALLELISM > usable_cpus():
            raise BenchmarkError(
                f"sweep parallelism {SWEEP_PARALLELISM} exceeds the {usable_cpus()} usable CPUs")
        rng = random.Random(f"sweep-analysis:{seed}")
        self.config = {
            "functions": ["sphere", "rastrigin", "linear_slope"],
            "instances": [rng.randrange(1, 10_000)],
            "dimensions": [5],
            "engines": ["classic", "lshade"],
            "bchms": ["sat", "mirror", "beta", "expBest", "dismiss", "adaptive"],
            "runs_per_cell": 4 if size == "full" else 1,
            "budget_multiplier": 20,
            "base_seed": rng.randrange(2**31),
        }
        c = self.config
        self.cells = (len(c["functions"]) * len(c["instances"]) * len(c["dimensions"])
                      * len(c["engines"]) * len(c["bchms"]) * c["runs_per_cell"])
        self.workdir = workdir
        self.config_path = os.path.join(workdir, "sweep.json")
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: list[dict[str, float]] = []
        self.first: dict | None = None
        self.trace_wall = 0.0

    def first_setup(self):
        """What precedes the first cell: the sweep config on disk and the command line."""
        os.makedirs(self.workdir, exist_ok=True)
        with open(self.config_path, "w") as fh:
            json.dump(self.config, fh)
        return ["sweep", "--config", self.config_path, "--out", os.path.join(self.workdir, "p1"),
                "--parallelism", "1"]

    def _fail(self, message: str) -> None:
        self.failures.append(f"{self.name}: {message}")

    def _cli(self, argv: list[str], tracer, span_name: str) -> tuple[int, float]:
        """Run ``debox.cli.main(argv)`` with its printing captured; (exit code, seconds)."""
        sink = io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), _span(tracer, span_name):
            code = cli.main(argv)
        elapsed = time.perf_counter() - started
        if code != 0:
            self._fail(f"debox {' '.join(argv[:1])} exited {code}: {sink.getvalue().strip()[-300:]}")
        return code, elapsed

    def _sweep(self, out: str, parallelism: int, tracer, span_name: str) -> tuple[int, float]:
        return self._cli(["sweep", "--config", self.config_path, "--out", out,
                          "--parallelism", str(parallelism)], tracer, span_name)

    def _check_sweep(self, out: str, code: int, reference: str | None = None) -> dict | None:
        """Check one sweep directory cell by cell; return its outcome, or None."""
        self.attempted += self.cells
        if code != 0:
            self.failures.extend([f"{self.name}: cell of a failed sweep"] * self.cells)
            return None
        try:
            with open(os.path.join(out, "manifest.json")) as fh:
                manifest = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            self.failures.extend([f"{self.name}: unreadable manifest: {exc}"] * self.cells)
            return None
        c = self.config
        expected = sorted(
            (f, e, b, r) for f in c["functions"] for e in c["engines"] for b in c["bchms"]
            for r in range(c["runs_per_cell"]))
        listed = sorted((e["function"], e["engine"], e["bchm"], e["run_index"]) for e in manifest["cells"])
        if listed != expected:
            missing = len(set(expected) - set(listed))
            self.failures.extend([f"{self.name}: cell missing from the manifest"] * max(missing, 1))
        columns = [f.name for f in dataclasses.fields(telemetry.GenerationRecord)]
        errors, generations, evaluations = [], [], 0
        for entry in manifest["cells"]:
            try:
                with open(os.path.join(out, entry["summary_json"])) as fh:
                    summary = json.load(fh)
                with open(os.path.join(out, entry["trajectory_csv"]), "rb") as fh:
                    raw = fh.read()
                rows = list(csv.reader(io.StringIO(raw.decode())))
                if rows[0] != columns or len(rows) < 2 or summary["generations"] != len(rows) - 1:
                    raise ValueError("trajectory header or row count is wrong")
                for row in rows[1:]:
                    [float(x) for x in row[:-1]]
                error = float(summary["final_error"])
                if not (math.isfinite(error) and error >= 0.0):
                    raise ValueError(f"final_error {error!r}")
                if reference is not None:
                    with open(os.path.join(reference, entry["trajectory_csv"]), "rb") as fh:
                        if fh.read() != raw:
                            raise ValueError("trajectory differs from the parallelism-1 sweep")
            except (OSError, ValueError, KeyError, TypeError, IndexError, json.JSONDecodeError) as exc:
                self._fail(f"{entry.get('trajectory_csv')}: {exc}")
                continue
            errors.append(error)
            generations.append(summary["generations"])
            evaluations += summary["evaluations_used"]
        return {
            "cells": len(manifest["cells"]),
            "generations": sum(generations),
            "evaluations": evaluations,
            "result_hash": result_hash(zip(errors, generations)),
            "errors": errors,
        }

    def _resume(self, out: str, tracer) -> float:
        self.attempted += 1
        manifest_path = os.path.join(out, "manifest.json")
        with open(manifest_path, "rb") as fh:
            before = fh.read()
        code, elapsed = self._sweep(out, 1, tracer, "cli.resume")
        with open(manifest_path, "rb") as fh:
            if code == 0 and fh.read() != before:
                self._fail("resume rewrote the manifest differently")
        return elapsed

    def _analyse(self, out: str, tracer) -> float:
        manifest = os.path.join(out, "manifest.json")
        analysis_dir = os.path.join(out, "analysis")
        total = 0.0
        for command, extra, files in _ANALYSIS_COMMANDS:
            self.attempted += 1
            code, elapsed = self._cli([command, "--manifest", manifest, "--out", analysis_dir] + extra,
                                      tracer, f"cli.{command}")
            total += elapsed
            missing = [f for f in files if not os.path.isfile(os.path.join(analysis_dir, f))
                       or os.path.getsize(os.path.join(analysis_dir, f)) == 0]
            if code == 0 and missing:
                self._fail(f"{command} did not write {', '.join(missing)}")
        return total

    def _compare(self, outcome: dict | None) -> None:
        if outcome is None:
            return
        if self.first is None:
            self.first = outcome
        elif outcome != self.first:
            self._fail("repeat sweep differs from the first with the same seed")

    def run_step(self, k: int, tracer=None) -> None:
        p1, p2 = os.path.join(self.workdir, "p1"), os.path.join(self.workdir, "p2")
        for path in (p1, p2):
            shutil.rmtree(path, ignore_errors=True)
        self.first_setup()
        if tracer is not None:
            # all spans in one process: the traced pass runs at parallelism 1 only
            code, t1 = self._sweep(p1, 1, tracer, "cli.sweep")
            self._compare(self._check_sweep(p1, code))
            self.trace_wall += t1 + self._resume(p1, tracer) + self._analyse(p1, tracer)
            return
        code1, t1 = self._sweep(p1, 1, None, "cli.sweep")
        first = self._check_sweep(p1, code1)
        code2, t2 = self._sweep(p2, SWEEP_PARALLELISM, None, "cli.sweep")
        second = self._check_sweep(p2, code2, reference=p1 if first is not None else None)
        self._compare(first)
        self._compare(second)
        if first is None or second is None:
            return
        resume = self._resume(p2, None)
        analysed = self._analyse(p2, None)
        self.samples.append({"p1_s": t1, "p2_s": t2, "resume_s": resume, "analysis_s": analysed,
                             "evaluations": first["evaluations"] + second["evaluations"]})

    # -- results ------------------------------------------------------------
    def _typical(self, key: str) -> float:
        return mean([s[key] for s in self.samples])

    def end_to_end(self) -> dict[str, float]:
        if not self.samples:
            return {"evals_per_s": 0.0, "cells_per_s": 0.0, "analysis_s": 0.0, "final_error_decades": 0.0}
        p1, p2 = self._typical("p1_s"), self._typical("p2_s")
        return {
            "evals_per_s": self.samples[0]["evaluations"] / (p1 + p2),
            "cells_per_s": self.cells / p2,
            "analysis_s": self._typical("analysis_s"),
            "final_error_decades": error_decades(self.first["errors"]),
        }

    def fingerprint(self) -> dict:
        if self.first is None:
            return {}
        return {k: v for k, v in self.first.items() if k != "errors"}

    def untraced_scope_s(self) -> float:
        return self._typical("p1_s") + self._typical("resume_s") + self._typical("analysis_s")

    def layer_extras(self) -> dict[str, float]:
        p2 = self._typical("p2_s")
        return {"cli.scaling_eff": self._typical("p1_s") / (SWEEP_PARALLELISM * p2) if p2 else 0.0,
                "cli.resume_s": self._typical("resume_s")}

    def step_times(self) -> dict:
        """Every untraced timing, for the result file."""
        return {"passes": self.samples}


def make(name: str, seed: int, size: str, workdir: str):
    if name == "boundary-lshade":
        return boundary_lshade(seed, size)
    if name == "interior-mixed":
        return interior_mixed(seed, size)
    if name == "sweep-analysis":
        return SweepWorkload(seed, size, workdir)
    raise BenchmarkError(f"unknown workload {name!r}")
