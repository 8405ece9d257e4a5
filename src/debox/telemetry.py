"""Per-generation measurement and end-of-run behaviour classification.

A generation record captures the bound-violation pressure of the raw trial
vectors (measured BEFORE any correction is applied) together with the state
of the population after selection.  At the end of a run the final error and
population variance place the run into one of four behaviour classes:

    GB  solution found and population converged
    SF  solution found, population still diverse
    PC  population converged away from the solution (premature convergence)
    BB  neither converged nor solved

Trajectories are persisted as plain CSV (one row per generation, columns
named exactly after the record fields) and runs are summarised as JSON.
Every file is written under a temporary name and then moved into place, so
a reader never sees a half-written artifact.
"""

from __future__ import annotations

import contextlib
import csv
import enum
import json
import os
from dataclasses import dataclass, fields

import numpy as np

from .core import Population, population_stats

__all__ = [
    "BehaviourClass",
    "ClassifierConfig",
    "GenerationRecord",
    "classify",
    "format_float",
    "open_atomic",
    "read_run_summary",
    "read_trajectory_csv",
    "record_generation",
    "records_to_columns",
    "run_summary_text",
    "trajectory_csv_text",
    "write_run_summary",
    "write_trajectory_csv",
]


class BehaviourClass(enum.Enum):
    GB = "GB"
    SF = "SF"
    PC = "PC"
    BB = "BB"


@dataclass(frozen=True)
class ClassifierConfig:
    error_threshold: float = 1e-6
    variance_threshold: float = 1e-8

    def __post_init__(self) -> None:
        if self.error_threshold <= 0 or self.variance_threshold <= 0:
            raise ValueError("classifier thresholds must be strictly positive")


def classify(
    final_error: float,
    final_max_component_variance: float,
    cfg: ClassifierConfig = ClassifierConfig(),
) -> BehaviourClass:
    """Map (final error, final per-component variance) to a behaviour class.

    The variance threshold is applied to the maximum over components, i.e.
    "variance per component is small" means every component is small.
    """
    solved = final_error < cfg.error_threshold
    converged = final_max_component_variance < cfg.variance_threshold
    if solved:
        return BehaviourClass.GB if converged else BehaviourClass.SF
    return BehaviourClass.PC if converged else BehaviourClass.BB


@dataclass
class GenerationRecord:
    generation: int
    feasible_evaluations: int
    population_size: int
    best_error: float
    infeasible_component_ratio: float
    infeasible_individual_ratio: float
    max_component_variance: float
    mean_component_variance: float
    corrections_applied: int
    adaptive_probabilities: list[float] | None = None


def record_generation(
    generation: int,
    trials: np.ndarray,
    population: Population,
    problem,
    corrections_applied: int = 0,
    adaptive_probabilities=None,
    stats=None,
    outside=None,
    infeasible=None,
) -> GenerationRecord:
    """Build the telemetry record for one completed generation.

    ``trials`` holds the raw (pre-correction) trial vectors of the
    generation, shape (M, n); the violation ratios are computed on them.  A
    component violates unless it lies in the closed box, so a NaN component
    counts as violated.  ``outside`` is that (M, n) violation mask,
    ``infeasible`` its rows with any violation and ``stats`` the population
    statistics, when the caller has them already.
    The population is the post-selection state.
    """
    if outside is None:
        trials = np.atleast_2d(np.asarray(trials, dtype=float))
        outside = ~((trials >= problem.bounds.lower) & (trials <= problem.bounds.upper))
    m = len(outside) if outside.size else 0
    if m:
        if infeasible is None:
            infeasible = np.logical_or.reduce(outside, axis=1)
        component_ratio = np.count_nonzero(outside) / outside.size
        individual_ratio = np.count_nonzero(infeasible) / m
    else:
        component_ratio = 0.0
        individual_ratio = 0.0
    if stats is None:
        stats = population_stats(population)
    f_star = problem.optimum_value
    best_error = max(float(np.minimum.reduce(population.fitness)) - f_star, 0.0) if f_star is not None else np.nan
    return GenerationRecord(
        generation=generation,
        feasible_evaluations=int(problem.feasible_evaluations),
        population_size=population.size,
        best_error=best_error,
        infeasible_component_ratio=component_ratio,
        infeasible_individual_ratio=individual_ratio,
        max_component_variance=float(np.maximum.reduce(stats.variance)),
        mean_component_variance=float(np.add.reduce(stats.variance) / stats.variance.size),  # bit-identical to mean()
        corrections_applied=int(corrections_applied),
        adaptive_probabilities=None if adaptive_probabilities is None else np.asarray(
            adaptive_probabilities, dtype=float).tolist(),
    )


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def format_float(x: float) -> str:
    """17 significant digits: round-trip exact for IEEE doubles."""
    return format(float(x), ".17g")


_COLUMNS = [f.name for f in fields(GenerationRecord)]
_INT_COLUMNS = {"generation", "feasible_evaluations", "population_size", "corrections_applied"}


def _cell(name: str, value) -> str:
    if name == "adaptive_probabilities":
        return "" if value is None else ";".join(format_float(p) for p in value)
    if name in _INT_COLUMNS:
        return str(int(value))
    return format_float(value)


@contextlib.contextmanager
def open_atomic(path, newline: str | None = None):
    """A text file to write that takes the place of ``path`` only once it is
    complete: it is written beside ``path`` under a temporary name, then
    moved onto it.  If the writer raises, ``path`` keeps its old content."""
    head, tail = os.path.split(os.fspath(path))
    temporary = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(temporary, "w", newline=newline) as fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temporary)
        raise


def trajectory_csv_text(records: list[GenerationRecord]) -> str:
    # no field needs CSV quoting: each is a column name, a number or numbers joined by ";"
    rows = [_COLUMNS] + [[_cell(name, getattr(rec, name)) for name in _COLUMNS] for rec in records]
    return "".join(",".join(row) + "\n" for row in rows)


def write_trajectory_csv(records: list[GenerationRecord], path) -> None:
    with open_atomic(path, newline="") as fh:
        fh.write(trajectory_csv_text(records))


def read_trajectory_csv(path) -> dict[str, list]:
    """Read a trajectory back as a mapping column name -> list of values."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError("no header row")
        columns: dict[str, list] = {name: [] for name in reader.fieldnames}
        for row in reader:
            if None in row or None in row.values():  # a cut or overlong line
                raise ValueError(f"line {reader.line_num}: expected {len(reader.fieldnames)} fields")
            for name, raw in row.items():
                if name == "adaptive_probabilities":
                    value = [float(p) for p in raw.split(";")] if raw else None
                elif name in _INT_COLUMNS:
                    value = int(raw)
                else:
                    value = float(raw)
                columns[name].append(value)
    return columns


def records_to_columns(records: list[GenerationRecord]) -> dict[str, list]:
    return {name: [getattr(rec, name) for rec in records] for name in _COLUMNS}


def run_summary_text(summary: dict) -> str:
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


def write_run_summary(path, summary: dict) -> None:
    with open_atomic(path, newline="") as fh:
        fh.write(run_summary_text(summary))


def read_run_summary(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
