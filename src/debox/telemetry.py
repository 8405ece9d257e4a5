"""Per-generation measurement and end-of-run behaviour classification.

A generation record captures the bound-violation pressure of the raw trial
vectors (measured BEFORE any correction is applied) together with the state
of the population after selection.  At the end of a run the final error and
population variance place the run into one of four behaviour classes:

    GB  solution found and population converged
    SF  solution found, population still diverse
    PC  population converged away from the solution (premature convergence)
    BB  neither converged nor solved

A run keeps its records as a :class:`Trajectory`, one numpy column per
record field.  Trajectories are persisted as plain CSV (one row per
generation, columns named exactly after the record fields), written and read
column by column, and runs are summarised as JSON.
Every file is written under a temporary name and then moved into place, so
a reader never sees a half-written artifact.
"""

from __future__ import annotations

import contextlib
import enum
import json
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .core import Population, population_stats

__all__ = [
    "BehaviourClass",
    "GenerationRecord",
    "Trajectory",
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


#: a run is solved below this final error, and converged below this maximum per-component variance
ERROR_THRESHOLD = 1e-6
VARIANCE_THRESHOLD = 1e-8


def classify(error: float, variance: float) -> BehaviourClass | None:
    """Map (final error, final maximum per-component variance) to a behaviour class.

    The variance threshold is applied to the maximum over components, i.e.
    "variance per component is small" means every component is small.  An
    unknown (NaN) error, as without a known optimum, decides only premature
    convergence: PC, or None when the population has not converged.
    """
    converged = variance < VARIANCE_THRESHOLD
    if np.isnan(error):
        return BehaviourClass.PC if converged else None
    if error < ERROR_THRESHOLD:
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


#: the CSV header: one column per GenerationRecord field, in field order
_COLUMNS = [f.name for f in fields(GenerationRecord)]
#: the dtype of each column but the last, adaptive_probabilities, which is float64 of shape (G, k);
#: the annotations are strings (``from __future__ import annotations``)
_DTYPES = {f.name: {"int": np.int64, "float": np.float64}[f.type] for f in fields(GenerationRecord)[:-1]}


class Trajectory:
    """One run's telemetry as columns: a numpy array per GenerationRecord
    field with one entry per generation, int64 for the counts and float64
    for the rest.  ``adaptive_probabilities`` is one (G, k) array in a run
    of the adaptive BCHM and absent otherwise.

    :func:`record_generation` appends a generation in place; the columns
    grow geometrically.  A trajectory has ``len``, and iteration yields each
    generation as a :class:`GenerationRecord`.
    """

    def __init__(self) -> None:
        self._columns = {}
        self._size = self._capacity = 0

    @property
    def columns(self) -> dict[str, np.ndarray]:
        """The filled part of every column, as views of the trajectory's own arrays."""
        return {name: column[:self._size] for name, column in self._columns.items()}

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        columns = {name: column.tolist() for name, column in self.columns.items()}
        return (GenerationRecord(**dict(zip(columns, row))) for row in zip(*columns.values()))

    def _new_row(self, probabilities) -> int:
        """The index of a row appended at the end; the columns double when full."""
        if self._columns and (probabilities is None) == ("adaptive_probabilities" in self._columns):
            raise ValueError("adaptive_probabilities must be recorded in every generation or in none")
        size = self._size
        if size == self._capacity:
            self._capacity = max(2 * size, 64)
            grown = {name: np.empty(self._capacity, dtype) for name, dtype in _DTYPES.items()}
            if probabilities is not None:
                grown["adaptive_probabilities"] = np.empty((self._capacity, len(probabilities)))
            for name, column in self._columns.items():
                grown[name][:size] = column[:size]
            self._columns = grown
        self._size = size + 1
        return size


def record_generation(trajectory: Trajectory, outside: np.ndarray, infeasible: int, population: Population,
                      feasible_evaluations: int, problem, adaptive_probabilities=None) -> None:
    """Append the telemetry of one completed generation to ``trajectory``.

    ``outside`` is the ``Bounds.outside`` mask of the generation's raw
    (pre-correction) trials, shape (M, n), ``infeasible`` the number of its
    rows with any violation, and ``feasible_evaluations`` the run's count.
    ``population`` is the post-selection state: the record takes its
    generation, its size, its ``stats`` (computed if it has none) and its
    best error, best fitness minus the stated optimum (NaN without one); a
    best fitness below it raises ``ValueError`` rather than claim a solve.
    """
    stats = population.stats if population.stats is not None else population_stats(population)
    f_star, best_fitness = problem.optimum_value, float(np.minimum.reduce(population.fitness))
    if f_star is not None and best_fitness < f_star:
        raise ValueError(f"problem {problem.function_id!r}: best fitness {best_fitness!r} lies below "
                         f"its stated optimum value {f_star!r}")
    row = trajectory._new_row(adaptive_probabilities)
    columns = trajectory._columns
    columns["generation"][row] = population.generation
    columns["feasible_evaluations"][row] = feasible_evaluations
    columns["population_size"][row] = population.size
    columns["best_error"][row] = best_fitness - f_star if f_star is not None else np.nan
    # a generation without trials has ratios 0
    columns["infeasible_component_ratio"][row] = np.count_nonzero(outside) / max(outside.size, 1)
    columns["infeasible_individual_ratio"][row] = infeasible / max(len(outside), 1)
    columns["max_component_variance"][row] = np.maximum.reduce(stats.variance)
    columns["mean_component_variance"][row] = np.add.reduce(stats.variance) / stats.variance.size  # as mean()
    columns["corrections_applied"][row] = infeasible
    if adaptive_probabilities is not None:
        columns["adaptive_probabilities"][row] = adaptive_probabilities


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

_FLOAT_FORMAT = ".17g"


def format_float(x: float) -> str:
    """17 significant digits: round-trip exact for IEEE doubles."""
    return format(float(x), _FLOAT_FORMAT)


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


def trajectory_csv_text(trajectory: Trajectory) -> str:
    """The trajectory as CSV text, one row per generation, built column by
    column with each value formatted as :func:`format_float` formats it."""
    columns, cells = trajectory.columns, []
    for name in _COLUMNS:
        column = columns.get(name)
        if column is None:  # a run that is not adaptive
            cells.append([""] * len(trajectory))
        elif column.dtype == np.int64:
            cells.append(list(map(str, column.tolist())))
        elif column.ndim == 2:
            cells.append([";".join([format(p, _FLOAT_FORMAT) for p in row]) for row in column.tolist()])
        else:
            cells.append([format(x, _FLOAT_FORMAT) for x in column.tolist()])
    # no field needs CSV quoting: each is a column name, a number or numbers joined by ";"
    return "".join(",".join(row) + "\n" for row in [_COLUMNS, *zip(*cells)])


def write_trajectory_csv(trajectory: Trajectory, path) -> None:
    with open_atomic(path, newline="") as fh:
        fh.write(trajectory_csv_text(trajectory))


def read_trajectory_csv(path) -> dict[str, np.ndarray]:
    """Read a trajectory back, column by column, as the columns of the run
    that wrote it: column name -> array.  The header must be the one
    :func:`trajectory_csv_text` writes."""
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError("no header row")
    if lines[0] != ",".join(_COLUMNS):
        raise ValueError(f"line 1: expected the header {','.join(_COLUMNS)}")
    rows = [line.split(",") for line in lines[1:]]
    if not rows:
        raise ValueError("no generation rows")
    if set(map(len, rows)) != {len(_COLUMNS)}:  # a cut or overlong line
        number = next(number for number, row in enumerate(rows, 2) if len(row) != len(_COLUMNS))
        raise ValueError(f"line {number}: expected {len(_COLUMNS)} fields")
    *cells, probabilities = zip(*rows)
    columns = {name: np.array(column, dtype=dtype) for (name, dtype), column in zip(_DTYPES.items(), cells)}
    if any(probabilities):  # absent when every cell is empty, as in a run that is not adaptive
        columns["adaptive_probabilities"] = _probabilities(probabilities)
    return columns


def _probabilities(cells: tuple[str, ...]) -> np.ndarray:
    """The (G, k) array of an adaptive_probabilities column: k values in every row."""
    shapes = [(bool(cell), cell.count(";")) for cell in cells]
    if shapes.count(shapes[0]) != len(shapes):
        number = next(number for number, shape in enumerate(shapes, 2) if shape != shapes[0])
        raise ValueError(f"line {number}: adaptive_probabilities differ from line 2's in presence or count")
    return np.array(";".join(cells).split(";"), dtype=np.float64).reshape(len(cells), -1)


def records_to_columns(trajectory: Trajectory) -> dict[str, np.ndarray]:
    """The columns of ``trajectory``: views of its own arrays, with no work per row."""
    return trajectory.columns


def run_summary_text(summary: dict) -> str:
    """The summary as JSON text; a NaN or infinite number raises ``ValueError``
    (RFC 8259 JSON has no token for it)."""
    return json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_run_summary(path, summary: dict) -> None:
    with open_atomic(path, newline="") as fh:
        fh.write(run_summary_text(summary))


def _finite_number(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)  # a bool is not a number


_CLASS_VALUES = tuple(c.value for c in BehaviourClass)  # a tuple: `in` takes any JSON value, even a list

#: the summary fields the analysis commands read: (what each must hold, its test)
_SUMMARY_FIELDS = {
    "behaviour_class": ("GB, SF, PC, BB or null", lambda v: v is None or v in _CLASS_VALUES),
    "final_error": ("a finite number or null", lambda v: v is None or _finite_number(v)),
    "final_max_component_variance": ("a finite number", _finite_number),
}


def read_run_summary(path) -> dict:
    """A run summary: a JSON object whose fields that the analysis commands
    read hold what the writer writes; otherwise ``ValueError`` naming the
    field and what it must hold."""
    with open(path) as fh:
        summary = json.load(fh)
    if not isinstance(summary, dict):
        raise ValueError("expected a JSON object")
    for key, (expected, valid) in _SUMMARY_FIELDS.items():
        if key not in summary:
            raise ValueError(f"no {key!r} (expected {expected})")
        if not valid(summary[key]):
            raise ValueError(f"{key!r} (expected {expected}, got {json.dumps(summary[key])})")
    return summary
