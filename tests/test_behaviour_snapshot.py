"""Distributional gate on final errors and violation ratios against a recorded behaviour snapshot.

``data/behaviour_snapshot.json`` holds, for 30 seeds of each cell {classic,
lshade} x {sat, beta, dismiss} on SBOX rastrigin, n=10, instance 1:

* ``cells``: the final ``best_error`` of each run, recorded before the engines
  switched to whole-generation draws;
* ``violations``: each run's mean over generations of
  ``infeasible_component_ratio`` and of ``infeasible_individual_ratio``, the
  violation pattern the paper studies.  A behaviour change can move these and
  leave the final errors where they were.

A change of random stream cannot keep those numbers bit-identical, so each
cell is compared as a distribution: a two-sided Mann-Whitney U test fails the
cell when p < 0.001.  The threshold is fixed; a failing cell is a behaviour
change to fix or to explain, never to tune away.  Every gate of a cell reads
the same 30 runs, made once per module.

Re-record the violation ratios (only when a behaviour change is deliberate
and explained); the recorded final errors are kept as they are:

    PYTHONPATH=src python3 tests/test_behaviour_snapshot.py --record
"""

import functools
import json
import sys
from pathlib import Path

import pytest
from scipy.stats import mannwhitneyu

from debox.benchmarks import make_instance
from debox.engine import RunConfig, run

SNAPSHOT_PATH = Path(__file__).resolve().parent / "data" / "behaviour_snapshot.json"
P_THRESHOLD = 0.001
SETUP = {"function": "rastrigin", "mode": "SBOX", "dimension": 10, "instance": 1, "budget": 5000,
         "seeds": list(range(1, 31))}
CELLS = [(engine, bchm) for engine in ("classic", "lshade") for bchm in ("sat", "beta", "dismiss")]
RATIOS = ("infeasible_component_ratio", "infeasible_individual_ratio")


def observe(engine: str, bchm: str, setup: dict) -> dict[str, list[float]]:
    """Per seed, the final error and the run's mean of each violation ratio over its generations."""
    observed = {"best_error": [], **{ratio: [] for ratio in RATIOS}}
    for seed in setup["seeds"]:
        problem = make_instance(setup["function"], setup["instance"], setup["dimension"], setup["mode"])
        config = RunConfig(problem=problem, engine=engine, bchm=bchm, budget=setup["budget"], seed=seed)
        result = run(config)
        observed["best_error"].append(result.best_error)
        for ratio in RATIOS:
            observed[ratio].append(float(result.records.columns[ratio].mean()))
    return observed


def _snapshot() -> dict:
    return json.loads(SNAPSHOT_PATH.read_text())


@functools.cache
def observed_cell(engine: str, bchm: str) -> dict[str, list[float]]:
    return observe(engine, bchm, _snapshot()["setup"])


@pytest.mark.parametrize("engine,bchm", CELLS, ids=[f"{e}-{b}" for e, b in CELLS])
def test_final_error_distribution_matches_snapshot(engine, bchm):
    snapshot = _snapshot()
    recorded = snapshot["cells"][f"{engine}/{bchm}"]
    observed = observed_cell(engine, bchm)["best_error"]
    p = mannwhitneyu(observed, recorded, alternative="two-sided").pvalue
    assert p >= P_THRESHOLD, f"{engine}/{bchm}: Mann-Whitney p = {p:.2e}"


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("engine,bchm", CELLS, ids=[f"{e}-{b}" for e, b in CELLS])
def test_violation_distribution_matches_snapshot(engine, bchm, ratio):
    recorded = _snapshot()["violations"][f"{engine}/{bchm}"][ratio]
    observed = observed_cell(engine, bchm)[ratio]
    p = mannwhitneyu(observed, recorded, alternative="two-sided").pvalue
    assert p >= P_THRESHOLD, f"{engine}/{bchm} {ratio}: Mann-Whitney p = {p:.2e}"


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    snapshot = _snapshot() if SNAPSHOT_PATH.exists() else {"setup": SETUP}
    observed = {f"{engine}/{bchm}": observe(engine, bchm, snapshot["setup"]) for engine, bchm in CELLS}
    snapshot.setdefault("cells", {cell: runs["best_error"] for cell, runs in observed.items()})
    snapshot["violations"] = {cell: {ratio: runs[ratio] for ratio in RATIOS} for cell, runs in observed.items()}
    SNAPSHOT_PATH.parent.mkdir(exist_ok=True)
    SNAPSHOT_PATH.write_text(json.dumps(snapshot, indent=1) + "\n")
