"""Distributional gate on final errors against a recorded behaviour snapshot.

``data/behaviour_snapshot.json`` holds the final ``best_error`` of 30 seeds for
each cell {classic, lshade} x {sat, beta, dismiss} on SBOX rastrigin, n=10,
instance 1, recorded before the engines switched to whole-generation draws.
A change of random stream cannot keep those numbers bit-identical, so each
cell is compared as a distribution: a two-sided Mann-Whitney U test fails the
cell when p < 0.001.  The threshold is fixed; a failing cell is a behaviour
change to fix or to explain, never to tune away.

Re-record (only when a behaviour change is deliberate and explained):

    PYTHONPATH=src python3 tests/test_behaviour_snapshot.py --record
"""

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


def final_errors(engine: str, bchm: str, setup: dict) -> list[float]:
    errors = []
    for seed in setup["seeds"]:
        problem = make_instance(setup["function"], setup["instance"], setup["dimension"], setup["mode"])
        config = RunConfig(problem=problem, engine=engine, bchm=bchm, budget=setup["budget"], seed=seed)
        errors.append(run(config).best_error)
    return errors


def _snapshot() -> dict:
    return json.loads(SNAPSHOT_PATH.read_text())


@pytest.mark.parametrize("engine,bchm", CELLS, ids=[f"{e}-{b}" for e, b in CELLS])
def test_final_error_distribution_matches_snapshot(engine, bchm):
    snapshot = _snapshot()
    recorded = snapshot["cells"][f"{engine}/{bchm}"]
    observed = final_errors(engine, bchm, snapshot["setup"])
    p = mannwhitneyu(observed, recorded, alternative="two-sided").pvalue
    assert p >= P_THRESHOLD, f"{engine}/{bchm}: Mann-Whitney p = {p:.2e}"


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    cells = {f"{engine}/{bchm}": final_errors(engine, bchm, SETUP) for engine, bchm in CELLS}
    SNAPSHOT_PATH.parent.mkdir(exist_ok=True)
    SNAPSHOT_PATH.write_text(json.dumps({"setup": SETUP, "cells": cells}, indent=1) + "\n")
