"""Smoke test of the benchmark harness: every workload at a tiny size.

    python3 -m pytest bench/test_smoke.py -q

Each workload runs with ``--size tiny`` in both modes; the test checks that
the last line of standard output carries every metric BENCHMARK.json names,
with its unit, and that the readable report names them too.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def _tiny(workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return _run(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = _tiny(workload, 3, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == declared
    report = "\n".join(lines[:-1])
    for name, unit in declared.items():
        assert f" {name} " in report and report.count(unit) >= 1


def test_same_seed_same_fingerprint():
    fingerprints = []
    for seed in (5, 5, 6):
        done = _tiny("boundary-lshade", seed, 0)
        assert done.returncode == 0, done.stderr
        fingerprints.append(next(l for l in done.stdout.splitlines() if l.startswith("fingerprint")))
    assert fingerprints[0] == fingerprints[1]
    assert fingerprints[0] != fingerprints[2]


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
