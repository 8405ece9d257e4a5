"""Byte-identity guard for the analysis commands.

A fixed sweep (2 functions x 2 engines x 3 BCHMs x 2 runs, n=2) is analysed
by ``classify``, ``cluster --label-by bchm``, ``cluster --label-by function``
and ``rank``; every file they write is hashed, and so is every trajectory
CSV of the sweep.  The digests were recorded before the commands shared one
manifest reader and one writer; a change to any byte of any output fails
here, and names the file.
"""

import hashlib
import json

import pytest

from debox.cli import main

SWEEP = {
    "functions": ["linear_slope", "rastrigin"],
    "instances": [1],
    "dimensions": [2],
    "engines": ["classic", "lshade"],
    "bchms": ["sat", "mirror", "adaptive"],
    "runs_per_cell": 2,
    "budget_multiplier": 300,
    "base_seed": 11,
    "classic_population_size": 8,
}

DIGESTS = {
    "classes.csv": "65b87c62a911a06c20480f9d881724c759fda6ce7f8bc7b60b1fedece8c3ccf7",
    "classes_summary.csv": "ee9e9156e82df2c9094912a852f17aa94de71c000b99fd1bb724c7e70b8f08d1",
    "dendrogram_best_so_far_bchm.json": "0f73963defe8ac4e2b1360e6422d495c6755bb7e546b9f775d4e70e8fd167cab",
    "dendrogram_best_so_far_bchm.newick": "9a2e6953027141e86cfd648814c8c59e5cd637b0aff2ecc3edbff0708a63bc95",
    "dendrogram_best_so_far_function.json": "0e0c1e87bed58a45cb1584bd40c816856999937c1b683b9b5afed637647f972a",
    "dendrogram_best_so_far_function.newick": "606e838efea49c986b125208aaf09ba1f64cc235b9c39c94192f919f471ada31",
    "dendrogram_population_variance_bchm.json": "50a6ab9f33b36a1a2b5f704e7a012bff65730d1a9da95319781d78409d862c80",
    "dendrogram_population_variance_bchm.newick": "269be28230022ed17fa4a3eb81edd9b8a5178ac1bfdf1241e98ba6ca47bd892e",
    "dendrogram_population_variance_function.json": "479876a0f2a18bc7e2ff74067442c1c42f78d7db8c3cf762018a28767a8ddcf0",
    "dendrogram_population_variance_function.newick": "603c6dd694c94dadffe3677c46b8bf3f9bf6d1ebe76a006c87309e0b9af9b0a2",
    "dendrogram_violation_probability_bchm.json": "cec4f4b39a1557ce6a9f469e8aa70ce0da3336d6514629a9e35829d8b043e3eb",
    "dendrogram_violation_probability_bchm.newick": "203df0256ee2ec0246cbb51131895f43b8a70a486b4ff6bfaa8265c3cccce81c",
    "dendrogram_violation_probability_function.json": "bd811e1065566dd371a4661f97e67a56321aa9da3bca7e0973c43933c642a205",
    "dendrogram_violation_probability_function.newick": "f09d98ad215bf550f6ed5b928d5a74830400dea9669a5a890a59f4e0e52f8d41",
    "ranking.csv": "74b080c21bd0dc737ec12bc2655bd5f9975d2b9972e7bdfca5447ef3f2df2876",
    "similarity_best_so_far_bchm.csv": "99d53dc70c7b0074b754d307a11e3d99519f457d64abffeabbbad1ee1032b59b",
    "similarity_best_so_far_function.csv": "93801a9de93a22d15d0561908c2505b3ae33e5d94b31d1be2c331e3482c487fa",
    "similarity_population_variance_bchm.csv": "3331b30cfb92ed3008e0c9c38c21b0275d6038c01cdacbdbdfbaa2ffa5bd5579",
    "similarity_population_variance_function.csv": "f7de5e0fded94171862e7594dead8c2623c405d5153d58d55d1f93f8b9e4083c",
    "similarity_violation_probability_bchm.csv": "1b72f3e2ab56c42d4de34990b5c6ebfb9da248261a1934a2c78af939da18c339",
    "similarity_violation_probability_function.csv": "2e108449d7a97d68596ab64608dc3da5b289df16a679433b4b6d470738feb1b3",
    "trajectories": "fcf2e1330e235f27ade2e2f406b59b86eb0099c73a0ed0a7f1d06c554466f602",
}


def _digests(directory):
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(directory.iterdir())}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """The digest of every analysis file, and one digest over the sweep's trajectory CSVs."""
    tmp_path = tmp_path_factory.mktemp("analysis_digest")
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(SWEEP))
    sweep, analysis = tmp_path / "sweep", tmp_path / "analysis"
    assert main(["sweep", "--config", str(config), "--out", str(sweep)]) == 0
    manifest = ["--manifest", str(sweep / "manifest.json"), "--out", str(analysis)]
    for command in (["classify"], ["cluster", "--label-by", "bchm"], ["cluster", "--label-by", "function"],
                    ["rank"]):
        assert main([*command, *manifest]) == 0, command
    h = hashlib.sha256()
    for path in sorted((sweep / "runs").glob("*.csv")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return dict(_digests(analysis), trajectories=h.hexdigest())


def test_every_analysis_file_matches_its_recorded_digest(outputs):
    assert outputs == DIGESTS
