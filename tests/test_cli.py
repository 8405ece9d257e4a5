import argparse
import concurrent.futures.process
import contextlib
import csv
import dataclasses
import hashlib
import json
import os
import pathlib
import platform
import re
import shutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import debox
from debox import cli, telemetry
from debox.cli import main
from debox.engine import RunConfig


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def run_config(**overrides):
    config = {
        "function": "sphere",
        "instance": 1,
        "dimension": 2,
        "engine": "classic",
        "bchm": "sat",
        "seed": 1,
        "budget": 400,
        "classic_population_size": 10,
    }
    config.update(overrides)
    return config


def drop_versions(manifest):
    """A manifest as written before its entries recorded ``versions``."""
    for entry in manifest["cells"]:
        del entry["versions"]


#: the one line that reports a key no manifest entry has
NO_VERSIONS = ("  every entry: no 'versions' (a manifest written before entries recorded 'versions': running "
               "`debox sweep` again with its config on this directory reruns the cells and rewrites the manifest)")


def sweep_config(**overrides):
    config = {
        "functions": ["sphere", "rastrigin"],
        "instances": [1],
        "dimensions": [2],
        "engines": ["classic"],
        "bchms": ["sat", "mirror"],
        "runs_per_cell": 3,
        "budget_multiplier": 150,
        "base_seed": 7,
        "classic_population_size": 8,
    }
    config.update(overrides)
    return config


class TestRunCommand:
    def test_minimal_config_creates_two_files(self, tmp_path):
        config = write_json(tmp_path / "run.json", run_config())
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert len(files) == 2
        assert any(f.endswith(".csv") for f in files)
        assert any(f.endswith(".json") for f in files)

    def test_missing_bchm_exits_2_and_names_field(self, tmp_path, capsys):
        payload = run_config()
        del payload["bchm"]
        config = write_json(tmp_path / "run.json", payload)
        assert main(["run", "--config", config, "--out", str(tmp_path / "o")]) == 2
        assert "bchm" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        # a typo, the settings that became constants of the engine, BCHM and classifier,
        # the retired target stop, and the former keys of the output settings, which only
        # the command line sets
        shared = {"bchn": "sat", "shade": {"p_max": 0.2}, "beta_epsilon": 0.1,
                  "adaptive_update_period": 25, "adaptive_floor": 0.05, "target_error": 1e-3}
        unknown = {"run": {"out": str(tmp_path / "o"), "name": "stem"},
                   "sweep": {"output_directory": str(tmp_path / "o"), "parallelism": 2}}
        for command, payload in (("run", run_config()), ("sweep", sweep_config())):
            for key, value in {**shared, **unknown[command]}.items():
                config = write_json(tmp_path / f"{command}.json", dict(payload, **{key: value}))
                assert main([command, "--config", config, "--out", str(tmp_path / "o")]) == 2, (command, key)
                assert capsys.readouterr().err.splitlines() == [f"config error: {key} (unknown key)"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["scale_factor", "crossover_rate"])
    def test_classic_f_and_cr_are_constants_not_keys(self, tmp_path, capsys, key):
        for command, payload in (("run", run_config()), ("sweep", sweep_config())):
            config = write_json(tmp_path / f"{command}.json", dict(payload, classic={"population_size": 8, key: 0.5}))
            assert main([command, "--config", config, "--out", str(tmp_path / "o")]) == 2, command
            assert capsys.readouterr().err.splitlines() == ["config error: classic (unknown key)"]
        assert not (tmp_path / "o").exists()

    def test_the_former_classic_object_is_an_unknown_key(self, tmp_path, capsys):
        # classic DE's population size is the flat key classic_population_size; the object it sat in is gone
        for command, payload in (("run", run_config()), ("sweep", sweep_config())):
            config = write_json(tmp_path / f"{command}.json", dict(payload, classic={"population_size": 8}))
            assert main([command, "--config", config, "--out", str(tmp_path / "o")]) == 2, command
            assert capsys.readouterr().err.splitlines() == ["config error: classic (unknown key)"]
        assert not (tmp_path / "o").exists()

    def test_unknown_method_id_exits_2(self, tmp_path, capsys):
        config = write_json(tmp_path / "run.json", run_config(bchm="clip"))
        assert main(["run", "--config", config, "--out", str(tmp_path / "o")]) == 2
        assert "clip" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("budget", -5),
        ("classic_population_size", 2),
        ("classic_population_size", "ten"),
        ("mode", "BOX"),
        ("engine", "jade"),
        ("dimension", 1),
    ])
    def test_range_and_type_errors_exit_2_naming_the_field(self, tmp_path, capsys, field, value):
        config = write_json(tmp_path / "run.json", run_config(**{field: value}))
        assert main(["run", "--config", config, "--out", str(tmp_path / "o")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert [line for line in lines if line.startswith(f"config error: {field} ")] and len(lines) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("overrides, size", [({"budget": 10}, 10), ({"engine": "lshade", "budget": 36}, 36)])
    def test_budget_the_initial_population_uses_up_exits_2(self, tmp_path, capsys, overrides, size):
        config = write_json(tmp_path / "run.json", run_config(**overrides))
        assert main(["run", "--config", config, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: budget (must exceed the initial population size {size}, got {overrides['budget']})"]
        assert not (tmp_path / "o").exists()

    def test_every_dataclass_field_is_a_key_echoed_with_its_default(self, tmp_path):
        # drift guard: the run schema is RunConfig's fields less problem, plus the problem keys and the
        # run's own keys, and it is flat
        fields = {f.name for f in dataclasses.fields(RunConfig)} - {"problem"}
        assert set(cli._RUN_SCHEMA) == fields | {"function", "instance", "dimension", "mode",
                                                 "budget_multiplier", "plugin_modules"}
        assert not [key for key, (_, default) in cli._RUN_SCHEMA.items() if isinstance(default, dict)]
        defaults = dataclasses.asdict(RunConfig(problem=None))
        del defaults["problem"]
        payload = {"function": "sphere", "dimension": 2, "budget_multiplier": 50, **defaults}
        config = write_json(tmp_path / "run.json", payload)
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        echo = json.loads(next(p for p in out.iterdir() if p.suffix == ".json").read_text())["config"]
        assert {key: echo[key] for key in defaults} == dict(defaults, budget=100)

    def test_rerun_is_byte_identical(self, tmp_path):
        config = write_json(tmp_path / "run.json", run_config())
        out = tmp_path / "out"
        main(["run", "--config", config, "--out", str(out)])
        csv_path = next(p for p in out.iterdir() if p.suffix == ".csv")
        first = csv_path.read_bytes()
        main(["run", "--config", config, "--out", str(out)])
        assert csv_path.read_bytes() == first

    def test_summary_echoes_resolved_config(self, tmp_path):
        config = write_json(tmp_path / "run.json", run_config())
        out = tmp_path / "out"
        main(["run", "--config", config, "--out", str(out)])
        summary = json.loads(next(p for p in out.iterdir() if p.suffix == ".json").read_text())
        assert summary["config"]["budget"] == 400
        assert summary["config"]["mode"] == "SBOX"
        assert summary["config"]["classic_population_size"] == 10
        assert summary["behaviour_class"] in ("GB", "SF", "PC", "BB")

    def test_summary_reports_stop_reason_and_phase_seconds(self, tmp_path):
        config = write_json(tmp_path / "run.json", run_config())
        out = tmp_path / "out"
        main(["run", "--config", config, "--out", str(out)])
        summary = json.loads(next(p for p in out.iterdir() if p.suffix == ".json").read_text())
        assert summary["stop_reason"] == "budget"
        assert set(summary["phase_seconds"]) == {
            "variation", "repair", "evaluation", "selection_and_adaptation", "telemetry"}
        assert sum(summary["phase_seconds"].values()) <= summary["wall_time_seconds"]

    def test_summary_records_versions(self, tmp_path):
        config = write_json(tmp_path / "run.json", run_config())
        out = tmp_path / "out"
        main(["run", "--config", config, "--out", str(out)])
        summary = json.loads(next(p for p in out.iterdir() if p.suffix == ".json").read_text())
        package, source = os.path.dirname(debox.__file__), hashlib.sha256()
        for name in sorted(name for name in os.listdir(package) if name.endswith(".py")):
            source.update(name.encode() + b"\0" + (pathlib.Path(package) / name).read_bytes() + b"\0")
        assert summary["versions"] == {
            "debox": debox.__version__, "numpy": np.__version__, "python": platform.python_version(),
            "source": source.hexdigest()}

    def test_plugin_problem(self, tmp_path, monkeypatch):
        module = tmp_path / "my_problems.py"
        module.write_text(
            "import numpy as np\n"
            "from debox.benchmarks import ExternalProblem, register_problem\n"
            "from debox.core import Bounds\n"
            "def _factory(instance, dimension):\n"
            "    return ExternalProblem(name='shifted_abs', dimension=dimension,\n"
            "                           bounds=Bounds.symmetric(5.0, dimension),\n"
            "                           objective=lambda x: float(np.sum(np.abs(x - 0.5))),\n"
            "                           optimum_value=0.0)\n"
            "register_problem('shifted_abs', _factory)\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        config = write_json(
            tmp_path / "run.json",
            run_config(function="shifted_abs", plugin_modules=["my_problems"]),
        )
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        summary = json.loads(next(p for p in out.iterdir() if p.suffix == ".json").read_text())
        assert summary["config"]["function"] == "shifted_abs"

    def test_a_plugin_run_that_would_claim_a_solve_fails(self, tmp_path, monkeypatch, capsys):
        module = tmp_path / "unsolved_problems.py"
        module.write_text(
            "import numpy as np\n"
            "from debox.benchmarks import ExternalProblem, register_problem\n"
            "from debox.core import Bounds\n"
            "objectives = {'minus_inf': lambda x: -np.inf if x[0] > 4.0 else float(np.sum(x * x)),\n"
            "              'below_optimum': lambda x: float(np.sum(x * x)) - 1.0}\n"
            "for name, objective in objectives.items():\n"
            "    register_problem(name, lambda instance, dimension, name=name, objective=objective: ExternalProblem(\n"
            "        name=name, dimension=dimension, bounds=Bounds.symmetric(5.0, dimension),\n"
            "        objective=objective, optimum_value=0.0))\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        config = write_json(tmp_path / "run.json", run_config(
            function="minus_inf", dimension=5, engine="lshade", budget=1000, plugin_modules=["unsolved_problems"]))
        assert main(["run", "--config", config, "--out", str(tmp_path / "run_out")]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: problem 'minus_inf': the objective returned -inf"]
        sweep = write_json(tmp_path / "sweep.json", sweep_config(
            functions=["minus_inf", "below_optimum"], dimensions=[5], engines=["lshade"], bchms=["sat"],
            runs_per_cell=1, plugin_modules=["unsolved_problems"]))
        assert main(["sweep", "--config", sweep, "--out", str(tmp_path / "sweep_out")]) == 1
        cells = json.loads((tmp_path / "sweep_out" / "manifest.json").read_text())["cells"]
        assert [(cell["function"], cell["status"]) for cell in cells] == [
            ("below_optimum", "failed"), ("minus_inf", "failed")]
        assert re.fullmatch(r"ValueError: problem 'below_optimum': best fitness -\S+ lies below its stated "
                            r"optimum value 0\.0", cells[0]["error"])
        assert cells[1]["error"] == "ValueError: problem 'minus_inf': the objective returned -inf"

    def test_a_run_without_a_finite_value_fails_and_writes_no_file(self, tmp_path, monkeypatch, capsys):
        module = tmp_path / "nan_problems.py"
        module.write_text(
            "import numpy as np\n"
            "from debox.benchmarks import ExternalProblem, register_problem\n"
            "from debox.core import Bounds\n"
            "register_problem('all_nan', lambda instance, dimension: ExternalProblem(\n"
            "    name='all_nan', dimension=dimension, bounds=Bounds.symmetric(5.0, dimension),\n"
            "    objective=lambda x: np.nan, optimum_value=0.0))\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        config = write_json(tmp_path / "run.json", run_config(
            function="all_nan", budget=200, plugin_modules=["nan_problems"]))
        assert main(["run", "--config", config, "--out", str(tmp_path / "run_out")]) == 1
        message = "problem 'all_nan': no evaluated point scored a finite value (best fitness inf)"
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "run_out").exists()
        sweep = write_json(tmp_path / "sweep.json", sweep_config(
            functions=["all_nan"], bchms=["sat"], runs_per_cell=1, plugin_modules=["nan_problems"]))
        assert main(["sweep", "--config", sweep, "--out", str(tmp_path / "sweep_out")]) == 1
        (cell,) = json.loads((tmp_path / "sweep_out" / "manifest.json").read_text())["cells"]
        assert (cell["status"], cell["error"]) == ("failed", f"ValueError: {message}")
        assert os.listdir(tmp_path / "sweep_out" / "runs") == []

    def test_a_non_finite_optimum_value_fails_and_writes_no_file(self, tmp_path, monkeypatch, capsys):
        module = tmp_path / "bad_optimum_problems.py"
        module.write_text(
            "import numpy as np\n"
            "from debox.benchmarks import ExternalProblem, register_problem\n"
            "from debox.core import Bounds\n"
            "for name, optimum in (('minus_inf_optimum', -np.inf), ('nan_optimum', np.nan)):\n"
            "    register_problem(name, lambda instance, dimension, name=name, optimum=optimum: ExternalProblem(\n"
            "        name=name, dimension=dimension, bounds=Bounds.symmetric(5.0, dimension),\n"
            "        objective=lambda x: float(np.sum(x * x)), optimum_value=optimum))\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        message = "problem 'minus_inf_optimum': optimum_value must be finite, got -inf"
        config = write_json(tmp_path / "run.json", run_config(
            function="minus_inf_optimum", plugin_modules=["bad_optimum_problems"]))
        assert main(["run", "--config", config, "--out", str(tmp_path / "run_out")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "run_out").exists()
        sweep = write_json(tmp_path / "sweep.json", sweep_config(
            functions=["minus_inf_optimum", "nan_optimum"], bchms=["sat"], runs_per_cell=1,
            plugin_modules=["bad_optimum_problems"]))
        assert main(["sweep", "--config", sweep, "--out", str(tmp_path / "sweep_out")]) == 1
        cells = json.loads((tmp_path / "sweep_out" / "manifest.json").read_text())["cells"]
        assert [(cell["status"], cell["error"]) for cell in cells] == [
            ("failed", f"ValueError: {message}"),
            ("failed", "ValueError: problem 'nan_optimum': optimum_value must be finite, got nan")]
        assert os.listdir(tmp_path / "sweep_out" / "runs") == []

    def test_a_non_finite_variance_fails_and_writes_no_file(self, tmp_path, monkeypatch, capsys):
        # Bounds rejects a box wide enough for the variance to overflow, so the run result is patched
        def run_with_inf_variance(config):
            return dataclasses.replace(real_run(config), final_max_component_variance=float("inf"))

        real_run = cli.run
        monkeypatch.setattr(cli, "run", run_with_inf_variance)
        message = "problem 'sphere': the final population's variance is not finite " \
                  "(final_max_component_variance inf)"
        config = write_json(tmp_path / "run.json", run_config(dimension=3, budget=200))
        sweep = write_json(tmp_path / "sweep.json", sweep_config(
            functions=["sphere"], dimensions=[3], bchms=["sat"], runs_per_cell=1, budget_multiplier=70))
        assert main(["run", "--config", config, "--out", str(tmp_path / "run_out")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert main(["sweep", "--config", sweep, "--out", str(tmp_path / "sweep_out")]) == 1
        assert not (tmp_path / "run_out").exists()
        (cell,) = json.loads((tmp_path / "sweep_out" / "manifest.json").read_text())["cells"]
        assert (cell["status"], cell["error"]) == ("failed", f"ValueError: {message}")
        assert os.listdir(tmp_path / "sweep_out" / "runs") == []

    def test_plugin_returning_other_than_a_problem_exits_1_naming_it(self, tmp_path, monkeypatch, capsys):
        module = tmp_path / "duck_problems.py"
        module.write_text(
            "import numpy as np\n"
            "from types import SimpleNamespace\n"
            "from debox.benchmarks import register_problem\n"
            "from debox.core import Bounds\n"
            "register_problem('duck', lambda instance, dimension: SimpleNamespace(\n"
            "    dimension=dimension, bounds=Bounds.symmetric(5.0, dimension), optimum_value=0.0,\n"
            "    evaluate=lambda x: float(np.sum(x * x))))\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        config = write_json(tmp_path / "run.json", run_config(function="duck", plugin_modules=["duck_problems"]))
        assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "'duck'" in err and "SimpleNamespace" in err and "BenchmarkProblem" in err, err


class TestSweepCommand:
    def test_grid_produces_expected_artifacts(self, tmp_path):
        config = write_json(tmp_path / "sweep.json", sweep_config())
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        csvs = list((out / "runs").glob("*.csv"))
        assert len(csvs) == 12  # 2 functions x 1 instance x 2 bchms x 3 runs
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["cells"]) == 12
        listed = {entry["trajectory_csv"] for entry in manifest["cells"]}
        assert listed == {os.path.join("runs", p.name) for p in csvs}

    def test_resume_recomputes_only_missing_cells(self, tmp_path):
        config = write_json(tmp_path / "sweep.json", sweep_config())
        out = tmp_path / "out"
        main(["sweep", "--config", config, "--out", str(out)])
        csvs = sorted((out / "runs").glob("*.csv"))
        victim = csvs[0]
        kept = csvs[1]
        victim_bytes = victim.read_bytes()
        kept_mtime = kept.stat().st_mtime_ns
        manifest = (out / "manifest.json").read_bytes()
        victim.unlink()
        main(["sweep", "--config", config, "--out", str(out)])
        assert victim.read_bytes() == victim_bytes  # recomputed identically
        assert kept.stat().st_mtime_ns == kept_mtime  # untouched
        assert (out / "manifest.json").read_bytes() == manifest

    def test_resume_recomputes_cells_of_a_changed_config(self, tmp_path):
        out = tmp_path / "out"
        main(["sweep", "--config", write_json(tmp_path / "a.json", sweep_config(budget_multiplier=20)),
              "--out", str(out)])
        main(["sweep", "--config", write_json(tmp_path / "b.json", sweep_config(budget_multiplier=150)),
              "--out", str(out)])
        for summary in (out / "runs").glob("*.json"):
            assert json.loads(summary.read_text())["config"]["budget"] == 300

    def test_resume_recomputes_a_cell_run_under_other_versions(self, tmp_path):
        config = write_json(tmp_path / "sweep.json", sweep_config())
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        victim, kept = sorted((out / "runs").glob("*.json"))[:2]
        summary = json.loads(victim.read_text())
        summary["versions"]["source"] = "0" * 64  # as if run before an edit to the package
        victim.write_text(json.dumps(summary))
        kept_mtime = kept.stat().st_mtime_ns
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        assert json.loads(victim.read_text())["versions"] == cli._VERSIONS
        assert kept.stat().st_mtime_ns == kept_mtime

    def test_resume_recomputes_a_truncated_summary(self, tmp_path):
        config = write_json(tmp_path / "sweep.json", sweep_config())
        out = tmp_path / "out"
        main(["sweep", "--config", config, "--out", str(out)])
        victim = sorted((out / "runs").glob("*.json"))[0]
        whole = victim.read_text()
        victim.write_text(whole[: len(whole) // 2])
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        assert json.loads(victim.read_text())["config"] == json.loads(whole)["config"]
        assert main(["classify", "--manifest", str(out / "manifest.json"), "--out", str(tmp_path)]) == 0

    def test_bad_cell_value_starts_no_run(self, tmp_path, capsys):
        config = write_json(tmp_path / "sweep.json", sweep_config(classic_population_size=2))
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == ["config error: classic_population_size (must be >= 4)"]
        assert not out.exists()

    def test_budget_the_initial_population_uses_up_starts_no_run(self, tmp_path, capsys):
        # budget 5 x 2 = 10 against L-SHADE's initial population of 18 x 2 = 36
        config = write_json(tmp_path / "sweep.json", sweep_config(engines=["classic", "lshade"], budget_multiplier=5))
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: budget (must exceed the initial population size 36, got 10)"]
        assert not out.exists()

    def test_parallelism_does_not_change_outputs(self, tmp_path):
        config = write_json(tmp_path / "sweep.json", sweep_config(runs_per_cell=1))
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        main(["sweep", "--config", config, "--out", str(serial)])
        main(["sweep", "--config", config, "--out", str(parallel), "--parallelism", "4"])
        serial_files = sorted((serial / "runs").glob("*.csv"))
        parallel_files = sorted((parallel / "runs").glob("*.csv"))
        assert [p.name for p in serial_files] == [p.name for p in parallel_files]
        for a, b in zip(serial_files, parallel_files):
            assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("parallelism", ["1", "2"])
    def test_a_failing_cell_loses_no_other_cell(self, tmp_path, monkeypatch, capsys, parallelism):
        module = tmp_path / "fragile_problems.py"
        module.write_text(
            "import numpy as np\n"
            "from debox.benchmarks import ExternalProblem, register_problem\n"
            "from debox.core import Bounds\n"
            "def _factory(instance, dimension):\n"
            "    def objective(x):\n"
            "        if instance == 2:\n"
            "            raise RuntimeError('objective exploded')\n"
            "        return float(np.sum(x * x))\n"
            "    return ExternalProblem(name='fragile', dimension=dimension,\n"
            "                           bounds=Bounds.symmetric(5.0, dimension), objective=objective,\n"
            "                           optimum_value=0.0)\n"
            "register_problem('fragile', _factory)\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        config = write_json(tmp_path / "sweep.json", sweep_config(
            functions=["fragile"], instances=[1, 2, 3], bchms=["sat"], runs_per_cell=1,
            plugin_modules=["fragile_problems"]))
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out), "--parallelism", parallelism]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "error: 1 of 3 sweep cells failed:"
        assert len(err) == 2 and "_i2_" in err[1] and err[1].endswith(": RuntimeError: objective exploded")
        manifest = json.loads((out / "manifest.json").read_text())
        assert [(e["instance"], e["status"], e.get("error")) for e in manifest["cells"]] == [
            (1, "ok", None), (2, "failed", "RuntimeError: objective exploded"), (3, "ok", None)]
        for entry in manifest["cells"]:
            assert (out / entry["summary_json"]).exists() == (entry["status"] == "ok")
        assert "raise RuntimeError('objective exploded')" in manifest["cells"][1]["traceback"]
        for command in ("classify", "cluster", "rank"):
            assert main([command, "--manifest", str(out / "manifest.json"), "--out", str(tmp_path / command)]) == 1
            err = capsys.readouterr().err.splitlines()
            assert err[0] == "error: the sweep has failed cells:" and err[1:] == [err[1]] and "_i2_" in err[1]

    def test_a_manifest_write_that_raises_leaves_the_previous_manifest(self, tmp_path, monkeypatch):
        config = write_json(tmp_path / "sweep.json", sweep_config(runs_per_cell=1))
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        manifest = (out / "manifest.json").read_bytes()

        def dump_half(obj, fh, **kwargs):
            fh.write(json.dumps(obj, **kwargs)[:100])
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", dump_half)
        assert main(["sweep", "--config", config, "--out", str(out)]) == 1
        assert (out / "manifest.json").read_bytes() == manifest
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "runs"]

    @pytest.mark.parametrize("parallelism", ["0", "-3"])
    def test_parallelism_flag_below_1_exits_2(self, tmp_path, capsys, parallelism):
        config = write_json(tmp_path / "sweep.json", sweep_config())
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out), "--parallelism", parallelism]) == 2
        assert capsys.readouterr().err.splitlines() == ["config error: parallelism (must be >= 1)"]
        assert not out.exists()

    def test_the_sweep_process_makes_every_write(self, tmp_path, monkeypatch):
        # forked workers would count into their own copy of ``paths``
        paths, real = [], telemetry.open_atomic

        def counting(path, *args, **kwargs):
            paths.append(os.fspath(path))
            return real(path, *args, **kwargs)

        monkeypatch.setattr(telemetry, "open_atomic", counting)
        config = write_json(tmp_path / "sweep.json", sweep_config())
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out), "--parallelism", "2"]) == 0
        assert len(paths) == 2 * 12 + 1 and paths[-1] == str(out / "manifest.json")

    @pytest.mark.parametrize("parallelism", ["1", "2"])
    def test_an_artifact_write_that_raises_fails_only_its_cell(self, tmp_path, monkeypatch, capsys, parallelism):
        victim, real = "rastrigin_SBOX_d2_classic_mirror_", telemetry.open_atomic

        @contextlib.contextmanager
        def failing(path, *args, **kwargs):
            with real(path, *args, **kwargs) as fh:
                if victim in os.fspath(path) and os.fspath(path).endswith("_r1.json"):
                    raise OSError("disk full")
                yield fh

        monkeypatch.setattr(telemetry, "open_atomic", failing)
        config = write_json(tmp_path / "sweep.json", sweep_config())
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out), "--parallelism", parallelism]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "error: 1 of 12 sweep cells failed:"
        assert len(err) == 2 and victim in err[1] and err[1].endswith("_r1: OSError: disk full")
        cells = json.loads((out / "manifest.json").read_text())["cells"]
        failed = [e for e in cells if e["status"] != "ok"]
        assert len(failed) == 1 and failed[0]["error"] == "OSError: disk full"
        assert 'raise OSError("disk full")' in failed[0]["traceback"]
        for entry in cells:
            assert (out / entry["summary_json"]).exists() == (entry["status"] == "ok")
            assert entry["status"] == "failed" or (out / entry["trajectory_csv"]).exists()
        assert not [p.name for p in (out / "runs").iterdir() if p.name.startswith(".")]

    def test_resume_runs_only_the_missing_cell(self, tmp_path, monkeypatch):
        config = write_json(tmp_path / "sweep.json", sweep_config())
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        sorted((out / "runs").glob("*.csv"))[3].unlink()
        calls, real = [], cli._run_cell
        monkeypatch.setattr(cli, "_run_cell", lambda cell: calls.append(cell) or real(cell))
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        assert len(calls) == 1

    def test_resume_of_a_complete_sweep_starts_no_pool(self, tmp_path, monkeypatch):
        config = write_json(tmp_path / "sweep.json", sweep_config())
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was created")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert main(["sweep", "--config", config, "--out", str(out), "--parallelism", "2"]) == 0

    def test_a_resume_of_one_cell_runs_it_here_without_a_pool(self, tmp_path, monkeypatch, pool_sizes):
        config = write_json(tmp_path / "sweep.json", sweep_config())
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        sorted((out / "runs").glob("*.csv"))[3].unlink()
        calls, real = [], cli._run_cell  # a forked worker would count into its own copy of ``calls``
        monkeypatch.setattr(cli, "_run_cell", lambda cell: calls.append(cell) or real(cell))
        assert main(["sweep", "--config", config, "--out", str(out), "--parallelism", "2"]) == 0
        assert pool_sizes == [] and len(calls) == 1

    def test_a_resume_of_two_cells_starts_one_worker_per_cell(self, tmp_path, pool_sizes):
        config = write_json(tmp_path / "sweep.json", sweep_config())
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        runs = {path: path.read_bytes() for path in sorted((out / "runs").glob("*.csv"))}
        for path in list(runs)[3:5]:
            path.unlink()
        assert main(["sweep", "--config", config, "--out", str(out), "--parallelism", "4"]) == 0
        assert pool_sizes == [2]
        assert {path: path.read_bytes() for path in runs} == runs

    def test_parallelism_1_and_2_write_the_same_artifacts(self, tmp_path):
        config = write_json(tmp_path / "sweep.json", sweep_config(runs_per_cell=3))

        def artifacts(parallelism):
            out = tmp_path / f"p{parallelism}"
            assert main(["sweep", "--config", config, "--out", str(out), "--parallelism", parallelism]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            files = {}
            for path in sorted((out / "runs").iterdir()):
                files[path.name] = path.read_bytes()
                if path.suffix == ".json":
                    summary = json.loads(files[path.name])
                    del summary["wall_time_seconds"], summary["phase_seconds"]
                    files[path.name] = summary
            return manifest, files

        serial, parallel = artifacts("1"), artifacts("2")
        assert len(serial[1]) == 24
        assert serial == parallel

    def test_duplicate_list_value_exits_2_naming_each_key(self, tmp_path, capsys):
        # a repeated value would list its cells twice, each pair pointing to the same two files
        config = write_json(tmp_path / "sweep.json", sweep_config(
            functions=["sphere", "rastrigin", "sphere", "rastrigin"], bchms=["sat", "sat", "mirror"],
            runs_per_cell=2))
        assert main(["sweep", "--config", config, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.splitlines() == ["config error: functions (duplicate value 'sphere')",
                                                        "config error: bchms (duplicate value 'sat')"]
        assert not (tmp_path / "o").exists()

    def test_empty_list_rejected(self, tmp_path, capsys):
        config = write_json(tmp_path / "sweep.json", sweep_config(bchms=[]))
        assert main(["sweep", "--config", config, "--out", str(tmp_path / "o")]) == 2
        assert "bchms" in capsys.readouterr().err


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker count of each process pool created while the test runs."""
    sizes, real = [], concurrent.futures.process.ProcessPoolExecutor.__init__

    def recording(self, max_workers=None, *args, **kwargs):
        sizes.append(max_workers)
        real(self, max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures.process.ProcessPoolExecutor, "__init__", recording)
    return sizes


@pytest.fixture(scope="module")
def sweep_output(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("sweep")
    config = write_json(tmp_path / "sweep.json", sweep_config())
    out = tmp_path / "out"
    assert main(["sweep", "--config", config, "--out", str(out)]) == 0
    return out


class TestAnalysisCommands:
    def test_classify(self, sweep_output, tmp_path):
        manifest = str(sweep_output / "manifest.json")
        assert main(["classify", "--manifest", manifest, "--out", str(tmp_path)]) == 0
        classes = (tmp_path / "classes.csv").read_text().splitlines()
        assert len(classes) == 13  # header + 12 runs
        summary = (tmp_path / "classes_summary.csv").read_text().splitlines()
        assert len(summary) == 5  # header + 4 cells
        assert summary[0].endswith("GB,SF,PC,BB,median_run_class")

    def test_a_classify_write_that_raises_leaves_the_previous_classes(self, sweep_output, tmp_path,
                                                                     monkeypatch, capsys):
        manifest = str(sweep_output / "manifest.json")
        assert main(["classify", "--manifest", manifest, "--out", str(tmp_path)]) == 0
        before = (tmp_path / "classes.csv").read_bytes()
        real = csv.writer

        class HalfWriter:
            """A csv writer that raises after writing the first rows of a block."""

            def __init__(self, fh, **kwargs):
                self.inner = real(fh, **kwargs)
                self.writerow = self.inner.writerow

            def writerows(self, rows):
                self.inner.writerows(rows[:3])
                raise OSError("disk full")

        monkeypatch.setattr(csv, "writer", HalfWriter)
        assert main(["classify", "--manifest", manifest, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.strip().endswith("disk full")
        assert (tmp_path / "classes.csv").read_bytes() == before
        assert not [p.name for p in tmp_path.iterdir() if p.name.startswith(".")]

    def test_cluster(self, sweep_output, tmp_path):
        manifest = str(sweep_output / "manifest.json")
        assert main(["cluster", "--manifest", manifest, "--out", str(tmp_path)]) == 0
        for metric in ("violation_probability", "best_so_far", "population_variance"):
            assert (tmp_path / f"similarity_{metric}_bchm.csv").exists()
            dendrogram = json.loads((tmp_path / f"dendrogram_{metric}_bchm.json").read_text())
            assert "height" in dendrogram or "label" in dendrogram
            assert (tmp_path / f"dendrogram_{metric}_bchm.newick").read_text().strip().endswith(";")

    def test_cluster_has_no_grid_points_flag(self, sweep_output, tmp_path):
        # every cluster resamples onto the default 200 points; the retired flag is a usage error
        manifest = str(sweep_output / "manifest.json")
        with pytest.raises(SystemExit) as exit_info:
            main(["cluster", "--manifest", manifest, "--out", str(tmp_path / "out"), "--grid-points", "50"])
        assert exit_info.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_cluster_by_function(self, sweep_output, tmp_path):
        manifest = str(sweep_output / "manifest.json")
        code = main(
            ["cluster", "--manifest", manifest, "--out", str(tmp_path),
             "--metric", "violation_probability", "--label-by", "function"]
        )
        assert code == 0
        header = (tmp_path / "similarity_violation_probability_function.csv").read_text().splitlines()[0]
        assert header == "label,rastrigin,sphere"

    def test_rank(self, sweep_output, tmp_path):
        manifest = str(sweep_output / "manifest.json")
        assert main(["rank", "--manifest", manifest, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "ranking.csv").read_text().splitlines()
        assert lines[0] == "method,mean_rank,rank_rastrigin,rank_sphere"
        assert len(lines) == 3  # header + 2 methods

    def test_each_command_prints_every_file_it_writes(self, sweep_output, tmp_path, capsys):
        manifest = str(sweep_output / "manifest.json")
        for command in ("classify", "cluster", "rank"):
            out = tmp_path / command
            assert main([command, "--manifest", manifest, "--out", str(out)]) == 0
            printed = capsys.readouterr().out.splitlines()
            assert sorted(printed) == sorted(str(path) for path in out.iterdir()), command

    def test_broken_artifact_exits_1_naming_it(self, tmp_path, capsys):
        config = write_json(tmp_path / "sweep.json", sweep_config(runs_per_cell=1))
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        manifest = str(out / "manifest.json")
        summary = sorted((out / "runs").glob("*.json"))[0]
        trajectory = sorted((out / "runs").glob("*.csv"))[1]
        summary.write_text(summary.read_text()[:200])
        text = trajectory.read_text()
        trajectory.write_text(text[: len(text) // 2])
        for command, broken in (("classify", summary), ("rank", summary), ("cluster", trajectory)):
            assert main([command, "--manifest", manifest, "--out", str(tmp_path / command)]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"error: runs/{broken.name}: "), (command, err)
            assert not (tmp_path / command).exists()

    def test_header_only_trajectory_exits_1_naming_it(self, tmp_path, capsys):
        config = write_json(tmp_path / "sweep.json", sweep_config(runs_per_cell=1))
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        trajectory = sorted((out / "runs").glob("*.csv"))[0]
        trajectory.write_text(trajectory.read_text().splitlines()[0] + "\n")
        assert main(["cluster", "--manifest", str(out / "manifest.json"), "--out", str(tmp_path / "c")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: runs/{trajectory.name}: no generation rows"]

    def test_a_trajectory_with_another_header_exits_1_naming_it_and_line_1(self, tmp_path, capsys):
        config = write_json(tmp_path / "sweep.json", sweep_config(runs_per_cell=1))
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        first = json.loads((out / "manifest.json").read_text())["cells"][0]["trajectory_csv"]
        trajectory = out / first
        trajectory.write_text(trajectory.read_text().replace("infeasible_component_ratio", "component_ratio", 1))
        assert main(["cluster", "--manifest", str(out / "manifest.json"), "--out", str(tmp_path / "c")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {first}: line 1: expected the header generation,"), err
        assert not (tmp_path / "c").exists()

    def test_missing_artifact_exits_1_naming_it(self, tmp_path, capsys):
        config = write_json(tmp_path / "sweep.json", sweep_config(runs_per_cell=1))
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        trajectory = sorted((out / "runs").glob("*.csv"))[0]
        trajectory.unlink()
        for command in ("classify", "cluster", "rank"):
            assert main([command, "--manifest", str(out / "manifest.json"), "--out", str(tmp_path / command)]) == 1
            err = capsys.readouterr().err
            assert f"runs/{trajectory.name}" in err, (command, err)

    @pytest.fixture
    def optimum_unknown_sweep(self, tmp_path, monkeypatch):
        """The manifest of a 1-function x 2-BCHM sweep of a plugin problem without a known optimum."""
        module = tmp_path / "optimum_unknown.py"
        module.write_text(
            "import numpy as np\n"
            "from debox.benchmarks import ExternalProblem, register_problem\n"
            "from debox.core import Bounds\n"
            "register_problem('optimum_unknown', lambda instance, dimension: ExternalProblem(\n"
            "    name='optimum_unknown', dimension=dimension, bounds=Bounds.symmetric(5.0, dimension),\n"
            "    objective=lambda x: float(np.sum(x * x))))\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        config = write_json(tmp_path / "sweep.json", sweep_config(
            functions=["optimum_unknown"], plugin_modules=["optimum_unknown"], runs_per_cell=1))
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        return str(out / "manifest.json")

    def test_cluster_without_known_optimum_exits_1_naming_metric(self, optimum_unknown_sweep, tmp_path, capsys):
        manifest = optimum_unknown_sweep
        assert main(["cluster", "--manifest", manifest, "--out", str(tmp_path / "all")]) == 1
        err = capsys.readouterr().err
        assert "best_so_far" in err and "without a known optimum" in err, err
        assert main(["cluster", "--manifest", manifest, "--out", str(tmp_path / "vp"),
                     "--metric", "violation_probability"]) == 0

    def test_rank_without_known_optimum_exits_1_naming_cause(self, optimum_unknown_sweep, tmp_path, capsys):
        assert main(["rank", "--manifest", optimum_unknown_sweep, "--out", str(tmp_path / "rank")]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: no run has a final error to rank: no function of the sweep "
                                    "has a known optimum (optimum_unknown)"], err
        assert main(["classify", "--manifest", optimum_unknown_sweep, "--out", str(tmp_path / "cls")]) == 0

    def test_a_manifest_that_lists_a_run_twice_exits_1_naming_it(self, sweep_output, tmp_path, capsys):
        manifest = json.loads((sweep_output / "manifest.json").read_text())
        manifest["cells"].append(manifest["cells"][2])
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps(manifest))
        os.symlink(sweep_output / "runs", tmp_path / "runs")
        stem = os.path.basename(manifest["cells"][2]["summary_json"])[: -len(".json")]
        for command in ("classify", "cluster", "rank"):
            assert main([command, "--manifest", str(manifest_path), "--out", str(tmp_path / command)]) == 1
            assert capsys.readouterr().err.splitlines() == ["error: the manifest lists runs more than once:",
                                                            f"  {stem}"], command
            assert not (tmp_path / command).exists()

    @pytest.mark.parametrize("break_manifest, lines", [
        (lambda m: m["cells"][3].pop("run_index"), ["manifest entries lack keys:", "  cells[3]: no 'run_index'"]),
        (lambda m: m["cells"][0].pop("trajectory_csv"),
         ["manifest entries lack keys:", "  cells[0]: no 'trajectory_csv'"]),
        (drop_versions, ["manifest entries lack keys:", NO_VERSIONS]),
        (lambda m: (drop_versions(m), m["cells"][3].pop("seed")),
         ["manifest entries lack keys:", NO_VERSIONS, "  cells[3]: no 'seed'"]),
        (lambda m: [entry.pop("run_index") for entry in m["cells"]],
         ["manifest entries lack keys:", "  every entry: no 'run_index'"]),
        (lambda m: (m.update(cells=m["cells"][:1]), m["cells"][0].pop("run_index")),
         ["manifest entries lack keys:", "  cells[0]: no 'run_index'"]),
        (lambda m: (m.update(cells=m["cells"][:1]), drop_versions(m)),
         ["manifest entries lack keys:", "  cells[0]: no 'versions'"]),
        (lambda m: m.pop("cells"), ["the manifest has no 'cells' list"]),
        (lambda m: m["cells"][1].update(trajectory_csv=5),
         ["manifest entries have values of the wrong type:", "  cells[1]: 'trajectory_csv' (expected str, got 5)"]),
        (lambda m: m["cells"][2].update(dimension=[3]),
         ["manifest entries have values of the wrong type:", "  cells[2]: 'dimension' (expected int, got [3])"]),
        (lambda m: m["cells"][0].update(run_index="0", seed=True),
         ["manifest entries have values of the wrong type:", "  cells[0]: 'run_index' (expected int, got \"0\")",
          "  cells[0]: 'seed' (expected int, got true)"]),
    ], ids=["run_index", "trajectory_csv", "versions-everywhere", "versions-everywhere-and-seed",
            "run_index-everywhere", "one-entry-run_index", "one-entry-versions", "cells", "trajectory_csv-type",
            "dimension-type", "int-type"])
    def test_a_malformed_manifest_exits_1_naming_it_and_the_entry(self, sweep_output, tmp_path, capsys,
                                                                  break_manifest, lines):
        manifest = json.loads((sweep_output / "manifest.json").read_text())
        break_manifest(manifest)
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps(manifest))
        os.symlink(sweep_output / "runs", tmp_path / "runs")
        for command in ("classify", "cluster", "rank"):
            assert main([command, "--manifest", str(manifest_path), "--out", str(tmp_path / command)]) == 1
            first, *rest = lines
            assert capsys.readouterr().err.splitlines() == [f"error: {manifest_path}: {first}", *rest], command
            assert not (tmp_path / command).exists()

    def test_a_manifest_of_mixed_versions_exits_1_naming_both_entries(self, sweep_output, tmp_path, capsys):
        manifest = json.loads((sweep_output / "manifest.json").read_text())
        manifest["cells"][5]["versions"]["numpy"] = "1.26.4"
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps(manifest))
        os.symlink(sweep_output / "runs", tmp_path / "runs")
        first, fifth = (json.dumps(manifest["cells"][i]["versions"], sort_keys=True) for i in (0, 5))
        for command in ("classify", "cluster", "rank"):
            assert main([command, "--manifest", str(manifest_path), "--out", str(tmp_path / command)]) == 1
            assert capsys.readouterr().err.splitlines() == [
                f"error: {manifest_path}: manifest entries disagree on versions with cells[0] ({first}):",
                f"  cells[5]: {fifth}"], command
            assert not (tmp_path / command).exists()

    @pytest.mark.parametrize("field, value, message", [
        ("behaviour_class", None, "no 'behaviour_class' (expected GB, SF, PC, BB or null)"),
        ("behaviour_class", "XX", "'behaviour_class' (expected GB, SF, PC, BB or null, got \"XX\")"),
        ("final_error", "0.5", "'final_error' (expected a finite number or null, got \"0.5\")"),
        ("final_error", True, "'final_error' (expected a finite number or null, got true)"),
        ("final_max_component_variance", None, "no 'final_max_component_variance' (expected a finite number)"),
        ("final_max_component_variance", [1.0],
         "'final_max_component_variance' (expected a finite number, got [1.0])"),
        (None, None, "expected a JSON object"),
    ], ids=["class-missing", "class-unknown", "error-string", "error-bool", "variance-missing", "variance-list",
            "not-an-object"])
    def test_a_summary_with_a_bad_field_exits_1_naming_it(self, sweep_output, tmp_path, capsys, field, value,
                                                          message):
        shutil.copytree(sweep_output, tmp_path / "sweep")
        entry = json.loads((tmp_path / "sweep" / "manifest.json").read_text())["cells"][4]
        path = tmp_path / "sweep" / entry["summary_json"]
        summary = json.loads(path.read_text())
        if field is None:
            summary = [summary]
        elif value is None:
            del summary[field]
        else:
            summary[field] = value
        path.write_text(json.dumps(summary))
        for command in ("classify", "rank"):
            out = tmp_path / command
            assert main([command, "--manifest", str(tmp_path / "sweep" / "manifest.json"), "--out", str(out)]) == 1
            assert capsys.readouterr().err.splitlines() == [f"error: {entry['summary_json']}: {message}"], command
            assert not out.exists()

    def test_rank_refuses_a_grid_with_a_hole(self, sweep_output, tmp_path, capsys):
        manifest = json.loads((sweep_output / "manifest.json").read_text())
        manifest["cells"] = [e for e in manifest["cells"] if (e["function"], e["bchm"]) != ("rastrigin", "mirror")]
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps(manifest))
        os.symlink(sweep_output / "runs", tmp_path / "runs")
        assert main(["rank", "--manifest", str(manifest_path), "--out", str(tmp_path / "rank")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: cannot rank a grid with a hole: no errors for ('rastrigin', 'mirror')"]
        assert not (tmp_path / "rank").exists()

    def test_missing_trajectory_exits_1_listing_gap(self, sweep_output, tmp_path, capsys):
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads((sweep_output / "manifest.json").read_text())
        manifest["cells"][0]["trajectory_csv"] = "runs/not_there.csv"
        manifest_path.write_text(json.dumps(manifest))
        # analysis resolves paths relative to the manifest location
        os.symlink(sweep_output / "runs", tmp_path / "runs")
        assert main(["classify", "--manifest", str(manifest_path)]) == 1
        assert "not_there.csv" in capsys.readouterr().err


def _readme_section(heading):
    """The README text under ``heading``, up to the next section heading."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        readme = fh.read()
    return re.split(r"\n#{2,} ", readme.split(f"\n{heading}\n", 1)[1], maxsplit=1)[0]


def _readme_json(heading):
    """The first JSON block under ``heading`` in the README."""
    block = _readme_section(heading).split("```json\n", 1)[1]
    return json.loads(block.split("```", 1)[0])


def test_readme_configs_resolve():
    # the documented examples use no key the CLI has dropped; resolving them runs nothing
    run = cli._resolve_run(_readme_json("### Run config"))
    assert (run["engine"], run["budget"]) == ("lshade", 100_000)
    sweep, errors = cli._fill(_readme_json("### Sweep config"), cli._SWEEP_SCHEMA)
    assert errors == []
    assert len(cli._sweep_cells(sweep)) == 2 * 3 * 4 * 5  # functions x instances x bchms x runs


def test_readme_documents_every_flag_and_key():
    # drift guard: the CLI synopsis lists each subcommand's flags, and the config sections every key
    synopsis = _readme_section("## CLI").split("```\n", 2)[1]
    documented = {}
    for line in synopsis.splitlines():
        if line.startswith("debox "):
            flags = documented.setdefault(line.split()[1], set())
        flags |= set(re.findall(r"--[a-z-]+", line))
    subcommands = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    defined = {name: {flag for action in parser._actions for flag in action.option_strings} - {"-h", "--help"}
               for name, parser in subcommands.choices.items()}
    assert documented == defined
    for heading, schema in (("### Run config", cli._RUN_SCHEMA), ("### Sweep config", cli._SWEEP_SCHEMA)):
        section = _readme_section(heading)
        assert [key for key in schema if f"`{key}`" not in section] == [], heading


def test_list_command(capsys):
    assert main(["list"]) == 0
    output = capsys.readouterr().out
    for needle in ("sphere", "linear_slope", "sat", "vectorMidpoint", "adaptive", "dismiss"):
        assert needle in output


def _python(code, cwd):
    """Run ``code`` in a fresh interpreter that imports debox from this tree."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(debox.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


class TestRuntimeDependencies:
    """scipy is a test dependency only: no command may need it."""

    def test_import_loads_no_scipy(self, tmp_path):
        done = _python("""
            import sys
            import debox, debox.cli
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """, tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_every_command_runs_without_scipy(self, tmp_path):
        write_json(tmp_path / "run.json", run_config())
        write_json(tmp_path / "sweep.json", sweep_config(runs_per_cell=2, budget_multiplier=50))
        done = _python("""
            import sys

            class NoScipy:
                def find_spec(self, name, path=None, target=None):
                    if name.split(".")[0] == "scipy":
                        raise ImportError(f"scipy is blocked: {name}")

            sys.meta_path.insert(0, NoScipy())
            from debox.cli import main
            manifest = ["--manifest", "sweep/manifest.json"]
            commands = [
                ["list"],
                ["run", "--config", "run.json", "--out", "run"],
                ["sweep", "--config", "sweep.json", "--out", "sweep", "--parallelism", "1"],
                ["classify", *manifest],
                ["cluster", *manifest],
                ["rank", *manifest],
            ]
            codes = [main(argv) for argv in commands]
            print(codes)
            assert "scipy" not in sys.modules
        """, tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0]", done.stdout + done.stderr

    def test_only_a_sweep_that_forks_workers_loads_the_process_pool(self, tmp_path):
        write_json(tmp_path / "run.json", run_config())
        write_json(tmp_path / "sweep.json", sweep_config(runs_per_cell=2, budget_multiplier=50))
        done = _python("""
            import sys
            from debox.cli import main

            def loaded():
                return [name for name in ("multiprocessing", "concurrent.futures.process") if name in sys.modules]

            commands = [
                ["list"],
                ["run", "--config", "run.json", "--out", "run"],
                ["sweep", "--config", "sweep.json", "--out", "p1", "--parallelism", "1"],
                ["classify", "--manifest", "p1/manifest.json"],
                ["sweep", "--config", "sweep.json", "--out", "p2", "--parallelism", "2"],
            ]
            seen = [loaded()]
            for argv in commands:
                assert main(argv) == 0, argv
                seen.append(loaded())
            print(seen)
        """, tmp_path)
        assert done.returncode == 0, done.stderr
        pool = ["multiprocessing", "concurrent.futures.process"]
        assert done.stdout.splitlines()[-1] == str([[], [], [], [], [], pool]), done.stdout + done.stderr
