"""Batch experiment runner and analysis front-end.

Subcommands:

    run       execute a single run from a JSON config
    sweep     execute a Cartesian grid of runs (resumable, parallel)
    classify  behaviour-class tables from a sweep manifest
    cluster   similarity matrices + dendrograms from a sweep manifest
    rank      mean-rank table of methods from a sweep manifest
    list      print catalogued functions and method ids

Configs are strict JSON: unknown keys are errors (a typo in a method id must
not silently invalidate an experiment).  Exit codes: 0 ok, 1 runtime
failure, 2 config/schema violation.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import dataclasses
import hashlib
import importlib
import io
import itertools
import json
import math
import operator
import os
import platform
import sys
import traceback
import typing

import numpy as np

from . import __version__, analysis, benchmarks, telemetry
from .bchm import METHOD_IDS
from .core import stable_key
from .engine import BUDGET_PER_DIMENSION, RunConfig, run

__all__ = ["main"]


class ConfigError(Exception):
    """Raised with one message per offending field."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


# ---------------------------------------------------------------------------
# config schemas: {key: (type, default)}
# ---------------------------------------------------------------------------

_REQUIRED = dataclasses.MISSING


def _dataclass_schema(cls) -> dict:
    """The keys, types and defaults of a dataclass's fields, except ``problem``."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default) for f in dataclasses.fields(cls) if f.name != "problem"}


#: the RunConfig fields a run config sets by name
_RUN_FIELDS = _dataclass_schema(RunConfig)

#: a run config: the problem keys, the RunConfig fields and the run's extra keys
_RUN_SCHEMA = {
    "function": (str, _REQUIRED),
    "instance": (int, 1),
    "dimension": (int, _REQUIRED),
    "mode": (str, "SBOX"),
    **_RUN_FIELDS,
    "budget_multiplier": (int, BUDGET_PER_DIMENSION),
    "plugin_modules": (list[str], []),
}
# a run names its engine, BCHM and seed itself
_RUN_SCHEMA.update({key: (_RUN_SCHEMA[key][0], _REQUIRED) for key in ("engine", "bchm", "seed")})

#: sweep list key -> the run key each of its values sets
_GRID = {"functions": "function", "instances": "instance", "dimensions": "dimension",
         "modes": "mode", "engines": "engine", "bchms": "bchm"}

#: the keys of an analysis cell, whose runs differ only in instance and seed;
#: ``classify`` groups runs by them
_CELL_KEY = ("function", "mode", "dimension", "engine", "bchm")

#: the keys of one run of a sweep: the manifest lists each run once, in their order
_RUN_KEY = (*_CELL_KEY, "instance", "run_index")

#: the keys of a manifest entry that the analysis commands read, and their types
_ENTRY_TYPES = {"function": str, "mode": str, "dimension": int, "engine": str, "bchm": str, "instance": int,
                "run_index": int, "seed": int, "trajectory_csv": str, "summary_json": str, "versions": dict}

#: run keys a sweep sets once for all its cells
_SHARED = ("budget_multiplier", "count_infeasible_evals", "classic_population_size", "plugin_modules")

_SWEEP_SCHEMA = {
    **{key: (list[_RUN_SCHEMA[cell_key][0]], _REQUIRED) for key, cell_key in _GRID.items()},
    "modes": (list[str], [_RUN_SCHEMA["mode"][1]]),
    "runs_per_cell": (int, _REQUIRED),
    "base_seed": (int, _REQUIRED),
    **{key: _RUN_SCHEMA[key] for key in _SHARED},
}


def _is_a(value, hint) -> bool:
    """Whether a JSON value has the type ``hint`` (a bool is not a number)."""
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, list) and all(_is_a(v, item) for v in value)
    kinds = typing.get_args(hint) or (hint,)
    if isinstance(value, bool):
        return bool in kinds
    return isinstance(value, kinds) or (isinstance(value, int) and float in kinds)


def _fill(data, schema: dict) -> tuple[dict, list[str]]:
    """``data`` checked key by key against ``schema``, with its defaults filled in."""
    if not isinstance(data, dict):
        return {}, ["config (expected a JSON object)"]
    errors = [f"{key} (unknown key)" for key in sorted(set(data) - set(schema))]
    resolved = {}
    for key, (hint, default) in schema.items():
        if key not in data and default is _REQUIRED:
            errors.append(f"{key} (missing required field)")
        elif key not in data:
            resolved[key] = default
        elif _is_a(data[key], hint):
            resolved[key] = data[key]
        else:
            errors.append(f"{key} (expected {hint.__name__ if isinstance(hint, type) else hint})")
    return resolved, errors


def _load_config(args):
    """The JSON value in ``args.config``."""
    try:
        with open(args.config) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError([f"config: {exc}"])


def _import_plugins(modules: list[str]) -> None:
    for module in modules:
        importlib.import_module(module)


def _run_config(resolved: dict, problem) -> RunConfig:
    """The RunConfig a resolved run config describes, around ``problem``."""
    fields = {key: resolved[key] for key in _RUN_FIELDS}
    return RunConfig(problem=problem, **fields)


def _resolve_run(data) -> dict:
    """A run config with every default filled in and every field checked.

    This dict is the one form of a run config: the summary echoes it, and
    :func:`_run_config` turns it into the :class:`RunConfig` that runs.
    Raises :class:`ConfigError` with one message per offending field.
    """
    resolved, errors = _fill(data, _RUN_SCHEMA)
    if errors:
        raise ConfigError(errors)
    try:
        _import_plugins(resolved["plugin_modules"])
    except ImportError as exc:
        raise ConfigError([f"plugin_modules ({exc})"])
    function = resolved["function"]
    if function not in benchmarks.catalog_ids() and function not in benchmarks.registered_problem_ids():
        errors.append(f"function (unknown function id {function!r})")
    if resolved["mode"] not in benchmarks.MODES:
        errors.append(f"mode (must be one of {', '.join(benchmarks.MODES)})")
    if resolved["dimension"] < 2:
        errors.append("dimension (must be >= 2)")
    if resolved["budget_multiplier"] < 1:
        errors.append("budget_multiplier (must be >= 1)")
    elif resolved["budget"] is None:
        resolved["budget"] = resolved["budget_multiplier"] * resolved["dimension"]
    errors += _run_config(resolved, None).validation_errors(resolved["dimension"])
    if errors:
        raise ConfigError(errors)
    return resolved


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _execute_run(resolved: dict) -> tuple[telemetry.Trajectory, dict]:
    """Run one resolved configuration; its trajectory and its summary."""
    problem = benchmarks.create_problem(resolved["function"], resolved["instance"], resolved["dimension"],
                                        resolved["mode"])
    result = run(_run_config(resolved, problem))
    if not math.isfinite(result.best_fitness):  # a summary holds finite numbers only
        raise ValueError(f"problem {problem.function_id!r}: no evaluated point scored a finite value "
                         f"(best fitness {result.best_fitness!r})")
    if not math.isfinite(result.final_max_component_variance):
        raise ValueError(f"problem {problem.function_id!r}: the final population's variance is not finite "
                         f"(final_max_component_variance {result.final_max_component_variance!r})")
    summary = {
        "config": resolved,
        "behaviour_class": result.behaviour.value if result.behaviour else None,
        "classification_mode": result.classification_mode,
        "final_error": None if np.isnan(result.best_error) else result.best_error,
        "final_fitness": result.best_fitness,
        "final_max_component_variance": result.final_max_component_variance,
        "evaluations_used": result.evaluations_used,
        "generations": result.generations,
        "wall_time_seconds": result.wall_time_seconds,
        "stop_reason": result.stop_reason,
        "phase_seconds": result.phase_seconds,
        "versions": _VERSIONS,
    }
    return result.records, summary


def _source_digest() -> str:
    """The SHA-256 of the package's own ``*.py`` files, each name and content, in name order."""
    package, digest = os.path.dirname(os.path.abspath(__file__)), hashlib.sha256()
    for name in sorted(name for name in os.listdir(package) if name.endswith(".py")):
        with open(os.path.join(package, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read() + b"\0")
    return digest.hexdigest()


#: the versions a run's random stream and results depend on, recorded in every summary and manifest
#: entry; ``source`` changes with any edit to the package, even to a comment
_VERSIONS = {"debox": __version__, "numpy": np.__version__, "python": platform.python_version(),
             "source": _source_digest()}


def _run_stem(resolved: dict) -> str:
    return (
        f"{resolved['function']}_{resolved['mode']}_d{resolved['dimension']}"
        f"_{resolved['engine']}_{resolved['bchm']}_i{resolved['instance']}_s{resolved['seed']}"
    )


def cmd_run(args) -> int:
    resolved = _resolve_run(_load_config(args))
    stem = os.path.join(args.out, _run_stem(resolved))
    trajectory, summary = _execute_run(resolved)
    os.makedirs(args.out, exist_ok=True)
    telemetry.write_trajectory_csv(trajectory, stem + ".csv")
    telemetry.write_run_summary(stem + ".json", summary)
    print(stem + ".csv")
    print(stem + ".json")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_cells(config: dict) -> list[dict]:
    """Every cell of the grid as a resolved run config, plus its ``run_index``.

    Every combination of grid values is checked before any cell runs; its
    runs differ only in their seeds.  Raises :class:`ConfigError` with one
    message per offending field.
    """
    shared = {key: config[key] for key in _SHARED}
    cells, errors = [], {}
    for values in itertools.product(*(config[key] for key in _GRID)):
        try:  # seed 0 stands in for the runs' stable_key seeds, which are never negative
            resolved = _resolve_run(dict(zip(_GRID.values(), values), seed=0, **shared))
        except ConfigError as exc:
            for message in exc.messages:  # name the sweep's own key, once per field
                key, reason = message.split(" ", 1)
                errors.setdefault({v: k for k, v in _GRID.items()}.get(key, key) + " " + reason)
            continue
        function, instance, dimension, _, engine, bchm = values
        for run_index in range(config["runs_per_cell"]):
            seed = stable_key(config["base_seed"], function, instance, dimension, engine, bchm, run_index)
            cells.append(dict(resolved, seed=seed, run_index=run_index))
    if errors:
        raise ConfigError(errors)
    return cells


def _cell_stem(cell: dict) -> str:
    return _run_stem(cell) + f"_r{cell['run_index']}"


def _entry(cell: dict) -> dict:
    stem = _cell_stem(cell)
    return dict({key: cell[key] for key in (*_RUN_KEY, "seed")}, versions=_VERSIONS,
                trajectory_csv=os.path.join("runs", stem + ".csv"), summary_json=os.path.join("runs", stem + ".json"))


def _reusable(out_dir: str, cell: dict) -> bool:
    """Whether the artifacts of ``cell`` in ``out_dir`` are complete and record
    this very cell, run under the current ``_VERSIONS``."""
    entry = _entry(cell)
    try:
        summary = telemetry.read_run_summary(os.path.join(out_dir, entry["summary_json"]))
    except (OSError, ValueError):
        return False
    return (os.path.exists(os.path.join(out_dir, entry["trajectory_csv"]))
            and summary.get("config") == json.loads(json.dumps(cell)) and summary.get("versions") == _VERSIONS)


def _failure(entry: dict, exc: Exception) -> dict:
    return dict(entry, status="failed", error=f"{type(exc).__name__}: {exc}", traceback=traceback.format_exc())


def _run_cell(cell: dict) -> tuple[dict, tuple[str, ...]]:
    """Worker: run one sweep cell and return its manifest entry with the
    texts of its trajectory CSV and summary JSON; it writes no file.  A
    cell that raises has status ``failed``, its error and its traceback,
    and no texts, and the sweep goes on with the other cells."""
    entry = _entry(cell)
    try:
        _import_plugins(cell["plugin_modules"])
        trajectory, summary = _execute_run(cell)
        return dict(entry, status="ok"), (telemetry.trajectory_csv_text(trajectory),
                                          telemetry.run_summary_text(summary))
    except Exception as exc:
        return _failure(entry, exc), ()


def _failed_cells(entries: list[dict]) -> list[str]:
    """One line per failed cell of a manifest, naming it and its error."""
    return [f"  {_cell_stem(e)}: {e['error']}" for e in entries if e.get("status", "ok") != "ok"]


def cmd_sweep(args) -> int:
    config, errors = _fill(_load_config(args), _SWEEP_SCHEMA)
    for key in _GRID:  # a repeated value would list its cells twice, over the same files
        values = config.get(key, ())
        repeated = [value for i, value in enumerate(values) if value in values[:i]]
        if values == []:
            errors.append(f"{key} (must be non-empty)")
        elif repeated:
            errors.append(f"{key} (duplicate value {repeated[0]!r})")
    if config.get("runs_per_cell", 1) < 1:
        errors.append("runs_per_cell (must be >= 1)")
    if args.parallelism < 1:
        errors.append("parallelism (must be >= 1)")
    if errors:
        raise ConfigError(errors)
    cells = _sweep_cells(config)
    out_dir = args.out
    os.makedirs(os.path.join(out_dir, "runs"), exist_ok=True)
    done = [_reusable(out_dir, cell) for cell in cells]  # resume is decided before any cell runs
    entries = [dict(_entry(cell), status="ok") for cell, reused in zip(cells, done) if reused]
    todo = [cell for cell, reused in zip(cells, done) if not reused]
    parallelism = min(args.parallelism, len(todo))  # at most one worker per cell; one cell runs here
    if parallelism > 1:  # only a sweep that forks workers loads the pool
        from concurrent.futures import ProcessPoolExecutor
    # workers only compute: files created in one directory by several processes block each other
    with ProcessPoolExecutor(parallelism) if parallelism > 1 else contextlib.nullcontext() as pool:
        results = (pool.map(_run_cell, todo, chunksize=math.ceil(len(todo) / (4 * parallelism)))
                   if pool else map(_run_cell, todo))
        for entry, texts in results:
            try:
                for key, text in zip(("trajectory_csv", "summary_json"), texts):
                    with telemetry.open_atomic(os.path.join(out_dir, entry[key]), newline="") as fh:
                        fh.write(text)
            except Exception as exc:  # a write that raises fails only its own cell
                entry = _failure(entry, exc)
            entries.append(entry)
    entries.sort(key=operator.itemgetter(*_RUN_KEY))
    manifest_path = os.path.join(out_dir, "manifest.json")
    with telemetry.open_atomic(manifest_path) as fh:
        json.dump({"cells": entries}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(manifest_path)
    failed = _failed_cells(entries)
    if failed:
        print(f"error: {len(failed)} of {len(entries)} sweep cells failed:", *failed, sep="\n", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# analysis commands
# ---------------------------------------------------------------------------

def _read_runs(args, read, artifact: str) -> tuple[typing.Iterator[tuple[dict, typing.Any]], str]:
    """``read`` of the ``artifact`` (``"trajectory_csv"`` or ``"summary_json"``)
    of each run in the manifest named by an analysis command, as (manifest
    entry, value) pairs, and the output directory.  The manifest must hold a
    ``cells`` list whose entries have every key of ``_ENTRY_TYPES`` with a
    value of its type and all the same ``versions``, every
    cell it lists must have succeeded, no run may be listed twice, and every
    run artifact it lists must exist; a file that does not parse is an error
    that names it.  The files are read as the pairs are taken, so a command
    holds only what it keeps of each."""
    with open(args.manifest) as fh:
        manifest = json.load(fh)
    entries = manifest.get("cells") if isinstance(manifest, dict) else None
    if not isinstance(entries, list):
        raise ValueError(f"{args.manifest}: the manifest has no 'cells' list")
    malformed, mistyped = [], []
    for index, entry in enumerate(entries):
        missing = [key for key in _ENTRY_TYPES if not isinstance(entry, dict) or key not in entry]
        if missing:
            malformed.append(f"  cells[{index}]: no {', '.join(map(repr, missing))}")
            continue
        # json.load gives exact str and int values, and a bool is not of type int
        mistyped += [f"  cells[{index}]: {key!r} (expected {kind.__name__}, got {json.dumps(entry[key])})"
                     for key, kind in _ENTRY_TYPES.items() if type(entry[key]) is not kind]
    if malformed:
        raise ValueError("\n".join([f"{args.manifest}: manifest entries lack keys:", *malformed]))
    if mistyped:
        raise ValueError("\n".join([f"{args.manifest}: manifest entries have values of the wrong type:", *mistyped]))
    mixed = [f"  cells[{index}]: {json.dumps(entry['versions'], sort_keys=True)}"
             for index, entry in enumerate(entries) if entry["versions"] != entries[0]["versions"]]
    if mixed:  # runs of two code versions would be analysed as one experiment
        raise ValueError("\n".join([f"{args.manifest}: manifest entries disagree on versions with cells[0] "
                                    f"({json.dumps(entries[0]['versions'], sort_keys=True)}):", *mixed]))
    failed = _failed_cells(entries)
    if failed:
        raise RuntimeError("\n".join(["the sweep has failed cells:", *failed]))
    seen, repeated = set(), []
    for entry, key in zip(entries, map(operator.itemgetter(*_RUN_KEY), entries)):
        if key in seen:  # a run listed twice would count twice in every analysis
            repeated.append(f"  {_cell_stem(entry)}")
        seen.add(key)
    if repeated:
        raise ValueError("\n".join(["the manifest lists runs more than once:", *repeated]))
    base = os.path.dirname(os.path.abspath(args.manifest))
    missing = [entry[key] for entry in entries for key in ("trajectory_csv", "summary_json")
               if not os.path.exists(os.path.join(base, entry[key]))]
    if missing:
        raise FileNotFoundError("missing run artifacts:\n" + "\n".join(f"  {path}" for path in missing))

    def runs():
        for entry in entries:
            try:
                value = read(os.path.join(base, entry[artifact]))
            except ValueError as exc:
                raise ValueError(f"{entry[artifact]}: {exc}") from exc
            yield entry, value

    return runs(), args.out or base


def _csv_text(header: list[str], rows: list[list]) -> str:
    fh = io.StringIO()
    csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    return fh.getvalue()


def _write_outputs(out_dir: str, texts: dict[str, str]) -> int:
    """Write each text to its file name in ``out_dir`` and print its path;
    the exit code of the analysis command that wrote them, 0.

    An analysis command computes every text first, so one that fails creates
    no directory; each file takes the place of an old one only once complete.
    """
    os.makedirs(out_dir, exist_ok=True)
    for name, text in texts.items():
        path = os.path.join(out_dir, name)
        with telemetry.open_atomic(path, newline="") as fh:
            fh.write(text)
        print(path)
    return 0


def cmd_classify(args) -> int:
    runs, out_dir = _read_runs(args, telemetry.read_run_summary, "summary_json")
    rows, groups = [], {}
    for entry, summary in runs:
        behaviour, error = summary["behaviour_class"] or "", summary["final_error"]
        key = tuple(entry[name] for name in _CELL_KEY)
        rows.append([*key, entry["instance"], entry["run_index"], behaviour,
                     "" if error is None else telemetry.format_float(error),
                     telemetry.format_float(summary["final_max_component_variance"])])
        groups.setdefault(key, []).append((error, behaviour))

    summary_rows = []
    for key in sorted(groups):
        counts = collections.Counter(behaviour for _, behaviour in groups[key])
        # class of the median-error run (lower median on even counts)
        ranked = sorted((run for run in groups[key] if run[0] is not None), key=lambda run: run[0])
        median_class = ranked[(len(ranked) - 1) // 2][1] if ranked else ""
        summary_rows.append([*key, *(counts[name] for name in ("GB", "SF", "PC", "BB")), median_class])
    return _write_outputs(out_dir, {
        "classes.csv": _csv_text([*_CELL_KEY, "instance", "run_index", "class", "final_error",
                                  "final_max_component_variance"], rows),
        "classes_summary.csv": _csv_text([*_CELL_KEY, "GB", "SF", "PC", "BB", "median_run_class"], summary_rows),
    })


def cmd_cluster(args) -> int:
    runs, out_dir = _read_runs(args, telemetry.read_trajectory_csv, "trajectory_csv")
    runs_by_label: dict[str, list] = {}
    for entry, columns in runs:
        runs_by_label.setdefault(str(entry[args.label_by]), []).append(columns)

    texts = {}
    for metric in sorted(analysis.METRICS) if args.metric == "all" else [args.metric]:
        matrix = analysis.build_trajectory_matrix(runs_by_label, metric)
        labels = matrix.row_labels
        sim = analysis.similarity_matrix(matrix)
        dendrogram = analysis.complete_linkage_cluster(sim, labels)
        sim_rows = [[label] + [telemetry.format_float(x) for x in sim[i]] for i, label in enumerate(labels)]
        stem = f"{metric}_{args.label_by}"
        texts[f"similarity_{stem}.csv"] = _csv_text(["label", *labels], sim_rows)
        texts[f"dendrogram_{stem}.json"] = dendrogram.to_json() + "\n"
        texts[f"dendrogram_{stem}.newick"] = dendrogram.to_newick() + "\n"
    return _write_outputs(out_dir, texts)


def cmd_rank(args) -> int:
    runs, out_dir = _read_runs(args, telemetry.read_run_summary, "summary_json")
    errors: dict[tuple[str, str], list[float]] = {}
    no_optimum = set()
    for entry, summary in runs:
        if summary["final_error"] is None:  # ranks cover only functions with a known optimum
            no_optimum.add(entry["function"])
            continue
        errors.setdefault((entry["function"], entry["bchm"]), []).append(summary["final_error"])
    if not errors and no_optimum:
        raise ValueError("no run has a final error to rank: no function of the sweep has a known "
                         f"optimum ({', '.join(sorted(no_optimum))})")
    table = analysis.rank_methods(errors)
    order = np.argsort(table.mean_rank, kind="stable")
    rows = [
        [table.methods[m], telemetry.format_float(table.mean_rank[m])]
        + [telemetry.format_float(table.ranks[f, m]) for f in range(len(table.functions))]
        for m in order
    ]
    header = ["method", "mean_rank"] + [f"rank_{fn}" for fn in table.functions]
    return _write_outputs(out_dir, {"ranking.csv": _csv_text(header, rows)})


def cmd_list(args) -> int:
    print("functions:")
    for name in benchmarks.catalog_ids():
        print(f"  {name}")
    plugins = benchmarks.registered_problem_ids()
    if plugins:
        print("plugin problems:")
        for name in plugins:
            print(f"  {name}")
    print("bchm methods:")
    for method in METHOD_IDS:
        print(f"  {method}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="debox", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a single run from a config file")
    p_run.add_argument("--config", required=True, help="path to the JSON run config")
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="execute a grid of runs")
    p_sweep.add_argument("--config", required=True, help="path to the JSON sweep config")
    p_sweep.add_argument("--out", default=".", help="output directory")
    p_sweep.add_argument("--parallelism", type=int, default=1, help="worker process count (>= 1)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_classify = sub.add_parser("classify", help="behaviour-class tables from a manifest")
    p_classify.add_argument("--manifest", required=True)
    p_classify.add_argument("--out", default=None)
    p_classify.set_defaults(func=cmd_classify)

    p_cluster = sub.add_parser("cluster", help="similarity + dendrograms from a manifest")
    p_cluster.add_argument("--manifest", required=True)
    p_cluster.add_argument("--out", default=None)
    p_cluster.add_argument("--metric", default="all",
                           choices=["all"] + sorted(analysis.METRICS))
    p_cluster.add_argument("--label-by", default="bchm", choices=["bchm", "function"])
    p_cluster.set_defaults(func=cmd_cluster)

    p_rank = sub.add_parser("rank", help="mean-rank table from a manifest")
    p_rank.add_argument("--manifest", required=True)
    p_rank.add_argument("--out", default=None)
    p_rank.set_defaults(func=cmd_rank)

    p_list = sub.add_parser("list", help="print functions and method ids")
    p_list.set_defaults(func=cmd_list)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for message in exc.messages:
            print(f"config error: {message}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
