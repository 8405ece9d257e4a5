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
import importlib
import itertools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import analysis, benchmarks, telemetry
from .bchm import METHOD_IDS
from .core import stable_key
from .engine import ClassicDEParams, RunConfig, ShadeParams, run

__all__ = ["main"]


class ConfigError(Exception):
    """Raised with one message per offending field."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


# ---------------------------------------------------------------------------
# config schemas
# ---------------------------------------------------------------------------

_RUN_KEYS = {
    "function": (str, True),
    "instance": (int, False),
    "dimension": (int, True),
    "mode": (str, False),
    "engine": (str, True),
    "bchm": (str, True),
    "seed": (int, True),
    "budget": (int, False),
    "budget_multiplier": (int, False),
    "target_error": ((int, float), False),
    "max_generations": (int, False),
    "count_infeasible_evals": (bool, False),
    "classic": (dict, False),
    "shade": (dict, False),
    "beta_epsilon": ((int, float), False),
    "adaptive_update_period": (int, False),
    "adaptive_floor": ((int, float), False),
    "plugin_modules": (list, False),
    "out": (str, False),
    "name": (str, False),
}

_SWEEP_KEYS = {
    "functions": (list, True),
    "instances": (list, True),
    "dimensions": (list, True),
    "modes": (list, False),
    "engines": (list, True),
    "bchms": (list, True),
    "runs_per_cell": (int, True),
    "budget_multiplier": (int, False),
    "base_seed": (int, True),
    "output_directory": (str, False),
    "parallelism": (int, False),
    "count_infeasible_evals": (bool, False),
    "classic": (dict, False),
    "shade": (dict, False),
    "plugin_modules": (list, False),
}

_CLASSIC_KEYS = {"population_size", "scale_factor", "crossover_rate"}
_SHADE_KEYS = {"memory_size", "n_init", "n_min", "p_max", "reduction_enabled", "archive_capacity"}


def _check_schema(config: dict, schema: dict) -> list[str]:
    errors = []
    for key in sorted(config):
        if key not in schema:
            errors.append(f"{key}: unknown key")
    for key, (types, required) in schema.items():
        if key not in config:
            if required:
                errors.append(f"{key}: missing required field")
            continue
        value = config[key]
        bool_where_int = isinstance(value, bool) and types is not bool
        if bool_where_int or not isinstance(value, types):
            errors.append(f"{key}: expected {getattr(types, '__name__', types)}")
    return errors


def _load_config(path: str, schema: dict) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError([f"config: {exc}"])
    if not isinstance(config, dict):
        raise ConfigError(["config: top level must be a JSON object"])
    errors = _check_schema(config, schema)
    if "bchm" in config and isinstance(config.get("bchm"), str) and config["bchm"] not in METHOD_IDS:
        errors.append(f"bchm: unknown method id {config['bchm']!r}")
    if "bchms" in config and isinstance(config.get("bchms"), list):
        for method in config["bchms"]:
            if method not in METHOD_IDS:
                errors.append(f"bchms: unknown method id {method!r}")
    for key in ("functions", "instances", "dimensions", "modes", "engines", "bchms"):
        if key in schema and isinstance(config.get(key), list) and not config[key]:
            errors.append(f"{key}: must be non-empty")
    if isinstance(config.get("runs_per_cell"), int) and config.get("runs_per_cell", 1) < 1:
        errors.append("runs_per_cell: must be >= 1")
    if "classic" in config and isinstance(config["classic"], dict):
        for key in sorted(set(config["classic"]) - _CLASSIC_KEYS):
            errors.append(f"classic.{key}: unknown key")
    if "shade" in config and isinstance(config["shade"], dict):
        for key in sorted(set(config["shade"]) - _SHADE_KEYS):
            errors.append(f"shade.{key}: unknown key")
    if errors:
        raise ConfigError(errors)
    return config


def _import_plugins(config: dict) -> None:
    for module in config.get("plugin_modules", []):
        importlib.import_module(module)


def _engine_params(config: dict) -> tuple[ClassicDEParams, ShadeParams]:
    classic = ClassicDEParams(**config.get("classic", {}))
    shade = ShadeParams(**config.get("shade", {}))
    return classic, shade


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _resolved_run_config(config: dict) -> dict:
    """Fill defaults so the summary echo is sufficient to reproduce the run."""
    classic, shade = _engine_params(config)
    resolved = {
        "function": config["function"],
        "instance": config.get("instance", 1),
        "dimension": config["dimension"],
        "mode": config.get("mode", "SBOX"),
        "engine": config["engine"],
        "bchm": config["bchm"],
        "seed": config["seed"],
        "budget": config.get("budget"),
        "budget_multiplier": config.get("budget_multiplier", 10000),
        "target_error": config.get("target_error"),
        "max_generations": config.get("max_generations"),
        "count_infeasible_evals": config.get("count_infeasible_evals", False),
        "classic": vars(classic),
        "shade": vars(shade),
        "beta_epsilon": config.get("beta_epsilon", 0.1),
        "adaptive_update_period": config.get("adaptive_update_period", 25),
        "adaptive_floor": config.get("adaptive_floor", 0.05),
        "plugin_modules": config.get("plugin_modules", []),
    }
    if resolved["budget"] is None:
        resolved["budget"] = resolved["budget_multiplier"] * resolved["dimension"]
    return resolved


def _execute_run(resolved: dict, out_dir: str, stem: str) -> dict:
    """Run one configuration and write <stem>.csv / <stem>.json into out_dir."""
    classic = ClassicDEParams(**resolved["classic"])
    shade = ShadeParams(**resolved["shade"])
    problem = benchmarks.create_problem(
        resolved["function"],
        resolved["instance"],
        resolved["dimension"],
        resolved["mode"],
        resolved["count_infeasible_evals"],
    )
    config = RunConfig(
        problem=problem,
        engine=resolved["engine"],
        bchm=resolved["bchm"],
        budget=resolved["budget"],
        target_error=resolved["target_error"],
        seed=resolved["seed"],
        max_generations=resolved["max_generations"],
        classic=classic,
        shade=shade,
        beta_epsilon=resolved["beta_epsilon"],
        adaptive_update_period=resolved["adaptive_update_period"],
        adaptive_floor=resolved["adaptive_floor"],
    )
    result = run(config)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, stem + ".csv")
    json_path = os.path.join(out_dir, stem + ".json")
    telemetry.write_trajectory_csv(result.records, csv_path)
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
    }
    telemetry.write_run_summary(json_path, summary)
    return summary


def _run_stem(resolved: dict) -> str:
    return (
        f"{resolved['function']}_{resolved['mode']}_d{resolved['dimension']}"
        f"_{resolved['engine']}_{resolved['bchm']}_i{resolved['instance']}_s{resolved['seed']}"
    )


def cmd_run(args) -> int:
    config = _load_config(args.config, _RUN_KEYS)
    _import_plugins(config)
    if args.count_infeasible_evals:
        config["count_infeasible_evals"] = True
    resolved = _resolved_run_config(config)
    out_dir = args.out or config.get("out", ".")
    stem = config.get("name", _run_stem(resolved))
    _execute_run(resolved, out_dir, stem)
    print(os.path.join(out_dir, stem + ".csv"))
    print(os.path.join(out_dir, stem + ".json"))
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_cells(config: dict) -> list[dict]:
    cells = []
    grid = itertools.product(
        config["functions"],
        config["instances"],
        config["dimensions"],
        config.get("modes", ["SBOX"]),
        config["engines"],
        config["bchms"],
        range(config["runs_per_cell"]),
    )
    for function, instance, dimension, mode, engine, bchm, run_index in grid:
        seed = stable_key(
            config["base_seed"], function, instance, dimension, engine, bchm, run_index
        )
        resolved = _resolved_run_config(
            {
                "function": function,
                "instance": instance,
                "dimension": dimension,
                "mode": mode,
                "engine": engine,
                "bchm": bchm,
                "seed": seed,
                "budget_multiplier": config.get("budget_multiplier", 10000),
                "count_infeasible_evals": config.get("count_infeasible_evals", False),
                "classic": config.get("classic", {}),
                "shade": config.get("shade", {}),
            }
        )
        resolved["run_index"] = run_index
        cells.append(resolved)
    return cells


def _cell_stem(cell: dict) -> str:
    return _run_stem(cell) + f"_r{cell['run_index']}"


def _run_cell(job: tuple[dict, str, list]) -> dict:
    """Worker: execute one sweep cell unless its artifacts already exist."""
    cell, out_dir, plugin_modules = job
    for module in plugin_modules:
        importlib.import_module(module)
    stem = _cell_stem(cell)
    run_dir = os.path.join(out_dir, "runs")
    csv_path = os.path.join(run_dir, stem + ".csv")
    json_path = os.path.join(run_dir, stem + ".json")
    if not (os.path.exists(csv_path) and os.path.exists(json_path)):
        _execute_run(cell, run_dir, stem)
    entry = {key: cell[key] for key in (
        "function", "instance", "dimension", "mode", "engine", "bchm", "run_index", "seed",
    )}
    entry["trajectory_csv"] = os.path.join("runs", stem + ".csv")
    entry["summary_json"] = os.path.join("runs", stem + ".json")
    return entry


def cmd_sweep(args) -> int:
    config = _load_config(args.config, _SWEEP_KEYS)
    _import_plugins(config)
    if args.count_infeasible_evals:
        config["count_infeasible_evals"] = True
    out_dir = args.out or config.get("output_directory", ".")
    parallelism = args.parallelism or config.get("parallelism", 1)
    plugin_modules = config.get("plugin_modules", [])
    cells = _sweep_cells(config)
    jobs = [(cell, out_dir, plugin_modules) for cell in cells]
    os.makedirs(os.path.join(out_dir, "runs"), exist_ok=True)
    if parallelism > 1:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            entries = list(pool.map(_run_cell, jobs))
    else:
        entries = [_run_cell(job) for job in jobs]
    entries.sort(key=lambda e: (e["function"], e["mode"], e["dimension"], e["engine"],
                                e["bchm"], e["instance"], e["run_index"]))
    manifest = {"output_directory": out_dir, "cells": entries}
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(manifest_path)
    return 0


# ---------------------------------------------------------------------------
# analysis commands
# ---------------------------------------------------------------------------

def _load_manifest(path: str) -> tuple[dict, str]:
    with open(path) as fh:
        manifest = json.load(fh)
    return manifest, os.path.dirname(os.path.abspath(path))


def _check_complete(manifest: dict, base: str) -> list[str]:
    missing = []
    for entry in manifest["cells"]:
        for key in ("trajectory_csv", "summary_json"):
            path = os.path.join(base, entry[key])
            if not os.path.exists(path):
                missing.append(entry[key])
    return missing


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    import csv as _csv

    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_classify(args) -> int:
    manifest, base = _load_manifest(args.manifest)
    missing = _check_complete(manifest, base)
    if missing:
        print("missing run artifacts:", file=sys.stderr)
        for path in missing:
            print(f"  {path}", file=sys.stderr)
        return 1
    out_dir = args.out or base
    os.makedirs(out_dir, exist_ok=True)

    rows = []
    groups: dict[tuple, list[dict]] = {}
    for entry in manifest["cells"]:
        summary = telemetry.read_run_summary(os.path.join(base, entry["summary_json"]))
        record = dict(entry)
        record["class"] = summary["behaviour_class"]
        record["final_error"] = summary["final_error"]
        record["final_max_component_variance"] = summary["final_max_component_variance"]
        rows.append(record)
        key = (entry["function"], entry["mode"], entry["dimension"], entry["engine"], entry["bchm"])
        groups.setdefault(key, []).append(record)

    run_rows = [
        [r["function"], r["mode"], r["dimension"], r["engine"], r["bchm"], r["instance"],
         r["run_index"], r["class"] or "",
         "" if r["final_error"] is None else telemetry.format_float(r["final_error"]),
         telemetry.format_float(r["final_max_component_variance"])]
        for r in rows
    ]
    _write_csv(
        os.path.join(out_dir, "classes.csv"),
        ["function", "mode", "dimension", "engine", "bchm", "instance", "run_index",
         "class", "final_error", "final_max_component_variance"],
        run_rows,
    )

    summary_rows = []
    for key in sorted(groups):
        records = groups[key]
        counts = {name: 0 for name in ("GB", "SF", "PC", "BB")}
        for r in records:
            if r["class"]:
                counts[r["class"]] += 1
        # class of the median-error run (lower median on even counts)
        with_error = [r for r in records if r["final_error"] is not None]
        if with_error:
            with_error.sort(key=lambda r: r["final_error"])
            median_class = with_error[(len(with_error) - 1) // 2]["class"] or ""
        else:
            median_class = ""
        summary_rows.append(list(key) + [counts["GB"], counts["SF"], counts["PC"], counts["BB"], median_class])
    _write_csv(
        os.path.join(out_dir, "classes_summary.csv"),
        ["function", "mode", "dimension", "engine", "bchm", "GB", "SF", "PC", "BB", "median_run_class"],
        summary_rows,
    )
    print(os.path.join(out_dir, "classes.csv"))
    print(os.path.join(out_dir, "classes_summary.csv"))
    return 0


def cmd_cluster(args) -> int:
    manifest, base = _load_manifest(args.manifest)
    missing = _check_complete(manifest, base)
    if missing:
        print("missing run artifacts:", file=sys.stderr)
        for path in missing:
            print(f"  {path}", file=sys.stderr)
        return 1
    out_dir = args.out or base
    os.makedirs(out_dir, exist_ok=True)

    metrics = sorted(analysis.METRICS) if args.metric == "all" else [args.metric]
    label_key = {"bchm": "bchm", "function": "function"}[args.label_by]
    runs_by_label: dict[str, list] = {}
    for entry in manifest["cells"]:
        columns = telemetry.read_trajectory_csv(os.path.join(base, entry["trajectory_csv"]))
        runs_by_label.setdefault(str(entry[label_key]), []).append(columns)

    for metric in metrics:
        matrix = analysis.build_trajectory_matrix(
            runs_by_label, metric, grid_points=args.grid_points, aggregate=args.aggregate
        )
        sim = analysis.similarity_matrix(matrix)
        sim_rows = [
            [label] + [telemetry.format_float(x) for x in sim[i]]
            for i, label in enumerate(matrix.row_labels)
        ]
        _write_csv(
            os.path.join(out_dir, f"similarity_{metric}_{args.label_by}.csv"),
            ["label"] + list(matrix.row_labels),
            sim_rows,
        )
        dendrogram = analysis.complete_linkage_cluster(sim, matrix.row_labels)
        json_path = os.path.join(out_dir, f"dendrogram_{metric}_{args.label_by}.json")
        with open(json_path, "w") as fh:
            fh.write(dendrogram.to_json())
            fh.write("\n")
        newick_path = os.path.join(out_dir, f"dendrogram_{metric}_{args.label_by}.newick")
        with open(newick_path, "w") as fh:
            fh.write(dendrogram.to_newick())
            fh.write("\n")
        print(json_path)
    return 0


def cmd_rank(args) -> int:
    manifest, base = _load_manifest(args.manifest)
    missing = _check_complete(manifest, base)
    if missing:
        print("missing run artifacts:", file=sys.stderr)
        for path in missing:
            print(f"  {path}", file=sys.stderr)
        return 1
    out_dir = args.out or base
    os.makedirs(out_dir, exist_ok=True)

    errors: dict[tuple[str, str], list[float]] = {}
    for entry in manifest["cells"]:
        summary = telemetry.read_run_summary(os.path.join(base, entry["summary_json"]))
        if summary["final_error"] is None:
            continue
        errors.setdefault((entry["function"], entry["bchm"]), []).append(summary["final_error"])
    table = analysis.rank_methods(errors)
    order = np.argsort(table.mean_rank, kind="stable")
    rows = [
        [table.methods[m], telemetry.format_float(table.mean_rank[m])]
        + [telemetry.format_float(table.ranks[f, m]) for f in range(len(table.functions))]
        for m in order
    ]
    _write_csv(
        os.path.join(out_dir, "ranking.csv"),
        ["method", "mean_rank"] + [f"rank_{fn}" for fn in table.functions],
        rows,
    )
    print(os.path.join(out_dir, "ranking.csv"))
    return 0


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
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--count-infeasible-evals", action="store_true",
                       help="charge infeasible evaluations against the budget")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="execute a grid of runs")
    p_sweep.add_argument("--config", required=True, help="path to the JSON sweep config")
    p_sweep.add_argument("--out", default=None, help="output directory")
    p_sweep.add_argument("--parallelism", type=int, default=None, help="worker process count")
    p_sweep.add_argument("--count-infeasible-evals", action="store_true",
                         help="charge infeasible evaluations against the budget")
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
    p_cluster.add_argument("--grid-points", type=int, default=200)
    p_cluster.add_argument("--aggregate", default="mean", choices=["mean", "concat"])
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
