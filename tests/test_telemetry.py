import dataclasses
import json

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from debox import telemetry
from debox.benchmarks import BenchmarkProblem, ExternalProblem, make_instance
from debox.core import Bounds, Population
from debox.engine import RunConfig, run
from debox.telemetry import (
    BehaviourClass,
    GenerationRecord,
    Trajectory,
    classify,
    format_float,
    read_run_summary,
    read_trajectory_csv,
    record_generation,
    records_to_columns,
    run_summary_text,
    trajectory_csv_text,
    write_run_summary,
    write_trajectory_csv,
)

_FIELDS = [f.name for f in dataclasses.fields(GenerationRecord)]
_INT_FIELDS = {"generation", "feasible_evaluations", "population_size", "corrections_applied"}


def make_problem(n=3):
    return BenchmarkProblem(
        function_id="sphere",
        instance_id=0,
        dimension=n,
        bounds=Bounds.symmetric(5.0, n),
        optimum_location=np.zeros(n),
        optimum_value=0.0,
    )


class TestClassifier:
    def test_truth_table(self):
        assert classify(1e-8, 1e-9) is BehaviourClass.GB
        assert classify(1e-8, 1e-3) is BehaviourClass.SF
        assert classify(1.0, 1e-9) is BehaviourClass.PC
        assert classify(1.0, 1.0) is BehaviourClass.BB

    def test_unknown_error_decides_only_premature_convergence(self):
        assert classify(np.nan, 1e-9) is BehaviourClass.PC
        assert classify(np.nan, 1.0) is None

    def test_partition_of_the_quadrant(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            error = float(10.0 ** rng.uniform(-12, 3))
            variance = float(10.0 ** rng.uniform(-14, 2))
            label = classify(error, variance)
            expected = {
                (True, True): BehaviourClass.GB,
                (True, False): BehaviourClass.SF,
                (False, True): BehaviourClass.PC,
                (False, False): BehaviourClass.BB,
            }[(error < 1e-6, variance < 1e-8)]
            assert label is expected

    def test_thresholds_configurable(self, monkeypatch):
        # the thresholds are module constants, read at every call
        monkeypatch.setattr(telemetry, "ERROR_THRESHOLD", 1e-2)
        monkeypatch.setattr(telemetry, "VARIANCE_THRESHOLD", 1e-3)
        assert classify(1e-3, 1e-4) is BehaviourClass.GB


def violations(trials, problem):
    """The violation mask of ``trials`` and its number of infeasible rows, as the kernel passes them."""
    outside = problem.bounds.outside(trials)
    return outside, np.count_nonzero(outside.any(axis=1))


def record(trials, pop, problem, **kwargs):
    """The values record_generation appends for one generation of ``trials``, by column name."""
    trajectory = Trajectory()
    record_generation(trajectory, *violations(trials, problem), pop, 0, problem, **kwargs)
    assert len(trajectory) == 1
    return {name: column[0] for name, column in trajectory.columns.items()}


class TestRecordGeneration:
    def test_ratio_arithmetic(self):
        problem = make_problem(3)
        pop = Population(np.zeros((2, 3)), np.zeros(2))
        trials = np.array([[9.0, -9.0, 0.0], [1.0, 1.0, 1.0]])
        rec = record(trials, pop, problem)
        assert rec["infeasible_component_ratio"] == pytest.approx(2 / 6)
        assert rec["infeasible_individual_ratio"] == pytest.approx(1 / 2)

    def test_all_feasible(self):
        problem = make_problem(3)
        pop = Population(np.zeros((2, 3)), np.zeros(2))
        rec = record(np.ones((2, 3)), pop, problem)
        assert rec["infeasible_component_ratio"] == 0.0
        assert rec["infeasible_individual_ratio"] == 0.0

    def test_all_infeasible(self):
        problem = make_problem(3)
        pop = Population(np.zeros((2, 3)), np.zeros(2))
        rec = record(np.full((2, 3), 9.0), pop, problem)
        assert rec["infeasible_component_ratio"] == 1.0
        assert rec["infeasible_individual_ratio"] == 1.0

    def test_given_violation_mask_is_used(self):
        problem = make_problem(3)
        pop = Population(np.zeros((2, 3)), np.zeros(2))
        outside = np.array([[True, True, False], [False, False, False]])
        trajectory = Trajectory()
        record_generation(trajectory, outside, 1, pop, 0, problem)
        columns = trajectory.columns
        assert_array_equal(columns["infeasible_component_ratio"], [2 / 6])
        assert_array_equal(columns["infeasible_individual_ratio"], [1 / 2])
        assert_array_equal(columns["corrections_applied"], [1])

    def test_component_ratio_never_exceeds_individual_ratio(self):
        problem = make_problem(4)
        rng = np.random.default_rng(5)
        pop = Population(np.zeros((6, 4)), np.zeros(6))
        trajectory = Trajectory()
        for _ in range(100):
            record_generation(trajectory, *violations(rng.uniform(-8, 8, (6, 4)), problem), pop, 0, problem)
        columns = trajectory.columns
        assert (columns["infeasible_component_ratio"] <= columns["infeasible_individual_ratio"] + 1e-15).all()

    def test_best_error_clamped_non_negative(self):
        problem = make_problem(2)
        pop = Population(np.zeros((3, 2)), np.array([0.0, 1.0, 2.0]))
        rec = record(np.zeros((3, 2)), pop, problem)
        assert rec["best_error"] == 0.0

    def test_best_fitness_below_the_stated_optimum_raises(self):
        problem = make_problem(2)
        pop = Population(np.zeros((3, 2)), np.array([0.5, -1e-300, 2.0]))
        trajectory = Trajectory()
        with pytest.raises(ValueError, match="'sphere': best fitness -1e-300 lies below its stated optimum value 0.0"):
            record_generation(trajectory, *violations(np.zeros((3, 2)), problem), pop, 0, problem)
        assert len(trajectory) == 0

    def test_variances_from_population(self):
        problem = make_problem(2)
        pop = Population(np.array([[-5.0, -5.0], [5.0, 5.0]]), np.zeros(2))
        rec = record(np.zeros((2, 2)), pop, problem)
        assert rec["max_component_variance"] == 25.0
        assert rec["mean_component_variance"] == 25.0

    def test_adaptive_probabilities_in_every_row_or_none(self):
        problem = make_problem(2)
        pop = Population(np.zeros((3, 2)), np.zeros(3))
        for first, second in ((None, [0.5, 0.5]), ([0.5, 0.5], None)):
            trajectory = Trajectory()
            feasible = np.zeros((3, 2), dtype=bool), 0
            record_generation(trajectory, *feasible, pop, 0, problem, adaptive_probabilities=first)
            with pytest.raises(ValueError, match="adaptive_probabilities"):
                record_generation(trajectory, *feasible, pop, 0, problem, adaptive_probabilities=second)
            assert len(trajectory) == 1


class TestTrajectory:
    def filled(self, generations, adaptive=False):
        problem = make_problem(2)
        trajectory = Trajectory()
        for g in range(1, generations + 1):
            pop = Population(np.full((3, 2), float(g)), np.full(3, float(g)), generation=g)
            outside = np.zeros((3, 2), dtype=bool)
            outside[:g % 3] = True  # g % 3 infeasible rows, each corrected
            record_generation(trajectory, outside, g % 3, pop, 40 * g, problem,
                              adaptive_probabilities=[0.25, 0.75] if adaptive else None)
        return trajectory

    def test_columns_grow_past_their_first_capacity(self):
        trajectory = self.filled(200)
        columns = trajectory.columns
        assert len(trajectory) == 200 and set(columns) == set(_FIELDS) - {"adaptive_probabilities"}
        assert_array_equal(columns["generation"], np.arange(1, 201))
        assert_array_equal(columns["feasible_evaluations"], 40 * np.arange(1, 201))
        assert_array_equal(columns["best_error"], np.arange(1.0, 201.0))
        assert all(column.shape == (200,) for column in columns.values())

    def test_dtypes(self):
        columns = self.filled(3, adaptive=True).columns
        assert {name: column.dtype for name, column in columns.items()} == {
            name: np.dtype(np.int64 if name in _INT_FIELDS else np.float64) for name in _FIELDS}
        assert columns["adaptive_probabilities"].shape == (3, 2)

    def test_a_row_is_a_record_of_python_numbers(self):
        trajectory = self.filled(5, adaptive=True)
        rec = list(trajectory)[1]
        assert isinstance(rec, GenerationRecord)
        assert rec == GenerationRecord(2, 80, 3, 2.0, 2 / 3, 2 / 3, 0.0, 0.0, 2, [0.25, 0.75])
        values = [getattr(rec, f.name) for f in dataclasses.fields(GenerationRecord)]
        assert [type(v) for v in values] == [int] * 3 + [float] * 5 + [int, list]
        assert all(type(p) is float for p in rec.adaptive_probabilities)
        assert next(iter(self.filled(2))).adaptive_probabilities is None
        assert json.dumps(sum(r.corrections_applied for r in trajectory)) == "6"

    def test_sequence_behaviour(self):
        trajectory = self.filled(10)
        assert len(trajectory) == 10
        assert [r.generation for r in trajectory] == list(range(1, 11))
        assert [r.best_error for r in trajectory] == trajectory.columns["best_error"].tolist()
        with pytest.raises(TypeError):  # columns only: no row index and no slice
            trajectory[0]
        assert len(Trajectory()) == 0 and list(Trajectory()) == [] and Trajectory().columns == {}


def sample_columns(adaptive):
    columns = {
        "generation": np.array([1, 2]),
        "feasible_evaluations": np.array([40, 80]),
        "population_size": np.array([20, 18]),
        "best_error": np.array([0.5, 1e-17]),
        "infeasible_component_ratio": np.array([0.25, 0.0]),
        "infeasible_individual_ratio": np.array([0.5, 0.0]),
        "max_component_variance": np.array([2.0, 1e-300]),
        "mean_component_variance": np.array([1.5, 5e-301]),
        "corrections_applied": np.array([3, 0]),
    }
    if adaptive:
        columns["adaptive_probabilities"] = np.array([[0.2] * 5, [0.1, 0.2, 0.3, 0.2, 0.2]])
    return columns


def assert_columns_equal(actual, expected):
    """Same names, and arrays equal in every value (NaN equal to NaN) and in dtype."""
    assert actual.keys() == expected.keys()
    for name in expected:
        assert actual[name].dtype == expected[name].dtype, name
        assert_array_equal(actual[name], expected[name], err_msg=name)


def trajectory_of(columns):
    """A trajectory that holds ``columns``, appended row by row as record_generation appends."""
    trajectory, probabilities = Trajectory(), columns.get("adaptive_probabilities")
    for row in range(len(columns["generation"])):
        index = trajectory._new_row(None if probabilities is None else probabilities[row])
        for name, column in columns.items():
            trajectory._columns[name][index] = column[row]
    return trajectory


class TestPersistence:
    def sample_trajectory(self, adaptive=False):
        return trajectory_of(sample_columns(adaptive))

    def test_csv_round_trip(self, tmp_path):
        for adaptive in (False, True):  # one trajectory of each kind
            path = tmp_path / f"trajectory_{adaptive}.csv"
            write_trajectory_csv(self.sample_trajectory(adaptive), path)
            columns = read_trajectory_csv(path)
            assert_columns_equal(columns, sample_columns(adaptive))  # 17 significant digits round-trip
            assert ("adaptive_probabilities" in columns) is adaptive

    def test_csv_header_and_line_endings(self, tmp_path):
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(self.sample_trajectory(), path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        header = raw.decode().splitlines()[0]
        assert header == (
            "generation,feasible_evaluations,population_size,best_error,"
            "infeasible_component_ratio,infeasible_individual_ratio,"
            "max_component_variance,mean_component_variance,"
            "corrections_applied,adaptive_probabilities"
        )

    def test_records_to_columns(self):
        trajectory = self.sample_trajectory()
        columns = records_to_columns(trajectory)
        assert_array_equal(columns["feasible_evaluations"], [40, 80])
        assert all(np.shares_memory(columns[name], trajectory.columns[name]) for name in columns)

    def test_reader_rejects_rows_with_and_without_adaptive_probabilities(self, tmp_path):
        plain = trajectory_csv_text(self.sample_trajectory()).splitlines()
        adaptive = trajectory_csv_text(self.sample_trajectory(adaptive=True)).splitlines()
        for lines, bad in (([*plain, adaptive[2]], 4), ([*adaptive, plain[2]], 4),
                           ([plain[0], plain[1], adaptive[2]], 3)):
            path = tmp_path / "mixed.csv"
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ValueError, match=f"^line {bad}: adaptive_probabilities"):
                read_trajectory_csv(path)

    def test_reader_names_a_cut_line(self, tmp_path):
        path = tmp_path / "trajectory.csv"
        text = trajectory_csv_text(self.sample_trajectory())
        path.write_text(text[:-20])
        with pytest.raises(ValueError, match="^line 3: expected 10 fields"):
            read_trajectory_csv(path)

    def test_reader_rejects_a_trajectory_without_generations(self, tmp_path):
        path = tmp_path / "trajectory.csv"
        path.write_text(trajectory_csv_text(Trajectory()))
        with pytest.raises(ValueError, match="no generation rows"):
            read_trajectory_csv(path)
        path.write_text("")
        with pytest.raises(ValueError, match="no header row"):
            read_trajectory_csv(path)

    def test_summary_round_trip(self, tmp_path):
        path = tmp_path / "summary.json"
        summary = {"config": {"seed": 3}, "final_error": 1.5e-9, "behaviour_class": "GB",
                   "final_max_component_variance": 2.5e-11}
        write_run_summary(path, summary)
        assert read_run_summary(path) == summary

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_summary_text_rejects_non_finite_numbers(self, value):
        with pytest.raises(ValueError, match="not JSON compliant"):
            run_summary_text({"final_fitness": value})

    def test_a_write_that_raises_midway_leaves_the_previous_file(self, tmp_path):
        csv_path, json_path = tmp_path / "trajectory.csv", tmp_path / "summary.json"
        write_trajectory_csv(self.sample_trajectory(), csv_path)
        write_run_summary(json_path, {"final_error": 1.0})
        before = {path: path.read_bytes() for path in (csv_path, json_path)}
        broken = self.sample_trajectory()
        broken._columns["best_error"] = np.array([0.5, "not a number"], dtype=object)
        with pytest.raises(ValueError):
            write_trajectory_csv(broken, csv_path)
        with pytest.raises(TypeError):
            write_run_summary(json_path, {"config": {"seed": 3}, "z_last": object()})
        assert {path: path.read_bytes() for path in (csv_path, json_path)} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["summary.json", "trajectory.csv"]


def reference_csv_text(trajectory):
    """CSV text built row by row from the trajectory's records, each cell formatted by format_float:
    the row-wise writer the column-wise one must match byte for byte."""
    def cell(name, value):
        if name == "adaptive_probabilities":
            return "" if value is None else ";".join(format_float(p) for p in value)
        return str(int(value)) if name in _INT_FIELDS else format_float(value)

    rows = [_FIELDS] + [[cell(name, getattr(rec, name)) for name in _FIELDS] for rec in trajectory]
    return "".join(",".join(row) + "\n" for row in rows)


def no_optimum_problem():
    return ExternalProblem("bowl", 3, Bounds.symmetric(5.0, 3), lambda x: float(np.sum((x - 4.5) ** 2)))


@pytest.mark.parametrize("engine,bchm,problem", [
    ("classic", "mirror", lambda: make_instance("rastrigin", 2, 4, "SBOX")),
    ("lshade", "adaptive", lambda: make_instance("linear_slope", 1, 5, "SBOX")),
    ("lshade", "sat", no_optimum_problem),
], ids=["classic", "lshade-adaptive", "no-optimum"])
def test_column_writer_and_reader_match_the_row_reference(tmp_path, engine, bchm, problem):
    result = run(RunConfig(problem=problem(), engine=engine, bchm=bchm, budget=3000, seed=4))
    trajectory = result.records
    assert len(trajectory) == result.generations > 1
    assert ("adaptive_probabilities" in trajectory.columns) is (bchm == "adaptive")
    if engine == "lshade" and bchm == "sat":
        assert np.isnan(trajectory.columns["best_error"]).all()
    text = trajectory_csv_text(trajectory)
    assert text == reference_csv_text(trajectory)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(trajectory, path)
    assert path.read_text() == text
    assert_columns_equal(read_trajectory_csv(path), trajectory.columns)


def test_format_float_round_trips_doubles():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        x = float(rng.standard_normal() * 10.0 ** rng.integers(-200, 200))
        assert float(format_float(x)) == x
