import numpy as np
import pytest
from numpy.testing import assert_allclose

from debox.benchmarks import BenchmarkProblem
from debox.core import Bounds, Population
from debox.telemetry import (
    BehaviourClass,
    ClassifierConfig,
    GenerationRecord,
    classify,
    format_float,
    read_run_summary,
    read_trajectory_csv,
    record_generation,
    records_to_columns,
    write_run_summary,
    write_trajectory_csv,
)


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

    def test_thresholds_configurable(self):
        cfg = ClassifierConfig(error_threshold=1e-2, variance_threshold=1e-3)
        assert classify(1e-3, 1e-4, cfg) is BehaviourClass.GB

    def test_thresholds_must_be_positive(self):
        with pytest.raises(ValueError):
            ClassifierConfig(error_threshold=0.0)


class TestRecordGeneration:
    def test_ratio_arithmetic(self):
        problem = make_problem(3)
        pop = Population(np.zeros((2, 3)), np.zeros(2))
        trials = np.array([[9.0, -9.0, 0.0], [1.0, 1.0, 1.0]])
        record = record_generation(1, trials, pop, problem)
        assert record.infeasible_component_ratio == pytest.approx(2 / 6)
        assert record.infeasible_individual_ratio == pytest.approx(1 / 2)

    def test_all_feasible(self):
        problem = make_problem(3)
        pop = Population(np.zeros((2, 3)), np.zeros(2))
        record = record_generation(1, np.ones((2, 3)), pop, problem)
        assert record.infeasible_component_ratio == 0.0
        assert record.infeasible_individual_ratio == 0.0

    def test_all_infeasible(self):
        problem = make_problem(3)
        pop = Population(np.zeros((2, 3)), np.zeros(2))
        record = record_generation(1, np.full((2, 3), 9.0), pop, problem)
        assert record.infeasible_component_ratio == 1.0
        assert record.infeasible_individual_ratio == 1.0

    def test_nan_component_counts_as_violated(self):
        problem = make_problem(3)
        pop = Population(np.zeros((2, 3)), np.zeros(2))
        record = record_generation(1, np.array([[np.nan, 0.0, 0.0], [1.0, 1.0, 1.0]]), pop, problem)
        assert record.infeasible_component_ratio == pytest.approx(1 / 6)
        assert record.infeasible_individual_ratio == pytest.approx(1 / 2)

    def test_given_violation_mask_is_used(self):
        problem = make_problem(3)
        pop = Population(np.zeros((2, 3)), np.zeros(2))
        outside = np.array([[True, True, False], [False, False, False]])
        record = record_generation(1, np.zeros((2, 3)), pop, problem, outside=outside)
        assert record.infeasible_component_ratio == pytest.approx(2 / 6)
        assert record.infeasible_individual_ratio == pytest.approx(1 / 2)

    def test_component_ratio_never_exceeds_individual_ratio(self):
        problem = make_problem(4)
        rng = np.random.default_rng(5)
        pop = Population(np.zeros((6, 4)), np.zeros(6))
        for _ in range(100):
            trials = rng.uniform(-8, 8, (6, 4))
            record = record_generation(1, trials, pop, problem)
            assert record.infeasible_component_ratio <= record.infeasible_individual_ratio + 1e-15

    def test_best_error_clamped_non_negative(self):
        problem = make_problem(2)
        pop = Population(np.zeros((3, 2)), np.array([0.0, 1.0, 2.0]))
        record = record_generation(1, np.zeros((3, 2)), pop, problem)
        assert record.best_error == 0.0

    def test_variances_from_population(self):
        problem = make_problem(1)
        pop = Population(np.array([[-5.0], [5.0]]), np.zeros(2))
        record = record_generation(1, np.zeros((2, 1)), pop, problem)
        assert record.max_component_variance == 25.0
        assert record.mean_component_variance == 25.0


class TestPersistence:
    def sample_records(self):
        return [
            GenerationRecord(1, 40, 20, 0.5, 0.25, 0.5, 2.0, 1.5, 3, None),
            GenerationRecord(2, 80, 18, 1e-17, 0.0, 0.0, 1e-300, 5e-301, 0, [0.2] * 5),
        ]

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "trajectory.csv"
        records = self.sample_records()
        write_trajectory_csv(records, path)
        columns = read_trajectory_csv(path)
        assert columns["generation"] == [1, 2]
        assert columns["best_error"] == [0.5, 1e-17]  # 17 significant digits round-trip
        assert columns["max_component_variance"] == [2.0, 1e-300]
        assert columns["adaptive_probabilities"] == [None, [0.2] * 5]

    def test_csv_header_and_line_endings(self, tmp_path):
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(self.sample_records(), path)
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
        columns = records_to_columns(self.sample_records())
        assert columns["feasible_evaluations"] == [40, 80]

    def test_summary_round_trip(self, tmp_path):
        path = tmp_path / "summary.json"
        summary = {"config": {"seed": 3}, "final_error": 1.5e-9, "behaviour_class": "GB"}
        write_run_summary(path, summary)
        assert read_run_summary(path) == summary

    def test_a_write_that_raises_midway_leaves_the_previous_file(self, tmp_path):
        csv_path, json_path = tmp_path / "trajectory.csv", tmp_path / "summary.json"
        write_trajectory_csv(self.sample_records(), csv_path)
        write_run_summary(json_path, {"final_error": 1.0})
        before = {path: path.read_bytes() for path in (csv_path, json_path)}
        broken = self.sample_records() * 50 + [GenerationRecord(3, 90, 18, "not a number", 0, 0, 1, 1, 0, None)]
        with pytest.raises(ValueError):
            write_trajectory_csv(broken, csv_path)
        with pytest.raises(TypeError):
            write_run_summary(json_path, {"config": {"seed": 3}, "z_last": object()})
        assert {path: path.read_bytes() for path in (csv_path, json_path)} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["summary.json", "trajectory.csv"]


def test_format_float_round_trips_doubles():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        x = float(rng.standard_normal() * 10.0 ** rng.integers(-200, 200))
        assert float(format_float(x)) == x
