import numpy as np
import pytest
from numpy.testing import assert_allclose

from debox.benchmarks import (
    BenchmarkProblem,
    ExternalProblem,
    catalog_ids,
    create_problem,
    make_instance,
    register_problem,
)
from debox.core import Bounds, RngStream

ALL_FUNCTIONS = catalog_ids()


def centered_sphere(dimension):
    return BenchmarkProblem(
        function_id="sphere",
        instance_id=0,
        dimension=dimension,
        bounds=Bounds.symmetric(5.0, dimension),
        optimum_location=np.zeros(dimension),
        optimum_value=0.0,
    )


class TestMakeInstance:
    def test_pure_function_of_arguments(self):
        a = make_instance("sphere", 3, 7, "SBOX")
        b = make_instance("sphere", 3, 7, "SBOX")
        assert np.array_equal(a.optimum_location, b.optimum_location)
        assert a.optimum_value == b.optimum_value

    def test_bbob_like_keeps_optimum_in_inner_box(self):
        problem = make_instance("separable_ellipsoid", 1, 20, "BBOB_LIKE")
        assert np.all(np.abs(problem.optimum_location) <= 4.0)

    def test_sbox_places_optima_arbitrarily_close_to_bounds(self):
        # over many instances some component must land very near a bound
        closest = min(
            np.min(5.0 - np.abs(make_instance("sphere", i, 20, "SBOX").optimum_location))
            for i in range(1000)
        )
        assert closest < 0.05

    def test_linear_slope_optimum_is_corner(self):
        for mode in ("SBOX", "BBOB_LIKE"):
            problem = make_instance("linear_slope", 2, 6, mode)
            assert np.all(np.abs(problem.optimum_location) == 5.0)

    def test_offset_range(self):
        values = [make_instance("sphere", i, 5, "SBOX").optimum_value for i in range(50)]
        assert all(-100.0 <= v <= 100.0 for v in values)

    def test_unknown_function(self):
        with pytest.raises(ValueError, match="unknown function"):
            make_instance("nope", 1, 5, "SBOX")

    def test_dimension_must_be_at_least_two(self):
        with pytest.raises(ValueError, match="dimension"):
            make_instance("sphere", 1, 1, "SBOX")

    def test_a_directly_built_catalogue_problem_of_dimension_1_is_refused(self):
        with pytest.raises(ValueError, match=r"^problem 'separable_ellipsoid': dimension must be >= 2, got 1$"):
            BenchmarkProblem("separable_ellipsoid", 0, 1, Bounds.symmetric(5.0, 1), optimum_location=np.zeros(1),
                             optimum_value=0.0)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            make_instance("sphere", 1, 5, "SBOX_COST")


class TestEvaluateStrict:
    def test_optimum_evaluates_to_optimum_value(self):
        for function in ALL_FUNCTIONS:
            problem = make_instance(function, 1, 8, "SBOX")
            assert_allclose(
                problem.evaluate(problem.optimum_location),
                problem.optimum_value,
                atol=1e-12,
            )

    def test_sphere_unit_offset(self):
        problem = make_instance("sphere", 4, 6, "BBOB_LIKE")
        x = problem.optimum_location.copy()
        x[0] += 1.0
        assert_allclose(problem.evaluate(x), problem.optimum_value + 1.0, atol=1e-12)

    def test_outside_box_is_infinite(self):
        for function in ALL_FUNCTIONS:
            problem = make_instance(function, 1, 4, "SBOX")
            x = np.zeros(4)
            x[0] = 5.0001
            assert problem.evaluate(x) == np.inf

    def test_finite_iff_inside_closed_box(self):
        problem = make_instance("rastrigin", 2, 5, "SBOX")
        rng = RngStream(3)
        for _ in range(200):
            x = rng.uniform(-7, 7, 5)
            value = problem.evaluate(x)
            assert np.isfinite(value) == bool(problem.bounds.contains(x))

    def test_dimension_mismatch(self):
        problem = make_instance("sphere", 1, 4, "SBOX")
        with pytest.raises(ValueError, match="dimension mismatch"):
            problem.evaluate(np.zeros(5))

    def test_batch_matches_single_point_evaluation(self):
        rng = RngStream(5)
        rowwise = ExternalProblem("rowwise_probe", 6, Bounds.symmetric(5.0, 6), lambda x: float(np.sum(np.abs(x))))
        for problem in [make_instance(function, 1, 6, "SBOX") for function in ALL_FUNCTIONS] + [rowwise]:
            batch = rng.uniform(-6, 6, (50, 6))
            single = np.array([problem.evaluate(x) for x in batch])
            assert_allclose(problem.evaluate_batch(batch), single, rtol=1e-12)
            assert problem.feasible_evaluations + problem.infeasible_evaluations == 100

    def test_a_mixed_batch_scores_its_feasible_rows_in_row_order(self):
        problem = ExternalProblem("first_coordinate", 2, Bounds.symmetric(5.0, 2), lambda x: float(x[0]))
        batch = np.array([[6.0, 0.0], [3.0, 1.0], [-2.0, 9.0], [-1.0, 0.0], [5.0, -5.0], [4.0, np.nan]])
        assert problem.evaluate_batch(batch).tolist() == [np.inf, 3.0, np.inf, -1.0, 5.0, np.inf]
        assert (problem.feasible_evaluations, problem.infeasible_evaluations) == (3, 3)
        catalogue = centered_sphere(2)
        assert catalogue.evaluate_batch(batch).tolist() == [np.inf, 10.0, np.inf, 1.0, 50.0, np.inf]

    @pytest.mark.parametrize("outside_row", [False, True], ids=["all-feasible", "mixed"])
    def test_nan_scores_inf_and_minus_inf_raises_on_both_paths(self, outside_row):
        problem = ExternalProblem("signal", 2, Bounds.symmetric(5.0, 2),
                                  lambda x: {1.0: np.nan, 2.0: -np.inf}.get(float(x[0]), float(x[1])))
        tail = [[9.0, 0.0]] if outside_row else []
        values = problem.evaluate_batch(np.array([[1.0, 0.0], [0.0, 3.0], [1.0, 4.0]] + tail))
        assert values.tolist() == [np.inf, 3.0, np.inf] + [np.inf] * outside_row
        with pytest.raises(ValueError, match=r"^problem 'signal': the objective returned -inf$"):
            problem.evaluate_batch(np.array([[0.0, 3.0], [2.0, 0.0], [1.0, 0.0]] + tail))

    def test_global_minimum_sanity(self):
        rng = RngStream(17)
        for function in ALL_FUNCTIONS:
            problem = make_instance(function, 1, 6, "SBOX")
            samples = rng.uniform(-5, 5, (10_000, 6))
            values = np.array([problem.evaluate(x) for x in samples])
            assert np.all(values >= problem.optimum_value - 1e-9)


class TestEvaluationCounting:
    def test_each_call_adds_to_the_tally_of_its_side_of_the_box(self):
        problem = centered_sphere(3)
        problem.evaluate(np.zeros(3))
        problem.evaluate(np.full(3, 9.0))
        assert problem.feasible_evaluations == 1
        assert problem.infeasible_evaluations == 1

    def test_an_empty_batch_scores_nothing_and_counts_nothing(self):
        problem = centered_sphere(3)
        values = problem.evaluate_batch(np.empty((0, 3)))
        assert values.dtype == np.float64 and values.shape == (0,)
        assert (problem.feasible_evaluations, problem.infeasible_evaluations) == (0, 0)
        plugin = ExternalProblem("first_coordinate", 3, Bounds.symmetric(5.0, 3), lambda x: float(x[0]))
        values = plugin.evaluate_batch(np.empty((0, 3)))
        assert values.dtype == np.float64 and values.shape == (0,)


def slope(x_star, bounds=None):
    """The linear slope with its optimum at the corner ``x_star`` and f* = 0."""
    x_star = np.asarray(x_star, dtype=float)
    bounds = bounds or Bounds.symmetric(5.0, x_star.size)
    return BenchmarkProblem("linear_slope", 0, x_star.size, bounds, optimum_location=x_star, optimum_value=0.0)


class TestLinearSlope:
    def test_zero_at_corner(self):
        x_star = np.array([5.0, -5.0])
        assert slope(x_star).evaluate(x_star) == 0.0

    def test_hand_value_at_origin(self):
        # weights (1, 10): 1*5*1 + 10*(-5)*(-1) = 55
        assert_allclose(slope([5.0, -5.0]).evaluate(np.zeros(2)), 55.0)

    def test_linearity(self):
        f = lambda x: slope([5.0, 5.0]).evaluate(np.array(x, dtype=float))
        assert_allclose(f([1.0, 1.0]) + f([3.0, 3.0]), 2.0 * f([2.0, 2.0]), atol=1e-12)

    def test_positive_inside_box(self):
        problem = slope([5.0, -5.0, 5.0])
        xs = RngStream(0).uniform(-5, 5, (100, 3))
        assert np.all(problem.evaluate_batch(xs) > 0.0)

    def test_requires_corner(self):
        # a corner of [-5, 5]^2 that is not a corner of the box the problem lives on
        box = Bounds(np.array([-5.0, -5.0]), np.array([5.0, 4.0]))
        with pytest.raises(ValueError, match="corner"):
            slope([5.0, 5.0], box)
        assert slope([5.0, 4.0], box).evaluate(np.array([5.0, 4.0])) == 0.0

    def test_problem_checks_its_corner_when_built(self):
        box = Bounds.symmetric(5.0, 2)
        with pytest.raises(ValueError, match="corner"):
            BenchmarkProblem("linear_slope", 0, 2, box, optimum_location=np.array([5.0, 0.0]), optimum_value=0.0)


class TestPluginProblems:
    def make_external(self, dimension=3):
        return ExternalProblem(
            name="paraboloid",
            dimension=dimension,
            bounds=Bounds.symmetric(5.0, dimension),
            objective=lambda x: float(np.sum((x - 1.0) ** 2)),
            optimum_value=0.0,
        )

    def test_strict_semantics(self):
        problem = self.make_external()
        assert problem.evaluate(np.ones(3)) == 0.0
        assert problem.evaluate(np.full(3, 6.0)) == np.inf
        assert problem.feasible_evaluations == 1

    def test_registry_round_trip(self):
        register_problem("paraboloid", lambda instance, dimension: self.make_external(dimension))
        problem = create_problem("paraboloid", 1, 4)
        assert problem.dimension == 4
        assert np.isfinite(problem.evaluate(np.zeros(4)))

    def test_create_problem_prefers_catalogue(self):
        problem = create_problem("sphere", 1, 4)
        assert isinstance(problem, BenchmarkProblem)

    def test_nan_objective_scores_inf(self):
        problem = ExternalProblem(
            name="half_nan",
            dimension=3,
            bounds=Bounds.symmetric(5.0, 3),
            objective=lambda x: np.nan if x[0] > 0 else float(np.sum(x * x)),
        )
        assert problem.evaluate(np.ones(3)) == np.inf
        batch = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [9.0, 0.0, 0.0]])
        assert_allclose(problem.evaluate_batch(batch), [np.inf, 1.0, np.inf])
        assert problem.feasible_evaluations == 3 and problem.infeasible_evaluations == 1

    @pytest.mark.parametrize("optimum_value", [np.inf, -np.inf, np.nan])
    def test_non_finite_optimum_value_rejected(self, optimum_value):
        with pytest.raises(ValueError, match=r"^problem 'paraboloid': optimum_value must be finite, got "):
            ExternalProblem("paraboloid", 3, Bounds.symmetric(5.0, 3), lambda x: float(np.sum(x * x)),
                            optimum_value=optimum_value)
        with pytest.raises(ValueError, match=r"^problem 'sphere': optimum_value must be finite"):
            BenchmarkProblem("sphere", 0, 3, Bounds.symmetric(5.0, 3), np.zeros(3), optimum_value)

    def test_bounds_of_another_dimension_rejected(self):
        message = r"^problem 'paraboloid': bounds of dimension 2 for a problem of dimension 3$"
        with pytest.raises(ValueError, match=message):
            ExternalProblem("paraboloid", 3, Bounds.symmetric(5.0, 2), lambda x: float(np.sum(x * x)))

    def test_catalogue_id_cannot_be_registered(self):
        with pytest.raises(ValueError, match="'sphere' is a catalogue function id"):
            register_problem("sphere", lambda instance, dimension: self.make_external(dimension))
        assert create_problem("sphere", 1, 3).objective is None

    def test_create_problem_unknown(self):
        with pytest.raises(ValueError, match="unknown function"):
            create_problem("missing", 1, 4)
