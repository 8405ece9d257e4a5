import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import kstest

from debox.core import MAX_BOX_WIDTH, Bounds, Population, RngStream, population_stats, stable_key


def pop_1d(*values):
    return Population(np.array(values, dtype=float).reshape(-1, 1), np.zeros(len(values)))


class TestBounds:
    def test_symmetric(self):
        b = Bounds.symmetric(5.0, 3)
        assert b.dimension == 3
        assert_allclose(b.lower, [-5, -5, -5])
        assert_allclose(b.width, [10, 10, 10])

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Bounds(np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    def test_rejects_non_finite(self):
        for lower, upper in (([-np.inf, -1.0], [np.inf, 1.0]), ([0.0, 0.0], [1.0, np.inf]),
                             ([np.nan, 0.0], [1.0, 1.0])):
            with pytest.raises(ValueError, match="bounds must be finite"):
                Bounds(np.array(lower), np.array(upper))

    def test_rejects_a_box_too_wide_for_a_finite_variance(self):
        # the squared deviations of points in a box of half-width 1e200 overflow
        Bounds.symmetric(MAX_BOX_WIDTH / 2, 3)
        for lower, upper in (([-1e200] * 3, [1e200] * 3), ([0.0, -1.7e308], [1.0, 1.7e308])):
            with pytest.raises(ValueError, match=r"bounds component \d spans .* wider than MAX_BOX_WIDTH = 1e\+150"):
                Bounds(np.array(lower), np.array(upper))

    def test_closed_box_membership(self):
        b = Bounds.symmetric(5.0, 2)
        assert b.contains(np.array([5.0, -5.0]))
        assert not b.contains(np.array([5.0000001, 0.0]))
        mask = b.contains(np.array([[0.0, 0.0], [6.0, 0.0]]))
        assert list(mask) == [True, False]

    def test_outside_marks_each_violated_component(self):
        b = Bounds(np.array([-1.0, 0.0, 2.0]), np.array([1.0, 3.0, 4.0]))
        on_bounds = np.array([[-1.0, 3.0, 2.0], [1.0, 0.0, 4.0]])
        assert not b.outside(on_bounds).any()
        beyond = np.array([[-1.0000001, 1.0, 4.0000001], [0.0, np.nextafter(0.0, -1.0), 3.0]])
        assert b.outside(beyond).tolist() == [[True, False, True], [False, True, False]]

    def test_nan_component_is_outside(self):
        b = Bounds.symmetric(5.0, 3)
        trials = np.array([[np.nan, 0.0, 0.0], [1.0, 1.0, 1.0]])
        assert b.outside(trials).tolist() == [[True, False, False], [False, False, False]]
        assert b.contains(trials).tolist() == [False, True]

    def test_contains_is_the_reduced_complement_of_outside(self):
        b = Bounds.symmetric(1.0, 3)
        # interior, on-bound, just-outside and non-finite components, in every combination
        values = [0.5, -1.0, 1.0, np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0), np.nan, np.inf, -np.inf]
        grid = np.array(np.meshgrid(values, values, values)).reshape(3, -1).T
        expected = ~b.outside(grid).any(-1)
        assert 0 < np.count_nonzero(expected) < len(grid)
        inside = b.contains(grid)
        assert inside.dtype == bool and inside.tolist() == expected.tolist()
        assert [b.contains(x) for x in grid] == expected.tolist()  # one point: a Python bool
        assert all(type(b.contains(x)) is bool for x in grid[:3])
        empty = b.contains(np.empty((0, 3)))
        assert empty.dtype == bool and empty.shape == (0,)


class TestPopulation:
    def test_best_index_is_the_first_of_a_tied_minimum(self):
        # classic DE's pbest is the first best row, the argmin contract
        pop = Population(np.arange(10.0).reshape(5, 2), [3.0, 1.0, 2.0, 1.0, 1.0])
        assert pop.best_index == 1 and type(pop.best_index) is int
        assert Population(np.zeros((3, 2)), [np.inf, 0.5, 0.5]).best_index == 1


class TestPopulationStats:
    def test_two_member_1d(self):
        stats = population_stats(pop_1d(0.0, 2.0))
        assert_allclose(stats.mean, [1.0])
        assert_allclose(stats.variance, [1.0])

    def test_single_member_degenerate(self):
        pop = Population(np.array([[3.0, 3.0]]), np.zeros(1))
        stats = population_stats(pop)
        assert_allclose(stats.mean, [3.0, 3.0])
        assert_allclose(stats.variance, [0.0, 0.0])

    def test_symmetric_pair(self):
        stats = population_stats(pop_1d(-5.0, 5.0))
        assert_allclose(stats.mean, [0.0])
        assert_allclose(stats.variance, [25.0])

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError, match="empty population"):
            population_stats(Population(np.empty((0, 2)), np.empty(0)))

    def test_translation_invariance(self):
        rng = RngStream(7)
        positions = rng.uniform(-5, 5, (20, 6))
        base = population_stats(Population(positions, np.zeros(20)))
        shifted = population_stats(Population(positions + 3.25, np.zeros(20)))
        assert_allclose(shifted.mean, base.mean + 3.25, atol=1e-12)
        assert_allclose(shifted.variance, base.variance, atol=1e-12)


class TestRngStream:
    def test_identical_seed_and_path_bit_identical(self):
        a = RngStream(123, (1, 2)).random(100)
        b = RngStream(123, (1, 2)).random(100)
        assert np.array_equal(a, b)

    def test_different_paths_differ(self):
        assert RngStream(5, (0,)).random() != RngStream(5, (1,)).random()
        assert RngStream(5, (0,)).stream_path == (0,)

    def test_operation_sequence_reproducible(self):
        def sequence(stream):
            return (
                stream.uniform(-1, 1, 3).tolist(),
                float(stream.beta(2.0, 3.0)),
                float(stream.cauchy(0.0, 1.0)),
                int(stream.integers(0, 10)),
            )

        assert sequence(RngStream(9, (4,))) == sequence(RngStream(9, (4,)))


class TestDraw:
    def test_uniform_is_linear_map_of_unit_draw(self):
        assert RngStream(3).uniform(-5.0, 5.0) == -5.0 + 10.0 * RngStream(3).random()

    def test_beta_1_1_is_uniform(self):
        samples = RngStream(42).beta(1.0, 1.0, 100_000)
        assert kstest(samples, "uniform").statistic < 0.01

    def test_cauchy_median_is_location(self):
        samples = RngStream(43).cauchy(0.5, 0.1, 100_000)
        assert abs(np.median(samples) - 0.5) < 0.01

    def test_cauchy_draws_once_per_parameter_entry(self):
        samples = RngStream(1).cauchy(np.zeros(3), 1.0)
        assert samples.shape == (3,) and len(set(samples.tolist())) == 3
        assert samples[0] == RngStream(1).cauchy(0.0, 1.0)  # the scalar stream is unchanged

    @pytest.mark.parametrize("loc, scale, size", [
        (0.3, 0.1, None), (np.array([0.3, 0.5]), 0.1, None), (0.0, np.array([[1.0], [2.0]]), None),
        (np.array([0.3, 0.5]), 0.1, (3, 2)),
    ])
    def test_normal_matches_generator_normal_bit_for_bit(self, loc, scale, size):
        # one formula, loc + scale * standard_normal, with one draw per entry of the broadcast parameters
        reference = np.random.Generator(np.random.PCG64(np.random.SeedSequence(5, spawn_key=(1,))))
        assert np.array_equal(RngStream(5, (1,)).normal(loc, scale, size), reference.normal(loc, scale, size))

    @pytest.mark.parametrize(
        "spec",
        [
            ("uniform", 2.0, -2.0),
            ("beta", 0.0, 1.0),
            ("beta", 1.0, -3.0),
            ("cauchy", 0.0, 0.0),
            ("normal", 0.0, -1.0),
        ],
    )
    def test_invalid_parameters(self, spec):
        name, *params = spec
        with pytest.raises(ValueError, match="invalid distribution parameters"):
            getattr(RngStream(0), name)(*params)


class TestStableKey:
    def test_deterministic(self):
        assert stable_key(1, "sphere", 3) == stable_key(1, "sphere", 3)

    def test_distinct_inputs_differ(self):
        keys = {stable_key(seed, f, i) for seed in range(3) for f in ("a", "b") for i in range(5)}
        assert len(keys) == 30

    def test_fits_in_64_bits(self):
        assert 0 <= stable_key("x") < 2**64
