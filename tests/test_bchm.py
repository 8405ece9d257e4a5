import numpy as np
import pytest
from numpy.testing import assert_allclose

from debox.bchm import (
    ADAPTIVE_POOL,
    CORRECTING_METHOD_IDS,
    METHOD_IDS,
    AdaptiveState,
    CorrectionContext,
    adaptive_correct,
    adaptive_select,
    adaptive_update,
    correct,
    fit_beta_params,
)
from debox.core import Bounds, Population, PopulationStats, RngStream, population_stats, stable_key
from conftest import ScriptedStream

BOX1 = Bounds.symmetric(5.0, 1)
BOX2 = Bounds.symmetric(5.0, 2)


def make_ctx(bounds, target=None, pbest=None, mean=None, stats=None):
    n = bounds.dimension
    zero = np.zeros(n)
    return CorrectionContext(
        bounds=bounds,
        target=zero if target is None else np.asarray(target, dtype=float),
        pbest=zero if pbest is None else np.asarray(pbest, dtype=float),
        population_mean=zero if mean is None else np.asarray(mean, dtype=float),
        stats=stats,
    )


def no_draws():
    """A stream that fails the test if a method draws from it."""
    return ScriptedStream([])


class TestSaturate:
    def test_upper_violation_lands_on_bound(self):
        outcome = correct("sat", np.array([7.0]), make_ctx(BOX1), no_draws())
        assert_allclose(outcome.vector, [5.0])
        assert outcome.components_corrected == 1

    def test_feasible_untouched(self):
        outcome = correct("sat", np.array([0.0]), make_ctx(BOX1), no_draws())
        assert_allclose(outcome.vector, [0.0])
        assert outcome.components_corrected == 0

    def test_componentwise(self):
        outcome = correct("sat", np.array([-9.0, 3.0]), make_ctx(BOX2), no_draws())
        assert_allclose(outcome.vector, [-5.0, 3.0])
        assert outcome.components_corrected == 1


class TestMirror:
    def test_single_reflection(self):
        assert_allclose(correct("mirror", np.array([6.2]), make_ctx(BOX1), no_draws()).vector, [3.8], atol=1e-12)

    def test_feasible_untouched(self):
        assert_allclose(correct("mirror", np.array([2.0]), make_ctx(BOX1), no_draws()).vector, [2.0])

    def test_iterated_reflection(self):
        # 17 -> 2*5-17 = -7 (still out) -> 2*(-5)+7 = -3
        assert_allclose(correct("mirror", np.array([17.0]), make_ctx(BOX1), no_draws()).vector, [-3.0], atol=1e-12)

    def test_involution_on_singly_reflected_points(self):
        rng = RngStream(1)
        for _ in range(200):
            p = rng.uniform(0.0, 5.0, 1)  # feasible point near the upper half
            image = 2.0 * 5.0 - p  # its mirror image above the box
            assert_allclose(correct("mirror", image, make_ctx(BOX1), no_draws()).vector, p, atol=1e-12)


class TestUniformResample:
    def test_stubbed_unit_draw(self, scripted):
        outcome = correct("uniform", np.array([9.0]), make_ctx(BOX1), scripted([0.25]))
        assert_allclose(outcome.vector, [-2.5])

    def test_feasible_consumes_no_randomness(self, scripted):
        stream = scripted([])
        outcome = correct("uniform", np.array([1.0, 1.0]), make_ctx(BOX2), stream)
        assert_allclose(outcome.vector, [1.0, 1.0])
        assert stream.consumed == 0

    def test_output_mean_matches_box_midpoint(self):
        rng = RngStream(5)
        outcome = correct("uniform", np.full((100_000, 1), 9.0), make_ctx(BOX1), rng)
        assert abs(outcome.vector.mean()) < 0.05


class TestFitBetaParams:
    def test_hand_evaluation(self):
        stats = PopulationStats(mean=np.array([0.0]), variance=np.array([1.0]))
        params = fit_beta_params(stats, BOX1)
        assert_allclose(params.alpha, [12.0], atol=1e-12)
        assert_allclose(params.beta, [12.0], atol=1e-12)
        assert not params.fallback_mask[0]

    def test_epsilon_substitution_at_boundary_mean(self):
        stats = PopulationStats(mean=np.array([-5.0]), variance=np.array([1.0]))
        params = fit_beta_params(stats, BOX1)
        assert_allclose(params.m, [0.1])

    def test_non_positive_shape_routes_to_fallback(self):
        stats = PopulationStats(mean=np.array([0.0]), variance=np.array([25.0]))
        params = fit_beta_params(stats, BOX1)
        assert params.fallback_mask[0]

    def test_zero_variance_routes_to_fallback(self):
        stats = PopulationStats(mean=np.array([0.0]), variance=np.array([0.0]))
        assert fit_beta_params(stats, BOX1).fallback_mask[0]


class TestBetaCorrect:
    STATS = PopulationStats(mean=np.array([0.0]), variance=np.array([1.0]))

    def test_feasible_untouched(self):
        outcome = correct("beta", np.array([2.0]), make_ctx(BOX1, stats=self.STATS), RngStream(0))
        assert_allclose(outcome.vector, [2.0])
        assert outcome.components_corrected == 0

    def test_moment_preservation(self):
        outcome = correct("beta", np.full((100_000, 1), 9.0), make_ctx(BOX1, stats=self.STATS), RngStream(8))
        values = outcome.vector.ravel()
        assert abs(values.mean()) < 0.05
        assert abs(values.var() - 1.0) < 0.1

    def test_fallback_behaves_like_uniform_resample(self, scripted):
        degenerate = PopulationStats(mean=np.array([0.0]), variance=np.array([25.0]))
        a = correct("beta", np.array([9.0]), make_ctx(BOX1, stats=degenerate), scripted([0.25]))
        b = correct("uniform", np.array([9.0]), make_ctx(BOX1), scripted([0.25]))
        assert_allclose(a.vector, b.vector)


class TestExpConfined:
    def lower_ctx(self, r_value):
        return make_ctx(BOX1, target=np.array([2.0]))

    def test_r_zero_returns_violated_bound(self, scripted):
        ctx = make_ctx(BOX1, target=np.array([2.0]))
        outcome = correct("expTarget", np.array([-8.0]), ctx, scripted([0.0]))
        assert_allclose(outcome.vector, [-5.0], atol=1e-12)

    def test_r_one_returns_reference(self, scripted):
        ctx = make_ctx(BOX1, target=np.array([2.0]))
        outcome = correct("expTarget", np.array([-8.0]), ctx, scripted([1.0]))
        assert_allclose(outcome.vector, [2.0], atol=1e-12)

    def test_upper_branch_limits(self, scripted):
        ctx = make_ctx(BOX1, target=np.array([1.5]))
        at_r0 = correct("expTarget", np.array([8.0]), ctx, scripted([0.0]))
        at_r1 = correct("expTarget", np.array([8.0]), ctx, scripted([1.0]))
        assert_allclose(at_r0.vector, [1.5], atol=1e-12)  # reference
        assert_allclose(at_r1.vector, [5.0], atol=1e-12)  # violated bound

    def test_monotone_in_r_and_strictly_inside(self, scripted):
        ctx = make_ctx(BOX1, target=np.array([2.0]))
        values = [
            float(correct("expTarget", np.array([-8.0]), ctx, scripted([r])).vector[0])
            for r in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(-5.0 < v < 2.0 for v in values)

    def test_upper_violation_strictly_inside(self):
        ctx = make_ctx(BOX1, target=np.array([1.5]))
        rng = RngStream(31)
        samples = correct("expTarget", np.full((5000, 1), 8.0), ctx, rng).vector
        assert np.all(samples > 1.5) and np.all(samples < 5.0)

    def test_reference_choices(self, scripted):
        ctx = make_ctx(BOX2, target=[1.0, 0.0], pbest=[2.0, 0.0], mean=[3.0, 0.0])
        y = np.array([-8.0, 0.0])
        for method, expected in (("expTarget", 1.0), ("expBest", 2.0), ("expMidpoint", 3.0)):
            outcome = correct(method, y, ctx, scripted([1.0]))
            assert_allclose(outcome.vector, [expected, 0.0], atol=1e-12)


def vector_alpha(y, R, bounds):
    """The scaling factor vectorTarget applies to y with the reference R."""
    return correct("vectorTarget", y, make_ctx(bounds, target=R), no_draws()).vector_alpha


class TestVectorAlpha:
    def test_hand_evaluation(self):
        assert vector_alpha(np.array([10.0, 2.0]), np.zeros(2), BOX2) == pytest.approx(0.5, abs=1e-12)

    def test_feasible_gives_one(self):
        assert vector_alpha(np.array([1.0, -2.0]), np.zeros(2), BOX2) == 1.0

    def test_min_over_components(self):
        assert vector_alpha(np.array([10.0, -20.0]), np.zeros(2), BOX2) == pytest.approx(0.25, abs=1e-12)

    def test_degenerate_reference(self):
        with pytest.raises(ValueError, match="degenerate reference"):
            vector_alpha(np.array([10.0, 0.0]), np.array([10.0, 0.0]), BOX2)


class TestVectorCorrect:
    def test_hand_evaluation(self):
        ctx = make_ctx(BOX2, target=np.zeros(2))
        outcome = correct("vectorTarget", np.array([10.0, 2.0]), ctx, no_draws())
        assert_allclose(outcome.vector, [5.0, 1.0], atol=1e-12)
        assert outcome.vector_alpha == pytest.approx(0.5, abs=1e-12)

    def test_feasible_unchanged(self):
        ctx = make_ctx(BOX2, target=np.zeros(2))
        y = np.array([1.0, 2.0])
        outcome = correct("vectorTarget", y, ctx, no_draws())
        assert_allclose(outcome.vector, y)
        assert outcome.vector_alpha == 1.0

    def test_search_direction_preserved(self):
        rng = RngStream(21)
        for _ in range(300):
            x = rng.uniform(-4.5, 4.5, 4)
            y = rng.uniform(-12, 12, 4)
            if bool(BOX_4.contains(y)):
                continue
            outcome = correct("vectorTarget", y, make_ctx(BOX_4, target=x), no_draws())
            c = outcome.vector
            cos = np.dot(y - x, c - x) / (np.linalg.norm(y - x) * np.linalg.norm(c - x))
            assert cos >= 1.0 - 1e-9

    def test_collinearity(self):
        rng = RngStream(22)
        for _ in range(300):
            r = rng.uniform(-4, 4, 3)
            y = rng.uniform(-14, 14, 3)
            box = Bounds.symmetric(5.0, 3)
            if bool(box.contains(y)):
                continue
            outcome = correct("vectorTarget", y, make_ctx(box, target=r), no_draws())
            alpha = outcome.vector_alpha
            assert_allclose(
                np.linalg.norm(outcome.vector - r), alpha * np.linalg.norm(y - r), atol=1e-9
            )

    def test_binding_component_on_bound(self):
        ctx = make_ctx(BOX2, target=np.zeros(2))
        outcome = correct("vectorTarget", np.array([10.0, 2.0]), ctx, no_draws())
        assert np.min(np.abs(np.abs(outcome.vector) - 5.0)) < 1e-9


BOX_4 = Bounds.symmetric(5.0, 4)


class TestDismiss:
    def test_infeasible_dismissed(self):
        outcome = correct("dismiss", np.array([9.0, 0.0]), make_ctx(BOX2), no_draws())
        assert outcome.dismissed
        assert outcome.vector is None

    def test_feasible_passes_through(self):
        outcome = correct("dismiss", np.array([1.0, 0.0]), make_ctx(BOX2), no_draws())
        assert not outcome.dismissed
        assert_allclose(outcome.vector, [1.0, 0.0])

    def test_batch_masks_dismissed_rows(self):
        batch = np.array([[9.0, 0.0], [1.0, 0.0], [0.0, -7.0]])
        outcome = correct("dismiss", batch, make_ctx(BOX2), no_draws())
        assert outcome.dismissed.tolist() == [True, False, True]
        assert_allclose(outcome.vector, batch)


class TestAdaptiveSelection:
    def test_fresh_state_uniform(self):
        state = AdaptiveState()
        assert_allclose(state.probabilities, np.full(5, 0.2))
        assert len(state.uses) == len(state.successes) == len(ADAPTIVE_POOL)

    def test_zero_draw_selects_first_method(self, scripted):
        state = AdaptiveState()
        assert adaptive_select(state, scripted([0.0])) == ADAPTIVE_POOL[0]
        assert state.uses[0] == 1

    def test_batch_selection_counts_every_use(self, scripted):
        state = AdaptiveState()
        picks = adaptive_select(state, scripted([0.0, 0.5, 0.99, 0.1]), size=4)
        assert picks.tolist() == [0, 2, 4, 0]
        assert state.uses.tolist() == [2, 0, 1, 0, 1]

    def test_batch_correction_applies_each_method_to_its_group(self):
        rng = RngStream(78)
        state = AdaptiveState()
        bounds = Bounds.symmetric(5.0, 3)
        targets = rng.uniform(-4, 4, (200, 3))
        batch = rng.uniform(-15, 15, (200, 3))
        batch[:, 0] = 9.0  # every row infeasible
        stats = population_stats(Population(targets, np.zeros(200)))
        ctx = CorrectionContext(bounds=bounds, target=targets, pbest=targets[::-1],
                                population_mean=stats.mean, stats=stats)
        outcome, picks = adaptive_correct(batch, ctx, rng, state)
        assert picks.shape == (200,) and state.uses.sum() == 200
        assert np.all(bounds.contains(outcome.vector))
        # vectorTarget keeps each row on the segment from its own target
        rows = picks == ADAPTIVE_POOL.index("vectorTarget")
        assert rows.any()
        u, v = batch[rows] - targets[rows], outcome.vector[rows] - targets[rows]
        cos = np.sum(u * v, axis=1) / (np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
        assert np.all(cos >= 1.0 - 1e-9)

    def test_update_with_no_uses_stays_uniform(self):
        state = adaptive_update(AdaptiveState())
        assert_allclose(state.probabilities, np.full(5, 0.2), atol=1e-12)

    def test_update_hand_evaluation(self):
        state = AdaptiveState(
            uses=np.full(5, 5), successes=np.array([5, 0, 0, 0, 0]), probabilities=np.full(5, 0.2)
        )
        updated = adaptive_update(state)
        # scores (6/7, 1/7 x4) -> probabilities (0.6, 0.1 x4), floor inactive
        assert_allclose(updated.probabilities, [0.6, 0.1, 0.1, 0.1, 0.1], atol=1e-12)
        assert np.all(updated.uses == 0) and np.all(updated.successes == 0)

    def test_update_engages_floor(self):
        state = AdaptiveState(
            uses=np.full(5, 25), successes=np.array([25, 0, 0, 0, 0]), probabilities=np.full(5, 0.2)
        )
        updated = adaptive_update(state)
        # scores (26/27, 1/27 x4) -> raw (26/30, 1/30 x4); the 1/30 entries
        # are floored to 0.05 and the winner is renormalized to 0.8
        assert_allclose(updated.probabilities, [0.8, 0.05, 0.05, 0.05, 0.05], atol=1e-12)

    def test_successful_method_dominates_after_update(self):
        state = AdaptiveState(
            uses=np.full(5, 10), successes=np.array([2, 0, 0, 0, 0]), probabilities=np.full(5, 0.2)
        )
        updated = adaptive_update(state)
        assert updated.probabilities[0] > max(updated.probabilities[1:])

    def test_probabilities_sum_and_floor_invariant(self):
        rng = RngStream(3)
        for _ in range(100):
            uses = rng.integers(0, 50, 5)
            successes = np.minimum(rng.integers(0, 50, 5), uses)
            state = AdaptiveState(uses=uses, successes=successes)
            updated = adaptive_update(state)
            assert abs(updated.probabilities.sum() - 1.0) < 1e-12
            assert np.all(updated.probabilities >= 0.05 - 1e-12)

    def test_adaptive_correct_returns_feasible_outcome(self):
        rng = RngStream(77)
        state = AdaptiveState()
        pop = Population(rng.uniform(-4, 4, (10, 3)), np.zeros(10))
        stats = population_stats(pop)
        ctx = CorrectionContext(
            bounds=Bounds.symmetric(5.0, 3),
            target=pop.positions[0],
            pbest=pop.positions[1],
            population_mean=stats.mean,
            stats=stats,
        )
        for _ in range(50):
            y = rng.uniform(-15, 15, 3)
            if bool(ctx.bounds.contains(y)):
                continue
            outcome, index = adaptive_correct(y, ctx, rng, state)
            assert not outcome.dismissed
            assert bool(ctx.bounds.contains(outcome.vector))
            assert 0 <= index < 5
        assert state.uses.sum() > 0


class TestFeasibilityAndIdempotence:
    def feasible_ctx(self, rng, n):
        bounds = Bounds.symmetric(5.0, n)
        pop = Population(rng.uniform(-4.9, 4.9, (12, n)), np.zeros(12))
        stats = population_stats(pop)
        return CorrectionContext(
            bounds=bounds,
            target=pop.positions[0],
            pbest=pop.positions[1],
            population_mean=stats.mean,
            stats=stats,
        )

    @pytest.mark.parametrize("method", [m for m in CORRECTING_METHOD_IDS if m != "adaptive"])
    def test_outputs_always_in_closed_box(self, method):
        rng = RngStream(stable_key("feasibility", method))
        ctx = self.feasible_ctx(rng, 20)
        batch = rng.uniform(-15, 15, (10_000, 20))
        outcome = correct(method, batch, ctx, rng)
        assert np.all(outcome.vector >= -5.0) and np.all(outcome.vector <= 5.0)

    @pytest.mark.parametrize("method", list(CORRECTING_METHOD_IDS) + ["dismiss"])
    def test_feasible_input_unchanged(self, method):
        rng = RngStream(99)
        ctx = self.feasible_ctx(rng, 6)
        y = rng.uniform(-5, 5, 6)
        if method == "adaptive":
            outcome, _ = adaptive_correct(y, ctx, rng, AdaptiveState())
        else:
            outcome = correct(method, y, ctx, rng)
        assert_allclose(outcome.vector, y)
        assert outcome.components_corrected == 0

    @pytest.mark.parametrize("method", METHOD_IDS)
    def test_non_finite_input_rejected(self, method):
        rng = RngStream(7)
        ctx = self.feasible_ctx(rng, 3)
        for bad in (np.nan, np.inf, -np.inf):
            for y in (np.array([1.0, bad, 0.0]), np.array([[0.0, 0.0, 0.0], [bad, 9.0, 0.0]])):
                with pytest.raises(ValueError, match="finite"):
                    if method == "adaptive":
                        adaptive_correct(y, ctx, rng, AdaptiveState())
                    else:
                        correct(method, y, ctx, rng)

    def test_unknown_method(self):
        rng = RngStream(0)
        with pytest.raises(ValueError, match="unknown method"):
            correct("clip", np.zeros(2), self.feasible_ctx(rng, 2), rng)
