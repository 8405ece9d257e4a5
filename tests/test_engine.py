import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.stats import binomtest, cauchy, chi2, kstest, norm

import hashlib
import pickle
from collections import Counter

from debox import engine, telemetry
from debox.bchm import METHOD_IDS, AdaptiveState
from debox.benchmarks import BenchmarkProblem, ExternalProblem, make_instance
from debox.core import Bounds, Population, RngStream
from debox.telemetry import Trajectory, trajectory_csv_text
from debox.engine import (
    PHASES,
    RunConfig,
    ShadeState,
    binomial_crossover,
    classic_generation,
    lehmer_mean,
    lpsr_target_size,
    lshade_generation,
    rand1_mutant,
    run,
    sample_crossover_rate,
    sample_scale_factor,
    _distinct_indices,
    _Ledger,
)


def ledger(spent, budget=10**9):
    """A run's budget account after ``spent`` feasible evaluations, as ``run`` opens it after its initial
    population; infeasible evaluations are free."""
    return _Ledger(budget, False, spent, spent)


def centered_problem(function="sphere", dimension=4):
    return BenchmarkProblem(
        function_id=function,
        instance_id=0,
        dimension=dimension,
        bounds=Bounds.symmetric(5.0, dimension),
        optimum_location=np.zeros(dimension),
        optimum_value=0.0,
    )


def half_nan_problem(dimension=3):
    """Sphere on x[0] <= 0; NaN on the other half of the box."""
    return ExternalProblem(
        name="half_nan",
        dimension=dimension,
        bounds=Bounds.symmetric(5.0, dimension),
        objective=lambda x: np.nan if x[0] > 0 else float(np.sum(x * x)),
        optimum_value=0.0,
    )


def noise_problem(dimension=5):
    """A landscape without structure: a stable hash of x mapped to U[0, 1)."""

    def noise(x):
        digest = hashlib.blake2b(x.tobytes(), digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2.0**64

    return ExternalProblem(
        name="noise", dimension=dimension, bounds=Bounds.symmetric(5.0, dimension), objective=noise
    )


class TestBuildingBlocks:
    P_THRESHOLD = 1e-3  # of the two distribution tests, fixed before their first run

    def test_rand1_mutant_hand_value(self):
        mutant = rand1_mutant(np.array([1.0]), np.array([2.0]), np.array([0.5]), 0.5)
        assert_allclose(mutant, [1.75])

    def test_crossover_high_cr_takes_whole_mutant(self):
        # one row: the i_rand unit (floor(0.5 * 3) = 1), then the crossover units
        units = np.array([[0.5, 0.5, 0.5, 0.5]])
        trial = binomial_crossover(units, np.zeros((1, 3)), np.ones((1, 3)), cr=0.999999)
        assert_allclose(trial, [[1.0, 1.0, 1.0]])

    def test_crossover_zero_cr_forces_single_mutant_component(self):
        # i_rand = floor(0.7 * 3) = 2 and floor(0.1 * 3) = 0
        units = np.array([[0.7, 0.5, 0.5, 0.5], [0.1, 0.5, 0.5, 0.5]])
        trial = binomial_crossover(units, np.zeros((2, 3)), np.ones((2, 3)), cr=0.0)
        assert_allclose(trial, [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])

    def test_crossover_rate_per_row(self):
        # each row: its i_rand unit, then its crossover units; cr is one column
        units = np.array([[0.0, 0.1, 0.6, 0.9], [0.0, 0.1, 0.6, 0.9]])
        trial = binomial_crossover(units, np.zeros((2, 3)), np.ones((2, 3)), cr=np.array([[0.5], [0.95]]))
        assert_allclose(trial, [[1.0, 0.0, 0.0], [1.0, 1.0, 1.0]])

    def test_scale_factor_truncated_at_one(self, scripted):
        # F = loc + 0.1 tan(pi (u - 1/2)): u = 3/4 gives loc + 0.1, u = 1/4 gives loc - 0.1
        f = sample_scale_factor(scripted(), np.array([0.95, 0.5]), np.array([0.75, 0.25]))
        assert_allclose(f, [1.0, 0.4])

    def test_scale_factor_resampled_while_nonpositive(self, scripted):
        # rows 0 and 2 start at 0.05 - 0.1 <= 0 and are redrawn together; row 2
        # is nonpositive again and is redrawn alone in a second round
        stream = scripted(units=[0.75, 0.25, 0.5])
        f = sample_scale_factor(stream, np.array([0.05, 0.5, 0.05]), np.array([0.25, 0.75, 0.25]))
        assert_allclose(f, [0.15, 0.6, 0.05])
        assert stream.units == [] and stream.calls == [2, 1]

    def test_crossover_rate_terminal_marker(self, scripted):
        stream = scripted(normal_values=[0.4, 0.7])
        assert_allclose(sample_crossover_rate(stream, np.array([np.nan, 0.5])), [0.0, 0.7])
        assert stream.normal_values == []

    def test_crossover_rate_clipped(self, scripted):
        cr = sample_crossover_rate(scripted(normal_values=[1.4, -0.2]), np.array([0.9, 0.1]))
        assert_allclose(cr, [1.0, 0.0])

    def test_scale_factor_follows_cauchy_before_truncation(self):
        rng = RngStream(23)
        k, loc = 20_000, 0.5
        f = sample_scale_factor(rng, np.full(k, loc), rng.random(k))
        law = cauchy(loc, 0.1)
        at_zero, at_one = law.cdf(0.0), law.cdf(1.0)
        # redrawn while nonpositive: below the truncation point F is Cauchy(loc, 0.1) given F in (0, 1)
        below = f[f < 1.0]
        assert kstest(below, lambda v: (law.cdf(v) - at_zero) / (at_one - at_zero)).pvalue >= self.P_THRESHOLD
        # and the share truncated at 1 is P(F >= 1 | F > 0)
        share = (1.0 - at_one) / (1.0 - at_zero)
        assert binomtest(k - below.size, k, share).pvalue >= self.P_THRESHOLD
        assert below.min() > 0.0 and np.all(f[f >= 1.0] == 1.0)

    def test_crossover_rate_follows_normal_before_clipping(self):
        # at M_CR = 0.5 clipping to [0, 1] is five standard deviations away
        cr = sample_crossover_rate(RngStream(29), np.full(20_000, 0.5))
        assert kstest(cr, norm(0.5, 0.1).cdf).pvalue >= self.P_THRESHOLD

    def test_lehmer_mean_hand_value(self):
        assert lehmer_mean([0.5, 1.0], [0.5, 0.5]) == pytest.approx(0.625 / 0.75, abs=1e-12)


class TestLpsrSchedule:
    def make_state(self, n_init=100, budget=1000):
        return ShadeState.create(2, budget, n_init)

    def test_half_budget(self):
        state = self.make_state()
        assert lpsr_target_size(state, 500) == 52

    def test_schedule_start(self):
        assert lpsr_target_size(self.make_state(), 0) == 100

    def test_schedule_end(self):
        assert lpsr_target_size(self.make_state(), 1000) == 4

    def test_clamped_beyond_budget(self):
        assert lpsr_target_size(self.make_state(), 2000) == 4


class TestShadeMemory:
    def drive_one_generation(self, seed=3):
        problem = centered_problem(dimension=3)
        state = ShadeState.create(3, 1000, 10)
        rng = RngStream(seed)
        positions = rng.uniform(-5, 5, (10, 3))
        fitness = np.array([problem.evaluate(x) for x in positions])
        pop = Population(positions, fitness)
        lshade_generation(pop, state, "sat", problem, rng, Trajectory(), ledger(10, 1000))
        return state

    def test_no_success_leaves_memory_unchanged(self):
        problem = centered_problem(dimension=3)
        state = ShadeState.create(3, 1000, 10)
        before_f = state.memory_f.copy()
        # population already optimal (all zero): improvements are impossible,
        # ties can still replace targets but never update the memory
        positions = np.zeros((10, 3))
        fitness = np.array([problem.evaluate(x) for x in positions])
        lshade_generation(
            Population(positions, fitness), state, "sat", problem, RngStream(1), Trajectory(), ledger(10, 1000)
        )
        assert_allclose(state.memory_f, before_f)

    def test_memory_index_cycles(self):
        state = self.drive_one_generation()
        assert 0 <= state.memory_index < state.memory_f.size

    def test_archive_capacity_respected(self):
        problem = centered_problem(dimension=3)
        state = ShadeState.create(3, 10_000, 12)
        rng = RngStream(9)
        positions = rng.uniform(-5, 5, (12, 3))
        fitness = np.array([problem.evaluate(x) for x in positions])
        pop = Population(positions, fitness)
        trajectory, account = Trajectory(), ledger(12, 10_000)
        for _ in range(20):
            pop = lshade_generation(pop, state, "sat", problem, rng, trajectory, account)
            assert len(state.archive) <= pop.size
        assert_array_equal(trajectory.columns["generation"], np.arange(1, 21))


class CountingStream(RngStream):
    """An RngStream that logs each draw call as (method, values drawn)."""

    def __init__(self, seed):
        super().__init__(seed)
        self.log = []


def _logged(name):
    def draw(self, *args, **kwargs):
        out = getattr(RngStream, name)(self, *args, **kwargs)
        self.log.append((name, np.array(out, copy=True)))
        return out

    return draw


for _name in ("random", "uniform", "normal", "cauchy", "beta", "integers"):
    setattr(CountingStream, _name, _logged(_name))


class TestIndexDraws:
    """Index draws from unit variates: floor(u k) over the k free slots,
    shifted past the forbidden indices in closed form, uniform over the free
    slots."""

    N, ARCHIVE, CALLS = 5, 3, 4000
    P_THRESHOLD = 1e-3  # fixed before the test was first run

    @pytest.fixture(scope="class")
    def sample(self):
        """(name, forbidden arrays, picks, limit) for each forbidden-set shape the engines use."""
        rng = RngStream(17)
        j = np.tile(np.arange(self.N), self.CALLS)
        classic, lshade, target = [], [], np.arange(self.N)
        for _ in range(self.CALLS):
            classic.append(_distinct_indices(rng.random((3, self.N)), target, self.N, self.N, self.N))
            lshade.append(_distinct_indices(rng.random((2, self.N)), target, self.N, self.N + self.ARCHIVE))
        r1, r2, r3 = (np.concatenate(a) for a in zip(*classic))
        s1, s2 = (np.concatenate(a) for a in zip(*lshade))
        return [
            ("{j}", [j], r1, self.N),
            ("{j, r1}", [j, r1], r2, self.N),
            ("{j, r1, r2}", [j, r1, r2], r3, self.N),
            ("{j, r1} over population and archive", [j, s1], s2, self.N + self.ARCHIVE),
        ]

    def test_rows_avoid_their_forbidden_indices(self, sample):
        for name, forbidden, picks, limit in sample:
            assert picks.min() >= 0 and picks.max() < limit, name
            for f in forbidden:
                assert not np.any(picks == f), name

    def test_free_slots_equally_likely(self, sample):
        for name, forbidden, picks, limit in sample:
            # one chi-square cell per (forbidden tuple, free slot)
            groups = Counter(zip(*forbidden))
            cells = Counter(zip(zip(*forbidden), picks))
            free = limit - len(forbidden)
            statistic = sum((cells[(key, slot)] - total / free) ** 2 / (total / free)
                            for key, total in groups.items()
                            for slot in range(limit) if slot not in key)
            p = chi2.sf(statistic, len(groups) * (free - 1))
            assert p >= self.P_THRESHOLD, f"{name}: chi-square p = {p:.2e}"

    @staticmethod
    def reference(units, j, limits):
        """Brute force: column c's r_i is the q_i-th slot left in [0, limit_i) once j_c and the
        column's earlier picks are removed, in order, with q_i = floor(u (limit_i - i))."""
        picks = np.empty(units.shape, dtype=np.intp)
        for c in range(units.shape[1]):
            taken = [int(j[c])]
            for i, limit in enumerate(limits):
                free = [slot for slot in range(limit) if slot not in taken]
                picks[i, c] = free[int(units[i, c] * (limit - i - 1))]
                taken.append(int(picks[i, c]))
        return picks

    @pytest.mark.parametrize("limits", [(5,), (5, 5), (5, 5, 5), (5, 9), (5, 9, 9), (12, 12, 12), (12, 20)])
    def test_each_index_is_its_free_slot_of_that_rank(self, limits):
        m = limits[0]
        rng = RngStream(23)
        j = np.tile(np.arange(m), 50)
        units = rng.random((len(limits), j.size))
        units[:, :2 * m] = np.repeat([[0.0], [np.nextafter(1.0, 0.0)]], m, axis=1).ravel()  # the extreme units
        picks = np.asarray(_distinct_indices(units, j, *limits))
        assert picks.shape == units.shape and picks.dtype == np.intp
        assert_array_equal(picks, self.reference(units, j, limits))


class TestDrawBlock:
    """Every unit variate of a generation comes from one random call; L-SHADE
    adds one normal call for CR and a random call per F redraw round."""

    def test_draw_calls_per_generation(self):
        problem = centered_problem(dimension=3)
        rng = CountingStream(5)
        positions = rng.uniform(-5, 5, (12, 3))
        pop = Population(positions, problem.evaluate_batch(positions))
        rng.log.clear()
        classic_generation(pop, "sat", problem, rng, Trajectory(), ledger(12))
        assert [(name, out.size) for name, out in rng.log] == [("random", 12 * (4 + 3))]

        m, with_rounds = 12, set()
        for seed in range(20):
            rng = CountingStream(seed)
            # the budget is too large for the population to shrink, so the archive, which starts
            # empty, never outgrows it: no archive trim, and sat draws nothing, so the log holds
            # only the generation's draws
            state = ShadeState.create(3, 10**9, m)
            rng.log.clear()
            lshade_generation(pop, state, "sat", problem, rng, Trajectory(), ledger(12))
            (first, block), *rounds, (last, cr) = rng.log
            assert (first, block.size, last, cr.size) == ("random", m * (7 + 3), "normal", m)
            # memory F is 0.5 everywhere, so the first round redraws the F that start nonpositive
            nonpositive = np.count_nonzero(0.5 + 0.1 * np.tan(np.pi * (block[m:2 * m] - 0.5)) <= 0.0)
            sizes = [out.size for name, out in rounds if name == "random"]
            assert len(sizes) == len(rounds)
            assert sizes == sorted(sizes, reverse=True) and all(sizes)
            assert (sizes[0] if sizes else 0) == nonpositive
            with_rounds.add(bool(sizes))
        assert with_rounds == {True, False}


class TestClassicGeneration:
    def test_dismissed_trial_keeps_target(self, scripted):
        problem = centered_problem(dimension=2)
        positions = np.array([[4.0, 0.0], [4.5, 0.0], [0.0, 0.0], [-4.0, 0.0]])
        fitness = np.array([problem.evaluate(x) for x in positions])
        pop = Population(positions, fitness)
        # every index unit is 0, the lowest free slot, so the donor triples
        # are r1, r2, r3 = (1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2); at
        # F = 0.5 they put component 0 of the mutants at 6.5, 6, 8.25 and
        # 6.25, outside the box, and i_rand = 0 transfers it into the trial,
        # so all four trials are dismissed and the population must survive
        # unchanged;
        # block order: r1, r2, r3 for all four rows, then per row i_rand and the units
        script = scripted(units=[0.0] * 12 + [0.0, 0.9, 0.9] * 4)
        trajectory, account = Trajectory(), ledger(4)
        new_pop = classic_generation(pop, "dismiss", problem, script, trajectory, account)
        assert_allclose(new_pop.positions, positions)
        assert len(trajectory) == 1
        assert trajectory.columns["corrections_applied"][0] == 4
        assert trajectory.columns["infeasible_individual_ratio"][0] == 1.0
        assert problem.feasible_evaluations == 4  # only the initial evaluations
        assert problem.infeasible_evaluations == 4  # dismissed trials count as infeasible calls
        assert (account.feasible, account.spent) == (4, 4)  # and are free

    def test_draw_order_of_one_generation(self, scripted):
        problem = centered_problem(dimension=2)
        positions = np.array([[1.0, 2.0], [-1.0, 0.5], [3.0, -2.0], [0.5, -0.5]])
        fitness = np.array([problem.evaluate(x) for x in positions])
        pop = Population(positions, fitness)
        r1 = [1, 2, 3, 0]
        r2 = [2, 3, 0, 1]
        r3 = [3, 0, 1, 2]
        i_rand = [0, 1, 1, 0]
        units = [0.9, 0.1, 0.2, 0.9, 0.9, 0.9, 0.1, 0.1]

        def unit(rank, slots):  # the unit whose floor(u * slots) is rank
            return (rank + 0.5) / slots

        # index draws are ranks among the row's free slots: r1 over the 3
        # slots other than the target, r2 over the 2 slots left, r3 over the
        # last one; each rank steps past the sorted forbidden indices
        block = ([unit(q, 3) for q in [0, 1, 2, 0]] + [unit(q, 2) for q in [0, 1, 0, 0]]
                 + [unit(q, 1) for q in [0, 0, 0, 0]])
        for row in range(4):
            block += [unit(i_rand[row], 2)] + units[2 * row:2 * row + 2]
        script = scripted(units=block)
        new_pop = classic_generation(pop, "sat", problem, script, Trajectory(), ledger(4))
        assert script.units == [] and script.calls == [len(block)]

        mutants = positions[r1] + 0.5 * (positions[r2] - positions[r3])
        cross = np.array(units).reshape(4, 2) < 0.5
        cross[np.arange(4), i_rand] = True
        trials = np.clip(np.where(cross, mutants, positions), -5.0, 5.0)
        trial_fitness = np.sum(trials**2, axis=1)
        wins = trial_fitness <= fitness
        assert wins.any() and not wins.all()
        assert_allclose(new_pop.positions, np.where(wins[:, None], trials, positions))
        assert_allclose(new_pop.fitness, np.where(wins, trial_fitness, fitness))

    def test_requires_at_least_four_members(self):
        problem = centered_problem(dimension=2)
        pop = Population(np.zeros((3, 2)), np.zeros(3))
        with pytest.raises(ValueError, match="at least 4"):
            classic_generation(pop, "sat", problem, RngStream(0), Trajectory(), ledger(3))


class TestLshadeGeneration:
    def test_archive_donor_survivors_and_archive_trim_of_one_generation(self, scripted, monkeypatch):
        problem = centered_problem(dimension=2)
        positions = np.array([[1.0, 1.0], [0.5, 0.0], [2.0, -1.0], [-0.25, 0.25], [1.5, 1.5], [-2.0, 0.5]])
        fitness = np.array([problem.evaluate(x) for x in positions])  # ranks: 3, 1, 0, 5, 4, 2
        archive = np.array([[0.75, -0.5], [-1.0, 2.0], [0.0, -3.0]])
        state = ShadeState.create(2, 12, 6)  # after this generation's 6 trials LPSR keeps 4 of 6
        state.archive = archive.copy()
        pop = Population(positions, fitness)
        rank = [0, 1, 0, 1, 0, 0]  # into the 2 best, rows 3 and 1
        r1 = [1, 2, 4, 0, 5, 3]
        r2 = [6, 7, 5, 6, 2, 0]  # over population and archive: 6 and 7 are archive rows 0 and 1

        def unit(rank, slots):  # the unit whose floor(u * slots) is rank
            return (rank + 0.5) / slots

        block = [0.0] * 6 + [0.5] * 6 + [0.5] * 6 + [unit(k, 2) for k in rank]  # slots, F = 0.5, p, ranks
        block += [unit(r - (j < r), 5) for j, r in enumerate(r1)]  # r1 ranks over the 5 slots but j
        block += [unit(r - (j < r) - (r1[j] < r), 7) for j, r in enumerate(r2)]  # r2 over the 7 left of 9
        block += [0.5] * (6 * 3)  # i_rand and crossover units; CR = 1 takes the whole mutant
        trim = [0.6, 0.1, 0.9, 0.3, 0.5]  # the archive's 5 entries; the lowest draw is dropped
        script = scripted(units=block + trim, normal_values=[1.0] * 6)
        evaluated = []
        evaluate_batch = problem.evaluate_batch
        monkeypatch.setattr(problem, "evaluate_batch", lambda xs: evaluated.append(xs.copy()) or evaluate_batch(xs))
        new_pop = lshade_generation(pop, state, "sat", problem, script, Trajectory(), ledger(6, 12))
        assert script.units == [] and script.calls == [len(block), len(trim)]

        (trials,) = evaluated
        # trial 0: current-to-pbest/1 from pbest row 3, r1 row 1 and archive row 0
        expected = positions[0] + 0.5 * (positions[3] - positions[0] + positions[1] - archive[0])
        assert_array_equal(trials[0], expected)
        assert_array_equal(trials[0], [0.25, 0.875])
        assert_array_equal(trials[1], positions[1] + 0.5 * (positions[2] - archive[1]))
        assert_array_equal(trials[5], [-1.75, 0.0])
        # trials 0 and 5 win; LPSR keeps the 4 best, rows 3, 1, 0 and 5, in index order
        assert_array_equal(new_pop.positions, [trials[0], positions[1], positions[3], trials[5]])
        assert_array_equal(new_pop.fitness, [0.828125, 0.25, 0.125, 3.0625])
        # the archive gains the defeated parents 0 and 5; the trim keeps the entries of the 4 highest draws
        assert_array_equal(state.archive, [positions[0], positions[5], archive[0], archive[2]])


class TestRun:
    def test_budget_must_be_positive(self):
        config = RunConfig(problem=centered_problem(), budget=0, seed=1)
        with pytest.raises(ValueError, match="budget must be positive"):
            run(config)

    @pytest.mark.parametrize("engine,size", [("classic", 50), ("lshade", 72)])
    def test_budget_must_exceed_the_initial_population(self, engine, size):
        def config(budget):
            return RunConfig(problem=centered_problem(), engine=engine, budget=budget, seed=1)

        for budget in (1, size):
            with pytest.raises(ValueError, match=rf"budget \(must exceed the initial population size {size}, "
                                                 rf"got {budget}\)"):
                run(config(budget))
        result = run(config(size + 1))
        assert result.evaluations_used == size + 1 and result.generations == len(result.records) == 1

    def test_invalid_fields_are_all_listed(self):
        config = RunConfig(
            problem=centered_problem(),
            engine="annealing",
            bchm="clip",
            budget=-5,
            seed=1,
        )
        with pytest.raises(ValueError) as exc:
            run(config)
        message = str(exc.value)
        assert "engine" in message and "bchm" in message and "budget" in message

    def test_deterministic_for_fixed_seed(self):
        def one():
            problem = centered_problem(dimension=3)
            config = RunConfig(problem=problem, engine="classic", bchm="mirror", budget=3000, seed=11)
            result = run(config)
            return result.best_error, result.records.columns["best_error"]

        (first_error, first_errors), (second_error, second_errors) = one(), one()
        assert first_error == second_error
        assert_array_equal(first_errors, second_errors)

    def test_best_error_non_increasing(self):
        problem = centered_problem(dimension=4)
        result = run(RunConfig(problem=problem, engine="classic", bchm="sat", budget=4000, seed=2))
        columns = result.records.columns
        assert (np.diff(columns["best_error"]) <= 0.0).all()
        assert (np.diff(columns["feasible_evaluations"]) >= 0).all()

    def test_violation_measurement_is_pre_correction(self):
        # sat and dismiss draw nothing from the stream, so the measured
        # ratios must agree on the first generation even though one method
        # repairs the trials and the other throws them away
        def first_generation(bchm):
            problem = BenchmarkProblem(
                function_id="sphere",
                instance_id=0,
                dimension=5,
                bounds=Bounds.symmetric(5.0, 5),
                optimum_location=np.full(5, 4.99),
                optimum_value=0.0,
            )
            config = RunConfig(problem=problem, engine="classic", bchm=bchm, budget=2000,
                               seed=3, max_generations=1)
            return run(config).records.columns

        sat, dismiss = first_generation("sat"), first_generation("dismiss")
        assert sat["corrections_applied"][0] == dismiss["corrections_applied"][0] > 0
        assert sat["infeasible_component_ratio"][0] == dismiss["infeasible_component_ratio"][0]
        assert sat["infeasible_individual_ratio"][0] == dismiss["infeasible_individual_ratio"][0]

    def test_no_infeasible_evaluation_under_correcting_methods(self):
        problem = centered_problem(dimension=3)
        run(RunConfig(problem=problem, engine="lshade", bchm="mirror", budget=3000, seed=4))
        assert problem.infeasible_evaluations == 0

    def test_max_generations(self):
        problem = centered_problem(dimension=3)
        result = run(
            RunConfig(problem=problem, engine="lshade", bchm="sat", budget=100_000, seed=6,
                      max_generations=10)
        )
        assert result.generations == 10

    def test_stop_reason_max_generations(self):
        problem = centered_problem(dimension=3)
        result = run(RunConfig(problem=problem, engine="lshade", bchm="sat", budget=100_000, seed=6,
                               max_generations=10))
        assert result.stop_reason == "max_generations"

    def test_stop_reason_budget(self):
        problem = centered_problem(dimension=3)
        result = run(RunConfig(problem=problem, engine="lshade", bchm="sat", budget=2000, seed=6))
        assert result.stop_reason == "budget"
        assert result.evaluations_used == 2000

    def test_stop_reason_stalled(self, monkeypatch):
        # F = 2 and CR = 0.9 over 50 dimensions: every trial leaves the box
        # somewhere, dismiss throws it away for free, and the four targets
        # never change, so no generation consumes budget until the stall guard
        # ends the run; a shorter guard than the default 10,000 generations
        # keeps the test fast
        monkeypatch.setattr(engine, "STALL_GENERATIONS", 500)
        monkeypatch.setattr(engine, "SCALE_FACTOR", 2.0)
        monkeypatch.setattr(engine, "CROSSOVER_RATE", 0.9)
        problem = centered_problem(dimension=50)
        result = run(RunConfig(problem=problem, engine="classic", bchm="dismiss", budget=100, seed=1,
                               classic_population_size=4))
        assert result.stop_reason == "stalled"
        assert result.evaluations_used == 4  # the initial population only
        assert result.generations == 500

    def test_a_run_has_no_target_stop(self):
        with pytest.raises(TypeError):
            RunConfig(problem=centered_problem(), target_error=1e-3)

    @pytest.mark.parametrize("bchm, charged", [("sat", False), ("mirror", False), ("adaptive", False),
                                               ("dismiss", True)])
    @pytest.mark.parametrize("engine", ["classic", "lshade"])
    def test_the_runs_of_a_cell_share_their_generations(self, engine, bchm, charged):
        # every trial spends one evaluation, so the seed changes neither the generation
        # count nor the L-SHADE population schedule: the runs of a cell stay rectangular
        problem = make_instance("linear_slope", 1, 5, "SBOX")
        shapes = set()
        for seed in (1, 2, 3):
            result = run(RunConfig(problem=problem, count_infeasible_evals=charged, engine=engine, bchm=bchm,
                                   budget=2000, seed=seed))
            assert result.stop_reason == "budget"
            shapes.add((result.generations, result.records.columns["population_size"].tobytes()))
        assert len(shapes) == 1

    @pytest.mark.parametrize("engine", ["classic", "lshade"])
    def test_phase_seconds(self, engine):
        problem = centered_problem(dimension=3)
        result = run(RunConfig(problem=problem, engine=engine, bchm="adaptive", budget=2000, seed=4))
        assert list(result.phase_seconds) == list(PHASES) and len(PHASES) == 5
        assert all(seconds >= 0.0 for seconds in result.phase_seconds.values())
        assert sum(result.phase_seconds.values()) <= result.wall_time_seconds

    def test_lshade_population_schedule(self):
        problem = centered_problem(dimension=2)
        result = run(RunConfig(problem=problem, engine="lshade", bchm="sat", budget=4000, seed=7))
        sizes = result.records.columns["population_size"]
        assert sizes[0] <= 36  # 18 * n before/after the first reduction
        assert (np.diff(sizes) <= 0).all()
        assert sizes[-1] == 4
        assert result.behaviour is not None

    def test_adaptive_bchm_runs_and_reports_probabilities(self):
        problem = make_instance("sphere", 1, 4, "SBOX")
        result = run(RunConfig(problem=problem, engine="lshade", bchm="adaptive", budget=5000, seed=8))
        probabilities = result.records.columns["adaptive_probabilities"]
        assert probabilities.shape == (result.generations, 5)
        assert_allclose(probabilities.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("engine", ["classic", "lshade"])
    def test_nan_objective_values_never_win(self, engine):
        problem = half_nan_problem()
        result = run(RunConfig(problem=problem, engine=engine, bchm="sat", budget=3000, seed=3))
        assert np.isfinite(result.best_fitness)
        assert result.best_position[0] <= 0.0
        assert problem.infeasible_evaluations == 0  # no NaN leaked into F, CR or the trials

    @pytest.mark.parametrize("make_problem", [
        lambda: make_instance("linear_slope", 1, 3, "SBOX"),
        lambda: ExternalProblem("corner_bowl", 3, Bounds.symmetric(5.0, 3),
                                lambda x: float(np.sum((x - 5.0) ** 2)), optimum_value=0.0),
    ], ids=["catalogue", "plugin"])
    def test_each_run_charges_infeasible_evaluations_as_its_config_says(self, make_problem):
        problem = make_problem()  # one object, run twice: each run charges as its own config says
        for charged in (True, False):
            config = RunConfig(problem=problem, count_infeasible_evals=charged, engine="classic",
                               bchm="dismiss", budget=600, seed=2, classic_population_size=10)
            result = run(config)
            columns = result.records.columns
            dismissed = int(columns["corrections_applied"].sum())  # every dismissed trial is evaluated, outside the box
            assert dismissed > 0 and result.stop_reason == "budget"
            spent = columns["feasible_evaluations"][-1] + (dismissed if charged else 0)
            assert result.evaluations_used == spent == 600

    @pytest.mark.parametrize("objective,message", [
        (lambda x: -np.inf if x[0] > 4.0 else float(np.sum(x * x)), "'unsolved': the objective returned -inf"),
        (lambda x: float(np.sum(x * x)) - 1.0, "'unsolved': best fitness -.* lies below its stated optimum value 0.0"),
    ], ids=["minus-inf", "below-optimum"])
    @pytest.mark.parametrize("engine", ["classic", "lshade"])
    def test_a_run_cannot_claim_a_solve_it_did_not_make(self, engine, objective, message):
        problem = ExternalProblem("unsolved", 5, Bounds.symmetric(5.0, 5), objective, optimum_value=0.0)
        with pytest.raises(ValueError, match=message):
            run(RunConfig(problem=problem, engine=engine, bchm="sat", budget=5000, seed=1))

    @pytest.mark.parametrize("objective,shape", [
        (lambda x: np.array([float(x @ x)]), r"\(1,\)"),
        (lambda x: (float(x[0]), float(x[1])), r"\(2,\)"),
    ], ids=["one-element-array", "pair"])
    def test_an_objective_must_return_one_number_per_point(self, objective, shape):
        message = rf"^problem 'vector_objective': the objective must return one number per point, got shape {shape}$"
        problem = ExternalProblem("vector_objective", 2, Bounds.symmetric(5.0, 2), objective)
        for engine, bchm in (("classic", "sat"), ("lshade", "dismiss")):
            with pytest.raises(ValueError, match=message):
                run(RunConfig(problem=problem, engine=engine, bchm=bchm, budget=1000, seed=1,
                              classic_population_size=10))
        with pytest.raises(ValueError, match=message):  # the dismiss path: the infeasible rows are left out
            problem.evaluate_batch(np.array([[1.0, 2.0], [9.0, 0.0], [-3.0, 0.5]]))

    @pytest.mark.parametrize("objective", [lambda x: x[x > 0], lambda x: "abc", lambda x: None],
                             ids=["unequal-shapes", "string", "none"])
    def test_an_objective_that_returns_no_number_fails_the_run_naming_its_problem(self, objective):
        problem = ExternalProblem("odd_objective", 3, Bounds.symmetric(5.0, 3), objective)
        message = r"^problem 'odd_objective': the objective must return one number per point"
        with pytest.raises(ValueError, match=message):
            run(RunConfig(problem=problem, engine="classic", bchm="sat", budget=200, seed=1,
                          classic_population_size=10))

    @pytest.mark.parametrize("make_problem", [centered_problem, half_nan_problem,
                                              lambda: ExternalProblem("bowl", 3, Bounds.symmetric(5.0, 3),
                                                                      lambda x: float(np.sum((x - 4.5) ** 2)))])
    def test_final_error_and_class_are_the_last_record(self, make_problem):
        problem = make_problem()
        result = run(RunConfig(problem=problem, engine="lshade", bchm="mirror", budget=2000, seed=9))
        last_error = result.records.columns["best_error"][-1]
        last_variance = result.records.columns["max_component_variance"][-1]
        f_star = problem.optimum_value
        expected_error = np.nan if f_star is None else result.best_fitness - f_star
        assert_array_equal(result.best_error, expected_error)
        assert_array_equal(last_error, expected_error)
        assert type(result.best_error) is float and type(result.final_max_component_variance) is float
        assert result.final_max_component_variance == last_variance
        assert result.behaviour is telemetry.classify(last_error, last_variance)
        assert result.classification_mode == ("variance_only" if f_star is None else "error_and_variance")

    def test_bchm_is_noop_when_never_activated(self, monkeypatch):
        # with a tiny scale factor and centered optimum no trial ever leaves
        # the box, so the correcting method cannot matter
        monkeypatch.setattr(engine, "SCALE_FACTOR", 1e-6)
        monkeypatch.setattr(engine, "CROSSOVER_RATE", 0.1)

        def trajectory(bchm):
            problem = centered_problem(dimension=3)
            config = RunConfig(problem=problem, engine="classic", bchm=bchm, budget=600, seed=13,
                               classic_population_size=10)
            result = run(config)
            assert not result.records.columns["corrections_applied"].any()
            return result.records.columns["best_error"]

        assert_array_equal(trajectory("dismiss"), trajectory("sat"))


def odd_box_problem():
    """A bowl whose minimum is the upper corner of [0.1, 0.3]^3, a box whose bounds are not binary fractions."""
    bounds = Bounds(np.full(3, 0.1), np.full(3, 0.3))
    return ExternalProblem("odd_box", 3, bounds, lambda x: float(np.sum((x - 0.3) ** 2)), optimum_value=0.0)


class TestBudgetLedger:
    """A run charges its budget to its own ledger, not to its problem, and
    books every repaired trial as a feasible evaluation."""

    @pytest.mark.parametrize("charged", [False, True], ids=["free", "charged"])
    @pytest.mark.parametrize("make_problem, bchm", [
        *[(lambda: make_instance("linear_slope", 1, 3, "SBOX"), bchm) for bchm in METHOD_IDS],
        *[(odd_box_problem, bchm) for bchm in ("mirror", "uniform", "dismiss")],
    ], ids=[*METHOD_IDS, "odd-box-mirror", "odd-box-uniform", "odd-box-dismiss"])
    @pytest.mark.parametrize("engine", ["classic", "lshade"])
    def test_the_ledger_agrees_with_the_strict_box_gate(self, engine, make_problem, bchm, charged):
        # the ledger books kept - dismissed feasible evaluations per generation: no repaired
        # or initial point may lie outside the box, where the gate would tally it infeasible
        problem = make_problem()
        result = run(RunConfig(problem=problem, count_infeasible_evals=charged, engine=engine, bchm=bchm,
                               budget=600, seed=5, classic_population_size=10))
        feasible, infeasible = problem.feasible_evaluations, problem.infeasible_evaluations
        assert result.evaluations_used == feasible + (infeasible if charged else 0)
        assert result.records.columns["feasible_evaluations"][-1] == feasible
        assert result.records.columns["corrections_applied"].any() and (infeasible > 0) == (bchm == "dismiss")

    @pytest.mark.parametrize("engine", ["classic", "lshade"])
    def test_a_run_leaves_its_problem_as_it_was_but_for_the_tallies(self, engine):
        def state(problem):
            tallies = ("feasible_evaluations", "infeasible_evaluations")
            return pickle.dumps({name: value for name, value in vars(problem).items() if name not in tallies})

        problem = make_instance("linear_slope", 1, 3, "SBOX")
        before = state(problem)
        config = RunConfig(problem=problem, count_infeasible_evals=True, engine=engine, bchm="dismiss",
                           budget=600, seed=1, classic_population_size=10)
        run(config)
        assert state(problem) == before
        once = problem.feasible_evaluations, problem.infeasible_evaluations
        run(config)  # the tallies are the problem's lifetime count: no run resets them
        assert (problem.feasible_evaluations, problem.infeasible_evaluations) == (2 * once[0], 2 * once[1])

    def test_a_run_started_inside_another_on_one_problem_leaves_both_as_they_run_alone(self):
        def bowl(x):
            return float(np.sum((x - 5.0) ** 2))

        def bowl_problem(objective):
            return ExternalProblem("bowl", 3, Bounds.symmetric(5.0, 3), objective, optimum_value=0.0)

        def configs(problem):
            outer = RunConfig(problem=problem, engine="classic", bchm="dismiss", budget=600, seed=3,
                              classic_population_size=10)
            inner = RunConfig(problem=problem, count_infeasible_evals=True, engine="classic", bchm="dismiss",
                              budget=400, seed=4, classic_population_size=10)
            return outer, inner

        def outcome(result):
            return trajectory_csv_text(result.records), result.evaluations_used

        alone = [outcome(run(config)) for config in configs(bowl_problem(bowl))]
        calls, nested = 0, []

        def objective(x):  # its 200th call, in the outer run's generations, starts the inner run
            nonlocal calls
            calls += 1
            if calls == 200:
                nested.append(run(inner))
            return bowl(x)

        outer, inner = configs(bowl_problem(objective))
        outer_result = run(outer)
        assert len(nested) == 1 and calls > 200
        assert [outcome(outer_result), outcome(nested[0])] == alone


class TestStructuralBias:
    """Structural bias oracle (Kononova et al., Inf. Sci. 2015).

    On a noise landscape selection carries no information about where the
    optimum is, so where the final population sits is the operators' doing.
    A component lands exactly on a bound only through a method that maps
    violations onto the bound; for every other method that event has
    probability 0, whatever the random stream.
    """

    def final_positions(self, engine, bchm):
        problem = noise_problem()
        rng = RngStream(21)
        positions = rng.uniform(-5, 5, (20, 5))
        pop = Population(positions, problem.evaluate_batch(positions))
        # 40 generations of 20 trials spend under 0.1% of the budget: LPSR keeps all 20
        state = ShadeState.create(5, 10**6, 20)
        trajectory, account = Trajectory(), ledger(20, 10**6)
        for _ in range(40):
            if engine == "classic":
                pop = classic_generation(pop, bchm, problem, rng, trajectory, account)
            else:
                pop = lshade_generation(pop, state, bchm, problem, rng, trajectory, account)
        return pop.positions

    @pytest.mark.parametrize("engine", ["classic", "lshade"])
    @pytest.mark.parametrize("bchm", ["sat", "vectorBest"])
    def test_bound_mapping_methods_leave_components_on_bounds(self, engine, bchm):
        on_bound = np.abs(self.final_positions(engine, bchm)) == 5.0
        assert on_bound.mean() > 0.0

    @pytest.mark.parametrize("engine", ["classic", "lshade"])
    @pytest.mark.parametrize("bchm", ["mirror", "uniform", "expBest"])
    def test_other_methods_never_land_on_bounds(self, engine, bchm):
        assert not np.any(np.abs(self.final_positions(engine, bchm)) == 5.0)


def run_one_generation(generation, bchm, adaptive_state=None):
    """One classic or L-SHADE generation on the corner-optimum slope, where trials leave the box."""
    problem = make_instance("linear_slope", 1, 3, "SBOX")
    rng = RngStream(3)
    positions = rng.uniform(problem.bounds.lower, problem.bounds.upper, (20, 3))
    pop = Population(positions, problem.evaluate_batch(positions))
    if generation == "classic":
        return engine.classic_generation(pop, bchm, problem, rng, Trajectory(), ledger(20), adaptive_state)
    return engine.lshade_generation(pop, engine.ShadeState.create(3, 10**6, 20), bchm, problem, rng, Trajectory(),
                                    ledger(20, 10**6), adaptive_state)


@pytest.mark.parametrize("generation", ["classic", "lshade"])
def test_a_generation_under_adaptive_without_its_state_is_refused(generation):
    with pytest.raises(ValueError, match="^the adaptive method needs"):
        run_one_generation(generation, "adaptive")


@pytest.mark.parametrize("generation", ["classic", "lshade"])
def test_a_generation_under_an_unknown_method_id_is_refused(generation):
    with pytest.raises(ValueError, match="^unknown method id 'foo'$"):
        run_one_generation(generation, "foo")


@pytest.mark.parametrize("generation", ["classic", "lshade"])
def test_an_adaptive_state_with_another_method_id_is_refused(generation):
    with pytest.raises(ValueError, match="^an AdaptiveState serves the adaptive method only, not 'sat'$"):
        run_one_generation(generation, "sat", AdaptiveState())
