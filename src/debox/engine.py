"""DE/rand/1/bin and L-SHADE generations on one batched kernel, with BCHM repair.

Each engine draws the mutants of a whole generation (L-SHADE also draws
per-trial F and CR); one shared kernel then crosses over, measures bound
violations before any repair, hands the whole trial block with its violation
and infeasible-row masks to the BCHM's private block entry (which leaves
feasible trials as they are; the public ``correct`` and ``adaptive_correct``
validate and count on top of that same entry), evaluates the batch under
strict-box semantics and selects greedily (a trial replaces its target on
ties).  A trial component violates unless it lies in the closed box, so a
NaN component counts as violated.  Dismissed trials never reach the raw
landscape: they score +inf, count as infeasible evaluations and leave their
target in place.  Rows of the population and the archive are gathered with
``take(..., axis=0)``: the same arrays as fancy indexing, without numpy's
generic indexing machinery, whose fixed cost per call a generation pays
several times.

Every unit variate of a generation of m trials in dimension n comes from one
``random`` call, sliced in this order:

* L-SHADE: m memory slots, m F, m p, m pbest ranks, m r1, m r2 (r2 over
  population and archive), then m rows of 1 + n: i_rand and the n crossover
  units of one trial;
* classic: m r1, m r2, m r3, then the same m rows of 1 + n.

L-SHADE then redraws its nonpositive F in rounds (one ``random`` call per
round) and draws its m CR in one ``normal`` call.  The repair draws of the
infeasible trials follow (see :func:`debox.bchm.adaptive_correct`), then
one unit per archive entry when L-SHADE trims its archive.

A unit u maps to an index in [0, k) as floor(u k), uniform to within k 2^-53;
F is the inverse Cauchy CDF loc + 0.1 tan(pi (u - 1/2)), p is
p_lo + (p_hi - p_lo) u.  The i-th index of a row, which must differ from the
target j and from the i - 1 indices drawn before it, is drawn as the rank
q_i over its limit - i free slots and mapped to its slot by composed shifts,
s_j(s_{q_1}(...s_{q_{i-1}}(q_i))) with s_a(t) = t + (t >= a); each engine
gathers all its index rows in one ``take``.  A run charges its budget to
its own ledger, not to the problem.  When the budget runs out
mid-generation only the prefix of trials whose cumulative cost fits the
remaining budget is repaired, evaluated and recorded; a trial costs one
evaluation unless it is dismissed while infeasible evaluations are free.

L-SHADE adds success-history parameter adaptation (memory of size H storing
weighted Lehmer means of successful F and weighted arithmetic means of
successful CR), current-to-pbest/1 mutation with an external archive of
defeated parents, and linear population size reduction from 18*n down to 4
over the evaluation budget.  As in Tanabe & Fukunaga's L-SHADE, a
generation's trials are all built before selection; defeated parents join
the archive afterwards, with the memory update and the size reduction.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import telemetry
from .bchm import (ADAPTIVE_POOL, ADAPTIVE_UPDATE_PERIOD, METHOD_IDS, AdaptiveState, CorrectionContext,
                   _repair_block, adaptive_update)
# patch points only: bench/spans.py patches them here, and tests/test_bench_patch_table.py checks for them
from .bchm import adaptive_correct, correct  # noqa: F401
from .benchmarks import BenchmarkProblem
from .core import Population, RngStream, population_stats

__all__ = [
    "PHASES", "RunConfig", "RunResult", "ShadeState",
    "binomial_crossover", "classic_generation", "lehmer_mean", "lpsr_target_size", "lshade_generation",
    "rand1_mutant", "run", "sample_crossover_rate", "sample_scale_factor",
]


#: classic DE's constants: the scale factor F and the crossover rate CR
SCALE_FACTOR = 0.5
CROSSOVER_RATE = 0.5

#: L-SHADE's constants.  From L-SHADE (Tanabe & Fukunaga, CEC 2014): H = 6
#: memory slots and an initial population of 18*n that LPSR shrinks to 4.
#: From SHADE (Tanabe & Fukunaga, CEC 2013): p drawn from U[2/N, 0.2], and an
#: archive that holds at most as many parents as the population.  From both:
#: F ~ Cauchy(M_F, 0.1) and CR ~ N(M_CR, 0.1).
MEMORY_SIZE = 6
INIT_SIZE_PER_DIMENSION = 18
MIN_POPULATION_SIZE = 4
P_MAX = 0.2
F_SCALE = 0.1
CR_SCALE = 0.1


@dataclass(eq=False)
class ShadeState:
    """Mutable success-history state carried across L-SHADE generations."""

    memory_f: np.ndarray
    memory_cr: np.ndarray  # NaN entries mark the terminal CR value
    memory_index: int
    archive: np.ndarray  # defeated parents, shape (A, n)
    n_init: int
    n_fe_max: int

    @classmethod
    def create(cls, dimension: int, budget: int, n_init: int) -> "ShadeState":
        return cls(memory_f=np.full(MEMORY_SIZE, 0.5), memory_cr=np.full(MEMORY_SIZE, 0.5), memory_index=0,
                   archive=np.empty((0, dimension)), n_init=n_init, n_fe_max=budget)


@dataclass(eq=False)
class _Ledger:
    """A run's budget account, built from its config; the problem keeps none."""

    budget: int
    charge_infeasible: bool  # whether infeasible evaluations are charged against the budget
    feasible: int  # feasible evaluations so far
    spent: int  # evaluations charged against the budget so far


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def rand1_mutant(x_r1: np.ndarray, x_r2: np.ndarray, x_r3: np.ndarray, f) -> np.ndarray:
    """rand/1 mutation: base vector plus one scaled difference."""
    return x_r1 + f * (x_r2 - x_r3)


def binomial_crossover(units: np.ndarray, targets: np.ndarray, mutants: np.ndarray, cr) -> np.ndarray:
    """Row-wise exchange of components with probability cr (scalar or one per
    row, as a column); component i_rand of each row always comes from the
    mutant.  ``units`` holds one row of 1 + n unit draws per trial: i_rand =
    floor(u n), then the n crossover units."""
    m, n = targets.shape
    mask = units[:, 1:] < cr
    mask[np.arange(m), (units[:, 0] * n).astype(np.intp)] = True
    return np.where(mask, mutants, targets)


def sample_scale_factor(rng: RngStream, loc: np.ndarray, units: np.ndarray) -> np.ndarray:
    """Cauchy(loc_i, F_SCALE) variates by the inverse CDF, one per entry of
    ``loc`` from the matching entry of ``units``; nonpositive entries are
    redrawn in rounds of further unit draws until positive, then all are
    truncated at 1."""
    f = loc + F_SCALE * np.tan(np.pi * (units - 0.5))
    redraw = (f <= 0.0).nonzero()[0]
    while redraw.size:
        redrawn = loc[redraw] + F_SCALE * np.tan(np.pi * (rng.random(redraw.size) - 0.5))
        f[redraw] = redrawn
        redraw = redraw[redrawn <= 0.0]
    return np.minimum(f, 1.0)


def sample_crossover_rate(rng: RngStream, memory_cr: np.ndarray) -> np.ndarray:
    """Normal(M_CR_i, CR_SCALE) draws clipped to [0, 1], one per entry of
    ``memory_cr``, in one ``normal`` call; the terminal marker (NaN) pins CR
    to 0 (its draw is still consumed)."""
    cr = np.minimum(np.maximum(rng.normal(memory_cr, CR_SCALE, size=memory_cr.shape), 0.0), 1.0)
    return np.where(np.isnan(memory_cr), 0.0, cr)


def lehmer_mean(values, weights) -> float:
    """Weighted Lehmer mean sum(w v^2)/sum(w v) used for the F memory."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    return float(np.add.reduce(weights * values**2) / np.add.reduce(weights * values))


def lpsr_target_size(state: ShadeState, evaluations_used: int) -> int:
    """Linear population size schedule from n_init down to MIN_POPULATION_SIZE over the budget."""
    frac = min(evaluations_used / state.n_fe_max, 1.0)
    target = round(state.n_init + (MIN_POPULATION_SIZE - state.n_init) * frac)
    return int(min(max(target, MIN_POPULATION_SIZE), state.n_init))


def _distinct_indices(units: np.ndarray, j: np.ndarray, *limits: int) -> np.ndarray:
    """Index rows r_1, r_2, ... of a (k, m) array from the k rows of ``units``:
    r_i lies in [0, limits[i-1]) and differs, column by column, from ``j`` and
    from the rows before it.  r_i is the q_i-th of its free slots, q_i =
    floor(u (limit - i)): removing j relabels the free slots through s_j(t) =
    t + (t >= j), removing r_1 then removes label q_1 of that set, and so on,
    so r_i = s_j(s_{q_1}(...s_{q_{i-1}}(q_i))), the latest shift first."""
    r = (units * np.array([[limit - i] for i, limit in enumerate(limits, 1)])).astype(np.intp)  # q, row by row
    for i in range(len(limits) - 1, -1, -1):  # row i reads the q of the rows above it, so the last goes first
        t = r[i]
        for a in range(i - 1, -1, -1):
            np.add(t, t >= r[a], out=t)
        np.add(t, t >= j, out=t)
    return r


# ---------------------------------------------------------------------------
# the generation kernel
# ---------------------------------------------------------------------------

#: phases of a generation, in the order a generation passes through them
PHASES = ("variation", "repair", "evaluation", "selection_and_adaptation", "telemetry")
VARIATION, REPAIR, EVALUATION, SELECTION, TELEMETRY = range(len(PHASES))


class _PhaseClock:
    """One perf_counter accumulator per phase: ``lap(phase)`` charges the
    time since the previous lap to ``phase``."""

    def __init__(self) -> None:
        self.seconds = [0.0] * len(PHASES)
        self.last = time.perf_counter()

    def lap(self, phase: int) -> None:
        now = time.perf_counter()
        self.seconds[phase] += now - self.last
        self.last = now


def _generation(pop: Population, mutants: np.ndarray, cr, pbest: np.ndarray, units: np.ndarray, bchm: str,
                problem, rng: RngStream, trajectory: telemetry.Trajectory, adaptive_state: AdaptiveState | None,
                ledger: _Ledger, clock: _PhaseClock, adapt=None) -> Population:
    """Crossover, budget prefix, batch repair, batch evaluation, greedy
    selection and the telemetry of one generation, appended to ``trajectory``.

    ``pbest`` is one vector (classic) or one row per trial (L-SHADE);
    ``units`` holds the crossover rows of the generation's unit block.
    ``adapt(trial_fitness, positions, fitness)`` sees the fitness of the
    evaluated prefix and the selected population, and returns the population
    that carries over (L-SHADE's memory, archive and size reduction).
    """
    x, fitness = pop.positions, pop.fitness
    trials = binomial_crossover(units, x, mutants, cr)
    clock.lap(VARIATION)
    bounds = problem.bounds
    outside = bounds.outside(trials)  # the one violation mask of the generation
    infeasible = np.logical_or.reduce(outside, axis=1)
    kept, remaining = len(trials), ledger.budget - ledger.spent
    if remaining < kept:
        # a trial costs one evaluation unless it is dismissed while infeasible ones are free
        cost = ~infeasible | (bchm != "dismiss") | ledger.charge_infeasible
        kept = int(np.count_nonzero(cost.cumsum() - cost < remaining))
        trials, outside, infeasible = trials[:kept], outside[:kept], infeasible[:kept]

    repaired, dismissed, picks = trials, None, None
    corrections = np.count_nonzero(infeasible)
    if corrections:  # the whole block and its masks go to the BCHM, which leaves feasible rows as they are
        stats = pop.stats if pop.stats is not None else population_stats(pop)
        ctx = CorrectionContext(bounds=bounds, target=x[:kept], population_mean=stats.mean, stats=stats,
                                pbest=pbest[:kept] if pbest.ndim == 2 else pbest)
        repaired, dismissed, picks, _ = _repair_block(bchm, trials, outside, infeasible, ctx, rng, adaptive_state)
    clock.lap(REPAIR)

    trial_fitness = problem.evaluate_batch(repaired)
    n_dismissed = int(corrections) if dismissed is not None else 0  # after repair only these lie outside the box
    ledger.feasible += kept - n_dismissed
    ledger.spent += kept if ledger.charge_infeasible else kept - n_dismissed
    clock.lap(EVALUATION)
    wins = trial_fitness <= fitness[:kept]
    if dismissed is not None:
        wins[dismissed] = False
    positions, new_fitness = x.copy(), fitness.copy()
    np.copyto(positions[:kept], repaired, where=wins[:, None])
    np.copyto(new_fitness[:kept], trial_fitness, where=wins)
    if picks is not None:  # a feasible trial has no pick (-1)
        adaptive_state.successes += np.bincount(picks[wins & (picks >= 0)], minlength=len(ADAPTIVE_POOL))
    if adapt is not None:
        positions, new_fitness = adapt(trial_fitness, positions, new_fitness)

    next_pop = Population(positions, new_fitness, generation=pop.generation + 1)
    next_pop.stats = population_stats(next_pop)
    clock.lap(SELECTION)
    telemetry.record_generation(
        trajectory, outside, corrections, next_pop, ledger.feasible, problem,
        adaptive_probabilities=None if adaptive_state is None else adaptive_state.probabilities,
    )
    clock.lap(TELEMETRY)
    return next_pop


# ---------------------------------------------------------------------------
# generations
# ---------------------------------------------------------------------------

def classic_generation(pop: Population, bchm: str, problem, rng: RngStream, trajectory: telemetry.Trajectory,
                       ledger: _Ledger, adaptive_state: AdaptiveState | None = None,
                       clock: _PhaseClock | None = None) -> Population:
    """One synchronous DE/rand/1/bin generation, with F = SCALE_FACTOR and CR = CROSSOVER_RATE.

    Charges ``ledger``; if its budget runs out mid-generation the remaining
    targets carry over unchanged.  Appends the generation's telemetry to
    ``trajectory``; ``clock`` accumulates the seconds of each phase.
    """
    clock = clock if clock is not None else _PhaseClock()
    m, n = pop.positions.shape
    if m < 4:
        raise ValueError("classic DE needs a population of at least 4")
    x = pop.positions
    units = rng.random(m * (4 + n))
    index_units, crossover_units = units[:3 * m].reshape(3, m), units[3 * m:].reshape(m, 1 + n)
    idx = _distinct_indices(index_units, np.arange(m), m, m, m)
    mutants = rand1_mutant(*x.take(idx, axis=0), SCALE_FACTOR)
    return _generation(pop, mutants, CROSSOVER_RATE, x[pop.best_index], crossover_units, bchm, problem,
                       rng, trajectory, adaptive_state, ledger, clock)


def lshade_generation(pop: Population, state: ShadeState, bchm: str, problem, rng: RngStream,
                      trajectory: telemetry.Trajectory, ledger: _Ledger, adaptive_state: AdaptiveState | None = None,
                      clock: _PhaseClock | None = None) -> Population:
    """One L-SHADE generation: current-to-pbest/1/bin with memories, archive
    and linear population size reduction; ``state`` is updated in place."""
    clock = clock if clock is not None else _PhaseClock()
    x, fitness = pop.positions, pop.fitness
    m, n = x.shape
    units = rng.random(m * (7 + n))
    slot_u, f_u, p_u, rank_u = units[:4 * m].reshape(4, m)
    slots = (slot_u * state.memory_f.size).astype(np.intp)
    f = sample_scale_factor(rng, state.memory_f[slots], f_u)
    cr = sample_crossover_rate(rng, state.memory_cr[slots])
    p_lo = 2.0 / m
    p = p_lo + (max(p_lo, P_MAX) - p_lo) * p_u  # Generator.uniform, bit for bit
    rank = (rank_u * np.ceil(p * m)).astype(np.intp)  # p >= 2/m, so ceil(p m) >= 2
    donors = np.concatenate([x, state.archive]) if len(state.archive) else x
    idx = _distinct_indices(units[4 * m:6 * m].reshape(2, m), np.arange(m), m, len(donors))
    x_r1, donor_r2 = donors.take(idx, axis=0)  # r1 < m, so donors[r1] is x[r1]
    pbest = x.take(fitness.argsort(kind="stable")[rank], axis=0)
    mutants = x + f[:, None] * (pbest - x + x_r1 - donor_r2)

    def adapt(trial_fitness, positions, new_fitness):
        better = (trial_fitness < fitness[:len(trial_fitness)]).nonzero()[0]
        if better.size:
            state.archive = np.concatenate([state.archive, x.take(better, axis=0)])
            _update_memories(state, f[better], cr[better], fitness[better] - trial_fitness[better])
        target_size = lpsr_target_size(state, ledger.spent)
        if target_size < m:
            keep = new_fitness.argsort(kind="stable")[:target_size]
            keep.sort()
            positions, new_fitness = positions.take(keep, axis=0), new_fitness[keep]
        _trim_archive(state, len(positions), rng)
        return positions, new_fitness

    return _generation(pop, mutants, cr[:, None], pbest, units[6 * m:].reshape(m, 1 + n), bchm, problem,
                       rng, trajectory, adaptive_state, ledger, clock, adapt)


def _trim_archive(state: ShadeState, population_size: int, rng: RngStream) -> None:
    """Drop uniformly chosen archive entries down to the population size; the survivors keep no order."""
    excess = len(state.archive) - population_size
    if excess > 0:
        state.archive = state.archive.take(rng.random(len(state.archive)).argsort()[excess:], axis=0)


def _update_memories(state: ShadeState, successful_f, successful_cr, improvements) -> None:
    """Write one memory slot from this generation's successful parameters."""
    weights, total = improvements, np.add.reduce(improvements)
    if total == np.inf:
        # improvements over +inf targets (NaN objective values) share the weight
        weights = np.isinf(weights).astype(float)
        total = np.add.reduce(weights)
    if total <= 0.0:
        return
    weights = weights / total
    k = state.memory_index
    state.memory_f[k] = lehmer_mean(successful_f, weights)
    if math.isnan(state.memory_cr[k]) or np.maximum.reduce(successful_cr) == 0.0:
        state.memory_cr[k] = np.nan  # terminal: CR stays pinned at 0 for this slot
    else:
        state.memory_cr[k] = float(np.add.reduce(weights * successful_cr))
    state.memory_index = (k + 1) % state.memory_f.size


# ---------------------------------------------------------------------------
# whole runs
# ---------------------------------------------------------------------------

#: consecutive generations without budget consumption after which a run stops
STALL_GENERATIONS = 10000

#: the default budget, in feasible evaluations per dimension
BUDGET_PER_DIMENSION = 10000


@dataclass
class RunConfig:
    """Everything needed to reproduce one optimization run."""

    problem: BenchmarkProblem | None  # None only while a front-end validates the other fields
    count_infeasible_evals: bool = False  # whether infeasible evaluations are charged against the budget
    engine: str = "lshade"
    bchm: str = "sat"
    budget: int | None = None  # default: BUDGET_PER_DIMENSION * dimension
    seed: int = 0
    max_generations: int | None = None
    classic_population_size: int = 50  # the initial size N of classic DE (DE/rand/1/bin)

    def resolved_budget(self, dimension: int) -> int:
        return self.budget if self.budget is not None else BUDGET_PER_DIMENSION * dimension

    def initial_size(self, dimension: int) -> int:
        """The size of the initial population, which spends the first evaluations."""
        return self.classic_population_size if self.engine == "classic" else INIT_SIZE_PER_DIMENSION * dimension

    def validation_errors(self, dimension: int | None = None) -> list[str]:
        """One message per invalid field; the problem is not consulted.  Given
        the problem's ``dimension``, the budget must also exceed the size of
        the initial population, which spends its first evaluations."""
        errors = []
        if self.engine not in ("classic", "lshade"):
            errors.append("engine (must be 'classic' or 'lshade')")
        if self.bchm not in METHOD_IDS:
            errors.append(f"bchm (unknown method id {self.bchm!r})")
        if self.budget is not None and self.budget <= 0:
            errors.append("budget (budget must be positive)")
        elif dimension is not None:
            budget, size = self.resolved_budget(dimension), self.initial_size(dimension)
            if budget <= size:
                errors.append(f"budget (must exceed the initial population size {size}, got {budget})")
        if self.seed < 0:
            errors.append("seed (must be >= 0)")
        if self.max_generations is not None and self.max_generations <= 0:
            errors.append("max_generations (must be positive)")
        if self.classic_population_size < 4:
            errors.append("classic_population_size (must be >= 4)")
        return errors

    def validate(self) -> None:
        errors = self.validation_errors(None if self.problem is None else self.problem.dimension)
        if self.problem is None:
            errors.insert(0, "problem (required)")
        if errors:
            raise ValueError("invalid config fields: " + "; ".join(errors))


@dataclass(eq=False)
class RunResult:
    best_error: float
    best_fitness: float
    best_position: np.ndarray
    behaviour: telemetry.BehaviourClass | None
    classification_mode: str
    records: telemetry.Trajectory
    evaluations_used: int
    generations: int
    final_max_component_variance: float
    wall_time_seconds: float
    stop_reason: str  # "budget", "max_generations" or "stalled"
    phase_seconds: dict[str, float]  # seconds of the generations per phase, keyed by PHASES


def run(config: RunConfig) -> RunResult:
    """Execute one full run: init, generational loop, classification.

    Deterministic for a fixed seed: the init and the generational loop use
    two independent substreams of the run stream, consumed in a fixed order.
    """
    config.validate()
    problem = config.problem
    n = problem.dimension
    budget, n_init = config.resolved_budget(n), config.initial_size(n)
    ledger = _Ledger(budget, config.count_infeasible_evals, n_init, n_init)  # every initial point lies in the box
    init_rng, loop_rng = RngStream(config.seed, (0,)), RngStream(config.seed, (1,))

    shade_state = ShadeState.create(n, budget, n_init) if config.engine == "lshade" else None
    positions = init_rng.uniform(problem.bounds.lower, problem.bounds.upper, (n_init, n))
    fitness = problem.evaluate_batch(positions)
    pop = Population(positions, fitness, generation=0)

    adaptive_state = AdaptiveState() if config.bchm == "adaptive" else None

    trajectory = telemetry.Trajectory()
    started = time.perf_counter()
    clock = _PhaseClock()
    stalled = 0
    stop_reason = "budget"
    while ledger.spent < budget:
        if config.max_generations is not None and pop.generation >= config.max_generations:
            stop_reason = "max_generations"
            break
        spent_before = ledger.spent
        if config.engine == "classic":
            pop = classic_generation(pop, config.bchm, problem, loop_rng, trajectory, ledger, adaptive_state,
                                     clock)
        else:
            pop = lshade_generation(pop, shade_state, config.bchm, problem, loop_rng, trajectory, ledger,
                                    adaptive_state, clock)
        if adaptive_state is not None and pop.generation % ADAPTIVE_UPDATE_PERIOD == 0:
            adaptive_state = adaptive_update(adaptive_state)
            clock.lap(SELECTION)
        # with dismiss and free infeasible evaluations a generation may consume
        # no budget; bail out if that persists instead of spinning forever
        stalled = stalled + 1 if ledger.spent == spent_before else 0
        if stalled >= STALL_GENERATIONS:
            stop_reason = "stalled"
            break
    wall_time = time.perf_counter() - started

    # the last entries are the final population's
    best_idx, columns = pop.best_index, trajectory.columns
    best_error, variance = columns["best_error"][-1].item(), columns["max_component_variance"][-1].item()
    return RunResult(
        best_error=best_error, best_fitness=float(pop.fitness[best_idx]),
        best_position=pop.positions[best_idx].copy(),
        behaviour=telemetry.classify(best_error, variance),
        classification_mode="variance_only" if problem.optimum_value is None else "error_and_variance",
        records=trajectory, evaluations_used=ledger.spent, generations=pop.generation,
        final_max_component_variance=variance, wall_time_seconds=wall_time,
        stop_reason=stop_reason, phase_seconds=dict(zip(PHASES, clock.seconds)),
    )
