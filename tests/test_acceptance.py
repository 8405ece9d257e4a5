"""Acceptance suite: one test per criterion, printed as a pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is plain pytest and runs inside the normal suite too.
"""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from debox.analysis import complete_linkage_cluster, cosine_similarity, cut_dendrogram
from debox.bchm import (
    ADAPTIVE_POOL,
    ADAPTIVE_UPDATE_PERIOD,
    CORRECTING_METHOD_IDS,
    AdaptiveState,
    CorrectionContext,
    adaptive_select,
    adaptive_update,
    correct,
    fit_beta_params,
)
from debox.benchmarks import BenchmarkProblem, make_instance
from debox.cli import main as cli_main
from debox.core import Bounds, Population, PopulationStats, RngStream, population_stats
from debox.engine import RunConfig, run
from debox.telemetry import BehaviourClass, classify
from conftest import ScriptedStream

BOX20 = Bounds.symmetric(5.0, 20)


def report(criterion: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: PASS{suffix}")


def batch_context(rng, n=20):
    pop = Population(rng.uniform(-4.9, 4.9, (30, n)), np.zeros(30))
    stats = population_stats(pop)
    return CorrectionContext(
        bounds=Bounds.symmetric(5.0, n),
        target=pop.positions[0],
        pbest=pop.positions[1],
        population_mean=stats.mean,
        stats=stats,
    )


def test_c01_correction_feasibility():
    """Every correcting method maps 10^6 wild vectors into the closed box."""
    total = 1_000_000
    chunk = 100_000
    for method in CORRECTING_METHOD_IDS:
        rng = RngStream(1001)
        ctx = batch_context(rng)
        state = AdaptiveState()
        checked = 0
        for _ in range(total // chunk):
            batch = rng.uniform(-15.0, 15.0, (chunk, 20))
            if method == "adaptive":
                # per-individual categorical selection, applied group-wise
                u = np.asarray(rng.random(chunk))
                selected = np.searchsorted(np.cumsum(state.probabilities), u, side="right")
                selected = np.minimum(selected, len(ADAPTIVE_POOL) - 1)
                corrected = np.empty_like(batch)
                for k, pool_method in enumerate(ADAPTIVE_POOL):
                    rows = selected == k
                    if rows.any():
                        corrected[rows] = correct(pool_method, batch[rows], ctx, rng).vector
                        state.uses[k] += int(rows.sum())
            else:
                corrected = correct(method, batch, ctx, rng).vector
            assert np.all(corrected >= -5.0), method
            assert np.all(corrected <= 5.0), method
            checked += corrected.size
        assert checked == total * 20
    report("C1", f"{len(CORRECTING_METHOD_IDS)} methods x 1e6 vectors, all inside the box")


def test_c02_beta_parameter_oracle():
    """Moment-matched Beta shapes: hand oracle, epsilon substitution, fallback."""
    box = Bounds.symmetric(5.0, 1)
    params = fit_beta_params(PopulationStats(np.array([0.0]), np.array([1.0])), box)
    assert abs(params.alpha[0] - 12.0) < 1e-12
    assert abs(params.beta[0] - 12.0) < 1e-12
    eps = fit_beta_params(PopulationStats(np.array([-5.0]), np.array([1.0])), box)
    assert eps.m[0] == 0.1
    fallback = fit_beta_params(PopulationStats(np.array([0.0]), np.array([25.0])), box)
    assert fallback.fallback_mask[0]
    report("C2", "alpha = beta = 12 exactly; epsilon and fallback cases match")


def test_c03_exp_confined_limits_and_range():
    """Stubbed r = 0 and 1 hit the bound and the reference; samples stay inside."""
    box = Bounds.symmetric(5.0, 1)
    ctx = CorrectionContext(
        bounds=box,
        target=np.array([2.0]),
        pbest=np.array([2.0]),
        population_mean=np.array([2.0]),
    )
    y = np.array([-8.0])
    at_zero = correct("expTarget", y, ctx, ScriptedStream([0.0])).vector[0]
    at_one = correct("expTarget", y, ctx, ScriptedStream([1.0])).vector[0]
    assert abs(at_zero - (-5.0)) < 1e-12
    assert abs(at_one - 2.0) < 1e-12

    rng = RngStream(1003)
    batch = np.full((100_000, 1), -8.0)
    samples = correct("expTarget", batch, ctx, rng).vector.ravel()
    assert np.all(samples > -5.0) and np.all(samples < 2.0)
    report("C3", "r=0 -> bound, r=1 -> reference; 1e5 draws strictly inside (a, R)")


def test_c04_vector_correction_oracle_and_direction():
    """Hand oracle for the scaling, and exact search-direction preservation."""
    box2 = Bounds.symmetric(5.0, 2)
    ctx = CorrectionContext(
        bounds=box2, target=np.zeros(2), pbest=np.zeros(2), population_mean=np.zeros(2)
    )
    outcome = correct("vectorTarget", np.array([10.0, 2.0]), ctx, ScriptedStream([]))
    assert np.all(np.abs(outcome.vector - np.array([5.0, 1.0])) < 1e-12)
    assert abs(outcome.vector_alpha - 0.5) < 1e-12

    rng = RngStream(1004)
    m = 100_000
    targets = rng.uniform(-5.0, 5.0, (m, 20))
    trials = rng.uniform(-15.0, 15.0, (m, 20))
    infeasible = ~BOX20.contains(trials)
    targets, trials = targets[infeasible], trials[infeasible]
    ctx = CorrectionContext(
        bounds=BOX20, target=targets, pbest=targets, population_mean=targets
    )
    corrected = correct("vectorTarget", trials, ctx, ScriptedStream([])).vector
    u = trials - targets
    v = corrected - targets
    cos = np.einsum("ij,ij->i", u, v) / (
        np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
    )
    assert np.all(cos >= 1.0 - 1e-9)
    report("C4", f"(5, 1) with alpha 0.5; cos >= 1 - 1e-9 on {len(cos)} infeasible pairs")


@pytest.fixture(scope="module")
def lshade_ellipsoid_runs():
    results = []
    for seed in range(1, 6):
        problem = make_instance("separable_ellipsoid", 1, 10, "SBOX")
        config = RunConfig(problem=problem, engine="lshade", bchm="sat", budget=100_000, seed=seed)
        results.append(run(config))
    return results


def test_c05_engine_convergence(lshade_ellipsoid_runs):
    """Classic DE solves the centered sphere; L-SHADE the separable ellipsoid."""
    classic_errors = []
    for seed in range(1, 6):
        problem = BenchmarkProblem(
            function_id="sphere",
            instance_id=0,
            dimension=10,
            bounds=Bounds.symmetric(5.0, 10),
            optimum_location=np.zeros(10),
            optimum_value=0.0,
        )
        config = RunConfig(
            problem=problem,
            engine="classic",
            bchm="sat",
            budget=100_000,
            seed=seed,
            classic_population_size=50,
        )
        classic_errors.append(run(config).best_error)
    classic_median = float(np.median(classic_errors))
    assert classic_median < 1e-8

    shade_median = float(np.median([r.best_error for r in lshade_ellipsoid_runs]))
    assert shade_median < 1e-6
    report("C5", f"classic sphere median {classic_median:.2e}; L-SHADE ellipsoid median {shade_median:.2e}")


def test_c06_lpsr_schedule(lshade_ellipsoid_runs):
    """Population size: 18n at the start, 4 at the end, linear in between."""
    n = 10
    budget = 100_000
    for result in lshade_ellipsoid_runs:
        sizes = result.records.columns["population_size"]
        evals = result.records.columns["feasible_evaluations"]
        assert np.all(np.diff(sizes) <= 0)
        assert sizes[-1] == 4
        first_drop = 18 * n - round((18 * n - 4) * evals[0] / budget)
        assert sizes[0] in (18 * n, first_drop)  # first record is post-reduction
        half_index = int(np.argmin(np.abs(evals - budget // 2)))
        expected_half = round(18 * n - (18 * n - 4) / 2)
        assert abs(sizes[half_index] - expected_half) <= 1
    report("C6", "monotone 180 -> 4 with the half-budget size within +/-1 of 92")


def test_c07_violation_pattern_near_boundary():
    """Optima near the boundary force far more violations than centered ones."""

    def mean_violation_ratio(optimum: np.ndarray, seed: int) -> float:
        problem = BenchmarkProblem(
            function_id="sphere",
            instance_id=0,
            dimension=20,
            bounds=Bounds.symmetric(5.0, 20),
            optimum_location=optimum,
            optimum_value=0.0,
        )
        config = RunConfig(
            problem=problem, engine="lshade", bchm="dismiss", budget=10_000 * 20,
            seed=seed, max_generations=50,
        )
        result = run(config)
        return float(result.records.columns["infeasible_component_ratio"][:50].mean())

    near = np.full(20, 5.0 - 0.01)
    centered = np.zeros(20)
    near_means = [mean_violation_ratio(near, seed) for seed in range(1, 6)]
    centered_means = [mean_violation_ratio(centered, seed) for seed in range(1, 6)]
    near_mean = float(np.mean(near_means))
    centered_mean = float(np.mean(centered_means))
    assert near_mean >= 5.0 * centered_mean
    report("C7", f"near-bound ratio {near_mean:.4f} vs centered {centered_mean:.4f}")


def test_c08_classifier_truth_table():
    assert classify(1e-8, 1e-9) is BehaviourClass.GB
    assert classify(1e-8, 1e-3) is BehaviourClass.SF
    assert classify(1.0, 1e-9) is BehaviourClass.PC
    assert classify(1.0, 1.0) is BehaviourClass.BB
    report("C8", "GB / SF / PC / BB map exactly")


def test_c09_clustering_oracle():
    """Hand-computed dendrogram and exact recovery of three synthetic groups."""
    sim = np.array([[1.0, 0.9, 0.1], [0.9, 1.0, 0.2], [0.1, 0.2, 1.0]])
    dendrogram = complete_linkage_cluster(sim, ("A", "B", "C"))
    assert dendrogram.merges[0].left == ("A",) and dendrogram.merges[0].right == ("B",)
    assert abs(dendrogram.merges[0].height - 0.1) < 1e-12
    assert dendrogram.merges[1].left == ("A", "B") and dendrogram.merges[1].right == ("C",)
    assert abs(dendrogram.merges[1].height - 0.9) < 1e-12

    rng = RngStream(1009)
    labels, rows = [], []
    for g, base_index in enumerate((0, 3, 6)):
        base = np.eye(9)[base_index]
        for member in range(3):
            rows.append(base + rng.uniform(-0.005, 0.005, 9))
            labels.append(f"g{g}m{member}")
    sim9 = np.eye(9)
    for i in range(9):
        for j in range(i + 1, 9):
            sim9[i, j] = sim9[j, i] = cosine_similarity(rows[i], rows[j])
    groups = complete_linkage_cluster(sim9, tuple(labels))
    expected = sorted(tuple(sorted(l for l in labels if l.startswith(f"g{g}"))) for g in range(3))
    for threshold in (0.02, 0.1, 0.25, 0.49):
        assert cut_dendrogram(groups, threshold) == expected
    report("C9", "hand merge order reproduced; three flat clusters at every threshold")


def test_c10_beta_moment_preservation():
    box = Bounds.symmetric(5.0, 1)
    stats = PopulationStats(mean=np.array([0.0]), variance=np.array([1.0]))
    ctx = CorrectionContext(
        bounds=box, target=np.zeros(1), pbest=np.zeros(1), population_mean=np.zeros(1), stats=stats
    )
    outcome = correct("beta", np.full((100_000, 1), 9.0), ctx, RngStream(1010))
    values = outcome.vector.ravel()
    mean = float(values.mean())
    variance = float(values.var())
    assert abs(mean) < 0.05
    assert abs(variance - 1.0) < 0.1
    report("C10", f"corrected mean {mean:+.4f}, variance {variance:.4f}")


def test_c11_sweep_determinism(tmp_path):
    """A sweep is byte-identical whether run with 1 worker or 8."""
    config = {
        "functions": ["sphere", "rosenbrock"],
        "instances": [1],
        "dimensions": [2],
        "engines": ["classic"],
        "bchms": ["mirror", "uniform"],
        "runs_per_cell": 2,
        "budget_multiplier": 200,
        "base_seed": 11,
        "classic_population_size": 8,
    }
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps(config))
    out1, out8 = tmp_path / "p1", tmp_path / "p8"
    assert cli_main(["sweep", "--config", str(config_path), "--out", str(out1)]) == 0
    assert cli_main(["sweep", "--config", str(config_path), "--out", str(out8), "--parallelism", "8"]) == 0
    files1 = sorted((out1 / "runs").glob("*.csv"))
    files8 = sorted((out8 / "runs").glob("*.csv"))
    assert [p.name for p in files1] == [p.name for p in files8]
    assert len(files1) == 8  # 2 functions x 2 bchms x 2 runs
    for a, b in zip(files1, files8):
        assert a.read_bytes() == b.read_bytes()
    report("C11", "8 trajectory CSVs byte-identical across parallelism 1 and 8")


def test_c12_adaptive_probabilities_track_the_winning_method():
    """Only one pool method ever wins selection; its probability must dominate.

    The engine's win decision is stubbed: a corrected trial beats its target
    iff it was produced by the designated pool method (a landscape in which
    the other corrections always lose).  The adaptive machinery itself --
    selection, counting, periodic update, flooring -- is the real code.
    """
    winner = "beta"
    rng = RngStream(1012)
    state = AdaptiveState()
    trials_per_generation = 20
    for _ in range(4):  # four update periods
        for _ in range(ADAPTIVE_UPDATE_PERIOD):
            for _ in range(trials_per_generation):
                method = adaptive_select(state, rng)
                if method == winner:  # stub objective: only the winner's trials survive
                    state.successes[ADAPTIVE_POOL.index(method)] += 1
        state = adaptive_update(state)
    winner_index = ADAPTIVE_POOL.index(winner)
    assert state.probabilities[winner_index] > 0.5
    others = np.delete(state.probabilities, winner_index)
    assert np.all(others >= 0.05 - 1e-12)
    assert_allclose(state.probabilities.sum(), 1.0, atol=1e-12)
    report(
        "C12",
        f"winning-method probability {state.probabilities[winner_index]:.3f}, floor respected",
    )
