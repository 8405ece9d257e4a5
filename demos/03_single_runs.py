"""One full optimization run with each engine.

Runs DE/rand/1/bin and L-SHADE on the same strict-box instance, prints the
convergence milestones from the telemetry, the L-SHADE population schedule,
and the end-of-run behaviour classification.
"""

import numpy as np

from debox import RunConfig, make_instance, run

BUDGET = 40_000

for engine in ("classic", "lshade"):
    problem = make_instance("separable_ellipsoid", 1, 10, "SBOX")
    config = RunConfig(problem=problem, engine=engine, bchm="mirror", budget=BUDGET, seed=5)
    result = run(config)

    print(f"=== {engine} / mirror on separable_ellipsoid (n=10, budget {BUDGET}) ===")
    milestones = np.linspace(0, len(result.records) - 1, 6).astype(int)
    columns = result.records.columns
    print(f"{'gen':>6}{'evals':>9}{'pop':>6}{'best error':>14}{'violation ratio':>17}")
    for index in milestones:
        print(
            f"{columns['generation'][index]:>6}{columns['feasible_evaluations'][index]:>9}"
            f"{columns['population_size'][index]:>6}{columns['best_error'][index]:>14.3e}"
            f"{columns['infeasible_component_ratio'][index]:>17.4f}"
        )
    print(
        f"final: error {result.best_error:.3e}, behaviour {result.behaviour.value}, "
        f"generations {result.generations}, wall {result.wall_time_seconds:.2f}s"
    )
    print()

print("the same config with the same seed reproduces bit-identical trajectories;")
print("change the seed (or the BCHM) and compare the records to study their effect.")
