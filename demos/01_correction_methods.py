"""Tour of the bound constraint handling methods.

Takes one infeasible trial vector and shows what every method does with it:
where the corrected point lands, how many components were touched, and for
the vector-wise family the scaling factor that drags the whole vector back
onto the box.
"""

import numpy as np

from debox import (
    ADAPTIVE_POOL,
    AdaptiveState,
    Bounds,
    CorrectionContext,
    Population,
    RngStream,
    correct,
    population_stats,
)
from debox.bchm import CORRECTING_METHOD_IDS, adaptive_correct

rng = RngStream(2024)
bounds = Bounds.symmetric(5.0, 4)

# a small feasible population supplies the reference information the
# stochastic and vector-wise methods need
population = Population(rng.uniform(-4.0, 4.0, (12, 4)), np.zeros(12))
stats = population_stats(population)
ctx = CorrectionContext(
    bounds=bounds,
    target=population.positions[0],
    pbest=population.positions[1],
    population_mean=stats.mean,
    stats=stats,
)

trial = np.array([7.5, -11.0, 2.0, 4.9])  # components 0 and 1 violate the box
print(f"infeasible trial   {np.array2string(trial, precision=3)}")
print(f"target (reference) {np.array2string(ctx.target, precision=3)}")
print(f"pbest  (reference) {np.array2string(ctx.pbest, precision=3)}")
print(f"population mean    {np.array2string(ctx.population_mean, precision=3)}")
print()

print(f"{'method':<16}{'corrected vector':<44}{'touched':>8}{'alpha':>8}")
for method in CORRECTING_METHOD_IDS:
    if method == "adaptive":
        outcome, index = adaptive_correct(trial, ctx, rng, AdaptiveState())
        label = f"adaptive->{ADAPTIVE_POOL[index]}"
    else:
        outcome, label = correct(method, trial, ctx, rng), method
    alpha = "" if outcome.vector_alpha is None else f"{outcome.vector_alpha:.3f}"
    vec = np.array2string(outcome.vector, precision=3, suppress_small=True)
    print(f"{label:<16}{vec:<44}{outcome.components_corrected:>8}{alpha:>8}")

outcome = correct("dismiss", trial, ctx, rng)
print(f"{'dismiss':<16}{'(discarded, fitness treated as +inf)':<44}{'-':>8}")
print()

# the vector family lands exactly where the segment [R, y] crosses the box
alpha = correct("vectorTarget", trial, ctx, rng).vector_alpha
print(f"vectorTarget scaling: alpha = {alpha:.6f}")
print("so the corrected point is  alpha*y + (1-alpha)*target, which keeps")
print("the DE search direction: cos(y - x, c - x) = 1 when the reference is the target.")
