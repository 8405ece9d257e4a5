"""Strict-box benchmark instances.

Demonstrates the two placement modes (SBOX can put the optimum arbitrarily
close to the boundary, BBOB_LIKE keeps a margin), the death-penalty
semantics outside the box, and the problem's own tallies of feasible and
infeasible calls (the budget belongs to a run, which charges infeasible
calls only when its config says so).
"""

import numpy as np

from debox import catalog_ids, make_instance

print("catalogue:", ", ".join(catalog_ids()))
print()

# distance of the closest optimum component to a bound, per mode
for mode in ("SBOX", "BBOB_LIKE"):
    closest = []
    for instance in range(200):
        problem = make_instance("sphere", instance, 20, mode)
        closest.append(np.min(5.0 - np.abs(problem.optimum_location)))
    closest = np.array(closest)
    print(
        f"{mode:<10} optimum-to-bound distance over 200 instances: "
        f"min {closest.min():.4f}, median {np.median(closest):.4f}"
    )
print("(SBOX optima can touch the walls; BBOB_LIKE keeps the 1.0 margin)")
print()

# instances are pure functions of their coordinates
a = make_instance("rastrigin", 7, 10, "SBOX")
b = make_instance("rastrigin", 7, 10, "SBOX")
print("instance determinism:", np.array_equal(a.optimum_location, b.optimum_location))

# strict-box semantics: finite inside the closed box, +inf outside, and the
# raw landscape is never even evaluated for infeasible points
problem = make_instance("separable_ellipsoid", 1, 6, "SBOX")
inside = np.clip(problem.optimum_location + 0.5, problem.bounds.lower, problem.bounds.upper)
outside = inside.copy()
outside[0] = 5.0000001
print(f"f(x*)            = {problem.evaluate(problem.optimum_location):.6f}  (= f*)")
print(f"f(near x*)       = {problem.evaluate(inside):.6f}")
print(f"f(outside box)   = {problem.evaluate(outside)}")
print(f"tallies: feasible={problem.feasible_evaluations}, infeasible={problem.infeasible_evaluations}")

# the linear slope is the one landscape whose optimum sits on a box corner
slope = make_instance("linear_slope", 3, 5, "SBOX")
print()
print("linear slope corner optimum:", slope.optimum_location)
