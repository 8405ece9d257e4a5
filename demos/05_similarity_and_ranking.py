"""Comparing correction methods across functions: clustering and ranking.

Runs a small in-memory sweep (several BCHMs on two boundary-heavy
instances), builds the aligned violation-probability trajectories, clusters
the methods with complete linkage on cosine similarities, and prints the
mean-rank table of final errors.
"""

import numpy as np

from debox import (
    RunConfig,
    build_trajectory_matrix,
    complete_linkage_cluster,
    cut_dendrogram,
    make_instance,
    rank_methods,
    run,
)
from debox.analysis import similarity_matrix

METHODS = ("sat", "mirror", "uniform", "beta", "expTarget", "vectorTarget", "dismiss")
FUNCTIONS = ("sphere", "rastrigin")
SEEDS = (1, 2)
BUDGET = 6_000

runs_by_method = {m: [] for m in METHODS}
errors = {}
for function in FUNCTIONS:
    for method in METHODS:
        cell_errors = []
        for seed in SEEDS:
            problem = make_instance(function, 1, 6, "SBOX")
            result = run(RunConfig(problem=problem, engine="lshade", bchm=method,
                                   budget=BUDGET, seed=seed))
            runs_by_method[method].append(result.records.columns)
            cell_errors.append(result.best_error)
        errors[(function, method)] = cell_errors

matrix = build_trajectory_matrix(runs_by_method, "violation_probability", grid_points=120)
similarity = similarity_matrix(matrix)

print("cosine similarity of violation-probability trajectories")
print(f"{'':>14}" + "".join(f"{label:>14}" for label in matrix.row_labels))
for i, label in enumerate(matrix.row_labels):
    print(f"{label:>14}" + "".join(f"{similarity[i, j]:>14.3f}" for j in range(len(matrix.row_labels))))
print()

dendrogram = complete_linkage_cluster(similarity, matrix.row_labels)
print("complete-linkage merges (height = 1 - cosine similarity):")
for step in dendrogram.merges:
    print(f"  {'+'.join(step.left):<30} + {'+'.join(step.right):<30} @ {step.height:.4f}")
print()
print("flat clusters at height 0.02:", cut_dendrogram(dendrogram, 0.02))
print()

table = rank_methods(errors)
order = np.argsort(table.mean_rank)
print(f"{'method':<14}{'mean rank':>10}   per-function ranks " + str(table.functions))
for m in order:
    per_function = ", ".join(f"{table.ranks[f, m]:.1f}" for f in range(len(table.functions)))
    print(f"{table.methods[m]:<14}{table.mean_rank[m]:>10.2f}   [{per_function}]")
print()
print("newick:", dendrogram.to_newick())
