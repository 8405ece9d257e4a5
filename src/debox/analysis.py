"""Cross-run analytics: trajectory alignment, cosine similarity,
complete-linkage clustering and method ranking.

Runs of different engines produce different generation counts (L-SHADE's
population shrinks, so its generations get cheaper), so per-generation
series are first resampled by linear interpolation onto a uniform grid over
the feasible-evaluation axis before rows are averaged and compared.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "Dendrogram",
    "MergeStep",
    "RankingTable",
    "TrajectoryMatrix",
    "METRICS",
    "build_trajectory_matrix",
    "complete_linkage_cluster",
    "cosine_similarity",
    "cut_dendrogram",
    "rank_methods",
    "resample_series",
    "similarity_matrix",
]

#: metric name -> trajectory column it is computed from
METRICS = {
    "violation_probability": "infeasible_component_ratio",
    "best_so_far": "best_error",
    "population_variance": "mean_component_variance",
}

LOG_GUARD = 1e-12  # added before log10 so zero errors stay finite


def resample_series(x: Sequence[float], y: Sequence[float], grid_points: int) -> np.ndarray:
    """Linear interpolation of (x, y) onto a uniform grid spanning [x0, x_last].

    The grid is ``np.linspace(x[0], x[-1], grid_points)``, built by its own
    float arithmetic, so it has the same bits without its wrapper's cost.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0:
        raise ValueError("empty series")
    if x.size == 1:
        return np.full(grid_points, y[0])
    points = operator.index(grid_points)
    if points < 0:
        raise ValueError(f"grid_points must be >= 0, got {points}")
    grid = np.arange(points, dtype=float)
    div, delta = points - 1, x[-1] - x[0]
    if div > 0 and delta / div != 0:
        grid *= delta / div
    else:  # linspace's branch for a zero or denormal step, and for fewer than two points
        if div > 0:
            grid /= div
        grid *= delta
    grid += x[0]
    if points > 1:
        grid[-1] = x[-1]
    return np.interp(grid, x, y)


def _metric_series(run: Mapping[str, Sequence[float]], metric: str) -> tuple[np.ndarray, np.ndarray]:
    column = METRICS[metric]
    x = np.asarray(run["feasible_evaluations"], dtype=float)
    y = np.asarray(run[column], dtype=float)
    if metric == "best_so_far":
        y = np.log10(np.maximum(y, 0.0) + LOG_GUARD)
    return x, y


@dataclass(eq=False)
class TrajectoryMatrix:
    row_labels: tuple[str, ...]
    rows: np.ndarray  # (K, G)


def build_trajectory_matrix(
    runs_by_label: Mapping[str, Sequence[Mapping[str, Sequence[float]]]],
    metric: str,
    grid_points: int = 200,
) -> TrajectoryMatrix:
    """One row per label: the mean of that label's runs, each resampled onto the grid.

    Each run is a column mapping as ``read_trajectory_csv`` returns it;
    best-so-far rows are log10 errors, guarded at 1e-12.  Fewer than 2 grid
    points align nothing, so every row would be similar to every other.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}, expected one of {sorted(METRICS)}")
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    labels = tuple(sorted(runs_by_label))
    rows = []
    for label in labels:
        runs = list(runs_by_label[label])
        if not runs:
            raise ValueError(f"empty run set for label {label!r}")
        resampled = [resample_series(*_metric_series(run, metric), grid_points) for run in runs]
        row = np.add.reduce(resampled, axis=0) / len(resampled)  # np.mean's own arithmetic
        if np.isnan(row).any():
            raise ValueError(f"{metric} of label {label!r} holds NaN "
                             "(runs without a known optimum have no best_so_far)")
        rows.append(row)
    return TrajectoryMatrix(row_labels=labels, rows=np.vstack(rows))


# ---------------------------------------------------------------------------
# similarity and clustering
# ---------------------------------------------------------------------------

def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """cos(u, v); by convention 1 if both vectors are zero, 0 if exactly one is."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError("vectors must have equal length")
    return _cosine(u, v, float(np.linalg.norm(u)), float(np.linalg.norm(v)))


def _cosine(u: np.ndarray, v: np.ndarray, nu: float, nv: float) -> float:
    """cos(u, v) from the norms of u and v, clipped to [-1, 1]."""
    if nu == 0.0 or nv == 0.0:
        return float(nu == nv)
    return min(max(float(np.dot(u, v) / (nu * nv)), -1.0), 1.0)


def similarity_matrix(matrix: TrajectoryMatrix) -> np.ndarray:
    """Pairwise :func:`cosine_similarity` of the rows, each row's norm computed once."""
    rows = list(matrix.rows)
    norms = [math.sqrt(row.dot(row)) for row in rows]  # what np.linalg.norm computes for a float row
    sim = np.eye(len(rows))
    for i, j in itertools.combinations(range(len(rows)), 2):
        sim[i, j] = sim[j, i] = _cosine(rows[i], rows[j], norms[i], norms[j])
    return sim


@dataclass(frozen=True)
class MergeStep:
    left: tuple[str, ...]
    right: tuple[str, ...]
    height: float


@dataclass(eq=False)
class Dendrogram:
    leaf_labels: tuple[str, ...]
    merges: tuple[MergeStep, ...]

    def to_nested(self) -> dict:
        """Nested {label | children, height} tree, leaves at height 0."""
        nodes: dict[tuple[str, ...], dict] = {
            (label,): {"label": label, "height": 0.0} for label in self.leaf_labels
        }
        node = None
        for step in self.merges:
            node = {
                "height": step.height,
                "children": [nodes.pop(step.left), nodes.pop(step.right)],
            }
            nodes[tuple(sorted(step.left + step.right))] = node
        if node is None:  # single leaf, no merges
            node = nodes[(self.leaf_labels[0],)]
        return node

    def to_newick(self) -> str:
        """Newick string; branch length = parent height - child height."""

        def render(node: dict, parent_height: float) -> str:
            branch = parent_height - node["height"]
            if "label" in node:
                return f"{node['label']}:{branch:.12g}"
            inner = ",".join(render(child, node["height"]) for child in node["children"])
            return f"({inner}):{branch:.12g}"

        root = self.to_nested()
        if "label" in root:
            return f"{root['label']}:0;"
        inner = ",".join(render(child, root["height"]) for child in root["children"])
        return f"({inner});"

    def to_json(self) -> str:
        return json.dumps(self.to_nested(), indent=2, sort_keys=True)


def _allclose(x: np.ndarray, y, atol: float) -> bool:
    """``np.allclose(x, y, atol=atol)`` by its own formula (rtol 1e-5), without its wrappers."""
    with np.errstate(invalid="ignore"):
        return bool(((abs(x - y) <= atol + 1e-5 * abs(y)) & np.isfinite(y) | (x == y)).all())


def complete_linkage_cluster(similarity: np.ndarray, labels: Sequence[str]) -> Dendrogram:
    """Agglomerative clustering with complete linkage on distance 1 - similarity.

    At each step the two clusters with minimal complete-linkage distance
    (maximum pairwise leaf distance) are merged; ties are broken by
    lexicographic cluster label order, so the merge tree is deterministic.
    A merge of a and b links the new cluster to each other cluster c by
    Lance & Williams' update max(d(a, c), d(b, c)), which is exact, so no
    leaf pair is read twice.
    """
    similarity = np.asarray(similarity, dtype=float)
    k = similarity.shape[0]
    if similarity.shape != (k, k):
        raise ValueError("similarity matrix must be square")
    if not _allclose(similarity, similarity.T, atol=1e-12):
        raise ValueError("similarity matrix must be symmetric")
    if not _allclose(similarity.diagonal(), 1.0, atol=1e-9):
        raise ValueError("similarity matrix must have a unit diagonal")
    labels = tuple(str(l) for l in labels)
    if len(labels) != k or len(set(labels)) != k:
        raise ValueError("labels must be unique and match the matrix size")

    members = [(label,) for label in labels]  # cluster id -> its sorted labels; each merge adds an id
    # link[i][j]: the largest distance from a leaf of cluster i to a leaf of cluster j, read in that
    # order, since a matrix symmetric only within the tolerance links a < b by its distance[a, b]
    link = [row + [0.0] * (k - 1) for row in (1.0 - similarity).tolist()]
    link += [[0.0] * (2 * k - 1) for _ in range(k - 1)]
    live = list(range(k))
    # (distance, left, right, left id, right id) for each pair of live clusters, left < right
    table = [(link[i][j], members[i], members[j], i, j) if members[i] < members[j]
             else (link[j][i], members[j], members[i], j, i) for i, j in itertools.combinations(live, 2)]
    merges: list[MergeStep] = []
    while table:
        height, a, b, i, j = min(table)  # the least distance, ties broken by label order
        merges.append(MergeStep(left=a, right=b, height=height))
        live.remove(i)
        live.remove(j)
        m = len(members)
        members.append(tuple(sorted(a + b)))
        for c in live:
            link[m][c] = max(link[i][c], link[j][c])
            link[c][m] = max(link[c][i], link[c][j])
        table = [t for t in table if t[3] not in (i, j) and t[4] not in (i, j)]
        table += [(link[m][c], members[m], members[c], m, c) if members[m] < members[c]
                  else (link[c][m], members[c], members[m], c, m) for c in live]
        live.append(m)
    return Dendrogram(leaf_labels=labels, merges=tuple(merges))


def cut_dendrogram(dendrogram: Dendrogram, height: float) -> list[tuple[str, ...]]:
    """Flat clusters obtained by applying only the merges at or below ``height``."""
    clusters = {(label,) for label in dendrogram.leaf_labels}
    for step in dendrogram.merges:
        if step.height <= height:
            clusters.discard(step.left)
            clusters.discard(step.right)
            clusters.add(tuple(sorted(step.left + step.right)))
    return sorted(clusters)


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class RankingTable:
    methods: tuple[str, ...]
    functions: tuple[str, ...]
    ranks: np.ndarray  # (F, M), average ranks per function
    mean_rank: np.ndarray  # (M,), lower is better


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..m with ties given the mean of their ranks, by the formula of
    ``scipy.stats.rankdata(method="average")``; every value is an integer or
    a half, so the result is exact.  Any NaN makes every rank NaN."""
    if np.isnan(values).any():
        return np.full(values.size, np.nan)
    ordered = np.sort(values)  # a value's ties span [left, right) of the sorted values
    return 0.5 * (ordered.searchsorted(values, "left") + ordered.searchsorted(values, "right") + 1)


def _median(values: Sequence[float]) -> float:
    """``np.median`` by its own rule: the middle value, or the mean of the
    middle two; NaN if any value is NaN or there is none."""
    ordered = np.sort(values)  # NaN sorts last
    n = ordered.size
    if n == 0 or np.isnan(ordered[-1]):
        return np.nan
    return ordered[n // 2] if n % 2 else (ordered[n // 2 - 1] + ordered[n // 2]) / 2


def rank_methods(errors: Mapping[tuple[str, str], Sequence[float]]) -> RankingTable:
    """Rank methods per function by median final error, then average.

    ``errors`` maps (function, method) to the list of run errors for that
    cell, for every pair of a function and a method it names: a grid with a
    hole raises ``ValueError`` naming each missing pair, since mean ranks
    over different sets of functions are not comparable.  Ties receive the
    average of the tied ranks.
    """
    functions = tuple(sorted({f for f, _ in errors}))
    methods = tuple(sorted({m for _, m in errors}))
    if len(methods) < 2:
        raise ValueError("ranking needs at least two methods")
    missing = [pair for pair in itertools.product(functions, methods) if pair not in errors]
    if missing:
        raise ValueError(f"cannot rank a grid with a hole: no errors for {', '.join(map(repr, missing))}")
    ranks = np.zeros((len(functions), len(methods)))
    for i, function in enumerate(functions):
        ranks[i] = _average_ranks(np.array([_median(errors[(function, method)]) for method in methods]))
    return RankingTable(
        methods=methods,
        functions=functions,
        ranks=ranks,
        mean_rank=ranks.mean(axis=0),
    )
