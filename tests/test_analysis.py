import itertools
import json
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import rankdata

from debox.analysis import (
    METRICS,
    Dendrogram,
    TrajectoryMatrix,
    build_trajectory_matrix,
    complete_linkage_cluster,
    cosine_similarity,
    cut_dendrogram,
    rank_methods,
    resample_series,
    similarity_matrix,
)
from debox.core import RngStream


def run_columns(nfe, values, metric="violation_probability"):
    column = METRICS[metric]
    return {"feasible_evaluations": list(nfe), column: list(values)}


class TestResampling:
    def test_constant_series(self):
        row = resample_series([0, 10, 20, 35], [0.5, 0.5, 0.5, 0.5], 10)
        assert_allclose(row, np.full(10, 0.5))

    def test_linear_interpolation(self):
        row = resample_series([0, 1000], [0.0, 1.0], 3)
        assert_allclose(row, [0.0, 0.5, 1.0])

    def test_averaging_across_runs(self):
        runs = [run_columns([0, 100], [0.0, 0.0]), run_columns([0, 100], [1.0, 1.0])]
        (row,) = build_trajectory_matrix({"a": runs}, "violation_probability", grid_points=5).rows
        assert_allclose(row, np.full(5, 0.5))

    def test_empty_run_set(self):
        with pytest.raises(ValueError, match="empty run set"):
            build_trajectory_matrix({"a": []}, "violation_probability")

    def test_best_so_far_is_log_transformed(self):
        runs = [run_columns([0, 100], [1.0, 0.0], metric="best_so_far")]
        (row,) = build_trajectory_matrix({"a": runs}, "best_so_far", grid_points=2).rows
        assert row[0] == pytest.approx(np.log10(1.0 + 1e-12))
        assert row[1] == pytest.approx(-12.0)

    def test_grid_is_numpys_linspace_bit_for_bit(self):
        rng = np.random.default_rng(21)
        for trial in range(600):
            m = int(rng.integers(2, 20))
            span = (0.0, 5e-324, 1e-310, 1e-300, 1.0, 1e6)[trial % 6]
            # a zero span, and spans whose step is denormal or rounds to zero (linspace's own branch)
            x = (rng.uniform(0.0, 1e4) if span in (0.0, 1e6) else 0.0) + np.sort(rng.uniform(0.0, span, m))
            y = rng.standard_normal(m)
            grid_points = int(rng.integers(0, 260))
            expected = np.interp(np.linspace(x[0], x[-1], grid_points), x, y)
            assert resample_series(x, y, grid_points).tobytes() == expected.tobytes(), (x, grid_points)

    def test_unknown_metric(self):
        expected = f"unknown metric 'speed', expected one of {sorted(METRICS)}"
        with pytest.raises(ValueError, match=re.escape(expected)):
            build_trajectory_matrix({"a": [run_columns([0], [0.0])]}, "speed")


class TestCosineSimilarity:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_hand_value(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([1.0, 1.0])) == pytest.approx(
            0.7071067811865475
        )

    def test_zero_vector_conventions(self):
        zero = np.zeros(3)
        assert cosine_similarity(zero, zero) == 1.0
        assert cosine_similarity(zero, np.ones(3)) == 0.0

    def test_scale_invariance_and_symmetry(self):
        rng = RngStream(2)
        for _ in range(50):
            u = rng.uniform(-1, 1, 6)
            v = rng.uniform(-1, 1, 6)
            c = rng.uniform(0.1, 10.0)
            assert cosine_similarity(u, c * v) == pytest.approx(cosine_similarity(u, v), abs=1e-12)
            assert cosine_similarity(u, v) == pytest.approx(cosine_similarity(v, u), abs=1e-12)


def reference_linkage(similarity, labels):
    """Complete linkage by its definition: at every merge each pair's distance
    is the largest over its leaf pairs (distance[a leaf of a, a leaf of b] for
    a < b), and the least (distance, a, b) merges."""
    distance = 1.0 - np.asarray(similarity, dtype=float)
    index = {label: i for i, label in enumerate(labels)}
    clusters = sorted((label,) for label in labels)
    merges = []
    while len(clusters) > 1:
        height, a, b = min((max(distance[index[x], index[y]] for x in a for y in b), a, b)
                           for a, b in itertools.combinations(clusters, 2))
        clusters = sorted([c for c in clusters if c not in (a, b)] + [tuple(sorted(a + b))])
        merges.append((a, b, float(height)))
    return merges


def hand_similarity():
    # d(A,B)=0.1, d(A,C)=0.9, d(B,C)=0.8 expressed as similarities
    sim = np.array(
        [
            [1.0, 0.9, 0.1],
            [0.9, 1.0, 0.2],
            [0.1, 0.2, 1.0],
        ]
    )
    return sim, ("A", "B", "C")


class TestCompleteLinkage:
    def test_hand_oracle(self):
        sim, labels = hand_similarity()
        dendrogram = complete_linkage_cluster(sim, labels)
        assert dendrogram.merges[0].left == ("A",)
        assert dendrogram.merges[0].right == ("B",)
        assert dendrogram.merges[0].height == pytest.approx(0.1)
        assert dendrogram.merges[1].left == ("A", "B")
        assert dendrogram.merges[1].right == ("C",)
        assert dendrogram.merges[1].height == pytest.approx(0.9)

    def test_identical_rows_merge_at_zero(self):
        sim = np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.5, 1.0]])
        dendrogram = complete_linkage_cluster(sim, ("A", "B", "C"))
        assert dendrogram.merges[0].height == 0.0

    def test_equidistant_labels_merge_at_same_height(self):
        k = 5
        sim = np.full((k, k), 0.4)
        np.fill_diagonal(sim, 1.0)
        dendrogram = complete_linkage_cluster(sim, tuple("ABCDE"))
        assert_allclose([step.height for step in dendrogram.merges], [0.6] * (k - 1))

    def test_similarity_matrix_is_cosine_similarity_bit_for_bit(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            k = int(rng.integers(2, 13))
            rows = rng.standard_normal((k, int(rng.integers(1, 30)))) * 10.0 ** rng.integers(-5, 5, (k, 1))
            kinds = rng.integers(0, 4, k)
            rows[kinds == 0] = 0.0  # zero rows
            for i in np.flatnonzero(kinds == 1):  # rows parallel (or antiparallel) to the first
                rows[i] = rows[0] * rng.choice([-3.0, 0.5, 1.0, 7.0])
            sim = similarity_matrix(TrajectoryMatrix(tuple(map(str, range(k))), rows))
            expected = np.array([[1.0 if i == j else cosine_similarity(rows[i], rows[j]) for j in range(k)]
                                 for i in range(k)])
            assert sim.tobytes() == expected.tobytes()

    def test_heights_non_decreasing_on_random_matrices(self):
        rng = RngStream(4)
        for _ in range(20):
            rows = rng.uniform(0, 1, (6, 10))
            sim = np.eye(6)
            for i in range(6):
                for j in range(i + 1, 6):
                    sim[i, j] = sim[j, i] = cosine_similarity(rows[i], rows[j])
            heights = [step.height for step in complete_linkage_cluster(sim, tuple("ABCDEF")).merges]
            assert all(a <= b + 1e-12 for a, b in zip(heights, heights[1:]))

    def test_merges_equal_the_reference_linkage_exactly(self):
        rng = np.random.default_rng(17)
        for trial in range(400):
            k = int(rng.integers(1, 13))
            if trial % 3 == 0:  # few distinct values force ties at every height
                upper = rng.choice([-0.5, 0.2, 0.9], size=(k, k))
            else:
                upper = rng.uniform(-1.0, 1.0, (k, k))
            sim = np.triu(upper, 1)
            sim = sim + sim.T
            if trial % 4 == 1:  # symmetric only within the tolerance: distance[a, b] is read for a < b
                sim *= 1.0 + rng.uniform(-5e-6, 5e-6, (k, k))
            np.fill_diagonal(sim, 1.0)
            labels = [f"m{i:02d}" for i in rng.permutation(k)]
            merges = complete_linkage_cluster(sim, labels).merges
            assert [(m.left, m.right, m.height) for m in merges] == reference_linkage(sim, labels), sim
            assert all(type(m.height) is float for m in merges)

    def test_accepts_and_rejects_as_numpys_allclose(self):
        def accepted(sim):
            try:
                complete_linkage_cluster(sim, [f"m{i}" for i in range(len(sim))])
            except ValueError as exc:
                assert re.search("symmetric|unit diagonal", str(exc)), exc
                return False
            return True

        rng = np.random.default_rng(23)
        specials = [np.inf, -np.inf, np.nan, 1.0 + 2e-5, 1.0 - 5e-6, 0.3 + 1e-11]
        for trial in range(500):
            k = int(rng.integers(0, 5))
            sim = np.triu(rng.uniform(-1.0, 1.0, (k, k)), 1)
            sim = sim + sim.T
            np.fill_diagonal(sim, 1.0)
            for _ in range(int(rng.integers(0, 3)) if k else 0):
                i, j = rng.integers(0, k, 2)
                sim[i, j] = rng.choice(specials)
                if rng.random() < 0.5:
                    sim[j, i] = sim[i, j]
            with np.errstate(invalid="ignore"):  # allclose computes inf - inf
                expected = (np.allclose(sim, sim.T, atol=1e-12)
                            and np.allclose(np.diag(sim), 1.0, atol=1e-9))
            assert accepted(sim) == expected, sim
        assert accepted(np.zeros((0, 0)))
        assert accepted(np.array([[1.0, np.inf], [np.inf, 1.0]]))
        assert not accepted(np.array([[1.0, np.nan], [np.nan, 1.0]]))
        assert not accepted(np.array([[np.inf]]))

    def test_non_symmetric_rejected(self):
        sim = np.array([[1.0, 0.3], [0.2, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            complete_linkage_cluster(sim, ("A", "B"))

    def test_nested_and_newick_export(self):
        sim, labels = hand_similarity()
        dendrogram = complete_linkage_cluster(sim, labels)
        nested = dendrogram.to_nested()
        assert nested["height"] == pytest.approx(0.9)
        assert json.loads(dendrogram.to_json()) == nested
        newick = dendrogram.to_newick()
        assert newick.endswith(";")
        for label in labels:
            assert label in newick

    def test_cut_recovers_flat_clusters(self):
        sim, labels = hand_similarity()
        dendrogram = complete_linkage_cluster(sim, labels)
        assert cut_dendrogram(dendrogram, 0.5) == [("A", "B"), ("C",)]
        assert cut_dendrogram(dendrogram, 0.05) == [("A",), ("B",), ("C",)]
        assert cut_dendrogram(dendrogram, 1.0) == [("A", "B", "C")]


class TestThreeGroupRecovery:
    def synthetic_matrix(self):
        rng = RngStream(6)
        bases = [np.eye(9)[i] for i in (0, 3, 6)]  # mutually orthogonal templates
        labels, rows = [], []
        for g, base in enumerate(bases):
            for member in range(3):
                noise = rng.uniform(-0.005, 0.005, 9)
                rows.append(base + noise)
                labels.append(f"g{g}m{member}")
        sim = np.eye(9)
        for i in range(9):
            for j in range(i + 1, 9):
                sim[i, j] = sim[j, i] = cosine_similarity(rows[i], rows[j])
        return sim, tuple(labels)

    def test_three_flat_clusters_at_any_threshold(self):
        sim, labels = self.synthetic_matrix()
        dendrogram = complete_linkage_cluster(sim, labels)
        expected = [
            tuple(sorted(l for l in labels if l.startswith(f"g{g}"))) for g in range(3)
        ]
        for threshold in (0.02, 0.1, 0.3, 0.49):
            assert cut_dendrogram(dendrogram, threshold) == sorted(expected)


class TestRankMethods:
    def test_two_methods_one_function(self):
        table = rank_methods({("f1", "a"): [1e-9], ("f1", "b"): [1e-3]})
        assert_allclose(table.ranks, [[1.0, 2.0]])

    def test_ties_get_average_rank(self):
        table = rank_methods({("f1", "a"): [1.0, 2.0], ("f1", "b"): [2.0, 1.0]})
        assert_allclose(table.ranks, [[1.5, 1.5]])

    def test_mean_rank_hand_value(self):
        errors = {
            ("f1", "A"): [1.0], ("f1", "B"): [2.0],
            ("f2", "A"): [1.0], ("f2", "B"): [2.0],
            ("f3", "A"): [2.0], ("f3", "B"): [1.0],
        }
        table = rank_methods(errors)
        assert_allclose(table.mean_rank, [(1 + 1 + 2) / 3, (2 + 2 + 1) / 3])

    def test_invariant_under_monotone_transforms(self):
        errors = {
            ("f1", "a"): [0.1, 0.2], ("f1", "b"): [0.3, 0.5], ("f1", "c"): [0.05, 0.07],
        }
        transformed = {k: [np.log10(x) for x in v] for k, v in errors.items()}
        assert_allclose(rank_methods(errors).ranks, rank_methods(transformed).ranks)

    def test_ranks_equal_scipy_rankdata(self):
        def check(medians):
            medians = np.asarray(medians, dtype=float)
            errors = {(f"f{i}", f"m{j}"): [medians[i, j]]
                      for i in range(medians.shape[0]) for j in range(medians.shape[1])}
            table = rank_methods(errors)
            expected = np.vstack([rankdata(row, method="average") for row in medians])
            assert table.ranks.tobytes() == expected.tobytes(), medians
            assert table.mean_rank.tobytes() == expected.mean(axis=0).tobytes(), medians
            return table

        # ties; a NaN median makes its whole function row NaN; +-inf at the ends;
        # a different best method for each function
        assert_allclose(check([[1e-8, 0.5, 1e-8, 0.5]]).ranks, [[1.5, 3.5, 1.5, 3.5]])
        assert np.isnan(check([[1.0, np.nan], [2.0, 1.0]]).ranks[0]).all()
        assert_allclose(check([[np.inf, -np.inf, 0.0, np.inf]]).ranks, [[3.5, 1.0, 2.0, 3.5]])
        assert_allclose(check([[0, 1, 2], [2, 0, 1], [1, 2, 0]]).ranks, [[1, 2, 3], [3, 1, 2], [2, 3, 1]])
        # medians from a small set force ties
        values = np.array([0.0, 1e-8, 1e-8, 0.5, 3.0, np.inf, -np.inf, np.nan])
        rng = np.random.default_rng(3)
        for _ in range(300):
            shape = (rng.integers(1, 5), rng.integers(2, 8))
            check(rng.choice(values, size=shape, p=[.2, .2, .2, .1, .1, .08, .07, .05]))

    def test_medians_equal_numpys_median(self):
        values = np.array([0.0, 1e-8, 0.5, 1.75, 3.0, 5.0, 7.0, 1e300, np.inf, np.nan])  # 1.75, 5.0: mid-pair means
        rng = np.random.default_rng(5)
        for _ in range(400):
            functions, methods = int(rng.integers(1, 4)), int(rng.integers(2, 7))
            errors = {(f"f{i}", f"m{j}"): rng.choice(values, size=int(rng.integers(1, 7)),  # odd and even counts
                                                     p=[.15, .15, .1, .1, .1, .1, .1, .1, .05, .05]).tolist()
                      for i in range(functions) for j in range(methods)}
            table = rank_methods(errors)
            medians = np.array([[np.median(errors[(f, m)]) for m in table.methods] for f in table.functions])
            expected = np.vstack([rankdata(row, method="average") for row in medians])
            assert table.ranks.tobytes() == expected.tobytes(), errors

    def test_a_grid_with_a_hole_is_refused(self):
        errors = {("f1", "a"): [1.0], ("f1", "b"): [2.0], ("f2", "a"): [1.0], ("f3", "b"): [1.0]}
        with pytest.raises(ValueError, match=r"^cannot rank a grid with a hole: no errors for "
                                             r"\('f2', 'b'\), \('f3', 'a'\)$"):
            rank_methods(errors)

    def test_needs_two_methods(self):
        with pytest.raises(ValueError, match="two methods"):
            rank_methods({("f1", "a"): [1.0]})


class TestTrajectoryMatrix:
    def test_labels_sorted_and_rows_aligned(self):
        runs = {
            "mirror": [run_columns([0, 10], [0.2, 0.2]), run_columns([0, 20], [0.4, 0.4])],
            "sat": [run_columns([0, 50], [1.0, 0.0])],
        }
        matrix = build_trajectory_matrix(runs, "violation_probability", grid_points=4)
        assert matrix.row_labels == ("mirror", "sat")
        assert_allclose(matrix.rows[0], np.full(4, 0.3))
        assert_allclose(matrix.rows[1], [1.0, 2 / 3, 1 / 3, 0.0])

    def test_nan_best_so_far_names_metric_and_label(self):
        # a run of a problem without a known optimum records best_error as NaN
        runs = {
            "known": [run_columns([0, 10], [1.0, 0.1], "best_so_far")],
            "unknown": [run_columns([0, 10], [np.nan, np.nan], "best_so_far")],
        }
        with pytest.raises(ValueError, match=r"best_so_far of label 'unknown'.*without a known optimum"):
            build_trajectory_matrix(runs, "best_so_far", grid_points=4)

    @pytest.mark.parametrize("grid_points", [-3, 0, 1])
    def test_fewer_than_two_grid_points_rejected(self, grid_points):
        runs = {"a": [run_columns([0, 10], [0.1, 0.4])]}
        with pytest.raises(ValueError, match=f"^grid_points must be >= 2, got {grid_points}$"):
            build_trajectory_matrix(runs, "violation_probability", grid_points=grid_points)

    def test_similarity_matrix_unit_diagonal(self):
        runs = {
            "a": [run_columns([0, 10], [0.1, 0.4])],
            "b": [run_columns([0, 10], [0.3, 0.2])],
        }
        matrix = build_trajectory_matrix(runs, "violation_probability", grid_points=8)
        sim = similarity_matrix(matrix)
        assert_allclose(np.diag(sim), [1.0, 1.0])
        assert sim[0, 1] == sim[1, 0]
