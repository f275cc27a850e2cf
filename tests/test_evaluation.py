import itertools

import numpy as np
import pytest

from pcut.evaluation import _min_cost_columns, clustering_error, hungarian_match
from pcut.graph import Partition


def part(labels, K=None):
    labels = np.asarray(labels)
    return Partition(assignment=labels, K=K or int(labels.max()) + 1)


class TestHungarianMatch:
    def test_zero_diagonal_identity(self):
        cost = np.ones((3, 3)) - np.eye(3)
        cols, total = hungarian_match(cost)
        assert cols.tolist() == [0, 1, 2]
        assert total == 0.0

    def test_antidiagonal(self):
        cols, total = hungarian_match(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert cols.tolist() == [1, 0]
        assert total == 0.0

    def test_matches_bruteforce_on_random_instances(self):
        # the lexicographically first optimum, square and rectangular: small
        # integer costs tie often, and permutations() runs in lexicographic
        # order, so argmin over its totals is the first optimum
        rng = np.random.default_rng(19)
        perms = {size: np.array(list(itertools.permutations(range(size))))
                 for size in range(1, 8)}
        for _ in range(2000):
            rows, cols = (int(x) for x in rng.integers(1, 8, size=2))
            if rng.random() < 0.5:
                cols = rows
            size = max(rows, cols)
            high = int(rng.choice((2, 4, 10)))
            cost = rng.integers(0, high, size=(rows, cols)).astype(float)
            padded = np.zeros((size, size))
            padded[:rows, :cols] = cost
            totals = padded[np.arange(size), perms[size]].sum(axis=1)
            best = int(np.argmin(totals))
            found, total = hungarian_match(cost)
            assert found.tolist() == perms[size][best, :rows].tolist()
            assert total == totals[best]

    def test_lexicographically_smallest_among_ties(self):
        # all-equal costs: every permutation is optimal
        cols, _ = hungarian_match(np.ones((4, 4)))
        assert cols.tolist() == [0, 1, 2, 3]

    def test_rectangular_padding(self):
        cost = np.array([[5.0, 1.0, 9.0]])
        cols, total = hungarian_match(cost)
        assert cols.tolist() == [1]
        assert total == 1.0

    def test_private_solver_matches_scipy(self):
        linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
        rng = np.random.default_rng(24)
        for _ in range(300):
            size = int(rng.integers(1, 41))
            cost = rng.normal(size=(size, size)) * 10.0 ** rng.uniform(-3, 3)
            cols = _min_cost_columns(cost)
            assert sorted(cols.tolist()) == list(range(size))
            r, c = linear_sum_assignment(cost)
            expected = cost[r, c].sum()
            assert cost[np.arange(size), cols].sum() == pytest.approx(
                expected, rel=1e-12, abs=0.0)

    def test_all_equal_negative_and_single_entry_costs(self):
        cols, total = hungarian_match(np.full((3, 5), -2.5))
        assert cols.tolist() == [0, 1, 2]
        assert total == -7.5
        cost = -np.array([[1.0, 5.0, 2.0], [4.0, 1.0, 3.0], [2.0, 6.0, 1.0]])
        cols, total = hungarian_match(cost)
        assert cols.tolist() == [2, 0, 1] and total == -12.0
        for value in (-3.0, 0.0, 7.0):
            cols, total = hungarian_match(np.array([[value]]))
            assert cols.tolist() == [0] and total == value


class TestClusteringError:
    def test_identical_partitions(self):
        p = part([0, 1, 1, 2, 0])
        assert clustering_error(p, p).error_rate == 0.0

    def test_relabeled_partitions(self):
        found = part([2, 0, 0, 1, 2])
        truth = part([0, 1, 1, 2, 0])
        assert clustering_error(found, truth).error_rate == 0.0

    def test_one_node_off_out_of_34(self):
        truth = part([0] * 16 + [1] * 18)
        found_labels = [0] * 16 + [1] * 18
        found_labels[2] = 1  # one boundary member swaps sides
        report = clustering_error(part(found_labels), truth)
        assert report.error_rate == pytest.approx(1 / 34)

    def test_symmetric_when_same_k(self):
        rng = np.random.default_rng(20)
        a = part(rng.integers(0, 3, 30), K=3)
        b = part(rng.integers(0, 3, 30), K=3)
        assert clustering_error(a, b).error_rate == pytest.approx(
            clustering_error(b, a).error_rate)

    def test_relabel_invariance_of_either_argument(self):
        rng = np.random.default_rng(21)
        found = part(rng.integers(0, 4, 50), K=4)
        truth = part(rng.integers(0, 3, 50), K=3)
        base = clustering_error(found, truth).error_rate
        remap = np.array([2, 0, 3, 1])
        relabeled = part(remap[found.assignment], K=4)
        assert clustering_error(relabeled, truth).error_rate == pytest.approx(base)

    def test_unmatched_clusters_count_as_errors(self):
        found = part([0, 0, 1, 1, 2, 2], K=3)
        truth = part([0, 0, 0, 1, 1, 1], K=2)
        report = clustering_error(found, truth)
        # best matching keeps two pairs; one found cluster matches nothing
        assert report.error_rate == pytest.approx(2 / 6)

    def test_agrees_with_bruteforce_matching(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            n = int(rng.integers(6, 25))
            kf = int(rng.integers(2, 7))
            kt = int(rng.integers(2, 7))
            found = part(np.concatenate([np.arange(kf), rng.integers(0, kf, n - kf)]), K=kf)
            truth = part(np.concatenate([np.arange(kt), rng.integers(0, kt, n - kt)]), K=kt)
            size = max(kf, kt)
            conf = np.zeros((size, size), dtype=int)
            np.add.at(conf, (found.assignment, truth.assignment), 1)
            best_correct = max(
                sum(conf[i, perm[i]] for i in range(size))
                for perm in itertools.permutations(range(size)))
            expected = 1.0 - best_correct / n
            assert clustering_error(found, truth).error_rate == pytest.approx(expected)
