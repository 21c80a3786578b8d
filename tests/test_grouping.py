import json

import numpy as np
import pytest

import latent_align as la
from latent_align.factorization import normalize_rows
from latent_align.grouping import GroupAssignment, anchor_groups, kmeans

from oracles import random_assignment_wcss


def _codes(rows):
    return normalize_rows(np.asarray(rows, dtype=float))


class TestKMeans:
    def test_separated_clouds(self):
        rng = np.random.default_rng(0)
        a = np.abs(rng.normal([5.0, 0.1, 0.1], 0.05, size=(20, 3)))
        b = np.abs(rng.normal([0.1, 5.0, 0.1], 0.05, size=(20, 3)))
        codes = _codes(np.vstack([a, b]))
        labels, centroids = kmeans(codes, 2, seed=1)
        assert len(set(labels[:20])) == 1 and len(set(labels[20:])) == 1
        assert labels[0] != labels[20]

    def test_n_equals_g(self):
        codes = _codes(np.eye(4) + 0.01)
        labels, centroids = kmeans(codes, 4, seed=0)
        assert sorted(labels.tolist()) == [0, 1, 2, 3]
        wcss = np.sum((codes - centroids[labels]) ** 2)
        assert wcss < 1e-20

    def test_beats_random_assignment_oracle(self):
        rng = np.random.default_rng(5)
        codes = _codes(rng.uniform(0.1, 2.0, size=(30, 2)))
        labels, centroids = kmeans(codes, 3, seed=2, restarts=10)
        ours = float(np.sum((codes - centroids[labels]) ** 2))
        oracle = random_assignment_wcss(codes, 3, trials=10_000, seed=123)
        assert ours <= oracle + 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        codes = _codes(rng.uniform(0.1, 2.0, size=(40, 3)))
        l1, c1 = kmeans(codes, 3, seed=11)
        l2, c2 = kmeans(codes, 3, seed=11)
        assert np.array_equal(l1, l2) and np.array_equal(c1, c2)

    def test_invalid_requests(self):
        codes = _codes(np.ones((5, 2)))
        with pytest.raises(ValueError, match="distinct"):
            kmeans(codes, 2, seed=0)
        codes2 = _codes(np.eye(3) + 0.1)
        with pytest.raises(ValueError, match="clusters"):
            kmeans(codes2, 4, seed=0)


class TestAnchorGroups:
    def test_argmax_argmin(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        y = np.array([0.2, 0.2, 0.9, 0.9, 0.5, 0.5])
        g = anchor_groups(labels, y, 3)
        assert g.reference == 1 and g.target == 0
        assert set(g.i_reference.tolist()) == {2, 3}
        assert set(g.i_target.tolist()) == {0, 1}

    def test_tie_broken_to_lower_id(self):
        labels = np.array([0, 1, 2])
        y = np.array([0.9, 0.9, 0.1])
        g = anchor_groups(labels, y, 3)
        assert g.reference == 0 and g.target == 2

    def test_empty_cluster_rejected(self):
        labels = np.array([0, 0, 2, 2])
        y = np.array([0.1, 0.2, 0.8, 0.9])
        with pytest.raises(ValueError, match="empty"):
            anchor_groups(labels, y, 3)

    def test_all_equal_means_is_error(self):
        labels = np.array([0, 1, 2])
        y = np.array([0.5, 0.5, 0.5])
        with pytest.raises(ValueError, match="coincide"):
            anchor_groups(labels, y, 3)

    def test_outcome_scaling_invariance(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 3, size=60)
        y = rng.uniform(0.0, 5.0, size=60)
        g1 = anchor_groups(labels, y, 3)
        g2 = anchor_groups(labels, 7.5 * y, 3)
        assert g1.reference == g2.reference and g1.target == g2.target

    def test_relabeling_permutation_keeps_index_sets(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 3, size=50)
        y = rng.uniform(size=50)
        g1 = anchor_groups(labels, y, 3)
        perm = np.array([2, 0, 1])
        g2 = anchor_groups(perm[labels], y, 3)
        assert set(g1.i_reference.tolist()) == set(g2.i_reference.tolist())
        assert set(g1.i_target.tolist()) == set(g2.i_target.tolist())


def test_group_assignment_round_trip(fixture_arts):
    g = fixture_arts.groups
    loaded = GroupAssignment.from_dict(json.loads(json.dumps(g.to_dict(), sort_keys=True)))
    assert np.array_equal(loaded.labels, g.labels)
    assert loaded.reference == g.reference and loaded.target == g.target
    np.testing.assert_allclose(loaded.cluster_means, g.cluster_means)
