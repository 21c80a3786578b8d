import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import latent_align as la
from latent_align import grouping
from latent_align.factorization import normalize_rows
from latent_align.grouping import GroupAssignment, _lloyd, anchor_groups, kmeans

from oracles import lloyd_per_coordinate, random_assignment_wcss


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

    @pytest.mark.parametrize("n_clusters", [2, 3, 5])
    def test_one_distinct_row_too_few_is_caught_while_seeding(self, n_clusters):
        # G - 1 distinct rows, each repeated many times: the seeding draws them
        # all, then finds no squared-distance mass left, and raises before its
        # division (a RuntimeWarning is an error under the test settings)
        rng = np.random.default_rng(n_clusters)
        distinct = _codes(rng.uniform(0.1, 1.0, size=(n_clusters - 1, 4)))
        codes = distinct[rng.permutation(np.repeat(np.arange(n_clusters - 1), 40))]
        with pytest.raises(ValueError, match=f"fewer than {n_clusters} distinct rows"):
            kmeans(codes, n_clusters, seed=3)


class TestLloydStep:
    """_lloyd scores distances by GEMM and rescores the rows it cannot
    separate; its labels, centers and wcss are those of the loop that scores
    every distance coordinate by coordinate."""

    @staticmethod
    def _assert_matches_oracle(V, centers):
        labels, got, wcss = _lloyd(V, centers.copy())
        ref_labels, ref, ref_wcss = lloyd_per_coordinate(V, centers.copy(), grouping.MAX_LLOYD_ITERS)
        assert np.array_equal(labels, ref_labels)
        assert np.array_equal(got, ref) and wcss == ref_wcss
        return labels

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(2, 60),
        k=st.integers(1, 6),
        n_clusters=st.integers(2, 5),
        decimals=st.sampled_from([None, 1, 2]),
    )
    def test_labels_of_the_per_coordinate_formula(self, data, n, k, n_clusters, decimals):
        # codes rounded to a few decimals put many points at equal or
        # near-equal distances from two centers
        V = data.draw(arrays(np.float64, (n, k), elements=st.floats(0.1, 1.0)))
        if decimals is not None:
            V = np.round(V, decimals)
        V /= V.sum(axis=1, keepdims=True)
        # kmeans starts from distinct points, as many as there are clusters
        distinct = np.unique(V, axis=0)
        assume(distinct.shape[0] >= n_clusters)
        start = data.draw(
            st.lists(st.integers(0, distinct.shape[0] - 1), min_size=n_clusters, max_size=n_clusters, unique=True)
        )
        self._assert_matches_oracle(V, distinct[start])

    def test_exact_tie_goes_to_the_lower_center(self, monkeypatch):
        # v lies at the same per-coordinate distance 0.4718 from a and b,
        # while the GEMM form puts it nearer b; one step from centers a and b
        # must put it with a, the lower id
        monkeypatch.setattr(grouping, "MAX_LLOYD_ITERS", 1)
        a, b = [0.0, 0.45, 0.55], [0.05, 0.55, 0.3999999999999999]
        v = [0.55, 0.08, 0.37]
        V, centers = np.array([a, b, v]), np.array([a, b])
        d = np.sum((V[2] - centers) ** 2, axis=1)
        g = V[2] @ V[2] - 2.0 * centers @ V[2] + np.einsum("ck,ck->c", centers, centers)
        assert d[0] == d[1] and g[1] < g[0]
        assert self._assert_matches_oracle(V, centers).tolist() == [0, 1, 0]

    def test_empty_cluster_takes_the_farthest_point(self):
        # no point is nearest the third center, so it steals the first of
        # the two points farthest from their own centers
        V = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]])
        centers = np.array([[1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        assert self._assert_matches_oracle(V, centers).tolist() == [0, 2, 1, 1]


# one row per cluster; anchor_groups reads the cluster count from it
CENTROIDS = np.arange(6.0).reshape(3, 2)


class TestAnchorGroups:
    def test_argmax_argmin(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        y = np.array([0.2, 0.2, 0.9, 0.9, 0.5, 0.5])
        g = anchor_groups(labels, y, CENTROIDS)
        assert g.reference == 1 and g.target == 0
        assert set(g.i_reference.tolist()) == {2, 3}
        assert set(g.i_target.tolist()) == {0, 1}

    def test_tie_broken_to_lower_id(self):
        labels = np.array([0, 1, 2])
        y = np.array([0.9, 0.9, 0.1])
        g = anchor_groups(labels, y, CENTROIDS)
        assert g.reference == 0 and g.target == 2

    def test_cluster_count_is_the_centroid_count(self):
        labels = np.array([0, 1, 2])
        y = np.array([0.9, 0.5, 0.1])
        g = anchor_groups(labels, y, CENTROIDS)
        assert np.array_equal(g.centroids, CENTROIDS) and g.cluster_means.shape == (3,)
        with pytest.raises(ValueError, match="out of range"):
            anchor_groups(labels, y, CENTROIDS[:2])

    def test_empty_cluster_rejected(self):
        labels = np.array([0, 0, 2, 2])
        y = np.array([0.1, 0.2, 0.8, 0.9])
        with pytest.raises(ValueError, match="empty"):
            anchor_groups(labels, y, CENTROIDS)

    def test_all_equal_means_is_error(self):
        labels = np.array([0, 1, 2])
        y = np.array([0.5, 0.5, 0.5])
        with pytest.raises(ValueError, match="coincide"):
            anchor_groups(labels, y, CENTROIDS)

    def test_outcome_scaling_invariance(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 3, size=60)
        y = rng.uniform(0.0, 5.0, size=60)
        g1 = anchor_groups(labels, y, CENTROIDS)
        g2 = anchor_groups(labels, 7.5 * y, CENTROIDS)
        assert g1.reference == g2.reference and g1.target == g2.target

    def test_relabeling_permutation_keeps_index_sets(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 3, size=50)
        y = rng.uniform(size=50)
        g1 = anchor_groups(labels, y, CENTROIDS)
        perm = np.array([2, 0, 1])
        g2 = anchor_groups(perm[labels], y, CENTROIDS)
        assert set(g1.i_reference.tolist()) == set(g2.i_reference.tolist())
        assert set(g1.i_target.tolist()) == set(g2.i_target.tolist())


def test_group_assignment_round_trip(fixture_arts):
    g = fixture_arts.groups
    loaded = GroupAssignment.from_dict(json.loads(json.dumps(g.to_dict(), sort_keys=True)))
    assert np.array_equal(loaded.labels, g.labels)
    assert loaded.reference == g.reference and loaded.target == g.target
    np.testing.assert_allclose(loaded.cluster_means, g.cluster_means)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.update(target=7), "target 7 out of range"),
        (lambda doc: doc.update(labels=[9] * len(doc["labels"])), "labels out of range"),
        (lambda doc: doc.update(cluster_means=doc["cluster_means"][:-1]), "cluster_means has shape"),
    ],
    ids=["target_beyond_the_centroids", "every_label_beyond_the_centroids", "one_mean_short"],
)
def test_group_assignment_load_checks_every_index(fixture_arts, edit, message):
    # before, each loaded with an empty target group, or both groups empty
    doc = json.loads(json.dumps(fixture_arts.groups.to_dict()))
    edit(doc)
    with pytest.raises(ValueError, match=message):
        GroupAssignment.from_dict(doc)
