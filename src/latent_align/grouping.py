"""Outcome-anchored grouping of normalized latent codes.

Clusters are found by seeded k-means (k-means++ init, best of several
restarts) and then anchored to the survey outcome: the cluster with the
highest mean outcome becomes the reference group, the lowest the target
group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .records import JSONRecord

MAX_LLOYD_ITERS = 300


@dataclass
class GroupAssignment(JSONRecord):
    labels: np.ndarray
    centroids: np.ndarray
    reference: int
    target: int
    cluster_means: np.ndarray

    def __post_init__(self):
        self.labels.setflags(write=False)
        self.centroids.setflags(write=False)
        self.cluster_means.setflags(write=False)
        if self.reference == self.target:
            raise ValueError(
                "reference and target clusters coincide; outcome does not separate the clusters"
            )

    @property
    def i_reference(self) -> np.ndarray:
        return np.flatnonzero(self.labels == self.reference)

    @property
    def i_target(self) -> np.ndarray:
        return np.flatnonzero(self.labels == self.target)


def _plus_plus_init(V: np.ndarray, n_clusters: int, rng: np.random.Generator) -> np.ndarray:
    n = V.shape[0]
    centers = np.empty((n_clusters, V.shape[1]))
    first = int(rng.integers(n))
    centers[0] = V[first]
    d2 = np.sum((V - centers[0]) ** 2, axis=1)
    for c in range(1, n_clusters):
        total = d2.sum()
        probs = d2 / total
        idx = int(rng.choice(n, p=probs))
        centers[c] = V[idx]
        d2 = np.minimum(d2, np.sum((V - centers[c]) ** 2, axis=1))
    return centers


def _lloyd(V: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    n, n_clusters = V.shape[0], centers.shape[0]
    labels = np.full(n, -1, dtype=int)
    for _ in range(MAX_LLOYD_ITERS):
        dists = np.sum((V[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(dists, axis=1)

        # Repair empty clusters by stealing the point currently farthest
        # from its own centroid, lowest empty cluster id first.
        point_d2 = dists[np.arange(n), new_labels]
        for c in range(n_clusters):
            if not np.any(new_labels == c):
                j = int(np.argmax(point_d2))
                new_labels[j] = c
                point_d2[j] = -np.inf

        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(n_clusters):
            centers[c] = V[labels == c].mean(axis=0)
    wcss = float(np.sum((V - centers[labels]) ** 2))
    return labels, centers, wcss


def kmeans(
    codes: np.ndarray,
    n_clusters: int,
    seed: int,
    restarts: int = 10,
) -> tuple[np.ndarray, np.ndarray]:
    """Best-of-restarts Lloyd's algorithm with k-means++ seeding.

    Deterministic for a fixed seed: each restart draws from its own spawned
    generator and the winner is the restart with the lowest within-cluster
    sum of squares, ties broken by restart index.
    """
    n = codes.shape[0]
    if n_clusters < 2:
        raise ValueError(f"need at least 2 clusters, got {n_clusters}")
    if n_clusters > n:
        raise ValueError(f"cannot form {n_clusters} clusters from {n} points")
    if np.unique(codes, axis=0).shape[0] < n_clusters:
        raise ValueError(f"fewer than {n_clusters} distinct rows")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")

    seeds = np.random.SeedSequence(seed).spawn(restarts)
    best = None
    for r in range(restarts):
        rng = np.random.default_rng(seeds[r])
        centers = _plus_plus_init(codes, n_clusters, rng)
        labels, centers, wcss = _lloyd(codes, centers)
        if best is None or wcss < best[0]:
            best = (wcss, labels, centers)
    return best[1], best[2]


def anchor_groups(labels: np.ndarray, y: np.ndarray, centroids: np.ndarray) -> GroupAssignment:
    """Pick reference and target clusters by mean outcome.

    centroids holds one row per cluster, so the cluster count is its length;
    every label must name one of its rows and every cluster must have a
    member. Reference is the argmax of the cluster-wise outcome mean, target
    the argmin; ties break toward the lower cluster id. Raises if the two
    coincide (all cluster means equal).
    """
    labels = np.asarray(labels, dtype=int)
    y = np.asarray(y, dtype=float)
    centroids = np.asarray(centroids, dtype=float)
    if labels.shape != y.shape:
        raise ValueError(f"labels {labels.shape} and y {y.shape} must align")
    n_clusters = centroids.shape[0]
    if labels.min() < 0 or labels.max() >= n_clusters:
        raise ValueError("labels out of range")
    means = np.empty(n_clusters)
    for c in range(n_clusters):
        members = labels == c
        if not np.any(members):
            raise ValueError(f"cluster {c} is empty")
        means[c] = y[members].mean()
    reference = int(np.argmax(means))
    target = int(np.argmin(means))
    return GroupAssignment(
        labels=labels.copy(),
        centroids=centroids.copy(),
        reference=reference,
        target=target,
        cluster_means=means,
    )
