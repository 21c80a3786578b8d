"""Outcome-anchored grouping of normalized latent codes.

Clusters are found by seeded k-means (k-means++ init, best of several
restarts) and then anchored to the survey outcome: the cluster with the
highest mean outcome becomes the reference group, the lowest the target
group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .records import JSONRecord, check_types

MAX_LLOYD_ITERS = 300


@dataclass(frozen=True, eq=False)
class GroupAssignment(JSONRecord):
    """Cluster labels and centroids, with the reference and target clusters.
    Every label, reference and target index a row of centroids, and
    cluster_means holds one outcome mean per centroid."""

    labels: np.ndarray
    centroids: np.ndarray
    reference: int
    target: int
    cluster_means: np.ndarray

    def __post_init__(self):
        check_types(self, ValueError)
        n = len(self.centroids)
        if not np.issubdtype(self.labels.dtype, np.integer) or np.any((self.labels < 0) | (self.labels >= n)):
            raise ValueError(f"labels out of range: each must be an integer row index of the {n} centroids")
        if not (0 <= self.reference < n and 0 <= self.target < n):
            raise ValueError(f"reference {self.reference} or target {self.target} out of range for {n} centroids")
        if self.cluster_means.shape != (n,):
            raise ValueError(f"cluster_means has shape {self.cluster_means.shape}, expected ({n},)")
        for a in (self.labels, self.centroids, self.cluster_means):
            a.setflags(write=False)
        if self.reference == self.target:
            raise ValueError("reference and target clusters coincide; outcome does not separate the clusters")

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
        if not total > 0:  # every row coincides with a center drawn so far
            raise ValueError(f"fewer than {n_clusters} distinct rows")
        probs = d2 / total
        idx = int(rng.choice(n, p=probs))
        centers[c] = V[idx]
        d2 = np.minimum(d2, np.sum((V - centers[c]) ** 2, axis=1))
    return centers


def _sq_dists(V: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances from each row of V to each center, summed over
    coordinate differences: the values the labels are defined by."""
    return np.sum((V[:, None, :] - centers[None, :, :]) ** 2, axis=2)


def _lloyd(V: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Lloyd iterations from the given centers; each step labels every row
    with the argmin of `_sq_dists`, lowest center id on a tie.

    A step scores the distances by one GEMM, |v|^2 - 2 v.c + |c|^2, in place
    of the n x G x k temporary of `_sq_dists`. The two forms differ by less
    than (k + 2) eps S each, S = (|v| + |c|)^2 (sums of k products in any
    order, two additions), so a row whose two nearest centers lie further
    apart than twice that in the GEMM form has the same argmin in both; only
    the other rows, and every row when a cluster needs the empty-cluster
    repair, are scored again by `_sq_dists`. Labels and centers are those of
    scoring every step by `_sq_dists` alone.
    """
    n, k = V.shape
    n_clusters = centers.shape[0]
    Vt = np.ascontiguousarray(V.T)
    v2 = np.einsum("ik,ik->i", V, V)
    v_max = np.sqrt(v2.max())
    slack = 2.0 * (k + 3) * np.finfo(float).eps  # one spare term over the bound
    labels = np.full(n, -1, dtype=int)
    for _ in range(MAX_LLOYD_ITERS):
        c2 = np.einsum("ck,ck->c", centers, centers)
        d = centers @ Vt  # one row per center
        d *= -2.0
        d += v2
        d += c2[:, None]
        # nearest and second-nearest center per point, a center at a time
        new_labels = np.zeros(n, dtype=int)
        best, second = d[0].copy(), np.full(n, np.inf)
        for c in range(1, n_clusters):
            closer = d[c] < best
            np.minimum(second, np.where(closer, best, d[c]), out=second)
            new_labels[closer] = c
            np.minimum(best, d[c], out=best)
        second -= best
        near = np.flatnonzero(second <= slack * (v_max + np.sqrt(c2.max())) ** 2)
        if near.size:
            new_labels[near] = np.argmin(_sq_dists(V[near], centers), axis=1)

        # Repair empty clusters by stealing the point currently farthest
        # from its own centroid, lowest empty cluster id first.
        if np.bincount(new_labels, minlength=n_clusters).min() == 0:
            point_d2 = _sq_dists(V, centers)[np.arange(n), new_labels]
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
    sum of squares, ties broken by restart index. Each Lloyd step scores the
    point-center distances by one GEMM and rescores coordinate by coordinate
    only the points whose two nearest centers the GEMM's rounding could swap
    (`_lloyd`), so labels and centroids are those of per-coordinate scoring.
    Codes with fewer than n_clusters distinct rows raise ValueError in the
    first k-means++ seeding, once every row coincides with a drawn center.
    """
    n = codes.shape[0]
    if n_clusters < 2:
        raise ValueError(f"need at least 2 clusters, got {n_clusters}")
    if n_clusters > n:
        raise ValueError(f"cannot form {n_clusters} clusters from {n} points")
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
