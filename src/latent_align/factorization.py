"""Fixed-basis nonnegative factorization and nonnegative least-squares projection.

The basis is learned once with multiplicative updates, row-normalized to unit
l1 norm, and then frozen (the returned arrays are read-only) so that observed
and post-intervention respondents live in the same latent coordinates. New
feature vectors are projected onto the frozen basis with an active-set NNLS
solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MU_EPS = 1e-12  # multiplicative-update denominator guard
ZERO_ROW_TOL = 1e-12
H_ROW_SUM_TOL = 1e-9


@dataclass
class LatentModel:
    """Frozen nonnegative basis with training coefficients.

    Attributes
    ----------
    W : (n, k) nonnegative coefficients, one row per respondent.
    H : (k, d) nonnegative basis, each row summing to 1.
    fit_loss : final squared Frobenius residual ||X - WH||_F^2.
    loss_history : per-iteration loss values (index 0 is the initial loss).
    """

    W: np.ndarray
    H: np.ndarray
    k: int
    fit_loss: float
    seed: int
    iters_run: int
    loss_history: tuple[float, ...] = field(default=(), repr=False)

    def __post_init__(self):
        _check_latent_invariants(self.W, self.H, self.k)
        self.W.setflags(write=False)
        self.H.setflags(write=False)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "H": self.H.tolist(),
            "W": self.W.tolist(),
            "fit_loss": float(self.fit_loss),
            "seed": self.seed,
            "iters_run": self.iters_run,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LatentModel":
        return cls(
            W=np.array(d["W"], dtype=float),
            H=np.array(d["H"], dtype=float),
            k=int(d["k"]),
            fit_loss=float(d["fit_loss"]),
            seed=int(d["seed"]),
            iters_run=int(d["iters_run"]),
        )


@dataclass
class NormalizedCodes:
    """Row-l1-normalized latent codes. Rows whose l1 norm fell below
    ZERO_ROW_TOL are replaced by the uniform vector 1/k and flagged."""

    codes: np.ndarray
    zero_mask: np.ndarray

    def __post_init__(self):
        self.codes.setflags(write=False)
        self.zero_mask.setflags(write=False)


def _check_latent_invariants(W: np.ndarray, H: np.ndarray, k: int) -> None:
    if W.ndim != 2 or H.ndim != 2:
        raise ValueError("W and H must be matrices")
    n, kw = W.shape
    kh, d = H.shape
    if kw != k or kh != k:
        raise ValueError(f"rank mismatch: k={k}, W has {kw} factors, H has {kh}")
    if np.any(W < 0) or np.any(H < 0):
        raise ValueError("W and H must be nonnegative")
    row_sums = H.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > H_ROW_SUM_TOL):
        worst = float(np.max(np.abs(row_sums - 1.0)))
        raise ValueError(f"H rows must sum to 1 (max deviation {worst:.3e})")


def fit_nmf(X: np.ndarray, k: int, seed: int, max_iters: int = 500, tol: float = 1e-9) -> LatentModel:
    """Factorize X ~ WH with Frobenius multiplicative updates.

    Initialization is seeded uniform in (0.01, 1.01). Iterations stop when the
    relative loss decrease drops below tol or max_iters is reached. Afterwards
    each row of H is rescaled to unit l1 norm with the inverse scale absorbed
    into W, leaving the product unchanged up to rounding.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a matrix")
    if np.any(X < 0) or not np.all(np.isfinite(X)):
        raise ValueError("X must be nonnegative and finite")
    n, d = X.shape
    if not 1 <= k <= min(n, d):
        raise ValueError(f"need 1 <= k <= min(n, d) = {min(n, d)}, got k={k}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if not np.any(X > 0):
        raise ValueError("X is all zeros; nothing to factorize")

    rng = np.random.default_rng(seed)
    W = rng.uniform(0.01, 1.01, size=(n, k))
    H = rng.uniform(0.01, 1.01, size=(k, d))

    def loss():
        diff = X - W @ H
        return float(np.einsum("ij,ij->", diff, diff))

    history = [loss()]
    iters = 0
    for _ in range(max_iters):
        W *= (X @ H.T) / (W @ (H @ H.T) + MU_EPS)
        H *= (W.T @ X) / ((W.T @ W) @ H + MU_EPS)
        iters += 1
        history.append(loss())
        prev, cur = history[-2], history[-1]
        if prev > 0 and (prev - cur) / prev < tol:
            break

    scale = H.sum(axis=1)
    dead = scale < 1e-15
    scale_safe = np.where(dead, 1.0, scale)
    H = H / scale_safe[:, None]
    W = W * scale_safe[None, :]
    if np.any(dead):
        # A factor that died during the updates carries no mass; park its
        # basis row at uniform so the row-sum invariant holds.
        H[dead, :] = 1.0 / d
        W[:, dead] = 0.0

    return LatentModel(
        W=W,
        H=H,
        k=k,
        fit_loss=loss(),
        seed=seed,
        iters_run=iters,
        loss_history=tuple(history),
    )


def nnls_project(x: np.ndarray, H: np.ndarray, max_outer: int | None = None) -> np.ndarray:
    """Solve argmin_{w >= 0} ||x - wH||_2^2 by the Lawson-Hanson active-set method.

    Deterministic: the entering factor is always the one with the largest
    dual value, ties broken by lower index. The returned solution satisfies
    the KKT conditions to high precision for the small ranks used here.
    """
    H = np.asarray(H, dtype=float)
    x = np.asarray(x, dtype=float)
    k, d = H.shape
    if x.shape != (d,):
        raise ValueError(f"x has shape {x.shape}, basis expects ({d},)")
    if max_outer is None:
        max_outer = 10 * k + 10

    A = H.T  # (d, k); solve min ||A w - x||, w >= 0
    w = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    dual = A.T @ x  # gradient of -0.5 residual^2 at w = 0
    tol = 1e-10 * max(1.0, float(np.max(np.abs(dual)))) if k else 0.0

    for _ in range(max_outer):
        candidates = ~passive
        if not np.any(candidates) or np.max(dual[candidates]) <= tol:
            break
        masked = np.where(candidates, dual, -np.inf)
        passive[int(np.argmax(masked))] = True

        while True:
            idx = np.flatnonzero(passive)
            z = np.linalg.lstsq(A[:, idx], x, rcond=None)[0]
            if np.all(z > 0):
                w = np.zeros(k)
                w[idx] = z
                break
            bad = z <= 0
            alpha = np.min(w[idx][bad] / (w[idx][bad] - z[bad]))
            w[idx] += alpha * (z - w[idx])
            drop = np.abs(w[idx]) < 1e-14  # entries driven to the boundary
            drop |= w[idx] <= 0
            passive[idx[drop]] = False
            w[idx[drop]] = 0.0
        dual = A.T @ (x - A @ w)
    else:
        raise RuntimeError("NNLS active-set iteration limit exceeded")
    return w


def nnls_project_rows(X: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Project each row of X onto the basis; rows are independent problems."""
    X = np.asarray(X, dtype=float)
    return np.vstack([nnls_project(X[i], H) for i in range(X.shape[0])])


def normalize_rows(W: np.ndarray) -> NormalizedCodes:
    """Divide each row by its l1 norm; rows with norm below ZERO_ROW_TOL
    become the uniform vector 1/k and are flagged in the mask."""
    W = np.asarray(W, dtype=float)
    if W.ndim != 2:
        raise ValueError("W must be a matrix")
    if np.any(W < 0):
        raise ValueError("W must be nonnegative")
    n, k = W.shape
    norms = W.sum(axis=1)
    mask = norms < ZERO_ROW_TOL
    safe = np.where(mask, 1.0, norms)
    codes = W / safe[:, None]
    codes[mask, :] = 1.0 / k
    return NormalizedCodes(codes=codes, zero_mask=mask)
