"""Fixed-basis nonnegative factorization and nonnegative least-squares projection.

The basis is learned once with multiplicative updates, row-normalized to unit
l1 norm, and then frozen (the returned arrays are read-only) so that observed
and post-intervention respondents live in the same latent coordinates. New
feature vectors are projected onto the frozen basis by one batched NNLS
solver, block principal pivoting: every row keeps its own passive set, rows
that share a passive set are solved together by one multi-right-hand-side
least-squares call, and each row's sign tests use a tolerance scaled to that
row. `nnls_project` is the one-row call of the same solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MU_EPS = 1e-12  # multiplicative-update denominator guard
ZERO_ROW_TOL = 1e-12
H_ROW_SUM_TOL = 1e-9
NNLS_MAX_PASSES = 100  # exchange passes before NNLSError
NNLS_BACKUP_PASSES = 3  # full swaps allowed after the infeasible count stops falling


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


class NNLSError(RuntimeError):
    """Block principal pivoting exceeded NNLS_MAX_PASSES exchange passes."""


def nnls_project(x: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Solve argmin_{w >= 0} ||x - wH||_2^2 for one row: `nnls_project_rows`
    on the (1, d) batch holding x."""
    H = np.asarray(H, dtype=float)
    x = np.asarray(x, dtype=float)
    if H.ndim != 2 or x.shape != (H.shape[1],):
        raise ValueError(f"x has shape {x.shape}, basis expects ({H.shape[-1]},)")
    return nnls_project_rows(x[None, :], H)[0]


def nnls_project_rows(X: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Solve argmin_{w >= 0} ||x - wH||_2^2 for every row x of X by block
    principal pivoting (Kim & Park 2011; Bro & De Jong 1997).

    C = X H^T and G = H H^T are formed once. Each row keeps a passive set P,
    starting empty. A pass solves w_P by least squares with w zero off P,
    then tests the row's signs against its scaled tolerance
    tol = 1e-10 * max(1, max|c|): w_j < -tol on P, or gradient (wG - c)_j <
    -tol off P, marks j infeasible. While a row's infeasible count falls, the
    whole infeasible set is swapped; once it stops falling the row gets
    NNLS_BACKUP_PASSES more full swaps, then swaps only its largest
    infeasible index until the count falls again. Rows sharing a passive set
    are solved together by one multi-right-hand-side `np.linalg.lstsq` on
    H[P]^T, which stays defined when H is rank-deficient (dead factors parked
    at the same uniform row). Each row follows its own exchange sequence, so
    its result does not depend on the other rows in the batch up to
    rounding: a row solved next to others may differ in its last bits, even
    from an equal row of the same batch. Callers that need bit-identical
    codes for equal rows project them in separate calls. Raises NNLSError if
    rows are still infeasible after NNLS_MAX_PASSES passes.
    """
    X = np.asarray(X, dtype=float)
    H = np.asarray(H, dtype=float)
    if X.ndim != 2 or H.ndim != 2 or X.shape[1] != H.shape[1]:
        raise ValueError(f"X has shape {X.shape}, basis H has shape {H.shape}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(H))):
        raise ValueError("X and H must be finite")
    n, k = X.shape[0], H.shape[0]
    C = X @ H.T
    G = H @ H.T
    tol = 1e-10 * np.maximum(1.0, np.max(np.abs(C), axis=1, initial=0.0))
    W = np.zeros((n, k))
    passive = np.zeros((n, k), dtype=bool)
    best = np.full(n, k + 1)  # fewest infeasible indices seen per row
    backup = np.full(n, NNLS_BACKUP_PASSES)
    rows = np.arange(n)  # rows not yet feasible
    infeasible = C > tol[:, None]  # the gradient at w = 0 is -C
    passes = 0
    while True:
        live = infeasible.any(axis=1)
        rows, infeasible = rows[live], infeasible[live]
        if rows.size == 0:
            return np.maximum(W, 0.0)
        if passes == NNLS_MAX_PASSES:
            raise NNLSError(
                f"NNLS block principal pivoting left {rows.size} of {n} rows "
                f"infeasible after {NNLS_MAX_PASSES} passes"
            )
        passes += 1
        count = infeasible.sum(axis=1)
        fell = count < best[rows]
        full = fell | (backup[rows] > 0)
        best[rows] = np.minimum(best[rows], count)
        backup[rows] = np.where(fell, NNLS_BACKUP_PASSES, backup[rows] - full)
        last = k - 1 - np.argmax(infeasible[:, ::-1], axis=1)
        swap = infeasible & full[:, None]
        swap[~full, last[~full]] = True
        passive[rows] ^= swap
        _solve_groups(X, H, W, passive, rows)
        Wr = W[rows]
        infeasible = np.where(passive[rows], Wr, Wr @ G - C[rows]) < -tol[rows, None]


def _solve_groups(X, H, W, passive, rows) -> None:
    """W[rows] = least-squares w on each row's passive set, zero off it; one
    lstsq per distinct passive set."""
    sets, group = np.unique(passive[rows], axis=0, return_inverse=True)
    group = group.reshape(-1)
    order = np.argsort(group, kind="stable")
    bounds = np.cumsum(np.bincount(group, minlength=len(sets)))[:-1]
    for P, members in zip(sets, np.split(rows[order], bounds)):
        W[members] = 0.0
        if P.any():
            z = np.linalg.lstsq(H[P].T, X[members].T, rcond=None)[0]
            W[np.ix_(members, np.flatnonzero(P))] = z.T


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
