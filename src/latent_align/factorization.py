"""Fixed-basis nonnegative factorization and nonnegative least-squares projection.

The basis is learned once with multiplicative updates, row-normalized to unit
l1 norm, and then frozen (the returned arrays are read-only) so that observed
and post-intervention respondents live in the same latent coordinates. Each
update builds its factor in the buffer of its numerator, and the stop test
reuses the Gram products of the updates instead of forming the n x d
residual on every iteration. New
feature vectors are projected onto the frozen basis by one batched NNLS
solver, block principal pivoting: every row keeps its own passive set, rows
that share a passive set are solved together by one multi-right-hand-side
least-squares call, and each row's sign tests use a tolerance scaled to that
row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .records import JSONRecord

MU_EPS = 1e-12  # multiplicative-update denominator guard
ZERO_ROW_TOL = 1e-12
H_ROW_SUM_TOL = 1e-9
NNLS_MAX_PASSES = 100  # exchange passes before NNLSError
NNLS_BACKUP_PASSES = 3  # full swaps allowed after the infeasible count stops falling


@dataclass
class LatentModel(JSONRecord):
    """Frozen nonnegative basis with training coefficients.

    Attributes
    ----------
    W : (n, k) nonnegative coefficients, one row per respondent.
    H : (k, d) nonnegative basis, each row summing to 1.
    fit_loss : final squared Frobenius residual ||X - WH||_F^2.
    iters_run : multiplicative-update iterations run.
    hit_cap : True when the fit stopped at its iteration cap without meeting
        its stop test.
    loss_history : per-iteration loss values (index 0 is the initial loss);
        not part of the JSON record.
    """

    W: np.ndarray
    H: np.ndarray
    k: int
    fit_loss: float
    seed: int
    iters_run: int
    hit_cap: bool = False
    loss_history: tuple[float, ...] = field(default=(), repr=False, metadata={"record": False})

    def __post_init__(self):
        _check_latent_invariants(self.W, self.H, self.k)
        self.W.setflags(write=False)
        self.H.setflags(write=False)


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

    The stop test reads the loss from the products the H update forms anyway:
    ||X - WH||^2 = ||X||^2 - 2 <W^T X, H> + <W^T W, H H^T>, and H H^T is the
    product the next W update needs; no n x d residual is formed. The Gram
    form cancels, so it can differ from the residual form by up to
    (2nd + n + d + k(k + d) + 8) * eps * S, S the sum of the three terms'
    magnitudes: the worst-case rounding bound for sums of nonnegative terms,
    over both forms. Whenever the test's outcome lies within that bound of
    flipping (always once the loss nears its rounding floor, and whenever the
    loss may rise at tol = 0), both losses of the test are recomputed from
    the residual X - WH, so the fit stops at the iteration the residual form
    stops at and the factors are those of a residual-form loop bit for bit.
    `loss_history` holds the losses the test used; `fit_loss` is the residual
    form.
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

    def residual_loss(W, H):
        diff = X - W @ H
        return float(np.einsum("ij,ij->", diff, diff))

    xx = float(np.einsum("ij,ij->", X, X))
    slack = (2 * n * d + n + d + k * (k + d) + 8) * np.finfo(float).eps
    history = [residual_loss(W, H)]
    prev_err = 0.0  # bound on history[-1]'s gap to the residual form
    HHt = H @ H.T
    iters = 0
    for _ in range(max_iters):
        W_prev, H_prev = W, H
        # W * (X H^T / (W HH^T + eps)) built in the numerator's buffer, and
        # H likewise: IEEE products commute, so the bits do not change
        den = W @ HHt
        den += MU_EPS
        W = X @ H.T
        W /= den
        W *= W_prev
        WtX, WtW = W.T @ X, W.T @ W
        den = WtW @ H
        den += MU_EPS
        H = WtX / den
        H *= H_prev
        HHt = H @ H.T
        iters += 1
        cross, quad = float(np.vdot(WtX, H)), float(np.vdot(WtW, HHt))
        prev, cur = history[-1], xx - 2.0 * cross + quad
        cur_err = slack * (xx + 2.0 * cross + quad)
        margin = 2.0 * (1.0 + abs(tol)) * (prev_err + cur_err)
        if prev > prev_err and abs((prev - cur) - tol * prev) > margin:
            stop = (prev - cur) / prev < tol
        else:
            if prev_err:
                prev = history[-1] = residual_loss(W_prev, H_prev)
            cur, cur_err = residual_loss(W, H), 0.0
            stop = prev > 0 and (prev - cur) / prev < tol
        history.append(cur)
        prev_err = cur_err
        if stop:
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
        fit_loss=residual_loss(W, H),
        seed=seed,
        iters_run=iters,
        hit_cap=not stop,
        loss_history=tuple(history),
    )


class NNLSError(RuntimeError):
    """Block principal pivoting exceeded NNLS_MAX_PASSES exchange passes."""


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
    lstsq per distinct passive set. Rows are grouped by their passive set
    packed into bytes, and each group keeps its rows in row order."""
    packed = np.packbits(passive[rows], axis=1)
    order = np.argsort(packed.view(np.dtype((np.void, packed.shape[1]))).ravel(), kind="stable")
    packed = packed[order]
    bounds = np.flatnonzero((packed[1:] != packed[:-1]).any(axis=1)) + 1
    for members in np.split(rows[order], bounds):
        P = passive[members[0]]
        W[members] = 0.0
        if P.any():
            z = np.linalg.lstsq(H[P].T, X[members].T, rcond=None)[0]
            W[np.ix_(members, np.flatnonzero(P))] = z.T


def normalize_rows(W: np.ndarray) -> np.ndarray:
    """Divide each row by its l1 norm; rows with norm below ZERO_ROW_TOL
    become the uniform vector 1/k. The returned codes are read-only."""
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
    codes.setflags(write=False)
    return codes
