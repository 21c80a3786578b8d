"""Transparent logistic probe on normalized latent codes, exact Shapley
attribution of latent factors, and transfer of factor relevance to
controllable-feature priorities.

The probe is an association model, not a causal one: its attributions rank
latent factors for the target group and are pushed through the frozen basis
to produce per-feature priority scores and sparsity penalty weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .records import JSONRecord, check_types

DEFAULT_EPS_OMEGA = 1e-6
GRAD_TOL = 1e-7
MAX_NEWTON_ITERS = 50


def _sigmoid(m: np.ndarray) -> np.ndarray:
    """Logistic function from e = exp(-|m|), so exp never overflows:
    1 / (1 + e) for m >= 0 and e / (1 + e) below."""
    e = np.exp(-np.abs(m))
    return np.where(m >= 0, 1.0, e) / (1.0 + e)


@dataclass(frozen=True, eq=False)
class SurrogateModel(JSONRecord):
    """Logistic probe: predict(w) = sigmoid(beta . w + bias)."""

    beta: np.ndarray
    bias: float
    tau_y: float = 0.5
    train_accuracy: float = 0.0
    l2: float = 0.0
    n_iters: int = 0
    grad_norm: float = 0.0

    def __post_init__(self):
        check_types(self, ValueError)
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        self.beta.setflags(write=False)
        if not 0.0 < self.tau_y < 1.0:
            raise ValueError(f"tau_y must lie in (0, 1), got {self.tau_y}")

    def predict_proba(self, W: np.ndarray) -> np.ndarray:
        return _sigmoid(np.asarray(W, dtype=float) @ self.beta + self.bias)


@dataclass(frozen=True, eq=False)
class PriorityWeights(JSONRecord):
    """Latent-factor relevance and the derived controllable-feature priorities.

    omega and rho are aligned with s_ctrl (the controllable feature indices,
    in schema order); rho_j = 1 / (omega_j + eps_omega) exactly.
    """

    varphi: np.ndarray
    top_factors: np.ndarray
    omega: np.ndarray
    rho: np.ndarray
    s_ctrl: np.ndarray
    eps_omega: float

    def __post_init__(self):
        check_types(self, ValueError)
        shapes = [a.shape for a in (self.omega, self.rho, self.s_ctrl)]
        if len(shapes[0]) != 1 or len(set(shapes)) > 1:
            raise ValueError(f"omega, rho and s_ctrl must be 1-D arrays of one length, got shapes {shapes}")
        top, k = self.top_factors, len(self.varphi) if self.varphi.ndim == 1 else 0
        if not np.issubdtype(top.dtype, np.integer) or np.any((top < 0) | (top >= k)):
            raise ValueError(f"top_factors must index a 1-D varphi, got {top.tolist()} for shape {self.varphi.shape}")
        if not self.eps_omega > 0:
            raise ValueError(f"eps_omega must be positive, got {self.eps_omega}")
        for arr in (self.varphi, self.top_factors, self.omega, self.rho, self.s_ctrl):
            arr.setflags(write=False)

    def _positions(self, feature_indices: np.ndarray) -> list[int]:
        pos = {int(j): i for i, j in enumerate(self.s_ctrl)}
        try:
            return [pos[int(j)] for j in feature_indices]
        except KeyError as exc:
            raise ValueError(f"feature {exc} is not controllable") from exc

    def rho_for(self, feature_indices: np.ndarray) -> np.ndarray:
        """Penalty weights for a subset of controllable features."""
        return self.rho[self._positions(feature_indices)]

    def omega_for(self, feature_indices: np.ndarray) -> np.ndarray:
        """Priority scores for a subset of controllable features."""
        return self.omega[self._positions(feature_indices)]


def binarize_outcome(y: np.ndarray, rule: str = "median", threshold: float | None = None) -> np.ndarray:
    """Turn outcome scores into binary training labels.

    rule="median": label 1 iff y_i is strictly above the median (errors on a
    constant vector). rule="fixed": label 1 iff y_i >= threshold.
    """
    y = np.asarray(y, dtype=float)
    if rule == "median":
        if np.ptp(y) == 0.0:
            raise ValueError("outcome is constant; median binarization undefined")
        return (y > np.median(y)).astype(int)
    if rule == "fixed":
        if threshold is None:
            raise ValueError("fixed rule needs a threshold")
        return (y >= threshold).astype(int)
    raise ValueError(f"unknown binarization rule {rule!r}")


def _logistic_terms(W, labels, theta, l2):
    """Loss, gradient and Hessian at theta = (beta, bias)."""
    (n, k), beta = W.shape, theta[:-1]
    m = W @ beta + theta[-1]
    # mean softplus(m) - y*m, stable for large |m|
    loss = float(np.mean(np.logaddexp(0.0, m) - labels * m)) + 0.5 * l2 * float(beta @ beta)
    p = _sigmoid(m)
    grad = np.append(W.T @ (p - labels) / n + l2 * beta, np.mean(p - labels))
    # Z^T diag(p(1-p)) Z / n + diag(l2, ..., l2, 0) for Z = [W, 1], built blockwise without forming Z
    s = p * (1.0 - p)
    hess = np.block([[(W.T * s) @ W + n * l2 * np.eye(k), (W.T @ s)[:, None]], [W.T @ s, s.sum()]]) / n
    return loss, grad, hess


def fit_logistic(
    W_tilde: np.ndarray,
    labels: np.ndarray,
    l2: float = 1e-2,
    tau_y: float = 0.5,
    grad_tol: float = GRAD_TOL,
) -> SurrogateModel:
    """Fit the probe by damped Newton from zero parameters.

    Minimizes mean logistic loss plus (l2/2)||beta||^2, bias unpenalized. Each
    direction is a least-squares solve (minimum-norm on the singular Hessian of
    simplex codes at l2 = 0); its step halves until Armijo holds. Stops when the
    gradient infinity norm falls below grad_tol or after MAX_NEWTON_ITERS
    iterations. The solve is deterministic, so it takes no seed.
    """
    W = np.asarray(W_tilde, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if W.ndim != 2 or labels.shape != (W.shape[0],):
        raise ValueError("W_tilde must be (n, k) with one label per row")
    classes = np.unique(labels)
    if not np.array_equal(classes, [0, 1]) and not np.array_equal(classes, [0.0, 1.0]):
        raise ValueError(f"labels must contain both classes 0 and 1, got {classes}")

    theta = np.zeros(W.shape[1] + 1)
    loss, grad, hess = _logistic_terms(W, labels, theta, l2)
    it = 0
    for it in range(1, MAX_NEWTON_ITERS + 1):
        if np.max(np.abs(grad)) < grad_tol:
            break
        step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        t = 1.0
        while True:
            trial = _logistic_terms(W, labels, theta + t * step, l2)
            if trial[0] <= loss + 1e-4 * t * float(grad @ step) or t < 1e-9:
                break
            t *= 0.5
        theta = theta + t * step
        loss, grad, hess = trial

    preds = (_sigmoid(W @ theta[:-1] + float(theta[-1])) >= 0.5).astype(float)  # as predict_proba scores
    return SurrogateModel(
        beta=theta[:-1],
        bias=float(theta[-1]),
        tau_y=tau_y,
        train_accuracy=float(np.mean(preds == labels)),
        l2=l2,
        n_iters=it,
        grad_norm=float(np.max(np.abs(grad))),
    )


def shapley_latent(model: SurrogateModel, W_tilde: np.ndarray, background: np.ndarray) -> np.ndarray:
    """Exact per-respondent Shapley values on the log-odds margin.

    The margin g(w) = beta . w + bias is linear, so the Shapley value of
    factor r for respondent i is beta_r * (w_ir - background_r), and the
    attributions sum exactly to g(w_i) - g(background).
    """
    W = np.asarray(W_tilde, dtype=float)
    background = np.asarray(background, dtype=float)
    if background.shape != (W.shape[1],):
        raise ValueError(f"background has shape {background.shape}, expected ({W.shape[1]},)")
    return model.beta[None, :] * (W - background[None, :])


def aggregate_relevance(phi: np.ndarray) -> np.ndarray:
    """Mean absolute attribution per factor over the rows of phi, the
    target group's (n_target, k) attributions."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape[0] == 0:
        raise ValueError("no target rows to aggregate")
    return np.mean(np.abs(phi), axis=0)


def select_topq(varphi: np.ndarray, q: int) -> np.ndarray:
    """Indices of the q largest relevance values, descending, ties to lower index."""
    varphi = np.asarray(varphi, dtype=float)
    k = varphi.shape[0]
    if not 1 <= q <= k:
        raise ValueError(f"need 1 <= q <= {k}, got q={q}")
    order = np.lexsort((np.arange(k), -varphi))
    return order[:q]


def feature_priorities(
    top_factors: np.ndarray,
    varphi: np.ndarray,
    H: np.ndarray,
    s_ctrl: np.ndarray,
    eps_omega: float = DEFAULT_EPS_OMEGA,
) -> tuple[np.ndarray, np.ndarray]:
    """Transfer factor relevance to controllable features through the basis.

    omega_j = sum over selected factors of varphi_r * H[r, j], for j in
    s_ctrl; rho_j = 1 / (omega_j + eps_omega).
    """
    if eps_omega <= 0:
        raise ValueError("eps_omega must be positive")
    top_factors = np.asarray(top_factors, dtype=int)
    s_ctrl = np.asarray(s_ctrl, dtype=int)
    varphi = np.asarray(varphi, dtype=float)
    H = np.asarray(H, dtype=float)
    omega = varphi[top_factors] @ H[np.ix_(top_factors, s_ctrl)]
    rho = 1.0 / (omega + eps_omega)
    return omega, rho


def build_priorities(
    model: SurrogateModel,
    codes: np.ndarray,
    i_target: np.ndarray,
    H: np.ndarray,
    s_ctrl: np.ndarray,
    q: int,
    eps_omega: float = DEFAULT_EPS_OMEGA,
) -> PriorityWeights:
    """Full attribution chain: Shapley, aggregate, top-q, feature transfer.

    The background for the Shapley attribution is the mean normalized code
    over all respondents; only the target rows are attributed.
    """
    codes = np.asarray(codes, dtype=float)
    i_target = np.asarray(i_target, dtype=int)
    phi_target = shapley_latent(model, codes[i_target], codes.mean(axis=0))
    varphi = aggregate_relevance(phi_target)
    top = select_topq(varphi, q)
    omega, rho = feature_priorities(top, varphi, H, s_ctrl, eps_omega)
    return PriorityWeights(
        varphi=varphi,
        top_factors=top,
        omega=omega,
        rho=rho,
        s_ctrl=np.asarray(s_ctrl, dtype=int).copy(),
        eps_omega=eps_omega,
    )
