"""Entropic optimal transport between empirical latent measures.

Sinkhorn runs in one of two domains, chosen per problem from its cost range
over the regularization, R = (max M - min M) / eta:

- Scaling domain (Cuturi 2013) when R <= SCALING_MAX_RANGE: one exp builds
  the kernel K = exp(-(M - min M) / eta), and each iteration is two
  matrix-vector products. The products, the scalings and the marginal check
  write into vectors allocated once per solve. Codes lie on the simplex, so
  M <= 2 and the default eta = 0.05 gives R <= 40.
- Log domain (Schmitzer 2019) otherwise, or when a scaling goes non-finite:
  the potentials are updated by logsumexp, which stays stable for small
  regularization where the scaling factors underflow.

One scaling loop (`_scaling_loop`) serves two front-ends:

- `sinkhorn(problem)` solves a TransportProblem with its cost matrix M and
  returns the full plan gamma. Evaluation and the baselines use it.
- `sinkhorn_supports(source, target, eta)` is the solver's kernel-first
  solve between uniform weights on two supports. It builds -M / eta with one
  GEMM on augmented supports, exponentiates it in place into the kernel, and
  forms neither M nor gamma. It returns gamma @ target = u * (K (v * target))
  and the transport cost from the supports identity
  <gamma, M> = sum_p a_p |s_p|^2 + sum_q c_q |t_q|^2 - 2 sum_p s_p . (gamma @ target)_p,
  where c holds the plan's column sums. When R exceeds SCALING_MAX_RANGE or
  a scaling goes non-finite, it falls back to `sinkhorn` on the assembled
  problem and takes gamma @ target from that plan.

The reported discrepancy used by the rest of the package is the transport-cost
part <Gamma, M>; `sinkhorn` carries the full entropic objective alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_ETA = 0.05
DEFAULT_MAX_ITERS = 10_000
DEFAULT_TOL = 1e-9
# Largest cost range over eta that runs in the scaling domain. Every kernel
# entry is then at least e^-300, so a kernel entry times a scaling of the same
# magnitude (e^-600) is still above the smallest normal double (e^-708).
SCALING_MAX_RANGE = 300.0


class ConvergenceError(RuntimeError):
    """Sinkhorn failed to reach the marginal tolerance within its budget."""

    def __init__(self, iters: int, marginal_err: float, tol: float):
        self.iters = iters
        self.marginal_err = marginal_err
        super().__init__(
            f"Sinkhorn did not converge in {iters} iterations "
            f"(marginal error {marginal_err:.3e}, tolerance {tol:.1e})"
        )


@dataclass(frozen=True)
class TransportProblem:
    """Discrete entropic OT instance: cost matrix, marginals, regularization."""

    cost: np.ndarray
    source_weights: np.ndarray
    target_weights: np.ndarray
    eta: float

    def __post_init__(self):
        M = self.cost
        a, b = self.source_weights, self.target_weights
        if M.ndim != 2:
            raise ValueError("cost must be a matrix")
        if a.shape != (M.shape[0],) or b.shape != (M.shape[1],):
            raise ValueError("marginal lengths must match the cost matrix")
        if M.min(initial=0.0) < 0:
            raise ValueError("cost matrix must be nonnegative")
        if abs(a.sum() - 1.0) > 1e-9 or abs(b.sum() - 1.0) > 1e-9:
            raise ValueError("marginals must sum to 1")
        if not self.eta > 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        M.setflags(write=False)
        a.setflags(write=False)
        b.setflags(write=False)

    @classmethod
    def from_supports(cls, source: np.ndarray, target: np.ndarray, eta: float) -> "TransportProblem":
        """Uniform weights on the rows of each support; repeated rows stay
        separate atoms."""
        source = np.asarray(source, dtype=float)
        target = np.asarray(target, dtype=float)
        nb, na = source.shape[0], target.shape[0]
        return cls(
            cost=cost_matrix(source, target),
            source_weights=np.full(nb, 1.0 / nb),
            target_weights=np.full(na, 1.0 / na),
            eta=float(eta),
        )


@dataclass(frozen=True)
class TransportPlan:
    gamma: np.ndarray
    transport_cost: float
    entropic_value: float
    iters: int
    marginal_err: float

    def __post_init__(self):
        self.gamma.setflags(write=False)


def cost_matrix(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, source rows by target rows.

    Computed by GEMM as ||s||^2 + ||t||^2 - 2 s.t in the output itself and
    clipped at 0, so no n_b x n_a x k temporary is formed.
    """
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    if source.ndim != 2 or target.ndim != 2 or source.shape[1] != target.shape[1]:
        raise ValueError(
            f"support dimensions disagree: {source.shape} vs {target.shape}"
        )
    M = source @ target.T
    M *= -2.0
    M += np.einsum("pk,pk->p", source, source)[:, None]
    M += np.einsum("qk,qk->q", target, target)[None, :]
    return np.maximum(M, 0.0, out=M)


def sinkhorn(
    problem: TransportProblem,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
) -> TransportPlan:
    """Solve the entropic OT problem with Sinkhorn iterations.

    Each iteration updates the column scaling, then the row scaling, so the
    plan's rows match the source weights by construction and the column
    violation is the marginal error. It is checked every iteration, from the
    column sums that the next column update needs anyway, and the solve stops
    at the first iteration below tol. Raises ConvergenceError (with the final
    marginal error) if the budget is exhausted first.

    Runs in the scaling domain when the cost range over eta is at most
    SCALING_MAX_RANGE, and in the log domain otherwise or when a scaling goes
    non-finite; both give the same plan up to rounding.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    lo, hi = float(problem.cost.min()), float(problem.cost.max())
    if (hi - lo) / problem.eta <= SCALING_MAX_RANGE:
        plan = _scaling_sinkhorn(problem, lo, max_iters, tol)
        if plan is not None:
            return plan
    return _log_sinkhorn(problem, max_iters, tol)


@dataclass(frozen=True)
class SupportsPlan:
    """What a kernel-first solve keeps of the plan gamma between two
    supports: gamma applied to the target support, and <gamma, M>."""

    gamma_target: np.ndarray  # gamma @ target, one row per source atom
    transport_cost: float
    iters: int
    marginal_err: float

    def __post_init__(self):
        self.gamma_target.setflags(write=False)


def sinkhorn_supports(
    source: np.ndarray,
    target: np.ndarray,
    eta: float,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
) -> SupportsPlan:
    """Entropic OT between uniform weights on the rows of two supports,
    without forming the cost matrix M or the plan gamma (see the module
    docstring for the kernel GEMM, the supports identity and the fallback).

    The identity takes the plan's row sums as the source weights a, which
    they equal up to rounding, since the row scaling is updated last. Raises
    ConvergenceError when the budget runs out, as `sinkhorn` does.
    """
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    if source.ndim != 2 or target.ndim != 2 or source.shape[1] != target.shape[1]:
        raise ValueError(f"support dimensions disagree: {source.shape} vs {target.shape}")
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    (nb, k), na = source.shape, target.shape[0]
    s2 = np.einsum("pk,pk->p", source, source)
    t2 = np.einsum("qk,qk->q", target, target)
    # [2s/eta, -|s|^2/eta, -1] . [t, 1, |t|^2/eta] = (2 s.t - |s|^2 - |t|^2) / eta;
    # the right factor is built transposed, so the GEMM reads both row-major
    lhs = np.empty((nb, k + 2))
    np.multiply(source, 2.0 / eta, out=lhs[:, :k])
    np.divide(s2, -eta, out=lhs[:, k])
    lhs[:, k + 1] = -1.0
    rhs = np.empty((k + 2, na))
    rhs[:k] = target.T
    rhs[k] = 1.0
    np.divide(t2, eta, out=rhs[k + 1])
    K = lhs @ rhs
    hi = float(K.max())
    if hi - float(K.min()) <= SCALING_MAX_RANGE:
        K -= hi
        np.exp(K, out=K)
        a, b = np.full(nb, 1.0 / nb), np.full(na, 1.0 / na)
        scalings = _scaling_loop(K, a, b, max_iters, tol)
        if scalings is not None:
            u, v, col, iters, err = scalings
            gamma_target = K @ (v[:, None] * target)
            gamma_target *= u[:, None]
            transport_cost = float(a @ s2 + col @ t2) - 2.0 * float(np.einsum("pk,pk->", source, gamma_target))
            return SupportsPlan(gamma_target, transport_cost, iters, err)
    plan = sinkhorn(TransportProblem.from_supports(source, target, eta), max_iters, tol)
    return SupportsPlan(plan.gamma @ target, plan.transport_cost, plan.iters, plan.marginal_err)


def _scaling_sinkhorn(
    problem: TransportProblem, shift: float, max_iters: int, tol: float
) -> TransportPlan | None:
    """Sinkhorn on K = exp((shift - M) / eta); None when a scaling goes
    non-finite, so the caller can fall back to the log domain."""
    M, a, b, eta = problem.cost, problem.source_weights, problem.target_weights, problem.eta
    K = np.subtract(shift, M)
    K /= eta
    np.exp(K, out=K)
    scalings = _scaling_loop(K, a, b, max_iters, tol)
    if scalings is None:
        return None
    u, v, col, iters, err = scalings

    gamma = K  # diag(u) K diag(v), built in place of the kernel
    gamma *= u[:, None]
    gamma *= v[None, :]
    transport_cost = float(np.einsum("pq,pq->", gamma, M))
    # sum gamma (log gamma - 1) with log gamma = log u + log v + (shift - M) / eta,
    # rows summing to a and columns to col
    mass = float(col.sum())
    entropy_term = (
        float(a @ np.log(u) + col @ np.log(v)) + (shift * mass - transport_cost) / eta - mass
    )
    return TransportPlan(
        gamma=gamma,
        transport_cost=transport_cost,
        entropic_value=transport_cost + eta * entropy_term,
        iters=iters,
        marginal_err=err,
    )


def _scaling_loop(
    K: np.ndarray, a: np.ndarray, b: np.ndarray, max_iters: int, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, float] | None:
    """The scaling iterations on a kernel K, shared by both front-ends.

    Returns (u, v, col, iters, err), where col = v * (K^T u) holds the plan's
    column sums at the last iteration; None when a scaling goes non-finite.
    Raises ConvergenceError when the budget runs out first.
    """
    v, col, gap = np.empty_like(b), np.empty_like(b), np.empty_like(b)
    u, Kv = np.empty_like(a), np.empty_like(a)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        Ktu = K.sum(axis=0)  # K^T u at u = 1
        for iters in range(1, max_iters + 1):
            np.divide(b, Ktu, out=v)
            np.dot(K, v, out=Kv)
            np.divide(a, Kv, out=u)
            np.dot(u, K, out=Ktu)  # K^T u
            np.multiply(v, Ktu, out=col)
            np.subtract(col, b, out=gap)
            err = float(np.maximum.reduce(np.abs(gap, out=gap)))
            if not math.isfinite(err):
                return None
            if err < tol:
                break
    if err >= tol:
        raise ConvergenceError(iters, err, tol)
    return u, v, col, iters, err


def _log_sinkhorn(problem: TransportProblem, max_iters: int, tol: float) -> TransportPlan:
    """Sinkhorn on the log scalings f = log u, g = log v, updated by
    logsumexp."""
    M, a, b, eta = problem.cost, problem.source_weights, problem.target_weights, problem.eta
    log_a = np.log(a)
    log_b = np.log(b)
    logK = -M / eta
    col_lse = _logsumexp(logK, axis=0)  # at f = 0
    for iters in range(1, max_iters + 1):
        g = log_b - col_lse
        f = log_a - _logsumexp(logK + g[None, :], axis=1)
        col_lse = _logsumexp(logK + f[:, None], axis=0)
        err = float(np.max(np.abs(np.exp(g + col_lse) - b)))
        if err < tol:
            break
    if err >= tol:
        raise ConvergenceError(iters, err, tol)

    logT = logK + f[:, None] + g[None, :]
    gamma = np.exp(logT)
    transport_cost = float(np.einsum("pq,pq->", gamma, M))
    mask = gamma > 0
    entropy_term = float(np.sum(gamma[mask] * (logT[mask] - 1.0)))
    return TransportPlan(
        gamma=gamma,
        transport_cost=transport_cost,
        entropic_value=transport_cost + eta * entropy_term,
        iters=iters,
        marginal_err=err,
    )


def _logsumexp(A: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(A, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(A - m), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)
