"""Entropic optimal transport between empirical latent measures.

The solver runs Sinkhorn iterations on log-domain potentials, which stays
stable for small regularization where naive scaling factors underflow. The
reported discrepancy used by the rest of the package is the transport-cost
part <Gamma, M>; the full entropic objective is carried alongside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_ETA = 0.05
DEFAULT_MAX_ITERS = 10_000
DEFAULT_TOL = 1e-9
MARGINAL_FEASIBILITY_TOL = 1e-7


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
        if np.any(M < 0):
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
    """Pairwise squared Euclidean distances, source rows by target rows."""
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    if source.ndim != 2 or target.ndim != 2 or source.shape[1] != target.shape[1]:
        raise ValueError(
            f"support dimensions disagree: {source.shape} vs {target.shape}"
        )
    diff = source[:, None, :] - target[None, :, :]
    return np.einsum("pqk,pqk->pq", diff, diff)


def sinkhorn(
    problem: TransportProblem,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
) -> TransportPlan:
    """Solve the entropic OT problem with log-domain Sinkhorn iterations.

    Alternates the two potential updates until the worst marginal violation
    of the implied plan drops below tol. Raises ConvergenceError (with the
    final marginal error) if the budget is exhausted first.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    M, a, b, eta = problem.cost, problem.source_weights, problem.target_weights, problem.eta
    log_a = np.log(a)
    log_b = np.log(b)
    logK = -M / eta
    f = np.zeros(M.shape[0])
    g = np.zeros(M.shape[1])

    for iters in range(1, max_iters + 1):
        g = log_b - _logsumexp(logK + f[:, None], axis=0)
        f = log_a - _logsumexp(logK + g[None, :], axis=1)
        # the last iteration is always checked, so a converged solve leaves
        # the loop with the plan at its final potentials
        if iters % 5 == 0 or iters == max_iters:
            logT = logK + f[:, None] + g[None, :]
            gamma = np.exp(logT)
            row_err = float(np.max(np.abs(gamma.sum(axis=1) - a)))
            col_err = float(np.max(np.abs(gamma.sum(axis=0) - b)))
            err = max(row_err, col_err)
            if err < tol:
                break
            del logT, gamma  # free the plan before the next potential updates
    if err >= tol:
        raise ConvergenceError(iters, err, tol)

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
