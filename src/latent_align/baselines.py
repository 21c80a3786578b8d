"""Comparison interventions and ablation variants, all returning the same
result type as the full method so one evaluation harness covers every row of
the comparison table.

Uniform baselines apply a fixed increment on ranked levers and re-project the
changed rows onto the frozen basis; the outcome-only baseline and the
ablations reuse the full optimizer with one ingredient swapped out.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .factorization import nnls_project_rows, normalize_rows
from .optimizer import (
    ALIGNMENT_CENTROID,
    ALIGNMENT_MEAN_MARGIN,
    InterventionProblem,
    InterventionResult,
    TrajectoryRecord,
    _assemble_result,
    coupling_residual,
    coupling_value,
    lever_penalty,
    optimize,
    project_feasible,
)
from .surrogate import PriorityWeights
from . import transport

KIND_TOP_SINGLE = "top_shapley_single"
KIND_TOP_K = "top_shapley_topk"
KIND_MAX_COVERAGE = "max_coverage_topk"
KIND_OUTCOME_ONLY = "outcome_only_sparse"
BASELINE_KINDS = (KIND_TOP_SINGLE, KIND_TOP_K, KIND_MAX_COVERAGE, KIND_OUTCOME_ONLY)

ABLATION_NO_SHAPLEY = "no_shapley_weighting"
ABLATION_NO_SPARSITY = "no_sparsity"
ABLATION_NO_OT = "no_ot_alignment"
ABLATION_KINDS = (ABLATION_NO_SHAPLEY, ABLATION_NO_SPARSITY, ABLATION_NO_OT)

STATUS_CONSTRUCTED = "constructed"


@dataclass(frozen=True)
class BaselineSpec:
    kind: str
    k_levers: int = 5
    step_magnitude: float = 0.2

    def __post_init__(self):
        if self.kind not in BASELINE_KINDS:
            raise ValueError(f"unknown baseline kind {self.kind!r}")
        if self.k_levers < 1:
            raise ValueError("k_levers must be >= 1")
        if self.kind != KIND_OUTCOME_ONLY and not self.step_magnitude > 0:
            raise ValueError("uniform baselines need step_magnitude > 0")


def _rank_by(scores: np.ndarray) -> np.ndarray:
    """Descending order, ties broken toward the lower position."""
    return np.lexsort((np.arange(scores.size), -scores))


def _uniform_result(problem: InterventionProblem, chosen: np.ndarray, step: float) -> InterventionResult:
    dataset, latent, groups = problem.dataset, problem.latent, problem.groups
    X, schema = dataset.X, dataset.schema
    i_b = groups.i_target
    levers = schema.policy_levers

    delta = np.zeros_like(X)
    delta[np.ix_(i_b, chosen)] = step
    delta = project_feasible(delta, X, schema, i_b)
    D = delta[np.ix_(i_b, levers)]

    X_B = X[i_b]
    # pre and post projected in separate calls, as evaluation scores them
    u_pre = normalize_rows(nnls_project_rows(X_B, latent.H)).codes
    U = nnls_project_rows(X_B + delta[i_b], latent.H)
    u_tilde = normalize_rows(U).codes
    w_ref = normalize_rows(latent.W).codes[groups.i_reference]
    plan = transport.sinkhorn(transport.TransportProblem.from_supports(u_tilde, w_ref, problem.eta))

    coupling = coupling_value(coupling_residual(U, D, X_B, latent.H, levers))
    sparsity = lever_penalty(D, problem.priorities.rho_for(levers))
    mean_pre = float(np.mean(problem.surrogate.predict_proba(u_pre)))
    mean_post = float(np.mean(problem.surrogate.predict_proba(u_tilde)))
    objective = plan.transport_cost + problem.sparsity_weight * sparsity
    record = TrajectoryRecord(0, objective, plan.transport_cost, coupling, sparsity, mean_post - mean_pre)
    return _assemble_result(problem, D, [record], STATUS_CONSTRUCTED, 1, 0.0)


def run_baseline(spec: BaselineSpec, problem: InterventionProblem) -> InterventionResult:
    """Execute one comparison intervention.

    Ranking-based kinds pick levers by priority score; the coverage kind
    ranks levers by how many target respondents can absorb the uniform step
    without clipping; the outcome-only kind runs the full solver with the
    transport term swapped for the negative mean surrogate margin.
    """
    schema = problem.dataset.schema
    levers = schema.policy_levers
    if spec.kind != KIND_TOP_SINGLE and spec.k_levers > levers.size:
        raise ValueError(f"k_levers={spec.k_levers} exceeds the {levers.size} eligible levers")

    if spec.kind == KIND_OUTCOME_ONLY:
        return optimize(replace(problem, alignment=ALIGNMENT_MEAN_MARGIN))

    omega = problem.priorities.omega_for(levers)
    if spec.kind == KIND_TOP_SINGLE:
        chosen = levers[_rank_by(omega)[:1]]
    elif spec.kind == KIND_TOP_K:
        chosen = levers[_rank_by(omega)[: spec.k_levers]]
    else:
        X_B = problem.dataset.X[np.ix_(problem.groups.i_target, levers)]
        headroom = schema.uppers[levers][None, :] - X_B
        coverage = np.sum(headroom >= spec.step_magnitude - 1e-12, axis=0).astype(float)
        chosen = levers[_rank_by(coverage)[: spec.k_levers]]
    return _uniform_result(problem, np.sort(chosen), spec.step_magnitude)


def uniform_priorities(priorities: PriorityWeights) -> PriorityWeights:
    """Flatten the lever weighting: every controllable feature gets the mean
    priority score, so the penalty weights are exactly uniform."""
    flat = float(np.mean(priorities.omega)) if priorities.omega.size else 0.0
    omega = np.full_like(priorities.omega, flat)
    rho = 1.0 / (omega + priorities.eps_omega)
    return replace(priorities, omega=omega, rho=rho)


def run_ablation(which: str, problem: InterventionProblem) -> InterventionResult:
    """Run the full solver with one component removed."""
    if which == ABLATION_NO_SHAPLEY:
        return optimize(replace(problem, priorities=uniform_priorities(problem.priorities)))
    if which == ABLATION_NO_SPARSITY:
        return optimize(replace(problem, sparsity_weight=0.0))
    if which == ABLATION_NO_OT:
        return optimize(replace(problem, alignment=ALIGNMENT_CENTROID))
    raise ValueError(f"unknown ablation {which!r}")
