"""Comparison interventions and ablation variants, all returning the same
result type as the full method so one evaluation harness covers every row of
the comparison table.

Uniform baselines are lever blocks, a fixed increment on ranked levers
clipped to the problem's lever box, whose rows are re-projected onto the
frozen basis; they are constructed, not solved, so evaluation scores them and
they report no objective or solver work. The outcome-only baseline and the
ablations reuse the full optimizer with one ingredient swapped out.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .factorization import nnls_project_rows
from .optimizer import (
    ALIGNMENT_CENTROID,
    ALIGNMENT_MEAN_MARGIN,
    InterventionProblem,
    InterventionResult,
    _assemble_result,
    optimize,
)
from .records import check_types
from .surrogate import PriorityWeights

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
        check_types(self, ValueError)
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
    """The constructed result of a uniform step on the chosen lever columns:
    the step there and 0 elsewhere, clipped to the problem's lever box as
    `project_feasible` clips, and its post projection; nothing is solved."""
    lo, hi = problem.lever_box
    raw = np.zeros_like(lo)
    raw[:, chosen] = step
    result = _assemble_result(problem, np.clip(raw, lo, hi), [], STATUS_CONSTRUCTED, 0, 0.0)
    # post projected in its own call, as evaluation scores it; the result keeps it
    i_b = problem.groups.i_target
    U = nnls_project_rows(problem.dataset.X[i_b] + result.delta[i_b], problem.latent.H)
    U.setflags(write=False)
    result.post_projection = U
    return result


def run_baseline(spec: BaselineSpec, problem: InterventionProblem) -> InterventionResult:
    """Execute one comparison intervention.

    Ranking-based kinds pick levers by priority score; the coverage kind
    ranks levers by how many target respondents can absorb the uniform step
    without clipping; the outcome-only kind runs the full solver with the
    transport term swapped for the negative mean surrogate margin.
    """
    levers = problem.dataset.schema.policy_levers
    if spec.kind != KIND_TOP_SINGLE and spec.k_levers > levers.size:
        raise ValueError(f"k_levers={spec.k_levers} exceeds the {levers.size} eligible levers")

    if spec.kind == KIND_OUTCOME_ONLY:
        return optimize(problem.with_knobs(alignment=ALIGNMENT_MEAN_MARGIN))

    if spec.kind == KIND_MAX_COVERAGE:
        hi = problem.lever_box[1]
        scores = np.sum(hi >= spec.step_magnitude - 1e-12, axis=0).astype(float)
    else:
        scores = problem.priorities.omega_for(levers)
    k = 1 if spec.kind == KIND_TOP_SINGLE else spec.k_levers
    return _uniform_result(problem, _rank_by(scores)[:k], spec.step_magnitude)


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
        return optimize(problem.with_knobs(priorities=uniform_priorities(problem.priorities)))
    if which == ABLATION_NO_SPARSITY:
        return optimize(problem.with_knobs(sparsity_weight=0.0))
    if which == ABLATION_NO_OT:
        return optimize(problem.with_knobs(alignment=ALIGNMENT_CENTROID))
    raise ValueError(f"unknown ablation {which!r}")
