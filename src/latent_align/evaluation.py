"""Metrics for intervention runs: conversion counts, effort and lever
sparsity, transport-discrepancy reduction, and the pre/post group-movement
table.

The target group is scored through one map: its rows before and after the
intervention, X_B and X_B + delta_B, are each projected onto the frozen basis
H and row-normalized (`target_codes`). The reference group keeps its model
codes, the distribution the solver aligns to. A zero intervention therefore
scores zero conversions and zero discrepancy change.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .factorization import nnls_project_rows, normalize_rows
from .optimizer import InterventionProblem, InterventionResult
from .surrogate import SurrogateModel
from . import transport

EFFORT_FLOOR = 1e-12


@dataclass(frozen=True)
class ConversionMetrics:
    n_conv: int
    r_conv: float
    mean_dp: float


@dataclass(frozen=True)
class GroupMovementRow:
    group: str
    size: int
    mean_probability: float
    centroid_distance: float
    ot_discrepancy: float


@dataclass
class MetricsReport:
    n_conv: int
    r_conv: float
    mean_dp: float
    effort: float
    n_lever: int
    eff_conv: float
    w_before: float
    w_after: float
    dw: float
    rho_reduction: float
    degenerate_alignment: bool
    group_movement: tuple[GroupMovementRow, ...]
    n_target: int

    def to_dict(self) -> dict:
        return asdict(self)

    CSV_FIELDS = (
        "n_conv",
        "r_conv",
        "mean_dp",
        "n_lever",
        "effort",
        "eff_conv",
        "w_before",
        "w_after",
        "dw",
        "rho_reduction",
        "n_target",
    )

    def csv_row(self) -> dict:
        d = self.to_dict()
        return {k: d[k] for k in self.CSV_FIELDS}


def conversion_metrics(
    model: SurrogateModel,
    codes_pre: np.ndarray,
    codes_post: np.ndarray,
    tau_y: float,
) -> ConversionMetrics:
    """Count target respondents whose predicted score crosses tau_y upward.

    A respondent converts when the pre probability is strictly below tau_y
    and the post probability reaches it (>=).
    """
    if not 0.0 < tau_y < 1.0:
        raise ValueError(f"tau_y must lie in (0, 1), got {tau_y}")
    p_pre = model.predict_proba(codes_pre)
    p_post = model.predict_proba(codes_post)
    if p_pre.shape != p_post.shape:
        raise ValueError("pre and post code sets differ in length")
    converted = (p_pre < tau_y) & (p_post >= tau_y)
    n_conv = int(np.sum(converted))
    return ConversionMetrics(
        n_conv=n_conv,
        r_conv=n_conv / p_pre.shape[0],
        mean_dp=float(np.mean(p_post - p_pre)),
    )


def effort_and_levers(
    delta: np.ndarray,
    s_ctrl: np.ndarray,
    tau_delta: float,
) -> tuple[float, int]:
    """Total l2,1 magnitude over controllable columns and the count of active
    levers at the tau_delta threshold."""
    if tau_delta < 0:
        raise ValueError("tau_delta must be >= 0")
    s_ctrl = np.asarray(s_ctrl, dtype=int)
    norms = np.linalg.norm(np.asarray(delta, dtype=float)[:, s_ctrl], axis=0)
    effort = float(np.sum(norms))
    n_lever = int(np.sum(norms > tau_delta))
    return effort, n_lever


def target_codes(problem: InterventionProblem, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized codes of the target rows before and after the intervention.

    X_B and X_B + delta_B are projected onto the frozen basis in two separate
    calls: equal rows then give bit-identical codes, so delta = 0 maps pre and
    post to the same array.
    """
    i_b, H = problem.groups.i_target, problem.latent.H
    X_B = problem.dataset.X[i_b]
    pre = normalize_rows(nnls_project_rows(X_B, H)).codes
    post = normalize_rows(nnls_project_rows(X_B + delta[i_b], H)).codes
    return pre, post


def group_movement_report(
    model: SurrogateModel,
    ref: np.ndarray,
    pre: np.ndarray,
    post: np.ndarray,
    eta: float,
) -> tuple[GroupMovementRow, ...]:
    """Reference vs target-before vs target-after movement table.

    The reference row reports zero distance and zero discrepancy to itself by
    convention. Distances are between group centroids in normalized latent
    space; discrepancies are entropic transport costs to the reference.
    """
    ref, pre, post = (np.asarray(a, dtype=float) for a in (ref, pre, post))
    if post.shape != pre.shape:
        raise ValueError("pre and post codes must cover the same target rows")
    c_ref = ref.mean(axis=0)

    def ot_to_ref(supp):
        problem = transport.TransportProblem.from_supports(supp, ref, eta)
        return transport.sinkhorn(problem).transport_cost

    rows = [
        GroupMovementRow("reference", ref.shape[0], float(np.mean(model.predict_proba(ref))), 0.0, 0.0),
        GroupMovementRow(
            "target_pre",
            pre.shape[0],
            float(np.mean(model.predict_proba(pre))),
            float(np.linalg.norm(pre.mean(axis=0) - c_ref)),
            ot_to_ref(pre),
        ),
        GroupMovementRow(
            "target_post",
            post.shape[0],
            float(np.mean(model.predict_proba(post))),
            float(np.linalg.norm(post.mean(axis=0) - c_ref)),
            ot_to_ref(post),
        ),
    ]
    return tuple(rows)


def evaluate_intervention(problem: InterventionProblem, result: InterventionResult) -> MetricsReport:
    """Standard metrics harness shared by the full method, baselines and
    ablations, scored against the problem the result solves.

    The conversion threshold is the probe's tau_y. The discrepancies before
    and after are the target rows of the movement table, so one pass solves
    each transport problem once. A zero before-value marks the reduction
    ratio degenerate and reports it as 0.
    """
    groups, model = problem.groups, problem.surrogate
    ref = normalize_rows(problem.latent.W).codes[groups.i_reference]
    pre, post = target_codes(problem, result.delta)

    conv = conversion_metrics(model, pre, post, model.tau_y)
    effort, n_lever = effort_and_levers(result.delta, problem.dataset.schema.s_ctrl, problem.tau_delta)
    eff_conv = conv.n_conv / max(effort, EFFORT_FLOOR)

    movement = group_movement_report(model, ref, pre, post, problem.eta)
    w_before, w_after = movement[1].ot_discrepancy, movement[2].ot_discrepancy
    dw = w_before - w_after
    degenerate = not w_before > 0

    return MetricsReport(
        n_conv=conv.n_conv,
        r_conv=conv.r_conv,
        mean_dp=conv.mean_dp,
        effort=effort,
        n_lever=n_lever,
        eff_conv=eff_conv,
        w_before=w_before,
        w_after=w_after,
        dw=dw,
        rho_reduction=0.0 if degenerate else dw / w_before,
        degenerate_alignment=degenerate,
        group_movement=movement,
        n_target=int(groups.i_target.size),
    )
