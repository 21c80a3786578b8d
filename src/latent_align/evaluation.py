"""Metrics for intervention runs: conversion counts, effort and lever
sparsity, transport-discrepancy reduction, and the pre/post group-movement
table, all scored by one pass, `evaluate_intervention`.

The target group is scored through one map: its rows before and after the
intervention, X_B and X_B + delta_B, are each projected onto the frozen basis
H and row-normalized (`target_codes`). The reference group keeps its model
codes (`problem.reference_codes`), the distribution the solver aligns to. A
zero intervention therefore scores zero conversions and zero discrepancy
change.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .factorization import nnls_project_rows, normalize_rows
from .optimizer import InterventionProblem, InterventionResult
from .records import _has_type
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


@dataclass(frozen=True)
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


def conversion_metrics(p_pre: np.ndarray, p_post: np.ndarray, tau_y: float) -> ConversionMetrics:
    """Count target respondents whose predicted probability crosses tau_y
    upward.

    A respondent converts when the pre probability is strictly below tau_y
    and the post probability reaches it (>=).
    """
    if not 0.0 < tau_y < 1.0:
        raise ValueError(f"tau_y must lie in (0, 1), got {tau_y}")
    if p_pre.shape != p_post.shape:
        raise ValueError("pre and post probabilities differ in length")
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
    if not _has_type(tau_delta, "float"):
        raise ValueError(f"tau_delta must be float, got {tau_delta!r}")
    if tau_delta < 0:
        raise ValueError(f"tau_delta must be >= 0, got {tau_delta!r}")
    s_ctrl = np.asarray(s_ctrl, dtype=int)
    norms = np.linalg.norm(np.asarray(delta, dtype=float)[:, s_ctrl], axis=0)
    effort = float(np.sum(norms))
    n_lever = int(np.sum(norms > tau_delta))
    return effort, n_lever


def target_codes(problem: InterventionProblem, result: InterventionResult) -> tuple[np.ndarray, np.ndarray]:
    """Normalized codes of the target rows before and after the intervention.

    X_B is the problem's own projection (`target_projection`); X_B + delta_B
    is projected onto the frozen basis in a separate call, once per result,
    and kept as `result.post_projection`. When delta_B = 0 the post rows are
    X_B, and `target_projection` is kept instead: a separate call would give
    the same bits, since equal rows give bit-identical codes.
    """
    if result.post_projection is None:
        i_b = problem.groups.i_target
        delta_b = result.delta[i_b]
        if delta_b.any():
            post = nnls_project_rows(problem.dataset.X[i_b] + delta_b, problem.latent.H)
            post.setflags(write=False)
        else:
            post = problem.target_projection
        result.post_projection = post
    return normalize_rows(problem.target_projection), normalize_rows(result.post_projection)


def evaluate_intervention(problem: InterventionProblem, result: InterventionResult) -> MetricsReport:
    """Score a result against the problem it solves: the one metrics pass
    shared by the full method, baselines and ablations.

    Each code set (reference, target pre, target post) is scored by the probe
    once. A respondent converts at the probe's tau_y (`conversion_metrics`).
    The movement table has three rows: reference, target_pre and
    target_post. Each reports the group's mean probability, the distance of
    its centroid in normalized latent space from the reference centroid, and
    its entropic transport cost to the reference codes. The reference row's
    distance to itself is 0, and its discrepancy is 0 by convention, not the
    positive entropic cost of transporting the reference onto itself.

    The pre discrepancy is the problem's own; a pass solves only the post
    one, none when the post codes equal the pre codes, and writes nothing to
    the problem. A zero pre discrepancy marks the reduction ratio degenerate.
    """
    model = problem.surrogate
    ref = problem.reference_codes
    pre, post = target_codes(problem, result)
    p_ref, p_pre, p_post = (model.predict_proba(codes) for codes in (ref, pre, post))

    conv = conversion_metrics(p_pre, p_post, model.tau_y)
    effort, n_lever = effort_and_levers(result.delta, problem.dataset.schema.s_ctrl, problem.tau_delta)

    w_before = problem.pre_discrepancy
    post_side = None if np.array_equal(post, pre) else transport.TransportProblem.from_supports(post, ref, problem.eta)
    w_after = w_before if post_side is None else transport.sinkhorn(post_side).transport_cost
    dw = w_before - w_after
    degenerate = not w_before > 0

    c_ref = ref.mean(axis=0)
    movement = tuple(
        GroupMovementRow(group, codes.shape[0], float(np.mean(p)), float(np.linalg.norm(codes.mean(axis=0) - c_ref)), w)
        for group, codes, p, w in (
            ("reference", ref, p_ref, 0.0),
            ("target_pre", pre, p_pre, w_before),
            ("target_post", post, p_post, w_after),
        )
    )
    return MetricsReport(
        n_conv=conv.n_conv,
        r_conv=conv.r_conv,
        mean_dp=conv.mean_dp,
        effort=effort,
        n_lever=n_lever,
        eff_conv=conv.n_conv / max(effort, EFFORT_FLOOR),
        w_before=w_before,
        w_after=w_after,
        dw=dw,
        rho_reduction=0.0 if degenerate else dw / w_before,
        degenerate_alignment=degenerate,
        group_movement=movement,
        n_target=int(problem.groups.i_target.size),
    )
