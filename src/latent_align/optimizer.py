"""Sparse feasible distributional intervention solver.

The nonconvex objective (entropic transport discrepancy of the post-change
target distribution, plus a weighted l2,1 lever penalty) is handled with an
auxiliary-variable relaxation: latent codes U are free nonnegative variables
tied to the feature-space change by a quadratic coupling penalty. Each outer
iteration alternates a projected gradient step on U with a projected
proximal-gradient step on the intervention matrix, and an iterate is accepted
only if the penalized objective strictly decreases.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .factorization import LatentModel, nnls_project_rows, normalize_rows
from .grouping import GroupAssignment
from .schema import FeatureSchema, SurveyDataset, validate_row
from .surrogate import PriorityWeights, SurrogateModel
from . import transport

NORMALIZATION_FLOOR = 1e-12
DEFAULT_TAU_DELTA = 1e-6
MAX_HALVINGS = 20
STEP_GROWTH = 2.0
# Initial step on each block, as a fraction of the inverse of its curvature.
STEP_FRACTION = 0.1
# Auto coupling weight: scale / (n_target * median row mass squared). The
# alignment force on a target row is O(1/n_target) and acts on codes whose
# mass is the row's l1 norm, so a fixed O(1) coupling weight pins the codes
# to their projections and no descent direction can move them.
BETA_AUTO_SCALE = 300.0

STATUS_CONVERGED = "converged"
STATUS_MAX_OUTER = "max_outer"
STATUS_STALLED = "stalled_at_zero"
STATUS_PLATEAU = "plateau"

ALIGNMENT_OT = "ot"
ALIGNMENT_MEAN_MARGIN = "mean_margin"
ALIGNMENT_CENTROID = "centroid"


@dataclass
class InterventionProblem:
    """Inputs and knobs for one intervention solve.

    The surrogate rides along for trajectory logging (mean predicted gain per
    accepted iteration) and for the outcome-only alignment variant.
    beta_couple=None selects a data-scaled coupling weight.
    """

    dataset: SurveyDataset
    latent: LatentModel
    groups: GroupAssignment
    priorities: PriorityWeights
    surrogate: SurrogateModel
    eta: float = transport.DEFAULT_ETA
    sparsity_weight: float = 0.05
    beta_couple: float | None = None
    max_outer: int = 200
    tol_obj: float = 1e-5
    alignment: str = ALIGNMENT_OT
    tau_delta: float = DEFAULT_TAU_DELTA

    def __post_init__(self):
        if self.sparsity_weight < 0:
            raise ValueError("sparsity_weight must be >= 0")
        if self.beta_couple is not None and not self.beta_couple > 0:
            raise ValueError("beta_couple must be positive (or None for auto)")
        if not self.eta > 0:
            raise ValueError("eta must be positive")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")
        if self.alignment not in (ALIGNMENT_OT, ALIGNMENT_MEAN_MARGIN, ALIGNMENT_CENTROID):
            raise ValueError(f"unknown alignment kind {self.alignment!r}")


@dataclass(frozen=True)
class TrajectoryRecord:
    iteration: int
    objective: float
    alignment: float
    coupling: float
    sparsity: float
    mean_gain: float


@dataclass(frozen=True)
class LeverActivation:
    feature: int
    name: str
    magnitude: float
    omega: float


@dataclass
class InterventionResult:
    delta: np.ndarray
    trajectory: tuple[TrajectoryRecord, ...]
    active_levers: tuple[LeverActivation, ...]
    rounded_delta: np.ndarray
    status: str
    n_sinkhorn_calls: int
    beta_used: float
    objective: float

    def __post_init__(self):
        self.delta.setflags(write=False)
        self.rounded_delta.setflags(write=False)

    def delta_triplets(self, rounded: bool = False) -> list[dict]:
        D = self.rounded_delta if rounded else self.delta
        rows, cols = np.nonzero(D)
        return [
            {"i": int(i), "j": int(j), "value": float(D[i, j])}
            for i, j in zip(rows.tolist(), cols.tolist())
        ]

    def to_dict(self) -> dict:
        return {
            "delta": self.delta_triplets(),
            "rounded_delta": self.delta_triplets(rounded=True),
            "active_levers": [asdict(a) for a in self.active_levers],
            "trajectory": [asdict(r) for r in self.trajectory],
            "status": self.status,
            "n_sinkhorn_calls": self.n_sinkhorn_calls,
            "beta_used": self.beta_used,
            "objective": self.objective,
        }


def project_feasible(
    delta: np.ndarray,
    X: np.ndarray,
    schema: FeatureSchema,
    i_target: np.ndarray,
) -> np.ndarray:
    """Project an intervention matrix onto the feasible set.

    Rows outside the target group and columns that are fixed or categorical
    become exact zeros; surviving entries are clipped so the post value stays
    inside the feature bounds. Idempotent.
    """
    delta = np.array(delta, dtype=float)
    n, d = X.shape
    if delta.shape != (n, d):
        raise ValueError(f"delta has shape {delta.shape}, expected {X.shape}")
    mask_rows = np.zeros(n, dtype=bool)
    mask_rows[np.asarray(i_target, dtype=int)] = True
    delta[~mask_rows, :] = 0.0
    blocked = np.concatenate([schema.s_fixed, schema.s_categorical])
    delta[:, np.unique(blocked)] = 0.0
    lo = schema.lowers[None, :] - X
    hi = schema.uppers[None, :] - X
    rows = np.flatnonzero(mask_rows)
    delta[rows, :] = np.clip(delta[rows, :], lo[rows, :], hi[rows, :])
    delta[:, np.unique(blocked)] = 0.0
    return delta


def prox_weighted_l21(block: np.ndarray, rho: np.ndarray, t_lambda: float) -> np.ndarray:
    """Columnwise group soft-threshold with per-column weights.

    Column j shrinks by max(0, 1 - t_lambda * rho_j / ||col_j||); zero
    columns stay zero, and t_lambda = 0 is the identity. A nonzero column
    whose norm underflows to 0 gets it recomputed after scaling by its
    largest |entry|.
    """
    if t_lambda < 0:
        raise ValueError("t_lambda must be >= 0")
    block = np.asarray(block, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (block.shape[1],):
        raise ValueError("one rho per column required")
    if t_lambda == 0:
        return block.copy()
    norms = np.linalg.norm(block, axis=0)
    tiny = (norms == 0) & np.any(block != 0, axis=0)
    if np.any(tiny):
        scale = np.max(np.abs(block[:, tiny]), axis=0)
        norms[tiny] = scale * np.linalg.norm(block[:, tiny] / scale, axis=0)
    # only columns that survive get a factor, so t_lambda * rho / norm < 1
    # never overflows on a tiny norm
    factor = np.zeros_like(norms)
    keep = norms > t_lambda * rho
    factor[keep] = 1.0 - t_lambda * rho[keep] / norms[keep]
    return block * factor[None, :]


def coupling_residual(
    U: np.ndarray, D: np.ndarray, X_B: np.ndarray, H: np.ndarray, levers: np.ndarray
) -> np.ndarray:
    """Mismatch between the post rows and their latent image over the target
    block: X_B - U H, with the lever block D added on the lever columns."""
    R = X_B - U @ H
    R[:, levers] += D
    return R


def coupling_value(R: np.ndarray) -> float:
    """The coupling penalty ||R||_F^2 of a residual."""
    return float(np.einsum("ij,ij->", R, R))


def coupling_grad_codes(R: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Gradient of the coupling penalty w.r.t. the codes U."""
    return -2.0 * R @ H.T


def coupling_grad_levers(R: np.ndarray, levers: np.ndarray) -> np.ndarray:
    """Gradient of the coupling penalty w.r.t. the lever block D."""
    return 2.0 * R[:, levers]


def lever_penalty(D: np.ndarray, rho: np.ndarray) -> float:
    """Weighted l2,1 norm of the lever block: sum_j rho_j ||D_:j||."""
    return float(np.sum(rho * np.linalg.norm(D, axis=0)))


def _tilde(U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Floor-guarded row l1 normalization and the scales used."""
    s = U.sum(axis=1) + NORMALIZATION_FLOOR
    return U / s[:, None], s


def _chain_through_normalization(g_tilde: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Pull a gradient w.r.t. the normalized codes back to the raw codes.

    With u~ = U_p / (||U_p||_1 + floor), the Jacobian contracts to
    (g - (g . u~) 1) / s per row.
    """
    u_t, s = _tilde(U)
    radial = np.sum(g_tilde * u_t, axis=1, keepdims=True)
    return (g_tilde - radial) / s[:, None]


def ot_grad_wrt_U(U: np.ndarray, W_tilde_ref: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Gradient of the fixed-plan transport cost w.r.t. the raw codes.

    The plan is held fixed (envelope-style update), so the entropy term is
    constant and only sum_pq gamma_pq ||u~_p - w~_q||^2 varies; the gradient
    chains through the row normalization of U.
    """
    U = np.asarray(U, dtype=float)
    u_t, _ = _tilde(U)
    if gamma.shape != (U.shape[0], W_tilde_ref.shape[0]):
        raise ValueError("plan shape does not match the supports")
    row_mass = gamma.sum(axis=1)
    g_tilde = 2.0 * (row_mass[:, None] * u_t - gamma @ W_tilde_ref)
    return _chain_through_normalization(g_tilde, U)


class _OTAlignment:
    def __init__(self, w_ref: np.ndarray, eta: float):
        self.w_ref = w_ref
        self.eta = eta
        self.plan: np.ndarray | None = None
        self.n_calls = 0

    def refresh(self, u_tilde: np.ndarray) -> float:
        problem = transport.TransportProblem.from_supports(u_tilde, self.w_ref, self.eta)
        sol = transport.sinkhorn(problem)
        self.n_calls += 1
        self.plan = sol.gamma
        return sol.transport_cost

    def grad_u(self, U: np.ndarray) -> np.ndarray:
        return ot_grad_wrt_U(U, self.w_ref, self.plan)


class _MeanMarginAlignment:
    """Outcome-only stand-in: minimize the negative mean surrogate margin."""

    def __init__(self, beta: np.ndarray, bias: float):
        self.beta = beta
        self.bias = bias
        self.n_calls = 0

    def refresh(self, u_tilde: np.ndarray) -> float:
        return -float(np.mean(u_tilde @ self.beta + self.bias))

    def grad_u(self, U: np.ndarray) -> np.ndarray:
        n_b = U.shape[0]
        g_tilde = np.tile(-self.beta / n_b, (n_b, 1))
        return _chain_through_normalization(g_tilde, U)


class _CentroidAlignment:
    """Distribution-free stand-in: squared distance between group mean codes."""

    def __init__(self, centroid_ref: np.ndarray):
        self.centroid_ref = centroid_ref
        self.n_calls = 0

    def refresh(self, u_tilde: np.ndarray) -> float:
        diff = u_tilde.mean(axis=0) - self.centroid_ref
        return float(diff @ diff)

    def grad_u(self, U: np.ndarray) -> np.ndarray:
        u_t, _ = _tilde(U)
        n_b = U.shape[0]
        diff = u_t.mean(axis=0) - self.centroid_ref
        g_tilde = np.tile(2.0 * diff / n_b, (n_b, 1))
        return _chain_through_normalization(g_tilde, U)


def _make_alignment(problem: InterventionProblem, w_ref: np.ndarray):
    if problem.alignment == ALIGNMENT_OT:
        return _OTAlignment(w_ref, problem.eta)
    if problem.alignment == ALIGNMENT_MEAN_MARGIN:
        return _MeanMarginAlignment(problem.surrogate.beta, problem.surrogate.bias)
    return _CentroidAlignment(w_ref.mean(axis=0))


def resolve_beta(problem: InterventionProblem, U0: np.ndarray) -> float:
    if problem.beta_couple is not None:
        return problem.beta_couple
    n_b = U0.shape[0]
    s_med = float(np.median(U0.sum(axis=1)))
    return BETA_AUTO_SCALE / (n_b * max(s_med, 1.0) ** 2)


def optimize(problem: InterventionProblem) -> InterventionResult:
    """Run the alternating solve and return the final feasible intervention.

    Each outer iteration refreshes the alignment term at the current codes,
    takes a projected gradient step on U (alignment pull plus coupling), then
    a proximal step on the lever block of the intervention (coupling gradient,
    weighted group soft-threshold, feasibility clip). A candidate is accepted
    only if the penalized objective strictly decreases; otherwise both steps
    halve and the iteration retries, up to MAX_HALVINGS times.
    """
    dataset, latent, groups = problem.dataset, problem.latent, problem.groups
    schema = dataset.schema
    levers = schema.policy_levers
    if levers.size == 0:
        raise ValueError("no controllable non-categorical features to intervene on")
    i_b = groups.i_target
    X_B = dataset.X[i_b]
    H = latent.H
    n_b = i_b.size

    w_ref = normalize_rows(latent.W).codes[groups.i_reference]
    U = nnls_project_rows(X_B, H)
    D = np.zeros((n_b, levers.size))
    rho_lev = problem.priorities.rho_for(levers)
    beta = resolve_beta(problem, U)
    align = _make_alignment(problem, w_ref)

    lo = schema.lowers[levers][None, :] - X_B[:, levers]
    hi = schema.uppers[levers][None, :] - X_B[:, levers]

    lam = problem.sparsity_weight
    lam_h = float(np.max(np.linalg.eigvalsh(H @ H.T)))
    s_med = float(np.median(U.sum(axis=1)))
    curvature_u = 2.0 * beta * lam_h + 2.0 / (n_b * max(s_med, 1.0) ** 2)
    t_u = STEP_FRACTION / curvature_u
    t_d = STEP_FRACTION / (2.0 * beta)

    u_t, _ = _tilde(U)
    mean_prob_pre = float(np.mean(problem.surrogate.predict_proba(u_t)))

    def mean_gain(u_tilde):
        return float(np.mean(problem.surrogate.predict_proba(u_tilde))) - mean_prob_pre

    align_val = align.refresh(u_t)
    R = coupling_residual(U, D, X_B, H, levers)
    coup = coupling_value(R)
    spars = lever_penalty(D, rho_lev)
    J = align_val + beta * coup + lam * spars
    trajectory = [TrajectoryRecord(0, J, align_val, coup, spars, mean_gain(u_t))]

    status = STATUS_MAX_OUTER
    accepted_any = False
    small_streak = 0
    for it in range(1, problem.max_outer + 1):
        g_u = align.grad_u(U) + beta * coupling_grad_codes(R, H)
        accepted = False
        for _ in range(MAX_HALVINGS + 1):
            U_c = np.maximum(U - t_u * g_u, 0.0)
            R_mid = coupling_residual(U_c, D, X_B, H, levers)
            g_d = beta * coupling_grad_levers(R_mid, levers)
            D_c = prox_weighted_l21(D - t_d * g_d, rho_lev, t_d * lam)
            D_c = np.clip(D_c, lo, hi)

            u_tc, _ = _tilde(U_c)
            align_c = align.refresh(u_tc)
            R_c = coupling_residual(U_c, D_c, X_B, H, levers)
            coup_c = coupling_value(R_c)
            spars_c = lever_penalty(D_c, rho_lev)
            J_c = align_c + beta * coup_c + lam * spars_c
            if J_c < J:
                accepted = True
                break
            t_u *= 0.5
            t_d *= 0.5
        if not accepted:
            status = STATUS_PLATEAU if accepted_any else STATUS_STALLED
            break

        rel = (J - J_c) / max(abs(J), 1e-30)
        U, D, R, u_t = U_c, D_c, R_c, u_tc
        J, align_val, coup, spars = J_c, align_c, coup_c, spars_c
        trajectory.append(TrajectoryRecord(it, J, align_val, coup, spars, mean_gain(u_t)))
        accepted_any = True
        t_u *= STEP_GROWTH
        t_d *= STEP_GROWTH
        if rel < problem.tol_obj:
            small_streak += 1
            if small_streak >= 3:
                status = STATUS_CONVERGED
                break
        else:
            small_streak = 0

    return _assemble_result(problem, D, trajectory, status, align.n_calls, beta)


def _assemble_result(
    problem: InterventionProblem,
    D: np.ndarray,
    trajectory: list[TrajectoryRecord],
    status: str,
    n_sinkhorn_calls: int,
    beta_used: float,
) -> InterventionResult:
    """Scatter the lever block into a full intervention, round it for
    reporting, re-validate every target row, rank the active levers and
    build the result. The objective is the last trajectory record's."""
    dataset, i_b = problem.dataset, problem.groups.i_target
    X, schema = dataset.X, dataset.schema
    levers = schema.policy_levers
    delta = np.zeros_like(X)
    delta[np.ix_(i_b, levers)] = D
    rounded = round_report(delta, X, schema, i_b)
    for i in i_b:
        bad = validate_row(X[i] + delta[i], schema, mode="optimize")
        if bad:
            raise RuntimeError(f"optimizer produced an infeasible row {i}: {bad[0]}")
        bad = validate_row(X[i] + rounded[i], schema, mode="report")
        if bad:
            raise RuntimeError(f"rounding produced an invalid report row {i}: {bad[0]}")

    norms = np.linalg.norm(D, axis=0)
    omega_lev = problem.priorities.omega_for(levers)
    active = [
        LeverActivation(int(levers[c]), schema.features[levers[c]].name, float(norms[c]), float(omega_lev[c]))
        for c in range(levers.size)
        if norms[c] > problem.tau_delta
    ]
    active.sort(key=lambda a: (-a.magnitude, a.feature))

    return InterventionResult(
        delta=delta,
        trajectory=tuple(trajectory),
        active_levers=tuple(active),
        rounded_delta=rounded,
        status=status,
        n_sinkhorn_calls=n_sinkhorn_calls,
        beta_used=beta_used,
        objective=trajectory[-1].objective,
    )


def round_report(
    delta: np.ndarray,
    X: np.ndarray,
    schema: FeatureSchema,
    i_target: np.ndarray,
) -> np.ndarray:
    """Re-express the intervention with binary and Likert post values rounded.

    Rounding acts on x + delta and is mapped back to a delta; exact halves
    round away from zero. Numeric non-binary features pass through, and rows
    outside the target group are untouched.
    """
    delta = np.asarray(delta, dtype=float)
    rounded = delta.copy()
    i_target = np.asarray(i_target, dtype=int)
    discrete = np.concatenate([schema.s_likert, schema.s_binary])
    for j in np.unique(discrete):
        lo, hi = schema.lowers[j], schema.uppers[j]
        post = X[i_target, j] + delta[i_target, j]
        post = np.clip(np.floor(post + 0.5), lo, hi)
        rounded[i_target, j] = post - X[i_target, j]
    return rounded
