"""Sparse feasible distributional intervention solver.

The nonconvex objective (entropic transport discrepancy of the post-change
target distribution, plus a weighted l2,1 lever penalty) is handled with an
auxiliary-variable relaxation: latent codes U are free nonnegative variables
tied to the feature-space change by a quadratic coupling penalty. Each outer
iteration takes a projected gradient step on U and then a projected
proximal-gradient step on the intervention's lever block, in the manner of
proximal alternating linearized minimization (Bolte, Sabach & Teboulle 2014).
Each block keeps its own step size and backtracks on its own part of the
penalized objective, so only U trials pay for a transport solve; an iterate
is accepted only if the whole penalized objective strictly decreases.
`check_knobs` states each solve knob's range once, for the config, problem
construction and `with_knobs`; the last two apply `records.check_types` first.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .factorization import LatentModel, nnls_project_rows, normalize_rows
from .grouping import GroupAssignment
from .records import _has_type, check_types, field_rows
from .schema import FeatureSchema, SurveyDataset, validate_rows
from .surrogate import PriorityWeights, SurrogateModel
from . import transport

NORMALIZATION_FLOOR = 1e-12
_SMALLEST_SUBNORMAL = 5e-324
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


def check_knobs(obj, error: type[Exception] = ValueError, names: dict | None = None) -> None:
    """Raise error at the first solve knob of obj out of its range, as "<name>
    must be <rule>, got <value>"; names renames fields as in `check_types`."""
    for name, ok, rule in (
        ("eta", obj.eta > 0, "positive"),
        ("sparsity_weight", obj.sparsity_weight >= 0, ">= 0"),
        ("beta_couple", obj.beta_couple is None or obj.beta_couple > 0, "positive or None"),
        ("max_outer", obj.max_outer >= 1, ">= 1"),
        ("tol_obj", obj.tol_obj >= 0, ">= 0"),
        ("tau_delta", obj.tau_delta >= 0, ">= 0"),
    ):
        if not ok:
            raise error(f"{(names or {}).get(name, name)} must be {rule}, got {getattr(obj, name)!r}")


@dataclass(frozen=True)
class InterventionProblem:
    """Inputs and knobs for one intervention solve: checked, complete and
    read-only once built. beta_couple=None selects a data-scaled coupling
    weight; the surrogate rides along for trajectory logging and for the
    outcome-only alignment.

    Construction derives target_projection = nnls_project_rows(X_B, H), the
    target rows' raw codes on the frozen basis; reference_codes, the
    normalized reference codes the solver aligns to; lever_box, lowers - X_B
    over uppers - X_B on the lever block; and pre_discrepancy, the transport
    cost from the normalized target codes to the reference codes at eta.
    `with_knobs` copies share all four; dataclasses.replace derives them anew.
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
    target_projection: np.ndarray = field(init=False, repr=False, compare=False)
    reference_codes: np.ndarray = field(init=False, repr=False, compare=False)
    lever_box: np.ndarray = field(init=False, repr=False, compare=False)
    pre_discrepancy: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._check()
        target = nnls_project_rows(self.dataset.X[self.groups.i_target], self.latent.H)
        reference = normalize_rows(self.latent.W)[self.groups.i_reference]
        box = _lever_box(self.dataset.X, self.dataset.schema, self.groups.i_target)
        for name, a in (("target_projection", target), ("reference_codes", reference), ("lever_box", box)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        pre = transport.TransportProblem.from_supports(normalize_rows(target), reference, self.eta)
        object.__setattr__(self, "pre_discrepancy", transport.sinkhorn(pre).transport_cost)

    def with_knobs(self, **changes) -> "InterventionProblem":
        """A copy with other solver knobs that shares the four derived fields;
        the dataset, basis, groups and eta need dataclasses.replace."""
        knobs = {f.name for f in fields(self) if f.init} - {"dataset", "latent", "groups", "eta"}
        if not changes.keys() <= knobs:
            raise ValueError(f"with_knobs changes only {sorted(knobs)}, got {sorted(changes.keys() - knobs)}")
        new = copy.copy(self)
        new.__dict__.update(changes)
        new._check()
        return new

    def _check(self) -> None:
        check_types(self, ValueError)
        check_knobs(self)
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
    """The intervention a solve or a baseline produced, with its counters.

    objective is the last trajectory record's, and None for a constructed
    result, which solves nothing: its trajectory is empty and its counters
    are 0. post_projection holds nnls_project_rows(X_B + delta_B, H), the raw
    codes of the post rows on the frozen basis, once something has projected
    them: a uniform baseline when it constructs its intervention, otherwise
    the first evaluation (`evaluation.target_codes`), which keeps the
    problem's target_projection when delta_B = 0. Every later post score
    reads it. It is not an init field, so a `dataclasses.replace` copy starts
    without it and is projected again when it is scored. Unlike the records a
    run carries, the result is not frozen: that cache is set after
    construction.
    """

    delta: np.ndarray
    trajectory: tuple[TrajectoryRecord, ...]
    active_levers: tuple[LeverActivation, ...]
    rounded_delta: np.ndarray
    status: str
    n_sinkhorn_calls: int
    beta_used: float
    objective: float | None
    # outer iterations entered, and the trial points each block evaluated
    n_outer: int
    n_u_trials: int
    n_delta_trials: int
    # Sinkhorn iterations summed over the n_sinkhorn_calls solves
    n_sinkhorn_iters: int
    post_projection: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

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
            "active_levers": field_rows(self.active_levers),
            "trajectory": field_rows(self.trajectory),
            "status": self.status,
            "n_sinkhorn_calls": self.n_sinkhorn_calls,
            "beta_used": self.beta_used,
            "objective": self.objective,
            "n_outer": self.n_outer,
            "n_u_trials": self.n_u_trials,
            "n_delta_trials": self.n_delta_trials,
            "n_sinkhorn_iters": self.n_sinkhorn_iters,
        }


def project_feasible(
    delta: np.ndarray,
    X: np.ndarray,
    schema: FeatureSchema,
    i_target: np.ndarray,
) -> np.ndarray:
    """Project an intervention matrix onto the feasible set.

    Only the target-row x policy-lever block survives, clipped so the post
    value stays inside the feature bounds; every other entry (rows outside
    the target group, fixed and categorical columns) is an exact zero.
    Idempotent.
    """
    delta = np.asarray(delta, dtype=float)
    if delta.shape != X.shape:
        raise ValueError(f"delta has shape {delta.shape}, expected {X.shape}")
    block = np.ix_(np.asarray(i_target, dtype=int), schema.policy_levers)
    out = np.zeros_like(delta)
    out[block] = np.clip(delta[block], *_lever_box(X, schema, i_target))
    return out


def _lever_box(X: np.ndarray, schema: FeatureSchema, i_target: np.ndarray) -> np.ndarray:
    """The feasible box of the target-row x policy-lever block: lowers - X_B
    stacked on uppers - X_B, the changes that keep each post value in bounds."""
    levers = schema.policy_levers
    X_B = X[np.ix_(np.asarray(i_target, dtype=int), levers)]
    return np.stack((schema.lowers[levers] - X_B, schema.uppers[levers] - X_B))


def prox_weighted_l21(block: np.ndarray, rho: np.ndarray, t_lambda: float) -> np.ndarray:
    """Columnwise group soft-threshold with per-column weights.

    Column j shrinks by max(0, 1 - t_lambda * rho_j / ||col_j||); zero
    columns stay zero, and t_lambda = 0 is the identity. A nonzero column
    whose norm underflows to 0 gets it recomputed after scaling by its
    largest |entry|.

    The factor is 1 - t_lambda rho_j / max(||col_j||, t_lambda rho_j, 5e-324):
    exactly 1 - t_lambda rho_j / ||col_j|| on a surviving column, exactly 0 on
    any other (so no ratio overflows on a tiny norm), and 1 on a zero column
    with rho_j = 0.
    """
    if not _has_type(t_lambda, "float"):
        raise ValueError(f"t_lambda must be float, got {t_lambda!r}")
    if t_lambda < 0:
        raise ValueError(f"t_lambda must be >= 0, got {t_lambda!r}")
    block = np.asarray(block, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (block.shape[1],):
        raise ValueError("one rho per column required")
    if t_lambda == 0:
        return block.copy(order="K")
    norms = _column_norms(block)
    if np.count_nonzero(norms) < norms.size:
        tiny = (norms == 0) & (block != 0).any(axis=0)
        if tiny.any():
            scale = np.max(np.abs(block[:, tiny]), axis=0)
            norms[tiny] = scale * np.linalg.norm(block[:, tiny] / scale, axis=0)
    thresh = t_lambda * rho
    factor = np.divide(thresh, np.maximum(norms, np.maximum(thresh, _SMALLEST_SUBNORMAL)))
    return block * np.subtract(1.0, factor, out=factor)


def coupling_residual(gap: np.ndarray, D: np.ndarray, levers: np.ndarray | slice) -> np.ndarray:
    """Mismatch between the post rows and their latent image over the target
    block, X_B + D - U H: the lever block D is added in place to the lever
    columns (an index array, or the slice of a contiguous range) of
    gap = X_B - U H, which is returned."""
    gap[:, levers] += D
    return gap


def coupling_value(R: np.ndarray) -> float:
    """The coupling penalty ||R||_F^2 of a residual."""
    return float(np.einsum("ij,ij->", R, R))


def coupling_grad_codes(R: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Gradient of the coupling penalty w.r.t. the codes U."""
    g = _product(R, H.T)
    g *= -2.0
    return g


def coupling_grad_levers(R: np.ndarray, levers: np.ndarray | slice) -> np.ndarray:
    """Gradient of the coupling penalty w.r.t. the lever block D, laid out as
    R (an index array gathers the columns column-major whatever R's layout)."""
    block = R[:, levers]
    return np.multiply(block, 2.0, out=np.empty_like(R, shape=block.shape))


def lever_penalty(D: np.ndarray, rho: np.ndarray) -> float:
    """Weighted l2,1 norm of the lever block: sum_j rho_j ||D_:j||."""
    return float(np.add.reduce(rho * _column_norms(D)))


def _product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B laid out as A: a column-major A gives the column-major
    (B^T A^T)^T, which the GEMM writes without a layout change."""
    return (B.T @ A.T).T if np.isfortran(A) else A @ B


def _mean_rows(A: np.ndarray):
    """np.mean(A, axis=0): its sum and division, without its dispatch."""
    return np.add.reduce(A, 0) / A.shape[0]


def _column_norms(A: np.ndarray) -> np.ndarray:
    """Euclidean column norms, computed as np.linalg.norm(A, axis=0) computes
    them for a real matrix, without its dispatch."""
    return np.sqrt(np.add.reduce(A * A, 0))


def _tilde(U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Floor-guarded row l1 normalization and the scales used."""
    s = np.add.reduce(U, 1)
    s += NORMALIZATION_FLOOR
    return U / s[:, None], s


def _chain_through_normalization(g_tilde: np.ndarray, u_t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Pull a gradient w.r.t. the normalized codes back to the raw codes.

    With u~ = U_p / s_p, s_p = ||U_p||_1 + floor (the pair `_tilde` returns),
    the Jacobian contracts to (g - (g . u~) 1) / s per row.
    """
    radial = np.add.reduce(g_tilde * u_t, 1, keepdims=True)
    # written into an array laid out as u_t, which a g_tilde of one row
    # broadcast against the radial column would not give
    out = np.subtract(g_tilde, radial, out=np.empty_like(u_t))
    out /= s[:, None]
    return out


def ot_grad_wrt_U(U: np.ndarray, gamma_w: np.ndarray, row_mass, tilde=None) -> np.ndarray:
    """Gradient of the fixed-plan transport cost w.r.t. the raw codes.

    The plan gamma is held fixed (envelope-style update), so the entropy term
    is constant and only sum_pq gamma_pq ||u~_p - w~_q||^2 varies. Its
    gradient in u~_p is 2 (r_p u~_p - (gamma W~_ref)_p), with r_p the plan's
    row mass, so the plan enters only through gamma_w = gamma @ W~_ref and
    row_mass: a float when the rows carry uniform mass, as the solver's do
    (1 / n_b), or a column of row sums. The gradient chains through the row
    normalization of U; tilde, the pair `_tilde(U)` returns, saves forming
    it again when the caller holds it.
    """
    U = np.asarray(U, dtype=float)
    if gamma_w.shape != U.shape:
        raise ValueError("plan image shape does not match the codes")
    u_t, s = _tilde(U) if tilde is None else tilde
    g_tilde = row_mass * u_t
    g_tilde -= gamma_w
    g_tilde *= 2.0
    return _chain_through_normalization(g_tilde, u_t, s)


def _extrapolated_start(v: np.ndarray, u_tilde: np.ndarray, path) -> np.ndarray:
    """The column scaling v of the plan kept at the current codes, carried
    along the last accepted move to the trial codes u_tilde.

    path is (codes before the move, codes after it, the plan before it), all
    normalized codes, or None before the first move. Along a move from codes
    with scaling v_prev to codes with scaling v, the start is
    v * (v / v_prev)^c, c the projection of the trial step u_tilde - codes
    onto the move, clipped to [0, 2]: a trial that repeats the last move
    starts about where that move took the scaling. Without a move, or when an
    entry of the start is not positive and finite, the start is v.
    """
    if path is None:
        return v
    before, after, plan_before = path
    move = after - before
    move_sq = float(np.einsum("ij,ij->", move, move))
    if not move_sq > 0:
        return v
    c = min(max(float(np.einsum("ij,ij->", u_tilde - after, move)) / move_sq, 0.0), 2.0)
    with np.errstate(all="ignore"):
        v0 = v * (v / plan_before.v) ** c
    return v0 if v0.min() > 0 and v0.max() < np.inf else v


class _OTAlignment:
    """Transport alignment. refresh returns the term's value at the codes and
    the kernel-first solve there (a SupportsPlan: gamma @ W~_ref and the
    final column scaling, never the cost matrix or gamma), made by one
    `transport.SupportsSolver` bound to W~_ref and eta; grad_u holds that
    plan fixed. The solver keeps the plan of its current codes, so a
    rejected trial's plan never enters a gradient.

    refresh(u_tilde, kept, None, path) warm-starts the solve from the column
    scaling of the plan kept at the current codes, extrapolated along the
    last accepted move (`_extrapolated_start`), and
    refresh(u_tilde, kept, rejected) from the element-wise geometric mean of
    the kept and the rejected trial's scalings: a retrial's codes lie about
    halfway between theirs."""

    def __init__(self, w_ref: np.ndarray, eta: float):
        self.solver = transport.SupportsSolver(w_ref, eta)
        self.n_calls = 0
        self.n_iters = 0

    def refresh(
        self, u_tilde: np.ndarray, kept=None, rejected=None, path=None
    ) -> tuple[float, transport.SupportsPlan]:
        if kept is None:
            v0 = None
        elif rejected is None:
            v0 = _extrapolated_start(kept.v, u_tilde, path)
        else:
            v0 = np.sqrt(kept.v) * np.sqrt(rejected.v)
        sol = self.solver.solve(u_tilde, v0)
        self.n_calls += 1
        self.n_iters += sol.iters
        return sol.transport_cost, sol

    def grad_u(self, U: np.ndarray, plan: transport.SupportsPlan, tilde) -> np.ndarray:
        return ot_grad_wrt_U(U, plan.gamma_target, 1.0 / U.shape[0], tilde=tilde)


class _MeanCodeAlignment:
    """Transport-free stand-in: a term of the mean normalized code m.
    refresh returns value(u_tilde), the term at the codes; grad_u spreads
    grad(m), the term's gradient in m, as grad(m) / n_b on every row's
    normalized code and pulls it back to the raw codes."""

    def __init__(self, value, grad):
        self.value, self.grad = value, grad
        self.n_calls = self.n_iters = 0

    def refresh(self, u_tilde: np.ndarray, kept=None, rejected=None, path=None) -> tuple[float, None]:
        return self.value(u_tilde), None

    def grad_u(self, U: np.ndarray, plan: None, tilde) -> np.ndarray:
        u_t, s = tilde
        return _chain_through_normalization(self.grad(_mean_rows(u_t)) / U.shape[0], u_t, s)


def _make_alignment(problem: InterventionProblem):
    """Transport to the reference codes, or a stand-in: -mean(u~ beta + b)
    (outcome only) or ||m - c_ref||^2, c_ref the reference centroid."""
    w_ref = problem.reference_codes
    if problem.alignment == ALIGNMENT_OT:
        return _OTAlignment(w_ref, problem.eta)
    if problem.alignment == ALIGNMENT_MEAN_MARGIN:
        beta, bias = problem.surrogate.beta, problem.surrogate.bias
        return _MeanCodeAlignment(lambda u_tilde: -float(_mean_rows(u_tilde @ beta + bias)), lambda m: -beta)
    c_ref = w_ref.mean(axis=0)

    def centroid_gap(u_tilde):
        diff = _mean_rows(u_tilde) - c_ref
        return float(diff @ diff)

    return _MeanCodeAlignment(centroid_gap, lambda m: 2.0 * (m - c_ref))


def optimize(problem: InterventionProblem) -> InterventionResult:
    """Run the alternating solve and return the final feasible intervention.

    Each outer iteration makes one step per block, each with its own step
    size and its own backtracking test:

    - U step: a projected gradient step on alignment + beta * coupling with
      the lever block D held fixed. Every trial refreshes the alignment term;
      for the transport alignment that is one kernel-first Sinkhorn solve
      by a `transport.SupportsSolver` built once per call and bound to W~_ref
      and eta, which yields the transport cost and the plan applied to the
      reference codes, gamma @ W~_ref, the only parts of the plan the
      gradient reads, without forming the cost matrix or the plan. On
      simplex codes at the default eta, the bound M <= (max |u~| + max |w~|)^2
      alone puts every solve in one stage, so no solve reads the kernel's
      minimum. A rejected trial halves the U step. If MAX_HALVINGS halvings
      bring no decrease, U stays, and so does the plan solved at it. Each
      solve is warm-started (v0): the first trial of an iteration starts from
      the column scaling of the plan kept at U, carried along the last
      accepted move of U (`_extrapolated_start`), and a retrial from the
      geometric mean of the kept scaling and the rejected trial's, whose
      codes lie about twice as far from U. On the acceptance fixture a solve
      then takes 6.3 Sinkhorn iterations on average, against 15.7 from a cold
      start and 7.7 with every first trial started from the kept scaling
      alone. The gradient reads the normalized codes and row sums of the
      accepted trial rather than normalizing U again.
    - D step: a proximal gradient step on beta * coupling + lambda * sparsity
      with U held fixed at its new value (coupling gradient, weighted group
      soft-threshold, feasibility clip). The alignment term does not depend
      on D, so its trials solve no transport. A trial that leaves D where it
      is (D = 0 under a large lambda) ends the step without halving, since a
      shorter step would leave it there too.

    Each accepted block step strictly lowers its part of the objective, so
    their sum lowers the whole; the iterate is accepted only when the whole
    objective strictly decreases, and the run ends (plateau, or
    stalled_at_zero before any accepted iterate) at the first iteration where
    it does not. A block's step grows by STEP_GROWTH after an iteration in
    which its first trial was accepted.

    The accepted objective measures alignment by the transport cost
    <plan, M>, while the U gradient is the fixed-plan (envelope) gradient of
    the entropic value <plan, M> + eta * entropy. The transport cost is kept:
    the trajectory, the result's objective and the evaluation's OT
    discrepancies all report it, and on the acceptance fixture accepting on
    the entropic value converted the same respondents with the same levers
    but took 502 Sinkhorn solves against 397.

    The result counts the transport solves (n_sinkhorn_calls: one at the
    start, then one per U trial) and their Sinkhorn iterations summed
    (n_sinkhorn_iters); both are 0 for the transport-free alignments.

    Every n_b-row array of the loop is column-major and every helper keeps its
    input's layout, so numpy runs each op of a trial along the contiguous
    target rows; one op that mixes layouts gives most of that back (README).
    """
    levers = problem.dataset.schema.policy_levers
    if levers.size == 0:
        raise ValueError("no controllable non-categorical features to intervene on")
    X_B = np.asfortranarray(problem.dataset.X[problem.groups.i_target])
    H = problem.latent.H
    n_b = X_B.shape[0]
    # a contiguous lever range indexes the residual's columns by view, without
    # an index array's gather and scatter in every block trial
    cols = slice(int(levers[0]), int(levers[-1]) + 1) if levers[-1] - levers[0] == levers.size - 1 else levers

    U = np.asfortranarray(problem.target_projection)
    D = np.zeros((n_b, levers.size), order="F")
    rho_lev = problem.priorities.rho_for(levers)
    # median target row mass, floored at 1; the auto coupling weight and the U curvature read its square
    mass_sq = max(float(np.median(U.sum(axis=1))), 1.0) ** 2
    beta = problem.beta_couple if problem.beta_couple is not None else BETA_AUTO_SCALE / (n_b * mass_sq)
    align = _make_alignment(problem)
    lo, hi = (np.asfortranarray(b) for b in problem.lever_box)

    lam = problem.sparsity_weight
    lam_h = float(np.max(np.linalg.eigvalsh(H @ H.T)))
    curvature_u = 2.0 * beta * lam_h + 2.0 / (n_b * mass_sq)
    t_u = STEP_FRACTION / curvature_u
    t_d = STEP_FRACTION / (2.0 * beta)

    tilde = _tilde(U)  # (normalized codes, row sums), kept with the codes
    mean_prob_pre = float(np.mean(problem.surrogate.predict_proba(tilde[0])))

    def mean_gain(u_tilde):
        return float(_mean_rows(problem.surrogate.predict_proba(u_tilde))) - mean_prob_pre

    align_val, plan = align.refresh(tilde[0])
    R = coupling_residual(X_B - _product(U, H), D, cols)
    coup = coupling_value(R)
    spars = lever_penalty(D, rho_lev)
    J = align_val + beta * coup + lam * spars
    trajectory = [TrajectoryRecord(0, J, align_val, coup, spars, mean_gain(tilde[0]))]

    status = STATUS_MAX_OUTER
    small_streak = n_outer = n_u_trials = n_delta_trials = 0
    path = None  # the last accepted U move: codes before and after it, the plan before it
    for it in range(1, problem.max_outer + 1):
        n_outer = it
        g_u = coupling_grad_codes(R, H)
        g_u *= beta
        g_u += align.grad_u(U, plan, tilde)
        part_u = align_val + beta * coup
        U_c, tilde_c, align_c, plan_c, R_c, coup_c = U, tilde, align_val, plan, R, coup
        u_first = False
        plan_try = None  # the last rejected trial's plan
        for trial in range(MAX_HALVINGS + 1):
            n_u_trials += 1
            U_try = np.maximum(U - t_u * g_u, 0.0)
            tilde_try = _tilde(U_try)
            align_try, plan_try = align.refresh(tilde_try[0], plan, plan_try, path)
            R_try = coupling_residual(X_B - _product(U_try, H), D, cols)
            coup_try = coupling_value(R_try)
            if align_try + beta * coup_try < part_u:
                U_c, tilde_c, align_c, plan_c, R_c, coup_c = U_try, tilde_try, align_try, plan_try, R_try, coup_try
                u_first = trial == 0
                break
            t_u *= 0.5

        g_d = beta * coupling_grad_levers(R_c, cols)
        part_d = beta * coup_c + lam * spars
        D_c, spars_c = D, spars
        d_first = False
        gap_c = None  # X_B - U_c H, formed at the first trial that moves D
        for trial in range(MAX_HALVINGS + 1):
            n_delta_trials += 1
            D_try = prox_weighted_l21(D - t_d * g_d, rho_lev, t_d * lam)
            np.minimum(np.maximum(D_try, lo, out=D_try), hi, out=D_try)
            if (D_try == D).all():
                break  # a shorter step leaves D in place too
            if gap_c is None:
                gap_c = X_B - _product(U_c, H)
            R_try = coupling_residual(gap_c.copy(order="K"), D_try, cols)
            coup_try = coupling_value(R_try)
            spars_try = lever_penalty(D_try, rho_lev)
            if beta * coup_try + lam * spars_try < part_d:
                D_c, R_c, coup_c, spars_c = D_try, R_try, coup_try, spars_try
                d_first = trial == 0
                break
            t_d *= 0.5

        # equal to J when neither block moved; rounding could also cancel two
        # decreases of a few ulps, which must not pass as a decrease
        J_c = align_c + beta * coup_c + lam * spars_c
        if not J_c < J:
            status = STATUS_PLATEAU if len(trajectory) > 1 else STATUS_STALLED
            break

        rel = (J - J_c) / max(abs(J), 1e-30)
        if U_c is not U:
            path = (tilde[0], tilde_c[0], plan)
        U, D, R, tilde, plan = U_c, D_c, R_c, tilde_c, plan_c
        J, align_val, coup, spars = J_c, align_c, coup_c, spars_c
        trajectory.append(TrajectoryRecord(it, J, align_val, coup, spars, mean_gain(tilde[0])))
        if u_first:
            t_u *= STEP_GROWTH
        if d_first:
            t_d *= STEP_GROWTH
        if rel < problem.tol_obj:
            small_streak += 1
            if small_streak >= 3:
                status = STATUS_CONVERGED
                break
        else:
            small_streak = 0

    return _assemble_result(
        problem, D, trajectory, status, align.n_calls, beta, n_outer, n_u_trials, n_delta_trials, align.n_iters
    )


def _assemble_result(
    problem: InterventionProblem,
    D: np.ndarray,
    trajectory: list[TrajectoryRecord],
    status: str,
    n_sinkhorn_calls: int,
    beta_used: float,
    n_outer: int = 0,
    n_u_trials: int = 0,
    n_delta_trials: int = 0,
    n_sinkhorn_iters: int = 0,
) -> InterventionResult:
    """Scatter the lever block into a full intervention, round it for
    reporting, re-validate every target row, rank the active levers and
    build the result. The objective is the last trajectory record's, None
    for an empty trajectory; the step counters default to those of a result
    built without iterating."""
    dataset, i_b = problem.dataset, problem.groups.i_target
    X, schema = dataset.X, dataset.schema
    levers = schema.policy_levers
    delta = np.zeros_like(X)
    delta[np.ix_(i_b, levers)] = D
    rounded = round_report(delta, X, schema, i_b)
    bad = validate_rows(X[i_b] + delta[i_b], schema, mode="optimize")
    if bad:
        raise RuntimeError(f"optimizer produced an infeasible row {i_b[bad[0].row]}: {replace(bad[0], row=None)}")
    bad = validate_rows(X[i_b] + rounded[i_b], schema, mode="report")
    if bad:
        raise RuntimeError(f"rounding produced an invalid report row {i_b[bad[0].row]}: {replace(bad[0], row=None)}")

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
        objective=trajectory[-1].objective if trajectory else None,
        n_outer=n_outer,
        n_u_trials=n_u_trials,
        n_delta_trials=n_delta_trials,
        n_sinkhorn_iters=n_sinkhorn_iters,
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
