"""Entropic optimal transport between empirical latent measures.

One Sinkhorn loop in the scaling domain (Cuturi 2013) serves every
regularization eta by eta-scaling (Schmitzer 2019). A solve runs stages at
eta_s = eta_0, eta_0 / 2, ... down to eta, where
eta_0 = max(eta, (max M - min M) / SCALING_MAX_RANGE). Each stage iterates two
matrix-vector products, written into vectors allocated once per stage, with
the kernel K = exp((min M + f_p + g_q - M_pq) / eta_s). The potentials f, g
start at 0, and each stage's scalings are absorbed into them,
f += eta_s log u and g += eta_s log v, so the next kernel is the last plan,
sharpened. Stages above eta stop at STAGE_TOL and the last at DEFAULT_TOL,
and max_iters is one budget for all of them. Codes lie on the simplex, so
M <= 2, and the default eta = 0.05 runs one stage.

Two front-ends build the stage kernels for the shared `_staged_loop`:

- `sinkhorn(problem)` solves a TransportProblem with its cost matrix M and
  returns the full plan gamma. A problem solves its pre-intervention
  discrepancy with it when built, and evaluation the post one.
- `SupportsSolver(target, eta).solve(source, v0)` is the solver's
  kernel-first solve between uniform weights on two supports, bound to one
  target support and eta. It builds each kernel's exponent with one GEMM of
  two row-major factors, exponentiates it in place into the kernel, and forms
  neither M nor gamma. It returns gamma @ target = u * (K (v * target)), laid
  out as the source (row-major or column-major), and the transport cost from
  the supports identity
  <gamma, M> = sum_p a_p |s_p|^2 + sum_q c_q |t_q|^2 - 2 sum_p s_p . (gamma @ target)_p,
  where c holds the plan's column sums.

  Since M <= B = (max |s| + max |t|)^2, a solve with B / eta below
  SCALING_MAX_RANGE runs one stage at eta without reading the kernel's
  minimum. Its kernel leaves out the row factor exp(-|s_p|^2 / eta), which
  the row scaling u absorbs, so v keeps its meaning up to a constant:
  K = exp(L R - max) with L = [2s / eta | -1] and R = [t^T; |t|^2 / eta].
  Its exponent (2 s.t - |t|^2) / eta lies in [-B, max |s|^2] / eta, a range
  under the same bound. Every other solve reads the range of -M / eta from
  the augmented factors [2s | -1 | f - |s|^2] / eta_s and
  [t^T; (|t|^2 - g) / eta_s; 1], whose leading columns and rows are L and R,
  and runs one stage or several on the full kernel.

A one-stage kernel-first solve can be warm-started: given v0, the
final column scaling v of a solve between nearby supports (which every
SupportsPlan returns), its loop starts from v0 instead of the cold column
update b / (K^T 1). On a kernel without its row factor the cold start reads
that factor in place of 1, as b / (K^T r) with
r = exp((min |s|^2 - |s|^2) / eta). A solve in several stages starts cold.
Sinkhorn converges from any positive start (Franklin & Lorenz 1989), but the
iterations it needs grow with the start's distance from the solution, so a
start from an unrelated v0 can cost more iterations than a cold one, or
exhaust the budget on a plan close to a permutation.

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
# Largest cost range over eta of a solve's first stage. Every kernel entry is
# then at least e^-300, so a kernel entry times a scaling of the same
# magnitude (e^-600) is still above the smallest normal double (e^-708).
SCALING_MAX_RANGE = 300.0
# Marginal error at which a stage above eta hands its potentials on. Only the
# last stage's plan is returned; an earlier one only warm-starts the next, so
# solving it to DEFAULT_TOL would spend iterations on a plan then discarded.
STAGE_TOL = 1e-4
# Relative margin on the bound (max |s| + max |t|)^2 / eta that lets a solve
# skip the kernel's minimum: far above the relative rounding of a GEMM over
# k + 2 terms, so a bound below the range limit puts the computed range there too.
_BOUND_MARGIN = 1e-6


class ConvergenceError(RuntimeError):
    """Sinkhorn failed to reach the marginal tolerance within its budget."""

    def __init__(self, iters: int, marginal_err: float, tol: float):
        self.iters = iters
        self.marginal_err = marginal_err
        super().__init__(
            f"Sinkhorn did not converge in {iters} iterations "
            f"(marginal error {marginal_err:.3e}, tolerance {tol:.1e})"
        )


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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


def sinkhorn(problem: TransportProblem, max_iters: int = DEFAULT_MAX_ITERS) -> TransportPlan:
    """Solve the entropic OT problem with Sinkhorn iterations.

    Each iteration updates the column scaling, then the row scaling, so the
    plan's rows match the source weights by construction and the column
    violation is the marginal error. It is checked every iteration, from the
    column sums that the next column update needs anyway, and a stage stops
    at the first iteration below its tolerance. Raises ConvergenceError (with
    the final marginal error) if the budget runs out or a scaling goes
    non-finite.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    M, a, b, eta = problem.cost, problem.source_weights, problem.target_weights, problem.eta
    shift = float(M.min())

    def kernel(eta_s, f=None, g=None, out=None):
        # exp((shift + f_p + g_q - M_pq) / eta_s); the first stage has no potentials
        K = np.subtract(shift, M, out=out)
        if f is not None:
            K += f[:, None]
            K += g
        K /= eta_s
        return np.exp(K, out=K)

    eta0 = eta * max(1.0, (float(M.max()) - shift) / eta / SCALING_MAX_RANGE)
    K, u, v, col, f, g, iters, err = _staged_loop(kernel(eta0), eta0, kernel, a, b, eta, max_iters)

    gamma = K  # diag(u) K diag(v), built in place of the kernel
    gamma *= u[:, None]
    gamma *= v[None, :]
    transport_cost = float(np.einsum("pq,pq->", gamma, M))
    # sum gamma (log gamma - 1) with log gamma = log u + log v + (shift + f + g - M) / eta,
    # rows summing to a and columns to col
    mass = float(col.sum())
    potentials = 0.0 if f is None else float(a @ f + col @ g)
    entropy_term = (
        float(a @ np.log(u) + col @ np.log(v)) + (shift * mass + potentials - transport_cost) / eta - mass
    )
    return TransportPlan(
        gamma=gamma,
        transport_cost=transport_cost,
        entropic_value=transport_cost + eta * entropy_term,
        iters=iters,
        marginal_err=err,
    )


@dataclass(frozen=True, eq=False)
class SupportsPlan:
    """What a kernel-first solve keeps of the plan gamma between two
    supports: gamma applied to the target support, and <gamma, M>."""

    gamma_target: np.ndarray  # gamma @ target, one row per source atom
    transport_cost: float
    iters: int
    marginal_err: float
    v: np.ndarray  # the final column scaling, which can warm-start a nearby solve

    def __post_init__(self):
        self.gamma_target.setflags(write=False)
        self.v.setflags(write=False)


class SupportsSolver:
    """Kernel-first solves against one target support at one eta.

    Construction holds what every solve against the target reuses: the
    target's squared norms and the largest of their roots, the augmented
    right factor of the exponent GEMM at zero potentials, the uniform target
    weights, and, per number of source atoms, the left factor, the kernel
    block and the source weights, reallocated only when that number changes.
    Every SupportsPlan a solve returns owns its arrays, so a later solve
    leaves it as it was. One solver serves one caller at a time.
    """

    def __init__(self, target: np.ndarray, eta: float, max_iters: int = DEFAULT_MAX_ITERS):
        target = np.asarray(target, dtype=float)
        if target.ndim != 2:
            raise ValueError(f"target support must be a matrix, got shape {target.shape}")
        if not eta > 0:
            raise ValueError(f"eta must be positive, got {eta}")
        if max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {max_iters}")
        self.target, self.eta, self.max_iters = target, float(eta), max_iters
        na, k = target.shape
        self._t2 = np.einsum("qk,qk->q", target, target)
        self._t_max = math.sqrt(float(self._t2.max(initial=0.0)))
        # [t^T; |t|^2 / eta; 1], row-major: the exponent's right factor at zero
        # potentials, whose first k + 1 rows are the one-stage kernel's
        self._rhs = np.empty((k + 2, na))
        self._rhs[:k] = target.T
        np.divide(self._t2, self.eta, out=self._rhs[k])
        self._rhs[k + 1] = 1.0
        self._b = np.full(na, 1.0 / na)
        self._nb = -1

    def _buffers(self, nb: int) -> None:
        if nb != self._nb:
            k = self.target.shape[1]
            self._lhs = np.full((nb, k + 2), -1.0)
            self._K = np.empty((nb, self.target.shape[0]))
            self._a = np.full(nb, 1.0 / nb)
            self._nb = nb

    def solve(self, source: np.ndarray, v0: np.ndarray | None = None) -> SupportsPlan:
        """Solve from uniform weights on the rows of source (see the module
        docstring for the kernel GEMM and the supports identity).

        v0, one positive finite entry per target atom, warm-starts a solve that
        runs one stage: the first row update reads v0 in place of the cold
        start's column scaling. A solve in several stages ignores it. The
        identity takes the plan's row sums as the source weights a, which they
        equal up to rounding, since the row scaling is updated last. Raises
        ConvergenceError as `sinkhorn` does.
        """
        source = np.asarray(source, dtype=float)
        target, eta = self.target, self.eta
        if source.ndim != 2 or source.shape[1] != target.shape[1]:
            raise ValueError(f"support dimensions disagree: {source.shape} vs {target.shape}")
        (nb, k), na = source.shape, target.shape[0]
        if v0 is not None:
            v0 = np.asarray(v0, dtype=float)
            if v0.shape != (na,):
                raise ValueError(f"v0 must have shape ({na},), got {v0.shape}")
            v0_max = float(v0.max())  # NaN if any entry is
            if not (v0.min() > 0 and v0_max < math.inf):
                raise ValueError("v0 must be positive and finite")
        self._buffers(nb)
        lhs, a, t2 = self._lhs, self._a, self._t2
        s2 = np.einsum("pk,pk->p", source, source)

        def exponent(eta_s, f, rhs, out):
            # [2s, -1, f - |s|^2] . [t, |t|^2 - g, 1] / eta_s = (f_p + g_q - M_pq) / eta_s
            np.multiply(source, 2.0 / eta_s, out=lhs[:, :k])
            np.subtract(f, s2, out=lhs[:, k + 1])
            lhs[:, k + 1] /= eta_s
            return np.matmul(lhs, rhs, out=out)

        u0 = None
        # M <= (max |s| + max |t|)^2, so when that bound over eta is below the
        # range limit the first stage is eta itself and K.min() is not needed;
        # the margin covers the GEMM's rounding
        bound = (math.sqrt(float(s2.max(initial=0.0))) + self._t_max) ** 2 / eta
        if bound * (1.0 + _BOUND_MARGIN) < SCALING_MAX_RANGE:
            # without the row factor: (|s_p|^2 - M_pq) / eta, whose range the
            # bound also caps (see the module docstring)
            np.multiply(source, 2.0 / eta, out=lhs[:, :k])
            K = np.matmul(lhs[:, : k + 1], self._rhs[: k + 1], out=self._K)
            hi, eta0 = float(K.max()), eta
            if v0 is None:
                u0 = np.exp((s2.min() - s2) / eta)  # the row factor, for the cold start
        else:
            K = exponent(eta, 0.0, self._rhs, self._K)  # -M / eta
            hi = float(K.max())
            eta0 = eta * max(1.0, (hi - float(K.min())) / SCALING_MAX_RANGE)
        if eta0 > eta:
            K *= eta / eta0
            hi *= eta / eta0
            v0 = None
        elif v0 is not None:
            # a constant factor in v0 is absorbed by the row update; a power of
            # two brings its largest entry into [1/2, 1) exactly, so the first
            # row update sees a kernel entry of at least e^-300 times 1/2
            v0 = np.ldexp(v0, -math.frexp(v0_max)[1])
        K -= hi
        np.exp(K, out=K)
        shift = -hi * eta0  # in stages, the first kernel is exp((shift - M) / eta0)

        def kernel(eta_s, f, g, out):
            rhs = self._rhs.copy()
            np.subtract(t2, g, out=rhs[k])
            rhs[k] /= eta_s
            K = exponent(eta_s, shift + f, rhs, out)
            return np.exp(K, out=K)

        K, u, v, col, _, _, iters, err = _staged_loop(K, eta0, kernel, a, self._b, eta, self.max_iters, v0, u0)
        # laid out as source: a column-major source gets the column-major (vt^T K^T)^T
        vt = v[:, None] * target
        gamma_target = (vt.T @ K.T).T if np.isfortran(source) else K @ vt
        gamma_target *= u[:, None]
        transport_cost = float(a @ s2 + col @ t2) - 2.0 * float(np.einsum("pk,pk->", source, gamma_target))
        return SupportsPlan(gamma_target, transport_cost, iters, err, v)


def _staged_loop(K, eta_s, kernel, a, b, eta, max_iters, v0=None, u0=None):
    """Sinkhorn at eta through stages eta_s, eta_s / 2, ... down to eta,
    from the first stage's kernel K; kernel(eta_s, f, g, K) overwrites K with
    a later stage's. v0 and u0, if given, start every stage as
    `_scaling_loop` reads them, so callers pass them only to a one-stage
    solve. Returns (K, u, v, col, f, g, iters, err) of the last stage, with
    iters summed over all stages, as ConvergenceError reports it; f and g are
    None after a one-stage solve.
    """
    f = g = None  # the potentials, allocated when a second stage runs
    done = 0
    while True:
        stage_tol = DEFAULT_TOL if eta_s == eta else STAGE_TOL
        try:
            u, v, col, iters, err = _scaling_loop(K, a, b, max_iters - done, stage_tol, v0, u0)
        except ConvergenceError as exc:
            raise ConvergenceError(done + exc.iters, exc.marginal_err, stage_tol) from None
        done += iters
        if eta_s == eta:
            return K, u, v, col, f, g, done, err
        if done == max_iters:
            raise ConvergenceError(done, err, DEFAULT_TOL)
        if f is None:
            f, g = np.zeros_like(a), np.zeros_like(b)
        f += eta_s * np.log(u)
        g += eta_s * np.log(v)
        eta_s = max(eta_s / 2, eta)
        K = kernel(eta_s, f, g, K)


def _scaling_loop(K, a, b, max_iters, tol, v0=None, u0=None):
    """The scaling iterations on one stage's kernel K, from the column
    scaling v0, or cold from b / (K^T u0), the column update at the row
    scaling u0, or at u = 1 if u0 is None.

    Returns (u, v, col, iters, err), where col = v * (K^T u) holds the plan's
    column sums at the last iteration. Raises ConvergenceError when the
    budget runs out first or a scaling goes non-finite.
    """
    v, col, gap, Ktu = np.empty_like(b), np.empty_like(b), np.empty_like(b), np.empty_like(b)
    u, Kv = np.empty_like(a), np.empty_like(a)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if v0 is None:
            np.divide(b, K.sum(axis=0) if u0 is None else u0 @ K, out=v)
        else:
            v[:] = v0
        for iters in range(1, max_iters + 1):
            np.dot(K, v, out=Kv)
            np.divide(a, Kv, out=u)
            np.dot(u, K, out=Ktu)  # K^T u
            np.multiply(v, Ktu, out=col)
            np.subtract(col, b, out=gap)
            err = float(np.maximum.reduce(np.abs(gap, out=gap)))
            if not math.isfinite(err):
                raise ConvergenceError(iters, err, tol)
            if err < tol:
                break
            np.divide(b, Ktu, out=v)
    if err >= tol:
        raise ConvergenceError(iters, err, tol)
    return u, v, col, iters, err
