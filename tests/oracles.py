"""Independent reference implementations used to verify the package kernels.

These deliberately use different algorithms from the code under test:
exhaustive enumeration for NNLS, projected gradient on the primal and
log-domain Sinkhorn for entropic transport, permutation averaging for Shapley
values, bounded scalar minimization for the group prox, central finite
differences for gradients, a row-at-a-time loop for schema validation, and
quasi-Newton (BFGS) on an explicit [W, 1] design for the logistic probe.

Five more are the plain forms of hot code that the package runs in a leaner
form with the same floating-point operations: the two-branch sigmoid, the
staged Sinkhorn loop that allocates its vectors every iteration, the NMF
loop that takes its stop-test loss from the residual X - WH, the group
prox's shrink factor scattered into a zero-filled vector, and the Lloyd loop
that scores every point-center distance coordinate by coordinate. The
package must match them bit for bit.
"""

import itertools
import math

import numpy as np
from scipy.optimize import minimize, minimize_scalar
from scipy.special import expit

from latent_align import transport
from latent_align.factorization import MU_EPS
from latent_align.schema import BLOCK_SUM_TOL, BOUND_TOL, INTEGRALITY_TOL, FeatureKind, Violation


def nnls_enumerate(x, H):
    """Try every active set, keep nonnegative solutions, return the best."""
    k, d = H.shape
    A = H.T
    best_r, best_w = np.inf, np.zeros(k)
    for bits in itertools.product((0, 1), repeat=k):
        idx = np.flatnonzero(bits)
        w = np.zeros(k)
        if idx.size:
            z = np.linalg.lstsq(A[:, idx], x, rcond=None)[0]
            if np.any(z < -1e-9):
                continue
            w[idx] = np.clip(z, 0.0, None)
        r = float(np.sum((A @ w - x) ** 2))
        if r < best_r:
            best_r, best_w = r, w
    return best_w


def entropic_ot_pg(M, a, b, eta, max_iters=50000):
    """Projected gradient on the primal entropic program.

    The iterate stays on the affine marginal subspace via a closed-form
    orthogonal projection; the optimum is interior so nonnegativity never
    binds near convergence. Returns (objective value, plan).
    """
    nb, na = M.shape

    def project(Z):
        p = a - Z.sum(axis=1)
        q = b - Z.sum(axis=0)
        return Z + p[:, None] / na + q[None, :] / nb - p.sum() / (na * nb)

    def value(G):
        return float(np.sum(G * M) + eta * np.sum(G * (np.log(G) - 1.0)))

    G = np.outer(a, b)
    v = value(G)
    t = float(G.min() / eta)  # inverse of the local entropy curvature
    for _ in range(max_iters):
        grad = M + eta * np.log(G)
        while True:
            Gn = project(G - t * grad)
            if Gn.min() > 0 and value(Gn) <= v:
                break
            t *= 0.5
            if t < 1e-18:
                return v, G
        vn = value(Gn)
        G = Gn
        if v - vn < 1e-14 * max(1.0, abs(v)):
            v = vn
            break
        v = vn
        t *= 1.25
    return v, G


def shapley_permutations(beta, bias, w, background):
    """Average marginal contribution of each factor over all orderings."""
    k = len(w)
    phi = np.zeros(k)
    for perm in itertools.permutations(range(k)):
        z = background.astype(float).copy()
        prev = float(beta @ z + bias)
        for r in perm:
            z[r] = w[r]
            cur = float(beta @ z + bias)
            phi[r] += cur - prev
            prev = cur
    return phi / math.factorial(k)


def prox_column_oracle(col, thresh):
    """Minimize 0.5||z - col||^2 + thresh * ||z|| over the scale of col.

    Brent search followed by finite-difference Newton polish; plain value
    comparison alone cannot resolve the minimizer below ~1e-8.
    """
    nu = float(np.linalg.norm(col))
    if nu == 0.0:
        return np.zeros_like(col)

    def objective(alpha):
        z = (alpha / nu) * col
        return 0.5 * float(np.sum((z - col) ** 2)) + thresh * alpha

    res = minimize_scalar(
        objective, bounds=(0.0, nu + thresh + 1.0), method="bounded", options={"xatol": 1e-12}
    )
    alpha = float(res.x)
    h = 1e-4
    for _ in range(3):
        d1 = (objective(alpha + h) - objective(alpha - h)) / (2 * h)
        d2 = (objective(alpha + h) - 2 * objective(alpha) + objective(alpha - h)) / h**2
        if d2 <= 0:
            break
        step = d1 / d2
        if alpha - step < 0:
            alpha = 0.0
            break
        alpha -= step
    return (alpha / nu) * col


def prox_factor_masked(block, rho, t_lambda):
    """The group prox's column factors in their plain masked form: 0 where
    ||col_j|| <= t_lambda * rho_j, else 1 - t_lambda * rho_j / ||col_j||,
    formed only for the surviving columns. A nonzero column whose norm
    underflows to 0 gets it recomputed after scaling by its largest |entry|."""
    norms = np.linalg.norm(block, axis=0)
    tiny = (norms == 0) & (block != 0).any(axis=0)
    if tiny.any():
        scale = np.max(np.abs(block[:, tiny]), axis=0)
        norms[tiny] = scale * np.linalg.norm(block[:, tiny] / scale, axis=0)
    factor = np.zeros_like(norms)
    keep = norms > t_lambda * rho
    factor[keep] = 1.0 - t_lambda * rho[keep] / norms[keep]
    return factor


def central_difference(f, x, h=1e-6):
    """Central finite-difference gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += h
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2.0 * h)
        it.iternext()
    return g


def logistic_loss_grad(theta, W, labels, l2):
    """Probe objective and gradient at theta = (beta, bias), with the bias
    as a column of ones in the design and left out of the penalty."""
    Z = np.column_stack([W, np.ones(len(labels))])
    m = Z @ theta
    loss = np.mean(np.logaddexp(0.0, m) - labels * m) + 0.5 * l2 * theta[:-1] @ theta[:-1]
    grad = Z.T @ (expit(m) - labels) / len(labels)
    grad[:-1] += l2 * theta[:-1]
    return loss, grad


def logistic_bfgs(W, labels, l2):
    """Probe parameters (beta, bias) by scipy's BFGS from zero, to a gradient
    tolerance far below the package's stop test."""
    x0 = np.zeros(W.shape[1] + 1)
    res = minimize(logistic_loss_grad, x0, args=(W, labels, l2), jac=True, method="BFGS", options={"gtol": 1e-12})
    return res.x


def random_assignment_wcss(V, n_clusters, trials, seed):
    """Best within-cluster sum of squares over seeded random labelings."""
    rng = np.random.default_rng(seed)
    n = V.shape[0]
    best = np.inf
    for _ in range(trials):
        labels = rng.integers(0, n_clusters, size=n)
        if np.unique(labels).size < n_clusters:
            continue
        wcss = 0.0
        for c in range(n_clusters):
            pts = V[labels == c]
            wcss += float(np.sum((pts - pts.mean(axis=0)) ** 2))
        best = min(best, wcss)
    return best


def lloyd_per_coordinate(V, centers, max_iters=300):
    """Lloyd's algorithm from the given centers (changed in place), each step
    scoring the full n x G x k table of coordinate differences; the
    empty-cluster repair steals the point farthest from its own center,
    lowest empty cluster id first. Returns (labels, centers, wcss)."""
    n, n_clusters = V.shape[0], centers.shape[0]
    labels = np.full(n, -1, dtype=int)
    for _ in range(max_iters):
        dists = np.sum((V[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(dists, axis=1)
        point_d2 = dists[np.arange(n), new_labels]
        for c in range(n_clusters):
            if not np.any(new_labels == c):
                j = int(np.argmax(point_d2))
                new_labels[j] = c
                point_d2[j] = -np.inf
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(n_clusters):
            centers[c] = V[labels == c].mean(axis=0)
    wcss = float(np.sum((V - centers[labels]) ** 2))
    return labels, centers, wcss


def validate_row_loop(x, schema, mode):
    """Schema checks on one row, one feature and one block at a time: the
    reference for the vectorized `validate_rows`."""
    x = np.asarray(x, dtype=float)
    violations = []
    for j, f in enumerate(schema.features):
        v = float(x[j])
        if not np.isfinite(v):
            violations.append(Violation(f.name, f"value {v} is not finite"))
            continue
        if v < f.lower - BOUND_TOL:
            violations.append(Violation(f.name, f"value {v!r} below lower bound {f.lower}"))
        elif v > f.upper + BOUND_TOL:
            violations.append(Violation(f.name, f"value {v!r} above upper bound {f.upper}"))
        if mode == "report":
            if f.kind is FeatureKind.LIKERT and abs(v - round(v)) > INTEGRALITY_TOL:
                violations.append(Violation(f.name, f"Likert value {v!r} is not an integer level"))
            if f.kind is FeatureKind.BINARY and min(abs(v), abs(v - 1.0)) > INTEGRALITY_TOL:
                violations.append(Violation(f.name, f"binary value {v!r} is not in {{0, 1}}"))
    for block_id, idx in schema.blocks.items():
        s = float(np.sum(x[idx]))
        if abs(s - 1.0) > BLOCK_SUM_TOL:
            violations.append(Violation(block_id, f"one-hot block sums to {s!r}, expected 1"))
        elif mode == "report":
            near_one = np.abs(x[idx] - 1.0) <= INTEGRALITY_TOL
            near_zero = np.abs(x[idx]) <= INTEGRALITY_TOL
            if int(near_one.sum()) != 1 or not np.all(near_one | near_zero):
                violations.append(
                    Violation(block_id, f"one-hot block {x[idx].tolist()} is not a single-1 assignment")
                )
    return violations


def sigmoid_two_branch(m):
    """Logistic function split on the sign of m by boolean indexing."""
    out = np.empty_like(m)
    pos = m >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-m[pos]))
    e = np.exp(m[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def sinkhorn_allocating(problem, max_iters=transport.DEFAULT_MAX_ITERS, tol=transport.DEFAULT_TOL):
    """`transport.sinkhorn` with a scaling loop that allocates every vector
    afresh each iteration, run on the package's stage schedule."""
    M, a, b, eta = problem.cost, problem.source_weights, problem.target_weights, problem.eta
    shift = float(M.min())
    eta_s = eta * max(1.0, (float(M.max()) - shift) / eta / transport.SCALING_MAX_RANGE)
    f, g = np.zeros_like(a), np.zeros_like(b)
    K = np.exp((shift - M) / eta_s)
    done = 0
    while True:
        stage_tol = tol if eta_s == eta else max(tol, transport.STAGE_TOL)
        try:
            u, v, col, iters, err = _scaling_allocating(K, a, b, max_iters - done, stage_tol)
        except transport.ConvergenceError as exc:
            raise transport.ConvergenceError(done + exc.iters, exc.marginal_err, stage_tol) from None
        done += iters
        if eta_s == eta:
            break
        if done == max_iters:
            raise transport.ConvergenceError(done, err, tol)
        f = f + eta_s * np.log(u)
        g = g + eta_s * np.log(v)
        eta_s = max(eta_s / 2, eta)
        K = np.exp((shift - M + f[:, None] + g[None, :]) / eta_s)
    gamma = u[:, None] * K * v[None, :]
    transport_cost = float(np.einsum("pq,pq->", gamma, M))
    mass = float(col.sum())
    entropy_term = (
        float(a @ np.log(u) + col @ np.log(v))
        + (shift * mass + float(a @ f + col @ g) - transport_cost) / eta
        - mass
    )
    return transport.TransportPlan(
        gamma=gamma,
        transport_cost=transport_cost,
        entropic_value=transport_cost + eta * entropy_term,
        iters=done,
        marginal_err=err,
    )


def _scaling_allocating(K, a, b, max_iters, tol):
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        Ktu = K.sum(axis=0)
        for iters in range(1, max_iters + 1):
            v = b / Ktu
            u = a / (K @ v)
            Ktu = K.T @ u
            col = v * Ktu
            err = float(np.max(np.abs(col - b)))
            if not math.isfinite(err):
                raise transport.ConvergenceError(iters, err, tol)
            if err < tol:
                break
    if err >= tol:
        raise transport.ConvergenceError(iters, err, tol)
    return u, v, col, iters, err


def log_sinkhorn(problem, max_iters, tol):
    """Sinkhorn on the log scalings f = log u, g = log v, updated by
    logsumexp: stable at any regularization, and slow."""
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
        raise transport.ConvergenceError(iters, err, tol)

    logT = logK + f[:, None] + g[None, :]
    gamma = np.exp(logT)
    transport_cost = float(np.einsum("pq,pq->", gamma, M))
    mask = gamma > 0
    entropy_term = float(np.sum(gamma[mask] * (logT[mask] - 1.0)))
    return transport.TransportPlan(
        gamma=gamma,
        transport_cost=transport_cost,
        entropic_value=transport_cost + eta * entropy_term,
        iters=iters,
        marginal_err=err,
    )


def _logsumexp(A, axis):
    m = np.max(A, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(A - m), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


def nmf_residual_loss(X, k, seed, max_iters, tol):
    """`factorization.fit_nmf`'s updates with the stop-test loss taken from
    the residual on every iteration. Returns (W, H, iters) after the same
    unit-l1 rescaling of H."""
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    rng = np.random.default_rng(seed)
    W = rng.uniform(0.01, 1.01, size=(n, k))
    H = rng.uniform(0.01, 1.01, size=(k, d))

    def loss():
        diff = X - W @ H
        return float(np.einsum("ij,ij->", diff, diff))

    history = [loss()]
    iters = 0
    for _ in range(max_iters):
        W *= (X @ H.T) / (W @ (H @ H.T) + MU_EPS)
        H *= (W.T @ X) / ((W.T @ W) @ H + MU_EPS)
        iters += 1
        history.append(loss())
        prev, cur = history[-2], history[-1]
        if prev > 0 and (prev - cur) / prev < tol:
            break
    scale = H.sum(axis=1)
    dead = scale < 1e-15
    scale_safe = np.where(dead, 1.0, scale)
    H = H / scale_safe[:, None]
    W = W * scale_safe[None, :]
    H[dead, :] = 1.0 / d
    W[:, dead] = 0.0
    return W, H, iters
