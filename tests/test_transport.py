import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from latent_align import transport
from latent_align.optimizer import _extrapolated_start
from latent_align.transport import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    ConvergenceError,
    SupportsSolver,
    TransportProblem,
    cost_matrix,
    sinkhorn,
)

from oracles import entropic_ot_pg, log_sinkhorn, sinkhorn_allocating


def _separated_corners():
    pts = np.eye(4) * 0.9 + 0.025  # well separated simplex corners
    return pts / pts.sum(axis=1, keepdims=True)


def _far_atom_supports():
    # source atom 0 lies far from every target atom
    rng = np.random.default_rng(3)
    target = rng.dirichlet(np.ones(3), size=12) * 0.1 + np.array([0.0, 0.0, 0.9])
    source = np.vstack([[1.0, 0.0, 0.0], rng.dirichlet(np.ones(3), size=9)])
    return source, target


def _barycenter_supports():
    # codes near the barycenter: at eta = 0.005 the norm bound
    # (max |s| + max |t|)^2 / eta exceeds the range limit, the cost range does not
    rng = np.random.default_rng(9)
    source = np.full((12, 2), 0.5) + 0.05 * rng.uniform(-1, 1, size=(12, 1)) * [1, -1]
    target = np.full((9, 2), 0.5) + 0.05 * rng.uniform(-1, 1, size=(9, 1)) * [1, -1]
    return source, target


def _uniform_problem(M, eta):
    nb, na = M.shape
    return TransportProblem(
        cost=M,
        source_weights=np.full(nb, 1.0 / nb),
        target_weights=np.full(na, 1.0 / na),
        eta=eta,
    )


class TestCostMatrix:
    def test_identical_singletons(self):
        M = cost_matrix(np.array([[0.3, 0.7]]), np.array([[0.3, 0.7]]))
        np.testing.assert_allclose(M, [[0.0]])

    def test_unit_corners(self):
        M = cost_matrix(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        np.testing.assert_allclose(M, [[2.0]])

    def test_matches_double_loop(self):
        rng = np.random.default_rng(4)
        U = rng.uniform(size=(5, 3))
        V = rng.uniform(size=(4, 3))
        M = cost_matrix(U, V)
        for p in range(5):
            for q in range(4):
                assert abs(M[p, q] - np.sum((U[p] - V[q]) ** 2)) < 1e-12

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(5)
        U, V = rng.uniform(size=(3, 2)), rng.uniform(size=(6, 2))
        np.testing.assert_allclose(cost_matrix(U, V), cost_matrix(V, U).T)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions"):
            cost_matrix(np.ones((2, 3)), np.ones((2, 4)))

    def test_peak_memory_is_the_output(self):
        # no n_b x n_a x k temporary: the 4 MB output is the only large block
        rng = np.random.default_rng(13)
        U = rng.dirichlet(np.ones(10), size=500)
        V = rng.dirichlet(np.ones(10), size=1000)
        tracemalloc.start()
        try:
            M = cost_matrix(U, V)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * M.nbytes


def _supports(k):
    rows = st.integers(1, 6)
    return rows.flatmap(lambda n: arrays(np.float64, (n, k), elements=st.floats(-2, 2)))


@settings(max_examples=50, deadline=None)
@given(data=st.data(), k=st.integers(1, 6))
def test_gemm_cost_is_pairwise_sum_of_squares(data, k):
    U, V = data.draw(_supports(k)), data.draw(_supports(k))
    M = cost_matrix(U, V)
    assert np.all(M >= 0.0)
    for p in range(len(U)):
        for q in range(len(V)):
            assert abs(M[p, q] - np.sum((U[p] - V[q]) ** 2)) <= 1e-12
    np.testing.assert_allclose(cost_matrix(V, U).T, M, rtol=0, atol=1e-12)


class TestSinkhorn:
    def test_forced_coupling_1x1(self):
        plan = sinkhorn(_uniform_problem(np.array([[0.0]]), eta=0.5))
        np.testing.assert_allclose(plan.gamma, [[1.0]], atol=1e-12)
        assert plan.transport_cost == 0.0

    def test_symmetric_2x2_closed_form(self):
        # analytic fixed point: diag = 1/(2(1+e^-1)), off = e^-1/(2(1+e^-1))
        plan = sinkhorn(_uniform_problem(np.array([[0.0, 1.0], [1.0, 0.0]]), eta=1.0))
        diag = 1.0 / (2.0 * (1.0 + math.exp(-1.0)))
        off = diag * math.exp(-1.0)
        assert abs(plan.gamma[0, 0] - diag) < 1e-6
        assert abs(plan.gamma[1, 1] - diag) < 1e-6
        assert abs(plan.gamma[0, 1] - off) < 1e-6
        assert abs(diag - 0.36552928931500245) < 1e-12

    def test_matches_projected_gradient_oracle(self):
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            M = rng.uniform(0.0, 2.0, size=(6, 5))
            problem = _uniform_problem(M, eta=0.8)
            plan = sinkhorn(problem)
            v_ref, _ = entropic_ot_pg(M, problem.source_weights, problem.target_weights, 0.8)
            assert abs(plan.entropic_value - v_ref) < 1e-5, f"seed {seed}"

    def test_marginal_feasibility(self):
        rng = np.random.default_rng(7)
        M = rng.uniform(0.0, 2.0, size=(8, 6))
        plan = sinkhorn(_uniform_problem(M, eta=0.1))
        assert np.max(np.abs(plan.gamma.sum(axis=1) - 1.0 / 8)) < 1e-7
        assert np.max(np.abs(plan.gamma.sum(axis=0) - 1.0 / 6)) < 1e-7

    def test_identical_separated_supports_near_zero_cost(self):
        pts = _separated_corners()
        problem = TransportProblem.from_supports(pts, pts, eta=1e-3)
        # the cost range over eta is beyond the first stage's bound: several stages
        assert np.ptp(problem.cost) / problem.eta > transport.SCALING_MAX_RANGE
        plan = sinkhorn(problem)
        assert plan.transport_cost < 1e-6
        assert np.max(np.abs(plan.gamma.sum(axis=1) - 0.25)) < DEFAULT_TOL
        assert np.max(np.abs(plan.gamma.sum(axis=0) - 0.25)) < DEFAULT_TOL

    @pytest.mark.parametrize("eta", [0.01, 0.05, 0.2])
    def test_scaling_and_log_domains_agree(self, eta):
        rng = np.random.default_rng(14)
        U = rng.dirichlet(np.ones(4), size=30)
        V = rng.dirichlet(np.ones(4), size=25)
        problem = TransportProblem.from_supports(U, V, eta)
        scaled = sinkhorn(problem)
        logged = log_sinkhorn(problem, DEFAULT_MAX_ITERS, DEFAULT_TOL)
        np.testing.assert_allclose(scaled.gamma, logged.gamma, rtol=0, atol=1e-9)
        assert abs(scaled.transport_cost - logged.transport_cost) < 1e-9
        assert abs(scaled.entropic_value - logged.entropic_value) < 1e-9

    @pytest.mark.parametrize(
        "shape, eta", [((6, 5, 3), e) for e in (2e-3, 5e-4, 1e-4)] + [((10, 8, 3), e) for e in (2e-3, 5e-4)]
    )
    def test_stages_agree_with_log_domain_oracle(self, shape, eta):
        nb, na, k = shape
        rng = np.random.default_rng(nb * 1000 + na)
        problem = TransportProblem.from_supports(
            rng.dirichlet(np.ones(k), size=nb), rng.dirichlet(np.ones(k), size=na), eta
        )
        assert np.ptp(problem.cost) / eta > transport.SCALING_MAX_RANGE
        staged = sinkhorn(problem)
        logged = log_sinkhorn(problem, DEFAULT_MAX_ITERS, DEFAULT_TOL)
        # Both solves stop once their column error is below DEFAULT_TOL = 1e-9,
        # from different starts. Each plan then sits that error, amplified by
        # the conditioning of the fixed point, from the exact plan, and the
        # conditioning grows as eta falls: the two differ by up to 5.6e-9 in
        # an entry and 3.2e-10 in cost here, so they are held to 2e-8 and 2e-9.
        np.testing.assert_allclose(staged.gamma, logged.gamma, rtol=0, atol=2e-8)
        assert abs(staged.transport_cost - logged.transport_cost) < 2e-9
        assert abs(staged.entropic_value - logged.entropic_value) < 2e-9

    def test_far_atom_solved_in_stages(self):
        # exp(-2 / eta) underflows at eta = 1e-3; the first stage at eta = 2/300
        # keeps it, and later stages carry it in the potentials
        plan = sinkhorn(_uniform_problem(np.array([[2.0], [0.0]]), eta=1e-3))
        np.testing.assert_allclose(plan.gamma, [[0.5], [0.5]], rtol=0, atol=1e-12)
        assert plan.transport_cost == pytest.approx(1.0)

    def test_nonfinite_scaling_raises(self, monkeypatch):
        # with the first stage's bound lifted, row 0 of K = exp(-2/eta)
        # underflows to 0 and its scaling to inf
        monkeypatch.setattr(transport, "SCALING_MAX_RANGE", math.inf)
        with pytest.raises(ConvergenceError, match="marginal error nan"):
            sinkhorn(_uniform_problem(np.array([[2.0], [0.0]]), eta=1e-3))

    def test_budget_is_shared_by_all_stages(self, monkeypatch):
        rng = np.random.default_rng(2)
        U, V = rng.dirichlet(np.ones(3), size=10), rng.dirichlet(np.ones(3), size=8)
        problem = TransportProblem.from_supports(U, V, 0.002)
        loop, stages = transport._scaling_loop, []

        def recording_loop(*args):
            scalings = loop(*args)
            stages.append(scalings[3])
            return scalings

        monkeypatch.setattr(transport, "_scaling_loop", recording_loop)
        plan = sinkhorn(problem)
        monkeypatch.undo()
        assert len(stages) > 1 and plan.iters == sum(stages)
        # out of budget in the last stage, and just as the first stage ends
        for max_iters in (plan.iters - 1, stages[0]):
            with pytest.raises(ConvergenceError) as err:
                sinkhorn(problem, max_iters=max_iters)
            assert err.value.iters == max_iters

    @pytest.mark.parametrize("domain", ["scaling", "log"])
    def test_stops_at_first_converged_iteration(self, domain):
        if domain == "scaling":
            M = np.random.default_rng(15).uniform(0.0, 2.0, size=(8, 6))
            problem = _uniform_problem(M, eta=0.1)
        else:
            rng = np.random.default_rng(2)
            U, V = rng.dirichlet(np.ones(3), size=10), rng.dirichlet(np.ones(3), size=8)
            problem = TransportProblem.from_supports(U, V, 0.002)
            assert np.ptp(problem.cost) / problem.eta > transport.SCALING_MAX_RANGE
        plan = sinkhorn(problem)
        assert plan.iters > 1
        with pytest.raises(ConvergenceError):
            sinkhorn(problem, max_iters=plan.iters - 1)

    def test_blur_increases_cost_with_eta(self):
        rng = np.random.default_rng(9)
        U = rng.dirichlet(np.ones(3), size=6)
        V = rng.dirichlet(np.ones(3), size=5)
        costs = []
        for eta in (0.05, 0.2, 1.0):
            plan = sinkhorn(TransportProblem.from_supports(U, V, eta))
            costs.append(plan.transport_cost)
        assert costs[0] <= costs[1] + 1e-12 <= costs[2] + 2e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(10)
        U = rng.dirichlet(np.ones(3), size=5)
        V = rng.dirichlet(np.ones(3), size=4)
        perm = np.array([3, 0, 2, 1, 4])
        p1 = sinkhorn(TransportProblem.from_supports(U, V, 0.3))
        p2 = sinkhorn(TransportProblem.from_supports(U[perm], V, 0.3))
        np.testing.assert_allclose(p2.gamma, p1.gamma[perm], atol=1e-10)
        assert abs(p1.entropic_value - p2.entropic_value) < 1e-10

    def test_nonconvergence_reported_with_error(self):
        rng = np.random.default_rng(11)
        M = rng.uniform(0.0, 2.0, size=(6, 5))
        with pytest.raises(ConvergenceError, match="marginal error"):
            sinkhorn(_uniform_problem(M, eta=0.01), max_iters=3)

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_empty_budget_rejected(self, max_iters):
        with pytest.raises(ValueError, match="max_iters"):
            sinkhorn(_uniform_problem(np.ones((2, 2)), eta=0.5), max_iters=max_iters)

    def test_invalid_problem_rejected(self):
        with pytest.raises(ValueError, match="eta"):
            _uniform_problem(np.ones((2, 2)), eta=0.0)
        with pytest.raises(ValueError, match="nonnegative"):
            _uniform_problem(-np.ones((2, 2)), eta=0.5)
        with pytest.raises(ValueError, match="sum to 1"):
            TransportProblem(
                cost=np.ones((2, 2)),
                source_weights=np.array([0.5, 0.6]),
                target_weights=np.array([0.5, 0.5]),
                eta=1.0,
            )

    @pytest.mark.parametrize(
        "cost, n_source, message",
        [
            (np.ones(3), 3, "cost must be a matrix"),
            (np.ones((2, 3)), 3, "marginal lengths must match the cost matrix"),
        ],
    )
    def test_shape_mismatch_rejected(self, cost, n_source, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TransportProblem(cost, np.full(n_source, 1 / n_source), np.full(3, 1 / 3), eta=1.0)

    def test_entropic_value_includes_entropy_term(self):
        rng = np.random.default_rng(12)
        M = rng.uniform(0.0, 1.0, size=(4, 4))
        plan = sinkhorn(_uniform_problem(M, eta=0.5))
        g = plan.gamma
        ent = np.sum(g[g > 0] * (np.log(g[g > 0]) - 1.0))
        assert abs(plan.entropic_value - (plan.transport_cost + 0.5 * ent)) < 1e-12


class TestLeanScalingLoop:
    """The scaling loop writes into vectors allocated once per stage; on the
    same stage schedule it must give the plan of the loop that allocates them
    every iteration, bit for bit, and fail at the same point."""

    @staticmethod
    def _assert_same_plan(plan, ref):
        assert np.array_equal(plan.gamma, ref.gamma)
        assert plan.transport_cost == ref.transport_cost
        assert plan.entropic_value == ref.entropic_value
        assert plan.iters == ref.iters
        assert plan.marginal_err == ref.marginal_err

    # eta = 0.002 solves these supports in several stages; the 167 x 167
    # fixture-size plan is solved at larger eta only, since it does not
    # converge at eta = 0.002
    @pytest.mark.parametrize(
        "shape, eta",
        [(s, e) for s in [(1, 5, 3), (7, 3, 2), (40, 25, 4)] for e in (0.2, 0.05, 0.01, 0.002)]
        + [((167, 167, 6), e) for e in (0.2, 0.05, 0.01)],
    )
    def test_random_supports_both_domains(self, shape, eta):
        nb, na, k = shape
        rng = np.random.default_rng(nb * 1000 + na)
        problem = TransportProblem.from_supports(
            rng.dirichlet(np.ones(k), size=nb), rng.dirichlet(np.ones(k), size=na), eta
        )
        self._assert_same_plan(sinkhorn(problem), sinkhorn_allocating(problem))

    def test_both_domains_are_covered(self):
        rng = np.random.default_rng(40025)
        U, V = rng.dirichlet(np.ones(4), size=40), rng.dirichlet(np.ones(4), size=25)
        ranges = [np.ptp(TransportProblem.from_supports(U, V, eta).cost) / eta for eta in (0.05, 0.002)]
        assert ranges[0] <= transport.SCALING_MAX_RANGE < ranges[1]

    def test_nonfinite_scaling_raises_the_same_error(self, monkeypatch):
        # a source atom far from every target: its kernel row underflows to 0
        # once the first stage's bound is lifted, so the scaling goes non-finite
        monkeypatch.setattr(transport, "SCALING_MAX_RANGE", math.inf)
        problem = TransportProblem.from_supports(*_far_atom_supports(), 0.002)
        with pytest.raises(ConvergenceError) as lean:
            sinkhorn(problem)
        with pytest.raises(ConvergenceError) as ref:
            sinkhorn_allocating(problem)
        assert lean.value.iters == ref.value.iters
        assert math.isnan(lean.value.marginal_err) and math.isnan(ref.value.marginal_err)

    def test_budget_exhaustion_reports_the_same_error(self):
        rng = np.random.default_rng(5)
        U, V = rng.dirichlet(np.ones(3), size=20), rng.dirichlet(np.ones(3), size=15)
        staged = TransportProblem.from_supports(U[:10], V[:8], 0.002)
        # out of budget in the one stage at eta = 0.01, and in the last of several at 0.002
        for problem, max_iters in [(TransportProblem.from_supports(U, V, 0.01), 3), (staged, sinkhorn(staged).iters - 1)]:
            with pytest.raises(ConvergenceError) as lean:
                sinkhorn(problem, max_iters=max_iters)
            with pytest.raises(ConvergenceError) as ref:
                sinkhorn_allocating(problem, max_iters=max_iters)
            assert (lean.value.iters, lean.value.marginal_err) == (ref.value.iters, ref.value.marginal_err)


def _simplex_rows(n, k):
    return arrays(np.float64, (n, k), elements=st.floats(0.01, 1.0)).map(
        lambda A: A / A.sum(axis=1, keepdims=True)
    )


class TestKernelFirst:
    """SupportsSolver solves the problem sinkhorn solves on
    TransportProblem.from_supports, without forming M or gamma."""

    @staticmethod
    def _assert_same_solve(sol, plan, target):
        assert sol.iters == plan.iters
        # the supports identity cancels terms of size sum a|s|^2 + sum b|t|^2
        # (at most 2 on the simplex), so a cost near 0 is held to that scale
        assert abs(sol.transport_cost - plan.transport_cost) <= 1e-12 * max(plan.transport_cost, 1.0)
        np.testing.assert_allclose(sol.gamma_target, plan.gamma @ target, rtol=0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        k=st.integers(1, 6),
        nb=st.integers(1, 30),
        na=st.integers(1, 30),
        eta=st.sampled_from([0.2, 0.05, 0.01, 0.002]),
    )
    def test_agrees_with_sinkhorn_on_random_supports(self, data, k, nb, na, eta):
        source, target = data.draw(_simplex_rows(nb, k)), data.draw(_simplex_rows(na, k))
        try:
            plan = sinkhorn(TransportProblem.from_supports(source, target, eta))
        except ConvergenceError:
            with pytest.raises(ConvergenceError):
                SupportsSolver(target, eta).solve(source)
            return
        self._assert_same_solve(SupportsSolver(target, eta).solve(source), plan, target)

    @pytest.mark.parametrize("shape", [(167, 167, 6), (40, 25, 4)])
    @pytest.mark.parametrize("eta", [0.2, 0.05, 0.01])
    def test_agrees_with_sinkhorn_in_the_scaling_domain(self, shape, eta):
        nb, na, k = shape
        rng = np.random.default_rng(nb * 1000 + na)
        source, target = rng.dirichlet(np.ones(k), size=nb), rng.dirichlet(np.ones(k), size=na)
        problem = TransportProblem.from_supports(source, target, eta)
        assert np.ptp(problem.cost) / eta <= transport.SCALING_MAX_RANGE
        self._assert_same_solve(SupportsSolver(target, eta).solve(source), sinkhorn(problem), target)

    @pytest.mark.parametrize(
        "supports", [(_separated_corners(),) * 2, _far_atom_supports()], ids=["separated_corners", "far_atom"]
    )
    def test_range_over_the_limit_runs_in_stages(self, supports, monkeypatch):
        source, target = supports
        assert np.ptp(cost_matrix(source, target)) / 1e-3 > transport.SCALING_MAX_RANGE
        plan = sinkhorn(TransportProblem.from_supports(source, target, 1e-3))

        def no_plan(*args):
            raise AssertionError("kernel-first solve assembled the full problem")

        monkeypatch.setattr(transport, "sinkhorn", no_plan)
        self._assert_same_solve(SupportsSolver(target, 1e-3).solve(source), plan, target)

    def test_nonfinite_scaling_raises(self, monkeypatch):
        # with the first stage's bound lifted, the column of a target atom far
        # from every source atom underflows, and its scaling with it
        monkeypatch.setattr(transport, "SCALING_MAX_RANGE", math.inf)
        target, source = _far_atom_supports()
        with pytest.raises(ConvergenceError, match="marginal error nan"):
            SupportsSolver(target, 0.002).solve(source)

    def test_far_source_atom_converges_without_the_row_factor(self, monkeypatch):
        # the one-stage kernel leaves out the row factor exp(-|s|^2 / eta),
        # so the far source atom's row peaks at e^-495 here, where the full
        # kernel's row peaks at e^-746 and underflows to 0
        monkeypatch.setattr(transport, "SCALING_MAX_RANGE", math.inf)
        source, target = _far_atom_supports()
        plan = SupportsSolver(target, 0.002).solve(source)
        assert plan.marginal_err < DEFAULT_TOL and np.isfinite(plan.gamma_target).all()

    def test_budget_exhaustion_raises(self):
        rng = np.random.default_rng(5)
        source, target = rng.dirichlet(np.ones(3), size=20), rng.dirichlet(np.ones(3), size=15)
        iters = SupportsSolver(target, 0.01).solve(source).iters
        assert iters > 1
        with pytest.raises(ConvergenceError) as err:
            SupportsSolver(target, 0.01, max_iters=iters - 1).solve(source)
        assert err.value.iters == iters - 1

    def test_peak_memory_is_the_kernel(self):
        # no cost matrix beside the kernel, and no plan: one n_b x n_a block
        rng = np.random.default_rng(13)
        source, target = rng.dirichlet(np.ones(10), size=500), rng.dirichlet(np.ones(10), size=1000)
        tracemalloc.start()
        try:
            SupportsSolver(target, 0.05).solve(source)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 500 * 1000 * 8

    def test_peak_memory_in_stages(self):
        # the same bound when eta puts the range over the first stage's bound:
        # each stage's kernel is built in the last one's block
        rng = np.random.default_rng(13)
        corners = np.eye(10) * 0.9 + 0.01
        source = corners[np.arange(500) % 10] + 0.05 * rng.dirichlet(np.ones(10), size=500)
        target = corners[np.arange(1000) % 10] + 0.05 * rng.dirichlet(np.ones(10), size=1000)
        source /= source.sum(axis=1, keepdims=True)
        target /= target.sum(axis=1, keepdims=True)
        assert np.ptp(cost_matrix(source, target)) / 1e-3 > transport.SCALING_MAX_RANGE
        tracemalloc.start()
        try:
            SupportsSolver(target, 1e-3).solve(source)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 500 * 1000 * 8

    def test_invalid_input_rejected(self):
        U = np.full((2, 3), 1.0 / 3)
        with pytest.raises(ValueError, match="dimensions"):
            SupportsSolver(np.ones((2, 4)) / 4, 0.1).solve(U)
        with pytest.raises(ValueError, match="eta"):
            SupportsSolver(U, 0.0).solve(U)
        with pytest.raises(ValueError, match="max_iters"):
            SupportsSolver(U, 0.1, max_iters=0).solve(U)


class TestWarmStart:
    """SupportsSolver.solve(source, v0) starts a one-stage solve from the
    column scaling v0 and solves the same problem; a solve in several stages
    ignores v0."""

    @staticmethod
    def _marginals(source, target, eta, v):
        # the plan that the column scaling v determines, rebuilt from M: the
        # row update u = a / (K v) absorbs any constant factor in K or v
        nb, na = source.shape[0], target.shape[0]
        K = np.exp(-cost_matrix(source, target) / eta)
        u = (1.0 / nb) / (K @ v)
        gamma = u[:, None] * K * v[None, :]
        return gamma.sum(axis=1), gamma.sum(axis=0)

    def _assert_solves_the_same_problem(self, source, target, eta, warm, cold):
        nb, na = source.shape[0], target.shape[0]
        assert warm.marginal_err < DEFAULT_TOL
        rows, cols = self._marginals(source, target, eta, warm.v)
        np.testing.assert_allclose(rows, 1.0 / nb, rtol=0, atol=DEFAULT_TOL)
        np.testing.assert_allclose(cols, 1.0 / na, rtol=0, atol=DEFAULT_TOL)
        # Both solves stop with every column sum within DEFAULT_TOL of 1/na
        # and every row sum at 1/nb, so their plans' column sums differ by
        # under 2 DEFAULT_TOL each: under 2 na DEFAULT_TOL of mass in all.
        # Moving that mass changes <gamma, M> by at most max M <= 2 per unit
        # on the simplex, and an entry of gamma @ target (coordinates in
        # [0, 1]) by at most 1 per unit.
        mass = 2 * na * DEFAULT_TOL
        assert abs(warm.transport_cost - cold.transport_cost) <= 2 * mass
        np.testing.assert_allclose(warm.gamma_target, cold.gamma_target, rtol=0, atol=mass)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        k=st.integers(1, 6),
        nb=st.integers(1, 30),
        na=st.integers(1, 30),
        eta=st.sampled_from([0.2, 0.05, 0.01]),
    )
    def test_any_start_meets_tol_or_runs_out(self, data, k, nb, na, eta):
        source, target = data.draw(_simplex_rows(nb, k)), data.draw(_simplex_rows(na, k))
        v0 = data.draw(arrays(np.float64, (na,), elements=st.floats(1e-300, 1e300)))
        try:
            cold = SupportsSolver(target, eta).solve(source)
        except ConvergenceError:
            return
        try:
            warm = SupportsSolver(target, eta).solve(source, v0)
        except ConvergenceError as err:
            # a far start can stall on a near-permutation plan (see
            # test_far_start_can_stall_a_near_permutation_plan), but it only
            # ever runs out of budget, never into a non-finite scaling
            assert err.iters == DEFAULT_MAX_ITERS and math.isfinite(err.marginal_err)
            return
        self._assert_solves_the_same_problem(source, target, eta, warm, cold)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        k=st.integers(1, 6),
        nb=st.integers(1, 30),
        na=st.integers(1, 30),
        eta=st.sampled_from([0.2, 0.05, 0.01]),
        step=st.sampled_from([1e-3, 1e-2, 1e-1]),
    )
    def test_nearby_start_solves_the_same_problem(self, data, k, nb, na, eta, step):
        # the solver's use: the start is the scaling solved at nearby codes
        source, target = data.draw(_simplex_rows(nb, k)), data.draw(_simplex_rows(na, k))
        moved = source * np.exp(step * data.draw(arrays(np.float64, (nb, k), elements=st.floats(-1.0, 1.0))))
        moved /= moved.sum(axis=1, keepdims=True)
        try:
            cold = SupportsSolver(target, eta).solve(source)
            near = SupportsSolver(target, eta).solve(moved)
        except ConvergenceError:
            return
        warm = SupportsSolver(target, eta).solve(source, near.v)
        self._assert_solves_the_same_problem(source, target, eta, warm, cold)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        k=st.integers(1, 6),
        nb=st.integers(1, 30),
        na=st.integers(1, 30),
        eta=st.sampled_from([0.2, 0.05, 0.01]),
        step=st.sampled_from([1e-3, 1e-2, 1e-1]),
        reach=st.floats(-1.0, 3.0),
    )
    def test_extrapolated_start_solves_the_same_problem(self, data, k, nb, na, eta, step, reach):
        # the solver's first U trial: the scalings solved at two codes of a
        # move, carried on to codes a multiple `reach` of that move further
        target, before = data.draw(_simplex_rows(na, k)), data.draw(_simplex_rows(nb, k))
        direction = step * data.draw(arrays(np.float64, (nb, k), elements=st.floats(-1.0, 1.0)))

        def along(t):
            codes = before * np.exp(t * direction)
            return codes / codes.sum(axis=1, keepdims=True)

        after, trial = along(1.0), along(1.0 + reach)
        try:
            plan_before = SupportsSolver(target, eta).solve(before)
            kept = SupportsSolver(target, eta).solve(after)
            cold = SupportsSolver(target, eta).solve(trial)
        except ConvergenceError:
            return
        v0 = _extrapolated_start(kept.v, trial, (before, after, plan_before))
        warm = SupportsSolver(target, eta).solve(trial, v0)
        self._assert_solves_the_same_problem(trial, target, eta, warm, cold)

    def test_far_start_can_stall_a_near_permutation_plan(self):
        # The plan is diagonal up to an entry of 7.5e-13 at (0, 1). The cold
        # start's first column update puts the scalings' ratio within rounding
        # of the solution; v0 = 1 is off by a factor of about 12,000, which
        # puts 9.3e-9 of mass on that entry, and each iteration shrinks that
        # mass by a factor of only about 1 - 1.9e-8.
        source = np.array([[8.0, 1, 1, 1, 1], [1, 1, 1, 1, 1]]) / np.array([[12.0], [5.0]])
        target = np.array([[64.0, 1, 1, 1, 1], [1, 1, 1, 1, 1]]) / np.array([[68.0], [5.0]])
        assert SupportsSolver(target, 0.01).solve(source).iters == 1
        with pytest.raises(ConvergenceError) as err:
            SupportsSolver(target, 0.01).solve(source, np.ones(2))
        assert 1e-9 < err.value.marginal_err < 1e-8

    @pytest.mark.parametrize("eta", [0.2, 0.05, 0.01])
    def test_own_scaling_stops_after_one_iteration(self, eta):
        rng = np.random.default_rng(21)
        source, target = rng.dirichlet(np.ones(4), size=40), rng.dirichlet(np.ones(4), size=25)
        cold = SupportsSolver(target, eta).solve(source)
        assert cold.iters > 1
        warm = SupportsSolver(target, eta).solve(source, cold.v)
        assert warm.iters == 1
        # v0 is rescaled by a power of two, which the row update undoes exactly
        assert np.array_equal(warm.gamma_target, cold.gamma_target)
        assert warm.transport_cost == cold.transport_cost

    @pytest.mark.parametrize(
        "supports", [(_separated_corners(),) * 2, _far_atom_supports()], ids=["separated_corners", "far_atom"]
    )
    def test_solve_in_stages_ignores_the_start(self, supports):
        source, target = supports
        assert np.ptp(cost_matrix(source, target)) / 1e-3 > transport.SCALING_MAX_RANGE
        cold = SupportsSolver(target, 1e-3).solve(source)
        v0 = np.random.default_rng(4).uniform(0.1, 10.0, size=target.shape[0])
        warm = SupportsSolver(target, 1e-3).solve(source, v0)
        assert np.array_equal(warm.gamma_target, cold.gamma_target)
        assert np.array_equal(warm.v, cold.v)
        assert (warm.transport_cost, warm.iters, warm.marginal_err) == (
            cold.transport_cost,
            cold.iters,
            cold.marginal_err,
        )

    @pytest.mark.parametrize(
        "v0, match",
        [
            (np.ones(4), "shape"),
            (np.ones((3, 1)), "shape"),
            (np.array([1.0, 0.0, 1.0]), "positive"),
            (np.array([1.0, -1.0, 1.0]), "positive"),
            (np.array([1.0, np.nan, 1.0]), "finite"),
            (np.array([1.0, np.inf, 1.0]), "finite"),
        ],
    )
    def test_invalid_start_rejected(self, v0, match):
        U = np.full((2, 3), 1.0 / 3)
        with pytest.raises(ValueError, match=match):
            SupportsSolver(np.eye(3), 0.1).solve(U, v0)


def _assert_same_plan(plan, ref):
    assert np.array_equal(plan.gamma_target, ref.gamma_target)
    assert np.array_equal(plan.v, ref.v)
    assert (plan.transport_cost, plan.iters, plan.marginal_err) == (ref.transport_cost, ref.iters, ref.marginal_err)


class TestSupportsSolver:
    """A SupportsSolver bound to one target and eta reuses its buffers from
    solve to solve. Each plan is bit-identical to the solve of a fresh
    solver and outlives every later solve unchanged."""

    def _run_sequence(self, solver, sources, warm):
        target, eta = solver.target, solver.eta
        kept = []
        for source, use_v0 in zip(sources, warm):
            v0 = kept[-1][0].v if use_v0 and kept else None
            try:
                expected = SupportsSolver(target, eta).solve(source, v0)
            except ConvergenceError as exc:
                with pytest.raises(ConvergenceError) as err:
                    solver.solve(source, v0)
                assert (err.value.iters, err.value.marginal_err) == (exc.iters, exc.marginal_err)
                continue
            plan = solver.solve(source, v0)
            _assert_same_plan(plan, expected)
            assert not plan.gamma_target.flags.writeable and not plan.v.flags.writeable
            kept.append((plan, plan.gamma_target.copy(), plan.v.copy(), plan.transport_cost))
        for plan, gamma_target, v, cost in kept:
            assert np.array_equal(plan.gamma_target, gamma_target) and np.array_equal(plan.v, v)
            assert plan.transport_cost == cost
        return [plan for plan, *_ in kept]

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(),
        k=st.integers(1, 5),
        na=st.integers(1, 20),
        eta=st.sampled_from([0.2, 0.05, 0.01, 1e-3]),
        sizes=st.lists(st.integers(1, 20), min_size=2, max_size=6),
    )
    def test_sequence_matches_one_shot_solves(self, data, k, na, eta, sizes):
        target = data.draw(_simplex_rows(na, k))
        sources = [data.draw(_simplex_rows(nb, k)) for nb in sizes]
        warm = data.draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)))
        self._run_sequence(transport.SupportsSolver(target, eta), sources, warm)

    @pytest.mark.parametrize("eta", [0.05, 1e-3])
    def test_sizes_change_and_starts_alternate(self, eta):
        # at 1e-3 every solve runs in stages and ignores v0; the 3-atom one
        # runs out of budget there, as its one-shot solve does
        rng = np.random.default_rng(23)
        target = rng.dirichlet(np.ones(4), size=9)
        sources = [rng.dirichlet(np.ones(4), size=nb) for nb in (7, 12, 7, 3, 12)]
        staged = [np.ptp(cost_matrix(src, target)) / eta > transport.SCALING_MAX_RANGE for src in sources]
        assert staged == [eta < 0.01] * len(sources)
        plans = self._run_sequence(
            transport.SupportsSolver(target, eta), sources, [False, True, True, False, True]
        )
        assert len(plans) >= len(sources) - 1

    def test_bound_over_the_limit_with_range_under_it(self):
        # the solve reads the kernel's minimum and still runs one stage
        source, target = _barycenter_supports()
        eta = 0.005
        bound = (np.linalg.norm(source, axis=1).max() + np.linalg.norm(target, axis=1).max()) ** 2 / eta
        assert bound > transport.SCALING_MAX_RANGE > np.ptp(cost_matrix(source, target)) / eta
        solver = transport.SupportsSolver(target, eta)
        cold, warm = self._run_sequence(solver, [source, source], [False, True])
        # v0 is read by a one-stage solve only: its own scaling ends it at once
        assert cold.iters > 1 and warm.iters == 1

    @staticmethod
    def _recorded_gemms(solver, source, monkeypatch):
        gemms, matmul = [], np.matmul

        def recording_matmul(x, y, **kwargs):
            gemms.append((x, y))
            return matmul(x, y, **kwargs)

        monkeypatch.setattr(np, "matmul", recording_matmul)
        solver.solve(source)
        monkeypatch.undo()
        return gemms

    @pytest.mark.parametrize(
        "supports, eta",
        [(_far_atom_supports(), 0.05), (_barycenter_supports(), 0.005), ((_separated_corners(),) * 2, 1e-3)],
        ids=["one_stage", "one_stage_range_read", "stages"],
    )
    def test_gemm_factors_are_row_major(self, supports, eta, monkeypatch):
        # a column-major factor gives the same bits at about twice the GEMM
        # time on small supports
        source, target = supports
        solver = transport.SupportsSolver(target, eta)
        gemms = self._recorded_gemms(solver, source, monkeypatch)
        assert gemms and solver._lhs.flags.c_contiguous and solver._rhs.flags.c_contiguous
        for x, y in gemms:
            assert x.strides[1] == y.strides[1] == x.itemsize

    @pytest.mark.parametrize(
        "supports, eta",
        [(_far_atom_supports(), 0.05), ((_separated_corners(),) * 2, 1e-3)],
        ids=["one_stage", "stages"],
    )
    def test_plan_image_is_laid_out_as_the_source(self, supports, eta):
        # the optimizer holds its codes column-major and reads the plan image
        # back in that layout, with the row-major solve's values
        source, target = supports
        row = transport.SupportsSolver(target, eta).solve(np.ascontiguousarray(source))
        col = transport.SupportsSolver(target, eta).solve(np.asfortranarray(source))
        assert row.gamma_target.flags.c_contiguous and col.gamma_target.flags.f_contiguous
        scale = np.max(np.abs(row.gamma_target))
        assert np.max(np.abs(col.gamma_target - row.gamma_target)) <= 1e-14 * scale
        assert col.transport_cost == pytest.approx(row.transport_cost, rel=1e-14, abs=0.0)
        assert col.iters == row.iters

    def test_one_stage_gemm_reads_leading_slices(self, monkeypatch):
        # the row-free kernel's factors [2s / eta, -1] and [t^T; |t|^2 / eta]
        # are the staged factors' leading columns and rows, not a second buffer
        source, target = _far_atom_supports()
        solver = transport.SupportsSolver(target, 0.05)
        ((x, y),) = self._recorded_gemms(solver, source, monkeypatch)
        k = target.shape[1]
        assert x.shape == (source.shape[0], k + 1) and y.shape == (k + 1, target.shape[0])
        assert np.shares_memory(x, solver._lhs) and np.shares_memory(y, solver._rhs)
        assert (x[:, k] == -1.0).all() and np.array_equal(y[:k], target.T)

    def test_invalid_input_rejected(self):
        with pytest.raises(ValueError, match="matrix"):
            transport.SupportsSolver(np.ones(3), 0.1)
        with pytest.raises(ValueError, match="eta"):
            transport.SupportsSolver(np.eye(3), 0.0)
        with pytest.raises(ValueError, match="max_iters"):
            transport.SupportsSolver(np.eye(3), 0.1, max_iters=0)
        with pytest.raises(ValueError, match="dimensions"):
            transport.SupportsSolver(np.eye(3), 0.1).solve(np.ones((2, 4)) / 4)


class TestFromSupports:
    def test_singleton(self):
        problem = TransportProblem.from_supports(np.array([[0.75, 0.25]]), np.array([[0.5, 0.5], [0.0, 1.0]]), 0.1)
        assert problem.source_weights.tolist() == [1.0]
        assert problem.target_weights.tolist() == [0.5, 0.5]

    def test_uniform_weights(self):
        problem = TransportProblem.from_supports(np.full((4, 2), 0.5), np.full((6, 2), 0.5), 0.1)
        np.testing.assert_allclose(problem.source_weights, 0.25)
        np.testing.assert_allclose(problem.target_weights, 1.0 / 6)
        assert abs(problem.target_weights.sum() - 1.0) <= 1e-12

    def test_duplicates_kept(self):
        source = np.array([[1.0, 0.0], [1.0, 0.0]])
        problem = TransportProblem.from_supports(source, np.array([[0.0, 1.0]]), 0.1)
        assert problem.source_weights.tolist() == [0.5, 0.5]
        assert problem.cost.shape == (2, 1) and problem.cost[0, 0] == problem.cost[1, 0]
