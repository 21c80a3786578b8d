import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import latent_align as la
from latent_align.factorization import LatentModel, nnls_project_rows
from latent_align.grouping import GroupAssignment
from latent_align.optimizer import (
    InterventionProblem,
    coupling_grad_codes,
    coupling_grad_levers,
    coupling_residual,
    coupling_value,
    optimize,
    ot_grad_wrt_U,
    project_feasible,
    prox_weighted_l21,
    round_report,
)
from latent_align.surrogate import PriorityWeights, SurrogateModel
from latent_align.transport import TransportProblem, sinkhorn

from conftest import fixture_config
from oracles import central_difference, prox_column_oracle


class TestProjectFeasible:
    def _data(self):
        schema = la.default_synthetic_schema()
        ds = la.generate_synthetic(30, schema, 3, seed=5)
        return ds, schema

    def test_zero_stays_zero(self):
        ds, schema = self._data()
        out = project_feasible(np.zeros_like(ds.X), ds.X, schema, np.arange(5))
        assert np.all(out == 0.0)

    def test_likert_clip(self):
        ds, schema = self._data()
        j = int(schema.s_likert[0])
        i = 0
        delta = np.zeros_like(ds.X)
        head = schema.uppers[j] - ds.X[i, j]
        delta[i, j] = head + 3.0
        out = project_feasible(delta, ds.X, schema, np.array([i]))
        assert out[i, j] == pytest.approx(head)

    def test_fixed_feature_zeroed(self):
        ds, schema = self._data()
        j = int(schema.s_fixed[0])
        delta = np.zeros_like(ds.X)
        delta[0, j] = 100.0
        out = project_feasible(delta, ds.X, schema, np.array([0]))
        assert out[0, j] == 0.0

    def test_rows_outside_target_zeroed(self):
        ds, schema = self._data()
        delta = np.ones_like(ds.X)
        out = project_feasible(delta, ds.X, schema, np.array([3, 4]))
        assert np.all(out[[0, 1, 2, 5]] == 0.0)

    def test_idempotent_on_random_matrices(self):
        ds, schema = self._data()
        rng = np.random.default_rng(0)
        i_b = np.array([1, 7, 19])
        for _ in range(1000):
            delta = rng.normal(scale=3.0, size=ds.X.shape)
            once = project_feasible(delta, ds.X, schema, i_b)
            twice = project_feasible(once, ds.X, schema, i_b)
            assert np.array_equal(once, twice)

    def test_non_expansive(self):
        ds, schema = self._data()
        rng = np.random.default_rng(1)
        delta = rng.normal(scale=5.0, size=ds.X.shape)
        out = project_feasible(delta, ds.X, schema, np.arange(10))
        assert np.all(np.abs(out) <= np.abs(delta) + 1e-12)


class TestProx:
    def test_inside_threshold_zeroed(self):
        col = np.array([[0.3], [0.4]])
        out = prox_weighted_l21(col, np.array([1.0]), 1.0)
        assert np.all(out == 0.0)

    def test_closed_form_shrink(self):
        col = np.array([[3.0], [4.0]])
        out = prox_weighted_l21(col, np.array([1.0]), 1.0)
        np.testing.assert_allclose(out[:, 0], [2.4, 3.2])

    def test_zero_step_identity(self):
        rng = np.random.default_rng(2)
        block = rng.normal(size=(4, 3))
        out = prox_weighted_l21(block, np.ones(3), 0.0)
        assert np.array_equal(out, block)

    def test_matches_scalar_minimization_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            col = rng.normal(size=(6, 1)) * rng.uniform(0.1, 3.0)
            thresh = rng.uniform(0.0, 3.0)
            ours = prox_weighted_l21(col, np.array([1.0]), thresh)[:, 0]
            ref = prox_column_oracle(col[:, 0], thresh)
            assert np.max(np.abs(ours - ref)) < 1e-8

    def test_underflowing_norm_keeps_column(self):
        # the squared entry underflows, so a plain norm reads 0; the exact
        # prox shrinks 1e-200 by a factor of 1 - 1e-110
        out = prox_weighted_l21(np.array([[1e-200]]), np.array([1.0]), 1e-310)
        assert out[0, 0] == pytest.approx(1e-200, rel=1e-12, abs=0.0)

    def test_tiny_column_zeroed_without_overflow_warning(self):
        # t * rho / norm would overflow for this column; it is zeroed without
        # that ratio ever being formed
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = prox_weighted_l21(np.array([[1e-310, 1.0]]), np.array([1.0, 1.0]), 0.5)
        assert np.array_equal(out, [[0.0, 0.5]])

    def test_zero_columns_stay_zero(self):
        block = np.array([[0.0, 1.0], [0.0, 2.0]])
        out = prox_weighted_l21(block, np.array([5.0, 0.1]), 0.5)
        assert np.all(out[:, 0] == 0.0)


class TestCoupling:
    # a lever block on some of the columns, as the solver sees it
    LEVERS = np.array([0, 2, 3, 5])

    def _instance(self, seed=0):
        rng = np.random.default_rng(seed)
        H = rng.uniform(0.1, 1.0, size=(3, 7))
        H /= H.sum(axis=1, keepdims=True)
        X_B = rng.uniform(0.0, 3.0, size=(4, 7))
        U = rng.uniform(0.1, 2.0, size=(4, 3))
        delta = rng.normal(scale=0.3, size=(4, 7))
        return delta[:, self.LEVERS], U, X_B, H

    def _penalty(self, U, D, X_B, H):
        return coupling_value(coupling_residual(U, D, X_B, H, self.LEVERS))

    def test_exact_coupling_representable(self):
        rng = np.random.default_rng(1)
        H = rng.uniform(0.1, 1.0, size=(3, 6))
        H /= H.sum(axis=1, keepdims=True)
        U0 = rng.uniform(0.0, 2.0, size=(5, 3))
        X_B = U0 @ H
        U = nnls_project_rows(X_B, H)
        assert coupling_value(coupling_residual(U, np.zeros((5, 2)), X_B, H, np.array([1, 4]))) <= 1e-10

    def test_zero_case(self):
        _, _, X_B, H = self._instance()
        val = self._penalty(np.zeros((4, 3)), np.zeros((4, self.LEVERS.size)), X_B, H)
        assert val == pytest.approx(np.sum(X_B**2))

    def test_gradients_match_finite_differences(self):
        for seed in range(20):
            D, U, X_B, H = self._instance(seed)
            R = coupling_residual(U, D, X_B, H, self.LEVERS)
            g_d = coupling_grad_levers(R, self.LEVERS)
            g_u = coupling_grad_codes(R, H)
            fd_d = central_difference(lambda D_: self._penalty(U, D_, X_B, H), D)
            fd_u = central_difference(lambda V: self._penalty(V, D, X_B, H), U)
            denom_d = max(1.0, np.max(np.abs(fd_d)))
            denom_u = max(1.0, np.max(np.abs(fd_u)))
            assert np.max(np.abs(g_d - fd_d)) / denom_d < 1e-5
            assert np.max(np.abs(g_u - fd_u)) / denom_u < 1e-5


class TestOTGrad:
    def _fixed_plan_cost(self, U, W_ref, gamma):
        s = U.sum(axis=1) + 1e-12
        ut = U / s[:, None]
        diff = ut[:, None, :] - W_ref[None, :, :]
        return float(np.sum(gamma * np.einsum("pqk,pqk->pq", diff, diff)))

    def test_matches_finite_differences(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            U = rng.uniform(0.5, 2.0, size=(4, 3))
            W_ref = rng.dirichlet(np.ones(3), size=5)
            problem = TransportProblem.from_supports(U / U.sum(axis=1, keepdims=True), W_ref, 0.3)
            gamma = sinkhorn(problem).gamma
            grad = ot_grad_wrt_U(U, W_ref, gamma)
            fd = central_difference(lambda V: self._fixed_plan_cost(V, W_ref, gamma), U)
            assert np.max(np.abs(grad - fd)) / max(1.0, np.max(np.abs(fd))) < 1e-5

    def test_zero_at_concentrated_optimum(self):
        W_ref = np.array([[0.2, 0.3, 0.5]])
        U = np.vstack([W_ref[0] * 3.0, W_ref[0] * 0.7])
        gamma = np.full((2, 1), 0.5)
        grad = ot_grad_wrt_U(U, W_ref, gamma)
        assert np.max(np.abs(grad)) < 1e-8

    def test_radial_direction_has_no_effect(self):
        rng = np.random.default_rng(30)
        U = rng.uniform(0.5, 2.0, size=(3, 4))
        W_ref = rng.dirichlet(np.ones(4), size=4)
        gamma = np.full((3, 4), 1.0 / 12)
        grad = ot_grad_wrt_U(U, W_ref, gamma)
        radial = np.abs(np.sum(grad * U, axis=1))
        assert np.max(radial) < 1e-8


def _tiny_problem(aligned=True, lam=1e-3):
    """Handmade two-group problem on a 2-feature numeric schema."""
    schema = la.FeatureSchema(
        features=(
            la.FeatureSpec("a", la.FeatureKind.NUMERIC, 0.0, 10.0, controllable=True),
            la.FeatureSpec("b", la.FeatureKind.NUMERIC, 0.0, 10.0, controllable=True),
        ),
        outcome="y",
    )
    H = np.array([[0.5, 0.5], [0.2, 0.8]])
    if aligned:
        U0 = np.tile(np.array([2.0, 1.0]), (6, 1))
    else:
        U0 = np.vstack([np.tile([3.0, 0.2], (3, 1)), np.tile([0.2, 3.0], (3, 1))])
    X = U0 @ H
    y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    ds = la.SurveyDataset(X=X, y=y, schema=schema)
    latent = LatentModel(W=U0.copy(), H=H.copy(), k=2, fit_loss=0.0, seed=0, iters_run=0)
    groups = GroupAssignment(
        labels=np.array([0, 0, 0, 1, 1, 1]),
        centroids=np.zeros((2, 2)),
        reference=1,
        target=0,
        cluster_means=np.array([0.0, 1.0]),
    )
    priorities = PriorityWeights(
        phi=np.zeros((6, 2)),
        varphi=np.array([1.0, 1.0]),
        top_factors=np.array([0, 1]),
        omega=np.array([0.5, 0.5]),
        rho=np.array([2.0, 2.0]),
        s_ctrl=np.array([0, 1]),
        eps_omega=1e-6,
    )
    surrogate = SurrogateModel(beta=np.array([1.0, -1.0]), bias=0.0)
    return InterventionProblem(
        dataset=ds,
        latent=latent,
        groups=groups,
        priorities=priorities,
        surrogate=surrogate,
        eta=0.1,
        sparsity_weight=lam,
        max_outer=50,
    )


class TestOptimize:
    def test_aligned_at_start_stalls_at_zero(self):
        result = optimize(_tiny_problem(aligned=True))
        assert result.status == "stalled_at_zero"
        assert np.all(result.delta == 0.0)
        assert len(result.trajectory) == 1
        t0 = result.trajectory[0]
        assert t0.sparsity == 0.0
        assert t0.objective == pytest.approx(t0.alignment + result.beta_used * t0.coupling)

    def test_initial_objective_decomposition(self, fixture_arts):
        t0 = fixture_arts.result.trajectory[0]
        beta = fixture_arts.result.beta_used
        assert t0.sparsity == 0.0
        assert t0.objective == pytest.approx(t0.alignment + beta * t0.coupling)

    def test_initial_gain_is_zero(self, fixture_arts):
        # the gain is measured from the same projected codes record 0 holds
        assert fixture_arts.result.trajectory[0].mean_gain == 0.0

    def test_misaligned_problem_moves_and_stays_feasible(self):
        problem = _tiny_problem(aligned=False)
        result = optimize(problem)
        assert result.status in ("converged", "max_outer", "plateau")
        objs = [t.objective for t in result.trajectory]
        assert all(b < a for a, b in zip(objs, objs[1:]))
        i_b = problem.groups.i_target
        for i in i_b:
            assert la.validate_row(problem.dataset.X[i] + result.delta[i], problem.dataset.schema) == []

    def test_support_constraint_exact(self, fixture_arts):
        result = fixture_arts.result
        schema = fixture_arts.dataset.schema
        groups = fixture_arts.groups
        outside_rows = np.setdiff1d(np.arange(fixture_arts.dataset.n), groups.i_target)
        assert np.all(result.delta[outside_rows] == 0.0)
        blocked = np.concatenate([schema.s_fixed, schema.s_categorical])
        assert np.all(result.delta[:, blocked] == 0.0)

    def test_strictly_decreasing_objective_on_fixture(self, fixture_arts):
        objs = [t.objective for t in fixture_arts.result.trajectory]
        assert all(b < a for a, b in zip(objs, objs[1:]))

    def test_large_lambda_gives_zero_effort(self, fixture_dataset):
        from latent_align.pipeline import run_pipeline

        config = fixture_config(sparsity_weight=3e-3, max_outer=120)
        arts = run_pipeline(config, seed=42, dataset=fixture_dataset)
        assert arts.metrics.effort < 1e-9
        assert arts.metrics.n_conv == 0 or arts.metrics.effort == 0.0

    def test_planted_lever_recovered(self, fixture_arts):
        jstar = la.synthetic_lever_index(fixture_arts.dataset.schema)
        assert fixture_arts.result.active_levers
        assert fixture_arts.result.active_levers[0].feature == jstar

    def test_no_sparsity_final_ot_not_worse(self, fixture_arts):
        from dataclasses import replace

        from latent_align.optimizer import optimize as opt

        problem = replace(fixture_arts.problem, sparsity_weight=0.0, max_outer=150)
        result = opt(problem)
        assert result.trajectory[-1].alignment <= result.trajectory[0].alignment


class TestRoundReport:
    def test_binary_and_likert_rounding(self):
        schema = la.FeatureSchema(
            features=(
                la.FeatureSpec("lik", la.FeatureKind.LIKERT, 1, 5, controllable=True),
                la.FeatureSpec("bin", la.FeatureKind.BINARY, 0.0, 1.0, controllable=True),
                la.FeatureSpec("num", la.FeatureKind.NUMERIC, 0.0, 10.0, controllable=True),
            ),
            outcome="y",
        )
        X = np.array([[3.0, 0.0, 1.5], [2.0, 1.0, 2.5]])
        delta = np.array([[0.4, 0.7, 0.33], [0.0, 0.0, 0.0]])
        out = round_report(delta, X, schema, np.array([0]))
        assert X[0, 0] + out[0, 0] == 3.0  # 3.4 rounds down
        assert X[0, 1] + out[0, 1] == 1.0  # 0.7 rounds up
        assert out[0, 2] == pytest.approx(0.33)  # numeric untouched

    def test_half_rounds_away_from_zero(self):
        schema = la.FeatureSchema(
            features=(
                la.FeatureSpec("bin", la.FeatureKind.BINARY, 0.0, 1.0, controllable=True),
                la.FeatureSpec("num", la.FeatureKind.NUMERIC, 0.0, 1.0, controllable=True),
            ),
            outcome="y",
        )
        X = np.array([[0.0, 0.2], [0.0, 0.2]])
        delta = np.array([[0.5, 0.0], [0.0, 0.0]])
        out = round_report(delta, X, schema, np.array([0]))
        assert X[0, 0] + out[0, 0] == 1.0

    def test_rounded_passes_report_mode(self, fixture_arts):
        ds = fixture_arts.dataset
        rounded = fixture_arts.result.rounded_delta
        for i in fixture_arts.groups.i_target:
            assert la.validate_row(ds.X[i] + rounded[i], ds.schema, mode="report") == []


@st.composite
def _block_and_rho(draw):
    cols = draw(st.integers(1, 4))
    rows = draw(st.integers(1, 5))
    block = np.array(
        draw(
            st.lists(
                st.lists(st.floats(-5, 5, allow_nan=False), min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            )
        )
    )
    rho = np.array(draw(st.lists(st.floats(0.01, 10), min_size=cols, max_size=cols)))
    return block, rho


# 1.45e-280 is nonzero, but np.linalg.norm of its column underflows to 0
@settings(max_examples=25, deadline=None)
@given(case=_block_and_rho(), t=st.floats(0, 2))
@example(case=(np.array([[1.45e-280, 1.0]]), np.array([1.0, 1.0])), t=0.0)
@example(case=(np.array([[1.45e-280, 1.0]]), np.array([1.0, 1.0])), t=0.5)
@example(case=(np.array([[1.45e-280, 1.0]]), np.array([1.0, 1.0])), t=1e-300)
def test_prox_never_grows_columns(case, t):
    block, rho = case
    out = prox_weighted_l21(block, rho, t)
    norms = np.array([math.hypot(*col) for col in block.T])  # no underflow
    assert np.all(np.linalg.norm(out, axis=0) <= norms + 1e-9)
    assert np.all(out[:, np.all(block == 0.0, axis=0)] == 0.0)
    if t == 0:
        assert np.array_equal(out, block)
    else:
        # zeroed exactly when the column norm is at most t * rho; the margin
        # covers a last-bit difference between hypot and np.linalg.norm
        assert np.all(out[:, norms <= t * rho * (1 - 1e-12)] == 0.0)
        assert np.all(np.any(out[:, norms > t * rho * (1 + 1e-12)] != 0.0, axis=0))
