import math
import re
import warnings
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import latent_align as la
from latent_align import optimizer as opt_mod, transport
from latent_align.factorization import LatentModel, nnls_project_rows
from latent_align.grouping import GroupAssignment
from latent_align.optimizer import (
    InterventionProblem,
    _assemble_result,
    _make_alignment,
    _tilde,
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
from latent_align.pipeline import run_pipeline
from latent_align.surrogate import PriorityWeights, SurrogateModel
from latent_align.transport import TransportProblem, sinkhorn

from conftest import fixture_config, small_config
from oracles import central_difference, prox_column_oracle, prox_factor_masked


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
        j = int(np.setdiff1d(np.arange(schema.n_features), schema.s_ctrl)[0])
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

    @pytest.mark.parametrize(
        "t_lambda, message",
        [
            (float("nan"), "t_lambda must be float, got nan"),
            (math.inf, "t_lambda must be float, got inf"),
            (-math.inf, "t_lambda must be float, got -inf"),
            (True, "t_lambda must be float, got True"),
            (-1.0, "t_lambda must be >= 0, got -1.0"),
        ],
    )
    def test_threshold_type_and_range_checked(self, t_lambda, message):
        # a NaN threshold returned an all-NaN block and True acted as 1.0
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            prox_weighted_l21(np.ones((3, 2)), np.ones(2), t_lambda)

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

    def test_zero_column_with_zero_weight_stays_zero(self):
        # rho_j = 0 puts a zero column's threshold at 0 too; it stays exactly
        # zero without a 0 / 0, and a nonzero column with rho_j = 0 is kept
        block = np.array([[0.0, 1.0, 0.0], [0.0, -2.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = prox_weighted_l21(block, np.array([0.0, 0.0, 1.0]), 0.5)
        assert np.array_equal(out, block)
        assert not np.isnan(out).any()


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
        return coupling_value(coupling_residual(X_B - U @ H, D, self.LEVERS))

    def test_exact_coupling_representable(self):
        rng = np.random.default_rng(1)
        H = rng.uniform(0.1, 1.0, size=(3, 6))
        H /= H.sum(axis=1, keepdims=True)
        U0 = rng.uniform(0.0, 2.0, size=(5, 3))
        X_B = U0 @ H
        U = nnls_project_rows(X_B, H)
        assert coupling_value(coupling_residual(X_B - U @ H, np.zeros((5, 2)), np.array([1, 4]))) <= 1e-10

    def test_zero_case(self):
        _, _, X_B, H = self._instance()
        val = self._penalty(np.zeros((4, 3)), np.zeros((4, self.LEVERS.size)), X_B, H)
        assert val == pytest.approx(np.sum(X_B**2))

    def test_gradients_match_finite_differences(self):
        for seed in range(20):
            D, U, X_B, H = self._instance(seed)
            R = coupling_residual(X_B - U @ H, D, self.LEVERS)
            g_d = coupling_grad_levers(R, self.LEVERS)
            g_u = coupling_grad_codes(R, H)
            fd_d = central_difference(lambda D_: self._penalty(U, D_, X_B, H), D)
            fd_u = central_difference(lambda V: self._penalty(V, D, X_B, H), U)
            denom_d = max(1.0, np.max(np.abs(fd_d)))
            denom_u = max(1.0, np.max(np.abs(fd_u)))
            assert np.max(np.abs(g_d - fd_d)) / denom_d < 1e-5
            assert np.max(np.abs(g_u - fd_u)) / denom_u < 1e-5


    def test_contiguous_levers_as_a_slice(self):
        # the solver indexes a contiguous lever range by a slice; it must give
        # the index array's bits
        D, U, X_B, H = self._instance(3)
        D = D[:, :3]
        R = coupling_residual(X_B - U @ H, D, np.arange(2, 5))
        assert np.array_equal(coupling_residual(X_B - U @ H, D, slice(2, 5)), R)
        assert np.array_equal(coupling_grad_levers(R, slice(2, 5)), coupling_grad_levers(R, np.arange(2, 5)))


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
            # the uniform row mass the solver passes
            grad = ot_grad_wrt_U(U, gamma @ W_ref, 1.0 / U.shape[0])
            fd = central_difference(lambda V: self._fixed_plan_cost(V, W_ref, gamma), U)
            assert np.max(np.abs(grad - fd)) / max(1.0, np.max(np.abs(fd))) < 1e-5

    def test_zero_at_concentrated_optimum(self):
        W_ref = np.array([[0.2, 0.3, 0.5]])
        U = np.vstack([W_ref[0] * 3.0, W_ref[0] * 0.7])
        gamma = np.full((2, 1), 0.5)
        grad = ot_grad_wrt_U(U, gamma @ W_ref, 0.5)
        assert np.max(np.abs(grad)) < 1e-8

    def test_radial_direction_has_no_effect(self):
        rng = np.random.default_rng(30)
        U = rng.uniform(0.5, 2.0, size=(3, 4))
        W_ref = rng.dirichlet(np.ones(4), size=4)
        gamma = np.full((3, 4), 1.0 / 12)
        grad = ot_grad_wrt_U(U, gamma @ W_ref, 1.0 / 3)
        radial = np.abs(np.sum(grad * U, axis=1))
        assert np.max(radial) < 1e-8


def _close(a, b):
    """Equal within 1e-14 of the larger operand's largest |entry|."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    return np.max(np.abs(a - b), initial=0.0) <= 1e-14 * max(np.max(np.abs(a), initial=0.0), np.max(np.abs(b), initial=0.0))


def _same_layout(out, like):
    return out.flags.f_contiguous if np.isfortran(like) else out.flags.c_contiguous


class TestLayouts:
    """The solver holds its n_b-row arrays column-major. Each helper it calls
    gives the values of a row-major call within 1e-14 relative and returns
    its n_b-row result in the layout of its n_b-row input."""

    N_B, K, P = 23, 5, 8
    SLICE, INDEX = slice(2, 6), np.array([0, 3, 4, 7])

    def _arrays(self, seed=0):
        rng = np.random.default_rng(seed)
        H = rng.uniform(0.1, 1.0, size=(self.K, self.P))
        U = rng.uniform(0.1, 2.0, size=(self.N_B, self.K))
        X_B = rng.uniform(0.0, 3.0, size=(self.N_B, self.P))
        D = rng.normal(scale=0.3, size=(self.N_B, 4))
        gamma_w = rng.dirichlet(np.ones(self.K), size=self.N_B) / self.N_B
        return H, U, X_B, D, gamma_w

    @staticmethod
    def _layouts(*arrays):
        """Row-major copies of arrays, then column-major ones."""
        return [tuple(np.ascontiguousarray(a) for a in arrays), tuple(np.asfortranarray(a) for a in arrays)]

    @pytest.mark.parametrize("levers", [SLICE, INDEX], ids=["slice", "index"])
    def test_residual_and_its_gradients(self, levers):
        H, U, X_B, D, _ = self._arrays(1)
        expected = X_B - U @ H
        expected[:, levers] = expected[:, levers] + D
        outs = []
        for gap, D_ in self._layouts(X_B - U @ H, D):
            R = coupling_residual(gap, D_, levers)
            # the lever block is added in place, through a slice view or an index array
            assert R is gap and _close(R, expected)
            g_u, g_d = coupling_grad_codes(R, H), coupling_grad_levers(R, levers)
            assert _same_layout(g_u, R) and _same_layout(g_d, R)
            outs.append((coupling_value(R), g_u, g_d))
        (v_c, g_u_c, g_d_c), (v_f, g_u_f, g_d_f) = outs
        assert _close(v_c, v_f) and _close(g_u_c, g_u_f) and _close(g_d_c, g_d_f)

    @pytest.mark.parametrize("t_lambda", [0.0, 0.05, 0.4])
    def test_prox_and_lever_penalty(self, t_lambda):
        *_, D, _ = self._arrays(2)
        D[:, 1] = 0.0
        rho = np.array([1.0, 2.0, 0.5, 0.0])
        outs = []
        for (D_,) in self._layouts(D):
            out = prox_weighted_l21(D_, rho, t_lambda)
            assert _same_layout(out, D_)
            outs.append((out, opt_mod.lever_penalty(D_, rho)))
        (out_c, pen_c), (out_f, pen_f) = outs
        assert _close(out_c, out_f) and _close(pen_c, pen_f)

    def test_ot_gradient(self):
        _, U, *_, gamma_w = self._arrays(3)
        outs = []
        for U_, gw in self._layouts(U, gamma_w):
            tilde = _tilde(U_)
            assert _same_layout(tilde[0], U_)
            for grad in (ot_grad_wrt_U(U_, gw, 1.0 / self.N_B), ot_grad_wrt_U(U_, gw, 1.0 / self.N_B, tilde)):
                assert _same_layout(grad, U_)
            outs.append(grad)
        assert _close(*outs)

    def test_mean_code_gradient(self):
        # a gradient of one row, broadcast against the column of row sums,
        # still comes back in the codes' layout
        _, U, *_ = self._arrays(4)
        g = np.linspace(-1.0, 1.0, self.K)
        outs = []
        for (U_,) in self._layouts(U):
            u_t, s = _tilde(U_)
            out = opt_mod._chain_through_normalization(g, u_t, s)
            assert _same_layout(out, U_)
            outs.append(out)
        assert _close(*outs)


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


def _random_problem(seed, lam, max_outer=30, controllable=(True, True, True)):
    """Small random two-group problem: 3 numeric features (levers unless
    marked otherwise), rank 2, 5 target and 5 reference rows lying exactly on
    the basis."""
    rng = np.random.default_rng(seed)
    d, k, n = 3, 2, 10
    schema = la.FeatureSchema(
        features=tuple(
            la.FeatureSpec(f"f{j}", la.FeatureKind.NUMERIC, 0.0, 10.0, controllable=controllable[j]) for j in range(d)
        ),
        outcome="y",
    )
    H = rng.uniform(0.1, 1.0, size=(k, d))
    H /= H.sum(axis=1, keepdims=True)
    W = rng.uniform(0.2, 3.0, size=(n, k))
    labels = np.repeat([0, 1], n // 2)
    omega = rng.uniform(0.05, 1.0, size=d)
    return InterventionProblem(
        dataset=la.SurveyDataset(X=W @ H, y=labels.astype(float), schema=schema),
        latent=LatentModel(W=W, H=H, k=k, fit_loss=0.0, seed=0, iters_run=0),
        groups=GroupAssignment(
            labels=labels, centroids=np.zeros((2, k)), reference=1, target=0, cluster_means=np.array([0.0, 1.0])
        ),
        priorities=PriorityWeights(
            varphi=np.ones(k),
            top_factors=np.arange(k),
            omega=omega,
            rho=1.0 / (omega + 1e-6),
            s_ctrl=np.arange(d),
            eps_omega=1e-6,
        ),
        surrogate=SurrogateModel(beta=rng.normal(size=k), bias=0.0),
        eta=0.1,
        sparsity_weight=lam,
        max_outer=max_outer,
    )


class TestOptimize:
    def test_levers_with_a_gap(self):
        # a fixed feature between two levers: the lever columns are an index
        # array, and the fixed column never moves
        problem = _random_problem(5, 1e-3, controllable=(True, False, True))
        assert problem.dataset.schema.policy_levers.tolist() == [0, 2]
        result = optimize(problem)
        assert np.all(result.delta[:, 1] == 0.0) and np.any(result.delta != 0.0)
        objectives = [r.objective for r in result.trajectory]
        assert all(b < a for a, b in zip(objectives, objectives[1:]))

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

    def test_coupling_weight_is_derived_from_the_data(self):
        # beta = BETA_AUTO_SCALE / (n_b m^2), m the median target row mass
        # floored at 1; no config key, flag or knob sets it
        arts = run_pipeline(small_config(), seed=7)
        rows = arts.problem.target_projection
        mass = max(float(np.median(rows.sum(axis=1))), 1.0)
        assert arts.result.beta_used == opt_mod.BETA_AUTO_SCALE / (rows.shape[0] * mass**2)
        with pytest.raises(ValueError, match="^with_knobs changes only"):
            arts.problem.with_knobs(beta_couple=1.0)

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
        assert la.validate_rows(problem.dataset.X[i_b] + result.delta[i_b], problem.dataset.schema) == []

    def test_infeasible_lever_block_names_dataset_row(self):
        problem = _tiny_problem()
        # target the second cluster so block position 1 is dataset row 4
        groups = GroupAssignment(
            labels=problem.groups.labels.copy(),
            centroids=np.zeros((2, 2)),
            reference=0,
            target=1,
            cluster_means=np.array([1.0, 0.0]),
        )
        problem = replace(problem, groups=groups)
        D = np.zeros((3, 2))
        D[1, 0] = -100.0
        with pytest.raises(RuntimeError, match=r"infeasible row 4: feature 'a': value .* below lower bound"):
            _assemble_result(problem, D, problem.target_projection, [], "converged", 0, 1.0)

    def test_support_constraint_exact(self, fixture_arts):
        result = fixture_arts.result
        schema = fixture_arts.dataset.schema
        groups = fixture_arts.groups
        outside_rows = np.setdiff1d(np.arange(fixture_arts.dataset.n), groups.i_target)
        assert np.all(result.delta[outside_rows] == 0.0)
        blocked = np.setdiff1d(np.arange(schema.n_features), schema.policy_levers)
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
        from latent_align.optimizer import optimize as opt

        problem = replace(fixture_arts.problem, sparsity_weight=0.0, max_outer=150)
        result = opt(problem)
        assert result.trajectory[-1].alignment <= result.trajectory[0].alignment


class TestTransportFreeAlignments:
    """The two stand-ins for the transport term, each a term of the mean
    normalized code: grad_u is the gradient of refresh's value through the
    row normalization."""

    @pytest.mark.parametrize("alignment", ["mean_margin", "centroid"])
    def test_grad_matches_finite_differences(self, fixture_arts, alignment):
        align = _make_alignment(fixture_arts.problem.with_knobs(alignment=alignment))
        k = fixture_arts.problem.target_projection.shape[1]
        for seed in range(5):
            U = np.random.default_rng(seed).uniform(0.5, 2.0, size=(7, k))
            grad = align.grad_u(U, None, _tilde(U))
            fd = central_difference(lambda V: align.refresh(_tilde(V)[0])[0], U)
            assert np.max(np.abs(grad - fd)) / max(1.0, np.max(np.abs(fd))) < 1e-6

    def test_values(self, fixture_arts):
        problem = fixture_arts.problem
        u_tilde = _tilde(problem.target_projection)[0]
        margin = _make_alignment(problem.with_knobs(alignment="mean_margin")).refresh(u_tilde)
        surrogate = problem.surrogate
        assert margin == (-float(np.mean(u_tilde @ surrogate.beta + surrogate.bias)), None)
        gap, plan = _make_alignment(problem.with_knobs(alignment="centroid")).refresh(u_tilde)
        diff = u_tilde.mean(axis=0) - problem.reference_codes.mean(axis=0)
        assert gap == pytest.approx(float(np.sum(diff**2)), rel=1e-12) and plan is None


class TestWithKnobs:
    def test_shares_the_target_projection(self, fixture_arts):
        problem = fixture_arts.problem
        copy = problem.with_knobs(sparsity_weight=0.0, alignment="centroid")
        assert copy.target_projection is problem.target_projection
        assert copy.lever_box is problem.lever_box
        assert (copy.sparsity_weight, copy.alignment) == (0.0, "centroid")
        assert (problem.sparsity_weight, problem.alignment) == (3e-5, "ot")

    def test_replace_computes_the_lever_box_again(self, fixture_arts):
        problem = fixture_arts.problem
        groups = problem.groups
        swapped = replace(problem, groups=replace(groups, reference=groups.target, target=groups.reference))
        assert swapped.lever_box is not problem.lever_box
        for p in (problem, swapped):
            schema, levers = p.dataset.schema, p.dataset.schema.policy_levers
            X_B = p.dataset.X[np.ix_(p.groups.i_target, levers)]
            assert np.array_equal(p.lever_box, np.stack((schema.lowers[levers] - X_B, schema.uppers[levers] - X_B)))
            assert not p.lever_box.flags.writeable
        assert not np.array_equal(swapped.lever_box, problem.lever_box)

    def test_copies_share_every_derived_field_and_replace_derives_them_again(self, fixture_arts):
        problem = fixture_arts.problem
        derived = ("target_projection", "reference_codes", "lever_box", "pre_discrepancy")
        copy = problem.with_knobs(max_outer=3, alignment="mean_margin")
        for name in derived:
            assert getattr(copy, name) is getattr(problem, name), name
        other = replace(problem, eta=0.1)
        for name in derived:
            assert getattr(other, name) is not getattr(problem, name), name
        assert isinstance(other.pre_discrepancy, float)
        pre = la.normalize_rows(other.target_projection)
        solved = sinkhorn(TransportProblem.from_supports(pre, other.reference_codes, 0.1)).transport_cost
        assert other.pre_discrepancy == solved != problem.pre_discrepancy

    @pytest.mark.parametrize("change", [{"groups": None}, {"dataset": None}, {"target_projection": None}, {"bogus": 1}])
    def test_rejects_what_the_projection_depends_on(self, fixture_arts, change):
        with pytest.raises(ValueError, match="with_knobs"):
            fixture_arts.problem.with_knobs(**change)

    def test_checks_the_new_knobs(self, fixture_arts):
        with pytest.raises(ValueError, match="sparsity_weight"):
            fixture_arts.problem.with_knobs(sparsity_weight=-1.0)

    def test_rejects_a_negative_activity_threshold(self, fixture_arts):
        # a negative tau_delta would count every lever of a zero intervention as active
        with pytest.raises(ValueError, match="tau_delta must be >= 0"):
            fixture_arts.problem.with_knobs(tau_delta=-1.0)

    @pytest.mark.parametrize(
        "change, message",
        [
            # a NaN threshold counts no lever active; an infinite weight divides inf by inf in the prox
            ({"tau_delta": float("nan")}, "tau_delta must be float, got nan"),
            ({"sparsity_weight": float("inf")}, "sparsity_weight must be float, got inf"),
            ({"max_outer": True}, "max_outer must be int, got True"),
            ({"max_outer": 2.5}, "max_outer must be int, got 2.5"),
            # a NaN or negative tolerance can never end a solve as converged
            ({"tol_obj": float("nan")}, "tol_obj must be float, got nan"),
            ({"tol_obj": -1.0}, "tol_obj must be >= 0, got -1.0"),
        ],
    )
    def test_checks_knob_types_and_ranges_by_the_config_rule(self, fixture_arts, change, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fixture_arts.problem.with_knobs(**change)

    def test_construction_checks_knob_types(self, fixture_arts):
        p = fixture_arts.problem
        parts = dict(dataset=p.dataset, latent=p.latent, groups=p.groups, priorities=p.priorities, surrogate=p.surrogate)
        with pytest.raises(ValueError, match="^tau_delta must be float, got nan$"):
            InterventionProblem(**parts, tau_delta=float("nan"))


class TestFrozenProblem:
    """A problem is complete and read-only once built: a write would skip the
    knob checks and leave the derived fields stale."""

    @pytest.mark.parametrize("name", [f.name for f in fields(InterventionProblem)])
    def test_assigning_a_field_raises(self, fixture_arts, name):
        problem = fixture_arts.problem
        value = getattr(problem, name)
        with pytest.raises(FrozenInstanceError):
            setattr(problem, name, value)
        assert getattr(problem, name) is value


class TestStepRule:
    """Each block keeps its own step and backtracks on its own part of J."""

    def test_counters_in_result_and_artifact(self, fixture_arts):
        result = fixture_arts.result
        # one transport solve at the start, then one per U trial; D trials solve none
        assert result.n_sinkhorn_calls == 1 + result.n_u_trials
        assert result.n_outer >= len(result.trajectory) - 1
        assert result.n_u_trials >= result.n_outer
        assert result.n_delta_trials >= result.n_outer
        # every solve runs at least one Sinkhorn iteration
        assert result.n_sinkhorn_iters >= result.n_sinkhorn_calls
        doc = result.to_dict()
        assert (doc["n_outer"], doc["n_u_trials"], doc["n_delta_trials"], doc["n_sinkhorn_iters"]) == (
            result.n_outer,
            result.n_u_trials,
            result.n_delta_trials,
            result.n_sinkhorn_iters,
        )

    def test_solves_kernel_first_at_the_default_eta(self, fixture_arts, monkeypatch):
        # the solver forms neither the cost matrix nor a plan; its iteration
        # counter sums the iterations of the solves it made
        def forbidden(*args, **kwargs):
            raise AssertionError("optimize formed a cost matrix or a full plan")

        solve, iters = transport.SupportsSolver.solve, []

        def recording_solve(*args, **kwargs):
            sol = solve(*args, **kwargs)
            iters.append(sol.iters)
            return sol

        monkeypatch.setattr(transport, "cost_matrix", forbidden)
        monkeypatch.setattr(transport, "sinkhorn", forbidden)
        monkeypatch.setattr(transport.SupportsSolver, "solve", recording_solve)
        problem = fixture_arts.problem.with_knobs(max_outer=20)
        assert problem.eta == transport.DEFAULT_ETA
        result = optimize(problem)
        assert len(iters) == result.n_sinkhorn_calls and sum(iters) == result.n_sinkhorn_iters

    def test_u_trials_are_warm_started(self, fixture_arts, monkeypatch):
        # only the first solve starts cold. The first trial of an iteration
        # starts from the scaling v of the plan kept at the current codes (the
        # plan its gradient reads), carried along the last accepted move:
        # v * (v / v_prev)^c, c the trial step's projection onto that move,
        # clipped to [0, 2]; before the first move it starts from v. A retrial
        # starts from the geometric mean of v and the rejected trial's scaling.
        events, solve = [], transport.SupportsSolver.solve

        def recording_solve(self, source, v0=None):
            sol = solve(self, source, v0)
            events.append((source.copy(), v0, sol))
            return sol

        def recording_grad(U, gamma_w, row_mass, tilde=None):
            events.append((None, None, gamma_w))
            return ot_grad_wrt_U(U, gamma_w, row_mass, tilde)

        monkeypatch.setattr(transport.SupportsSolver, "solve", recording_solve)
        monkeypatch.setattr(opt_mod, "ot_grad_wrt_U", recording_grad)
        result = optimize(fixture_arts.problem)
        solves = [(source, sol) for source, _, sol in events if isinstance(sol, transport.SupportsPlan)]
        assert events[0][1] is None and len(solves) == result.n_sinkhorn_calls
        kept = move = None  # (codes, plan) kept, and the last accepted move
        retrials = carried = 0
        for (_, _, prev), (source, v0, event) in zip(events, events[1:]):
            if not isinstance(event, transport.SupportsPlan):
                now = next((codes, sol) for codes, sol in solves if sol.gamma_target is event)
                if kept is not None and now[1] is not kept[1]:
                    move = (kept[0], now[0], kept[1].v)
                kept = now
            elif isinstance(prev, transport.SupportsPlan):
                assert np.array_equal(v0, np.sqrt(kept[1].v) * np.sqrt(prev.v))
                retrials += 1
            elif move is None:
                assert np.array_equal(v0, kept[1].v)
            else:
                before, after, v_prev = move
                step = after - before
                c = np.clip(np.sum((source - after) * step) / np.sum(step * step), 0.0, 2.0)
                np.testing.assert_allclose(v0, kept[1].v * (kept[1].v / v_prev) ** c, rtol=1e-12)
                carried += c > 0
        assert retrials == result.n_u_trials - result.n_outer > 0
        assert carried > result.n_outer // 2
        # a cold solve takes about 16 iterations on the fixture, a start from
        # the kept scaling alone about 8
        assert result.n_sinkhorn_iters <= 7 * result.n_sinkhorn_calls

    def test_unmoved_delta_never_halves(self, fixture_arts, monkeypatch):
        # a lambda this large keeps D = 0; its prox-and-clip trial leaves D
        # where it is, which ends the D step at once
        steps = []

        def recording_prox(block, rho, t_lambda):
            steps.append(t_lambda)
            return prox_weighted_l21(block, rho, t_lambda)

        monkeypatch.setattr(opt_mod, "prox_weighted_l21", recording_prox)
        result = optimize(replace(fixture_arts.problem, sparsity_weight=1.0, max_outer=20))
        assert np.all(result.delta == 0.0)
        assert len(result.trajectory) > 2
        assert result.n_delta_trials == result.n_outer == len(steps)
        assert steps == [steps[0]] * len(steps)

    def test_every_delta_trial_calls_the_prox_attribute(self, fixture_arts, monkeypatch):
        # the lever-block step goes through optimizer.prox_weighted_l21 once
        # per trial on a run whose D moves, so a counter on that attribute
        # (perfbench counts step attempts with one) reads n_delta_trials
        calls = []

        def counting_prox(block, rho, t_lambda):
            calls.append(t_lambda)
            return prox_weighted_l21(block, rho, t_lambda)

        monkeypatch.setattr(opt_mod, "prox_weighted_l21", counting_prox)
        result = optimize(fixture_arts.problem)
        assert result.objective == fixture_arts.result.objective and result.active_levers
        assert len(calls) == result.n_delta_trials == fixture_arts.result.n_delta_trials

    def test_kept_codes_keep_their_plan(self, monkeypatch):
        # with no halvings allowed, every rejected U trial ends the U step;
        # the next gradient must use the plan solved at the kept codes, and
        # warm starts make that plan differ in its last bits from any other
        # solve, so it is matched against the solver's own solves
        monkeypatch.setattr(opt_mod, "MAX_HALVINGS", 0)
        events = []
        solve = transport.SupportsSolver.solve

        def recording_solve(self, source, *args, **kwargs):
            sol = solve(self, source, *args, **kwargs)
            events.append(("solve", source.copy(), sol.gamma_target))
            return sol

        def recording_grad(U, gamma_w, row_mass, tilde=None):
            events.append(("grad", U.copy(), gamma_w))
            return ot_grad_wrt_U(U, gamma_w, row_mass, tilde)

        monkeypatch.setattr(transport.SupportsSolver, "solve", recording_solve)
        monkeypatch.setattr(opt_mod, "ot_grad_wrt_U", recording_grad)
        optimize(_random_problem(3, 1e-3))
        grads = [U for kind, U, _ in events if kind == "grad"]
        assert any(np.array_equal(a, b) for a, b in zip(grads, grads[1:]))
        for i, (kind, U, gamma_w) in enumerate(events):
            if kind == "grad":
                codes = _tilde(U)[0]
                solved = [g for kind, u, g in events[:i] if kind == "solve" and np.array_equal(u, codes)]
                assert solved and np.array_equal(gamma_w, solved[-1])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lam=st.sampled_from([0.0, 1e-3, 3e-2, 1e-1]))
def test_every_accepted_iterate_lowers_j_and_each_block_part(seed, lam):
    problem = _random_problem(seed, lam, max_outer=15)
    mid = []  # coupling at the new codes and the old lever block, one per iteration
    original = opt_mod.coupling_grad_levers

    def recording_grad(R, levers):
        mid.append(coupling_value(R))
        return original(R, levers)

    opt_mod.coupling_grad_levers = recording_grad
    try:
        result = optimize(problem)
    finally:
        opt_mod.coupling_grad_levers = original
    assert result.status in ("converged", "max_outer", "plateau", "stalled_at_zero")
    beta, traj = result.beta_used, result.trajectory
    for prev, new, coup_mid in zip(traj, traj[1:], mid):
        assert new.objective < prev.objective
        # U block: alignment + beta * coupling with D fixed
        assert new.alignment + beta * coup_mid <= prev.alignment + beta * prev.coupling
        # D block: beta * coupling + lambda * sparsity with U fixed
        assert beta * new.coupling + lam * new.sparsity <= beta * coup_mid + lam * prev.sparsity


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
        rounded, i_b = fixture_arts.result.rounded_delta, fixture_arts.groups.i_target
        assert la.validate_rows(ds.X[i_b] + rounded[i_b], ds.schema, mode="report") == []


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



# rho_j = 0 on the first column puts its threshold at 0
@settings(max_examples=50, deadline=None)
@given(case=_block_and_rho(), t=st.floats(1e-300, 2), zero_rho=st.booleans())
@example(case=(np.array([[1.45e-280, 1.0]]), np.array([1.0, 1.0])), t=0.5, zero_rho=False)
@example(case=(np.array([[1e-310, 1.0]]), np.array([1.0, 1.0])), t=0.5, zero_rho=True)
@example(case=(np.array([[0.0, 1.0], [0.0, 2.0]]), np.array([1.0, 1.0])), t=0.5, zero_rho=True)
def test_prox_factor_is_bit_equal_to_the_masked_form(case, t, zero_rho):
    block, rho = case
    if zero_rho:
        rho[0] = 0.0
    factor = prox_factor_masked(block, rho, t)
    out = prox_weighted_l21(block, rho, t)
    for j in range(block.shape[1]):
        # a surviving column is scaled by exactly 1 - t rho_j / ||col_j||,
        # any other is zeroed
        assert np.array_equal(out[:, j], block[:, j] * factor[j])
        if factor[j] == 0.0:
            assert np.all(out[:, j] == 0.0)