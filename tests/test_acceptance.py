"""Acceptance suite: one test per release criterion, run at the stated
tolerances on the frozen synthetic fixture (n=500, rank 6, 3 clusters,
dataset seed 0, pipeline seed 42). Run with -v to get one pass/fail line per
criterion.
"""

import json
import math
import os
import time

import numpy as np
import pytest

import latent_align as la
from latent_align.baselines import ABLATION_NO_SPARSITY, BASELINE_KINDS, BaselineSpec, run_ablation, run_baseline
from latent_align.cli import main
from latent_align.evaluation import evaluate_intervention
from latent_align.factorization import nnls_project_rows
from latent_align.optimizer import (
    coupling_grad_codes,
    coupling_grad_levers,
    coupling_residual,
    coupling_value,
    ot_grad_wrt_U,
    project_feasible,
    prox_weighted_l21,
)
from latent_align.pipeline import run_pipeline
from latent_align.surrogate import SurrogateModel, shapley_latent
from latent_align.transport import TransportProblem, sinkhorn

from conftest import FIXTURE_SEED, fixture_config
from oracles import (
    central_difference,
    entropic_ot_pg,
    nnls_enumerate,
    prox_column_oracle,
    shapley_permutations,
)


@pytest.fixture(scope="module")
def comparison(fixture_arts):
    """Full method vs the four baselines, evaluated by the shared harness."""
    rows = {"full_method": fixture_arts.metrics}
    for kind in BASELINE_KINDS:
        result = run_baseline(BaselineSpec(kind=kind, k_levers=5, step_magnitude=0.2), fixture_arts.problem)
        rows[kind] = evaluate_intervention(fixture_arts.problem, result)
    return rows


class TestCriterion1KernelOracles:
    def test_nnls_matches_enumeration_50_instances(self):
        for seed in range(50):
            rng = np.random.default_rng(9000 + seed)
            H = rng.uniform(0.05, 1.0, size=(3, 6))
            x = np.clip(rng.uniform(-0.5, 2.0, size=6), 0.0, None)
            w = nnls_project_rows(x[None, :], H)[0]
            ref = nnls_enumerate(x, H)
            assert np.max(np.abs(w - ref)) < 1e-6

    def test_sinkhorn_closed_form_2x2(self):
        problem = TransportProblem(
            cost=np.array([[0.0, 1.0], [1.0, 0.0]]),
            source_weights=np.array([0.5, 0.5]),
            target_weights=np.array([0.5, 0.5]),
            eta=1.0,
        )
        plan = sinkhorn(problem)
        diag = 1.0 / (2.0 * (1.0 + math.exp(-1.0)))
        assert abs(plan.gamma[0, 0] - diag) < 1e-6
        assert abs(plan.gamma[1, 1] - diag) < 1e-6
        assert abs(plan.gamma[0, 1] - diag * math.exp(-1.0)) < 1e-6

    def test_sinkhorn_matches_projected_gradient_6x5(self):
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            M = rng.uniform(0.0, 2.0, size=(6, 5))
            a = np.full(6, 1.0 / 6)
            b = np.full(5, 1.0 / 5)
            plan = sinkhorn(TransportProblem(cost=M, source_weights=a, target_weights=b, eta=0.8))
            v_ref, _ = entropic_ot_pg(M, a, b, 0.8)
            assert abs(plan.entropic_value - v_ref) < 1e-5

    def test_prox_matches_scalar_minimization(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            col = rng.normal(size=(5, 1)) * rng.uniform(0.2, 2.0)
            thresh = rng.uniform(0.0, 2.5)
            ours = prox_weighted_l21(col, np.array([1.0]), thresh)[:, 0]
            ref = prox_column_oracle(col[:, 0], thresh)
            assert np.max(np.abs(ours - ref)) < 1e-8

    def test_shapley_permutation_oracle_and_efficiency(self):
        rng = np.random.default_rng(23)
        beta, bias = rng.normal(size=3), float(rng.normal())
        model = SurrogateModel(beta=beta, bias=bias)
        W = rng.dirichlet(np.ones(3), size=20)
        bg = W.mean(axis=0)
        phi = shapley_latent(model, W, bg)
        for i in range(20):
            ref = shapley_permutations(beta, bias, W[i], bg)
            assert np.max(np.abs(phi[i] - ref)) < 1e-10
        # efficiency at machine precision for all rows
        lhs = phi.sum(axis=1)
        rhs = (W - bg) @ beta
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestCriterion2Gradients:
    def test_coupling_gradients_20_instances(self):
        # the functions the solver calls, with every column a lever
        levers = np.arange(7)
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            H = rng.uniform(0.1, 1.0, size=(3, 7))
            H /= H.sum(axis=1, keepdims=True)
            X_B = rng.uniform(0.0, 3.0, size=(4, 7))
            U = rng.uniform(0.1, 2.0, size=(4, 3))
            delta = rng.normal(scale=0.3, size=(4, 7))
            fd_d = central_difference(lambda D: coupling_value(coupling_residual(U, D, X_B, H, levers)), delta)
            fd_u = central_difference(lambda V: coupling_value(coupling_residual(V, delta, X_B, H, levers)), U)
            R = coupling_residual(U, delta, X_B, H, levers)
            g_d = coupling_grad_levers(R, levers)
            g_u = coupling_grad_codes(R, H)
            assert np.max(np.abs(g_d - fd_d)) / max(1.0, np.max(np.abs(fd_d))) < 1e-5
            assert np.max(np.abs(g_u - fd_u)) / max(1.0, np.max(np.abs(fd_u))) < 1e-5

    def test_ot_gradient_20_instances(self):
        for seed in range(20):
            rng = np.random.default_rng(200 + seed)
            U = rng.uniform(0.5, 2.0, size=(4, 3))
            W_ref = rng.dirichlet(np.ones(3), size=5)
            u_tilde = U / U.sum(axis=1, keepdims=True)
            gamma = sinkhorn(TransportProblem.from_supports(u_tilde, W_ref, 0.3)).gamma

            def fixed_plan_cost(V):
                s = V.sum(axis=1) + 1e-12
                vt = V / s[:, None]
                diff = vt[:, None, :] - W_ref[None, :, :]
                return float(np.sum(gamma * np.einsum("pqk,pqk->pq", diff, diff)))

            grad = ot_grad_wrt_U(U, gamma @ W_ref, gamma.sum(axis=1, keepdims=True))
            fd = central_difference(fixed_plan_cost, U)
            assert np.max(np.abs(grad - fd)) / max(1.0, np.max(np.abs(fd))) < 1e-5


class TestCriterion3Feasibility:
    def test_support_exactly_inside_target_levers(self, fixture_arts):
        delta = fixture_arts.result.delta
        schema = fixture_arts.dataset.schema
        i_b = set(fixture_arts.groups.i_target.tolist())
        levers = set(schema.policy_levers.tolist())
        rows, cols = np.nonzero(delta)
        for i, j in zip(rows.tolist(), cols.tolist()):
            assert i in i_b and j in levers

    def test_post_rows_pass_optimize_mode(self, fixture_arts):
        ds, i_b = fixture_arts.dataset, fixture_arts.groups.i_target
        assert la.validate_rows(ds.X[i_b] + fixture_arts.result.delta[i_b], ds.schema) == []

    def test_rounded_rows_pass_report_mode(self, fixture_arts):
        ds, i_b = fixture_arts.dataset, fixture_arts.groups.i_target
        assert la.validate_rows(ds.X[i_b] + fixture_arts.result.rounded_delta[i_b], ds.schema, mode="report") == []

    def test_projection_idempotent_1000_matrices(self, fixture_dataset):
        schema = fixture_dataset.schema
        X = fixture_dataset.X[:20]
        rng = np.random.default_rng(3)
        i_b = np.array([2, 5, 11])
        for _ in range(1000):
            delta = rng.normal(scale=4.0, size=X.shape)
            once = project_feasible(delta, X, schema, i_b)
            assert np.array_equal(once, project_feasible(once, X, schema, i_b))


class TestCriterion4Monotonicity:
    def test_objective_strictly_decreases(self, fixture_arts):
        objs = [t.objective for t in fixture_arts.result.trajectory]
        assert len(objs) > 10
        assert all(b < a for a, b in zip(objs, objs[1:]))

    def test_mean_gain_non_decreasing_first_half(self, fixture_arts):
        gains = [t.mean_gain for t in fixture_arts.result.trajectory]
        half = gains[: len(gains) // 2]
        assert all(b >= a - 1e-12 for a, b in zip(half, half[1:]))


class TestCriterion5EndToEnd:
    def test_effectiveness_and_runtime(self, fixture_dataset):
        start = time.monotonic()
        arts = run_pipeline(fixture_config(), seed=FIXTURE_SEED, dataset=fixture_dataset)
        elapsed = time.monotonic() - start
        m = arts.metrics
        assert m.r_conv > 0.0
        assert m.dw > 0.0
        rows = {r.group: r for r in m.group_movement}
        assert rows["target_post"].centroid_distance < rows["target_pre"].centroid_distance
        assert rows["target_post"].ot_discrepancy < rows["target_pre"].ot_discrepancy
        jstar = la.synthetic_lever_index(arts.dataset.schema)
        assert jstar in {a.feature for a in arts.result.active_levers}
        assert elapsed < 60.0, f"fixture run took {elapsed:.1f}s"


class TestCriterion6ComparativeOrdering:
    def test_full_method_dominates_baselines_on_conversions(self, comparison):
        full = comparison["full_method"].n_conv
        for kind in BASELINE_KINDS:
            assert full >= comparison[kind].n_conv, kind

    def test_no_sparsity_activates_at_least_full(self, fixture_arts):
        result = run_ablation(ABLATION_NO_SPARSITY, fixture_arts.problem)
        assert evaluate_intervention(fixture_arts.problem, result).n_lever >= fixture_arts.metrics.n_lever

    def test_lambda_sweep_effort_collapse(self, fixture_dataset):
        lambdas = (3e-5, 1e-4, 3e-4, 1e-3, 3e-3)
        efforts = []
        for lam in lambdas:
            config = fixture_config(sparsity_weight=lam, max_outer=800)
            arts = run_pipeline(config, seed=FIXTURE_SEED, dataset=fixture_dataset)
            efforts.append(arts.metrics.effort)
        assert all(b <= a + 1e-9 for a, b in zip(efforts, efforts[1:])), efforts
        assert efforts[-1] < 1e-6 or efforts[-1] < 0.01 * efforts[0]


class TestCriterion7Determinism:
    def test_byte_identical_artifacts_and_parallel_agreement(self, tmp_path, monkeypatch):
        config = fixture_config(
            synthetic_n=200,
            synthetic_seed=1,
            k=4,
            max_outer=60,
            seeds=(7, 8),
            nmf_max_iters=200,
            kmeans_restarts=4,
        )
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config.to_dict()))

        def run(out, threads):
            monkeypatch.setenv("LATENT_ALIGN_THREADS", str(threads))
            assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
            return {
                str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file() and p.name != "manifest.json"
            }

        t1 = run(tmp_path / "a", 1)
        t2 = run(tmp_path / "b", 1)
        assert t1 == t2

        t3 = run(tmp_path / "c", 2)
        j_single = json.loads(t1["seed_7/intervention.json"])["objective"]
        j_multi = json.loads(t3["seed_7/intervention.json"])["objective"]
        assert abs(j_single - j_multi) < 1e-9


BEIJING_CSV = os.environ.get("LATENT_ALIGN_BEIJING_CSV")
BEIJING_SCHEMA = os.environ.get("LATENT_ALIGN_BEIJING_SCHEMA")


@pytest.mark.skipif(
    not (BEIJING_CSV and BEIJING_SCHEMA),
    reason="Beijing survey not supplied (set LATENT_ALIGN_BEIJING_CSV and LATENT_ALIGN_BEIJING_SCHEMA)",
)
class TestCriterion8BeijingIfSupplied:
    def test_paper_setting_completes(self, tmp_path):
        config = fixture_config(
            dataset_csv=BEIJING_CSV,
            schema_json=BEIJING_SCHEMA,
            k=10,
            n_clusters=3,
            sparsity_weight=0.05,
            tau_y=0.5,
            seeds=(42,),
        )
        arts = run_pipeline(config, seed=42)
        assert arts.metrics.n_lever <= 12
        assert arts.metrics.r_conv > 0.0
        # reference values are logged for comparison, never asserted
        (tmp_path / "beijing_metrics.json").write_text(json.dumps(arts.metrics.to_dict(), indent=2))
