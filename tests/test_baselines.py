import re
from dataclasses import replace

import numpy as np
import pytest

import latent_align as la
from latent_align import transport
from latent_align.baselines import (
    ABLATION_KINDS,
    ABLATION_NO_OT,
    ABLATION_NO_SHAPLEY,
    ABLATION_NO_SPARSITY,
    BASELINE_KINDS,
    BaselineSpec,
    run_ablation,
    run_baseline,
    uniform_priorities,
)
from latent_align.evaluation import evaluate_intervention
from latent_align.factorization import nnls_project_rows
from latent_align.optimizer import project_feasible


@pytest.fixture(scope="module")
def baseline_results(fixture_arts):
    out = {}
    for kind in ("top_shapley_single", "top_shapley_topk", "max_coverage_topk"):
        spec = BaselineSpec(kind=kind, k_levers=5, step_magnitude=0.2)
        out[kind] = run_baseline(spec, fixture_arts.problem)
    return out


class TestBaselineSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            BaselineSpec(kind="nope")

    def test_uniform_needs_positive_step(self):
        with pytest.raises(ValueError, match="step_magnitude"):
            BaselineSpec(kind="top_shapley_topk", step_magnitude=0.0)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"k_levers": 2.5}, "k_levers must be int, got 2.5"),
            ({"k_levers": True}, "k_levers must be int, got True"),
            ({"step_magnitude": float("inf")}, "step_magnitude must be float, got inf"),
        ],
    )
    def test_field_types_are_checked(self, change, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BaselineSpec(kind="top_shapley_topk", **change)

    def test_too_many_levers(self, fixture_arts):
        spec = BaselineSpec(kind="top_shapley_topk", k_levers=99)
        with pytest.raises(ValueError, match="eligible"):
            run_baseline(spec, fixture_arts.problem)


class TestUniformBaselines:
    def test_single_lever_activates_one(self, fixture_arts, baseline_results):
        m = evaluate_intervention(fixture_arts.problem, baseline_results["top_shapley_single"])
        assert m.n_lever == 1

    def test_topk_bounded_by_k(self, fixture_arts, baseline_results):
        m = evaluate_intervention(fixture_arts.problem, baseline_results["top_shapley_topk"])
        assert m.n_lever <= 5

    def test_single_picks_highest_priority_lever(self, fixture_arts, baseline_results):
        result = baseline_results["top_shapley_single"]
        levers = fixture_arts.dataset.schema.policy_levers
        omega = fixture_arts.priorities.omega_for(levers)
        expected = int(levers[np.argmax(omega)])
        active = [a.feature for a in result.active_levers]
        assert active == [expected]

    def test_result_keeps_its_post_projection_and_solve(self, fixture_arts, baseline_results, monkeypatch):
        # evaluation reads the projection the baseline made; a constructed
        # result solves no transport problem and has no trajectory
        problem = fixture_arts.problem
        i_b = problem.groups.i_target

        def no_solve(*args, **kwargs):
            raise AssertionError("a constructed baseline solved a transport problem")

        monkeypatch.setattr(transport, "sinkhorn", no_solve)
        monkeypatch.setattr(transport.SupportsSolver, "solve", no_solve)
        for kind, kept in baseline_results.items():
            result = run_baseline(BaselineSpec(kind=kind, k_levers=5, step_magnitude=0.2), problem)
            assert np.array_equal(result.delta, kept.delta)
            post = nnls_project_rows(problem.dataset.X[i_b] + result.delta[i_b], problem.latent.H)
            assert np.array_equal(result.post_projection, post)
            assert result.status == "constructed"
            assert (result.n_sinkhorn_calls, result.n_sinkhorn_iters) == (0, 0)
            assert (result.n_outer, result.n_u_trials, result.n_delta_trials) == (0, 0, 0)
            assert result.trajectory == () and result.objective is None

    def test_feasible_after_projection(self, fixture_arts, baseline_results):
        for result in baseline_results.values():
            ds, i_b = fixture_arts.dataset, fixture_arts.groups.i_target
            assert la.validate_rows(ds.X[i_b] + result.delta[i_b], ds.schema) == []

    def test_pre_projection_effort_identity(self, fixture_arts):
        # uniform step on k columns before projection: step * sqrt(n_B) * k
        n_b = fixture_arts.groups.i_target.size
        step, k = 0.2, 5
        levers = fixture_arts.dataset.schema.policy_levers[:k]
        raw = np.zeros_like(fixture_arts.dataset.X)
        raw[np.ix_(fixture_arts.groups.i_target, levers)] = step
        pre_effort = np.sum(np.linalg.norm(raw[:, levers], axis=0))
        assert pre_effort == pytest.approx(step * np.sqrt(n_b) * k)
        projected = project_feasible(
            raw, fixture_arts.dataset.X, fixture_arts.dataset.schema, fixture_arts.groups.i_target
        )
        post_effort = np.sum(np.linalg.norm(projected[:, levers], axis=0))
        assert post_effort <= pre_effort + 1e-12

    def test_coverage_ranking_prefers_headroom(self, fixture_arts):
        spec = BaselineSpec(kind="max_coverage_topk", k_levers=3, step_magnitude=0.2)
        result = run_baseline(spec, fixture_arts.problem)
        schema = fixture_arts.dataset.schema
        X_B = fixture_arts.dataset.X[fixture_arts.groups.i_target]
        levers = schema.policy_levers
        headroom = schema.uppers[levers][None, :] - X_B[:, levers]
        coverage = np.sum(headroom >= 0.2 - 1e-12, axis=0)
        order = np.lexsort((np.arange(levers.size), -coverage.astype(float)))
        expected = set(levers[order[:3]].tolist())
        active = {a.feature for a in result.active_levers}
        assert active <= expected


def _over_bound_problem(problem):
    """The problem on data whose numeric lever usage_1 sits 5e-10 above its
    upper bound (within the data's bound tolerance) wherever it was at it."""
    ds = problem.dataset
    j = ds.schema.names.index("usage_1")
    X = ds.X.copy()
    X[X[:, j] == ds.schema.uppers[j], j] += 5e-10
    return replace(problem, dataset=la.SurveyDataset(X=X, y=ds.y, schema=ds.schema))


class TestUniformStepIsTheProjectedFullStep:
    """A uniform baseline's Delta is `project_feasible` applied to the raw
    n x d step (the step on the target rows' chosen levers, 0 elsewhere),
    bit for bit, also where a row sits above a bound."""

    @staticmethod
    def _chosen(problem, kind, k, step):
        levers = problem.dataset.schema.policy_levers
        if kind == "max_coverage_topk":
            X_B = problem.dataset.X[np.ix_(problem.groups.i_target, levers)]
            scores = np.sum(problem.dataset.schema.uppers[levers] - X_B >= step - 1e-12, axis=0).astype(float)
        else:
            scores = problem.priorities.omega_for(levers)
        order = np.lexsort((np.arange(levers.size), -scores))
        return levers[order[: 1 if kind == "top_shapley_single" else k]]

    @pytest.mark.parametrize("over_bound", [False, True])
    @pytest.mark.parametrize("kind", ["top_shapley_single", "top_shapley_topk", "max_coverage_topk"])
    def test_delta_equals_the_projected_raw_step(self, fixture_arts, kind, over_bound):
        problem = _over_bound_problem(fixture_arts.problem) if over_bound else fixture_arts.problem
        X, schema, i_b = problem.dataset.X, problem.dataset.schema, problem.groups.i_target
        raw = np.zeros_like(X)
        raw[np.ix_(i_b, self._chosen(problem, kind, 5, 0.2))] = 0.2
        result = run_baseline(BaselineSpec(kind=kind, k_levers=5, step_magnitude=0.2), problem)
        assert np.array_equal(result.delta, project_feasible(raw, X, schema, i_b))
        if over_bound:
            # the clip moves usage_1 down to the bound in the over-bound rows, chosen or not
            j = schema.names.index("usage_1")
            assert (X[i_b, j] > schema.uppers[j]).any()
            assert (result.delta[i_b, j] < 0).any()


class TestOutcomeOnly:
    def test_no_sinkhorn_and_runs(self, fixture_arts):
        spec = BaselineSpec(kind="outcome_only_sparse", k_levers=5, step_magnitude=0.2)
        result = run_baseline(spec, fixture_arts.problem)
        assert result.n_sinkhorn_calls == result.n_sinkhorn_iters == 0
        objs = [t.objective for t in result.trajectory]
        assert all(b < a for a, b in zip(objs, objs[1:]))


class TestAblations:
    def test_uniform_priorities_exactly_uniform(self, fixture_arts):
        flat = uniform_priorities(fixture_arts.priorities)
        assert np.all(flat.omega == flat.omega[0])
        assert np.all(flat.rho == flat.rho[0])
        assert flat.rho[0] == 1.0 / (flat.omega[0] + flat.eps_omega)

    def test_no_ot_makes_no_sinkhorn_calls(self, fixture_arts):
        result = run_ablation(ABLATION_NO_OT, fixture_arts.problem)
        assert result.n_sinkhorn_calls == result.n_sinkhorn_iters == 0

    def test_no_sparsity_activates_at_least_full(self, fixture_arts):
        result = run_ablation(ABLATION_NO_SPARSITY, fixture_arts.problem)
        m = evaluate_intervention(fixture_arts.problem, result)
        assert m.n_lever >= fixture_arts.metrics.n_lever

    def test_unknown_ablation(self, fixture_arts):
        with pytest.raises(ValueError, match="ablation"):
            run_ablation("bogus", fixture_arts.problem)

    def test_kind_lists_complete(self):
        assert len(BASELINE_KINDS) == 4
        assert len(ABLATION_KINDS) == 3
        assert ABLATION_NO_SHAPLEY in ABLATION_KINDS
