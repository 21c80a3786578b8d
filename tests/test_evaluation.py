import json
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import latent_align as la
from latent_align import evaluation, transport
from latent_align.evaluation import conversion_metrics, effort_and_levers, evaluate_intervention
from latent_align.factorization import nnls_project_rows
from latent_align.grouping import GroupAssignment
from latent_align.pipeline import ExperimentConfig, run_pipeline
from latent_align.surrogate import SurrogateModel
from latent_align.transport import TransportProblem, sinkhorn


class TestConversion:
    def test_crossing_definition(self):
        m = conversion_metrics(np.array([0.4, 0.6]), np.array([0.6, 0.7]), 0.5)
        assert m.n_conv == 1
        assert m.r_conv == 0.5
        assert m.mean_dp == pytest.approx(0.15)

    def test_no_change(self):
        m = conversion_metrics(np.array([0.3, 0.4]), np.array([0.3, 0.4]), 0.5)
        assert m.n_conv == 0 and m.mean_dp == 0.0

    def test_boundary_inclusive(self):
        m = conversion_metrics(np.array([0.49]), np.array([0.50]), 0.5)
        assert m.n_conv == 1

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(0)
        pre = rng.uniform(0.05, 0.95, size=40)
        post = np.clip(pre + rng.normal(scale=0.2, size=40), 0.05, 0.95)
        m = conversion_metrics(pre, post, 0.5)
        naive = sum(1 for a, b in zip(pre, post) if a < 0.5 <= b)
        assert m.n_conv == naive

    def test_removing_converted_respondent(self):
        pre, post = np.array([0.3, 0.4, 0.6]), np.array([0.6, 0.45, 0.7])
        m_all = conversion_metrics(pre, post, 0.5)
        m_drop = conversion_metrics(pre[1:], post[1:], 0.5)
        assert m_all.n_conv - m_drop.n_conv == 1
        assert m_drop.r_conv == pytest.approx(m_drop.n_conv / 2)

    @pytest.mark.parametrize("tau_y", [0.0, 1.0, -0.5])
    def test_threshold_outside_unit_interval_rejected(self, tau_y):
        with pytest.raises(ValueError, match="tau_y"):
            conversion_metrics(np.array([0.4]), np.array([0.6]), tau_y)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            conversion_metrics(np.array([0.4, 0.5]), np.array([0.6]), 0.5)


class TestEffort:
    def test_zero_delta(self):
        effort, n_lever = effort_and_levers(np.zeros((4, 3)), np.arange(3), 1e-6)
        assert effort == 0.0 and n_lever == 0

    def test_pythagorean_column(self):
        delta = np.array([[3.0], [4.0]])
        effort, n_lever = effort_and_levers(delta, np.array([0]), 1e-6)
        assert effort == 5.0 and n_lever == 1

    def test_threshold_semantics(self):
        delta = np.array([[2.0, 1e-9], [0.0, 0.0]])
        _, n_lever = effort_and_levers(delta, np.array([0, 1]), 1e-6)
        assert n_lever == 1

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        delta = rng.normal(size=(10, 4))
        perm = rng.permutation(10)
        e1, _ = effort_and_levers(delta, np.arange(4), 1e-6)
        e2, _ = effort_and_levers(delta[perm], np.arange(4), 1e-6)
        assert e1 == pytest.approx(e2)

    @pytest.mark.parametrize(
        "tau_delta, message",
        [
            (float("nan"), "tau_delta must be float, got nan"),
            (float("inf"), "tau_delta must be float, got inf"),
            (float("-inf"), "tau_delta must be float, got -inf"),
            (True, "tau_delta must be float, got True"),
            (-1.0, "tau_delta must be >= 0, got -1.0"),
        ],
    )
    def test_threshold_type_and_range_checked(self, tau_delta, message):
        # a NaN threshold counted no lever and True counted as 1
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            effort_and_levers(np.ones((3, 2)), np.arange(2), tau_delta)


def _projected_one_row_at_a_time(arts):
    """Normalized codes of X_B and X_B + delta_B from one NNLS call per row."""
    i_b, H = arts.groups.i_target, arts.latent.H
    X_B = arts.dataset.X[i_b]
    post_rows = X_B + arts.result.delta[i_b]
    pre = la.normalize_rows(np.array([nnls_project_rows(x[None, :], H)[0] for x in X_B]))
    post = la.normalize_rows(np.array([nnls_project_rows(x[None, :], H)[0] for x in post_rows]))
    return pre, post


def _evaluate(pre, ref, post, eta):
    """One evaluation pass on handmade codes: the target rows (pre) and the
    reference rows over an identity basis, so each row's projection is the
    row itself, and an intervention that moves the target rows to post. The
    problem carries its pre discrepancy solved as construction solves it,
    and the pass must leave every attribute of it as it was."""
    pre, ref, post = (np.asarray(a, dtype=float) for a in (pre, ref, post))
    W = np.vstack([pre, ref])
    k = W.shape[1]
    groups = GroupAssignment(
        labels=np.repeat([0, 1], [pre.shape[0], ref.shape[0]]),
        centroids=np.vstack([pre.mean(axis=0), ref.mean(axis=0)]),
        reference=1,
        target=0,
        cluster_means=np.array([0.0, 1.0]),
    )
    target_projection = nnls_project_rows(pre, np.eye(k))
    reference_codes = la.normalize_rows(W)[groups.i_reference]
    pre_side = TransportProblem.from_supports(la.normalize_rows(target_projection), reference_codes, eta)
    problem = SimpleNamespace(
        dataset=SimpleNamespace(X=W, schema=SimpleNamespace(s_ctrl=np.arange(k))),
        latent=SimpleNamespace(W=W, H=np.eye(k)),
        groups=groups,
        surrogate=SurrogateModel(beta=np.ones(k), bias=0.0),
        eta=eta,
        tau_delta=1e-6,
        target_projection=target_projection,
        reference_codes=reference_codes,
        pre_discrepancy=sinkhorn(pre_side).transport_cost,
    )
    before = dict(vars(problem))
    delta = np.zeros_like(W)
    delta[groups.i_target] = post - pre
    result = SimpleNamespace(delta=delta, post_projection=None)
    m = evaluate_intervention(problem, result)
    assert vars(problem).keys() == before.keys()
    assert all(getattr(problem, name) is value for name, value in before.items())
    return m


def _count_solves(monkeypatch) -> list:
    """Record the cost shape of every transport.sinkhorn call from now on."""
    shapes = []
    solve = transport.sinkhorn

    def counted(tp, *args, **kwargs):
        shapes.append(tp.cost.shape)
        return solve(tp, *args, **kwargs)

    monkeypatch.setattr(transport, "sinkhorn", counted)
    return shapes


class TestAlignmentMetrics:
    def test_no_movement(self):
        rng = np.random.default_rng(2)
        pre = rng.dirichlet(np.ones(3), 5)
        ref = rng.dirichlet(np.ones(3), 4)
        m = _evaluate(pre, ref, pre, eta=0.2)
        assert m.dw == 0.0 and m.rho_reduction == 0.0 and not m.degenerate_alignment

    def test_perfect_alignment_limit(self):
        # separated corners; pre points each have a unique nearest corner so
        # tiny-eta transport stays well conditioned
        pts = np.eye(4) * 0.9 + 0.025
        pts /= pts.sum(axis=1, keepdims=True)
        blend = 0.7 * pts + 0.3 * np.roll(pts, 1, axis=0)
        blend /= blend.sum(axis=1, keepdims=True)
        m = _evaluate(blend, pts, pts, eta=1e-3)
        assert m.w_after < 1e-6
        assert m.rho_reduction == pytest.approx(1.0, abs=1e-4)

    def test_degenerate_zero_before(self):
        same = np.tile([0.5, 0.5], (3, 1))
        m = _evaluate(same, same, same, eta=0.1)
        assert m.degenerate_alignment and m.rho_reduction == 0.0

    def test_one_pass_solves_each_discrepancy_once(self, fixture_arts, monkeypatch):
        shapes = _count_solves(monkeypatch)
        # building a problem solves its pre side, target rows against reference rows
        problem = replace(fixture_arts.problem)
        n_b, n_ref = fixture_arts.groups.i_target.size, fixture_arts.groups.i_reference.size
        assert shapes == [(n_b, n_ref)]
        # a pass solves the post side only
        m = evaluate_intervention(problem, fixture_arts.result)
        assert shapes == [(n_b, n_ref)] * 2
        rows = {r.group: r for r in m.group_movement}
        assert m.w_before == rows["target_pre"].ot_discrepancy == problem.pre_discrepancy
        assert m.w_after == rows["target_post"].ot_discrepancy

    def test_pre_side_is_solved_once_per_problem_and_eta(self, fixture_arts, monkeypatch):
        problem, result = fixture_arts.problem, fixture_arts.result
        first = evaluate_intervention(problem, result)
        assert first.w_before == problem.pre_discrepancy
        shapes = _count_solves(monkeypatch)
        # a second pass against the same problem solves only the post side
        assert evaluate_intervention(problem, result) == first
        assert len(shapes) == 1
        # a with_knobs copy keeps the problem's eta, and with it the pre side
        with pytest.raises(ValueError, match="with_knobs"):
            problem.with_knobs(eta=0.1)
        assert problem.with_knobs(sparsity_weight=0.0).pre_discrepancy is problem.pre_discrepancy
        assert len(shapes) == 1
        # a problem at another eta solves its own pre side when built, and only then
        other = replace(problem, eta=0.1)
        assert len(shapes) == 2
        m = evaluate_intervention(other, result)
        assert len(shapes) == 3
        assert other.pre_discrepancy == m.w_before != first.w_before
        assert evaluate_intervention(other, result) == m
        assert len(shapes) == 4
        # and the first problem's value stays
        assert problem.pre_discrepancy == first.w_before
        assert evaluate_intervention(problem, result) == first

    def test_a_pass_makes_at_most_one_solve(self, fixture_arts, monkeypatch):
        problem, result = replace(fixture_arts.problem), fixture_arts.result
        zero = replace(result, delta=np.zeros_like(result.delta))
        shapes = _count_solves(monkeypatch)
        evaluate_intervention(problem, result)
        assert len(shapes) == 1
        # a zero intervention's post side is its pre side: nothing to solve
        evaluate_intervention(problem, zero)
        assert len(shapes) == 1

    def test_a_pass_writes_nothing_to_the_problem(self, fixture_arts):
        problem = replace(fixture_arts.problem)
        before = dict(vars(problem))
        result = fixture_arts.result
        for r in (result, replace(result, delta=np.zeros_like(result.delta))):
            evaluate_intervention(problem, r)
        assert vars(problem).keys() == before.keys()
        for name, value in before.items():
            assert getattr(problem, name) is value, name

    def test_dw_matches_independent_recomputation(self, fixture_arts):
        m = fixture_arts.metrics
        ref = fixture_arts.codes[fixture_arts.groups.i_reference]
        pre, post = _projected_one_row_at_a_time(fixture_arts)
        eta = fixture_arts.problem.eta
        before = sinkhorn(TransportProblem.from_supports(pre, ref, eta)).transport_cost
        after = sinkhorn(TransportProblem.from_supports(post, ref, eta)).transport_cost
        assert abs(m.dw - (before - after)) < 1e-8


class TestGroupMovement:
    def test_reference_row_zero_by_convention(self, fixture_arts):
        rows = {r.group: r for r in fixture_arts.metrics.group_movement}
        assert rows["reference"].centroid_distance == 0.0
        assert rows["reference"].ot_discrepancy == 0.0

    def test_post_strictly_closer_on_fixture(self, fixture_arts):
        rows = {r.group: r for r in fixture_arts.metrics.group_movement}
        assert rows["target_post"].centroid_distance < rows["target_pre"].centroid_distance
        assert rows["target_post"].ot_discrepancy < rows["target_pre"].ot_discrepancy
        assert rows["target_post"].mean_probability > rows["target_pre"].mean_probability

    def test_degenerate_identical_groups(self):
        same = np.tile([0.5, 0.5], (3, 1))
        ref, pre, post = _evaluate(same, same, same, eta=0.1).group_movement
        assert pre.centroid_distance == post.centroid_distance == 0.0
        assert pre.ot_discrepancy == pytest.approx(0.0, abs=1e-12)
        assert pre.mean_probability == post.mean_probability == ref.mean_probability

    def test_one_pass_scores_each_code_set_once(self, fixture_arts, monkeypatch):
        # reference, target pre and target post: one probe call each
        scored = []
        predict = SurrogateModel.predict_proba

        def counted(model, W):
            scored.append(W.shape)
            return predict(model, W)

        monkeypatch.setattr(SurrogateModel, "predict_proba", counted)
        m = evaluate_intervention(replace(fixture_arts.problem), fixture_arts.result)
        n_ref, n_b, k = fixture_arts.groups.i_reference.size, fixture_arts.groups.i_target.size, fixture_arts.latent.k
        assert sorted(scored) == sorted([(n_ref, k), (n_b, k), (n_b, k)])
        assert m == fixture_arts.metrics


class TestMetricsReport:
    def test_fields_and_identities(self, fixture_arts):
        m = fixture_arts.metrics
        assert 0.0 <= m.r_conv <= 1.0
        assert m.n_lever <= fixture_arts.dataset.schema.s_ctrl.size
        assert m.dw == m.w_before - m.w_after
        assert m.rho_reduction == pytest.approx(m.dw / m.w_before)
        assert m.eff_conv == pytest.approx(m.n_conv / max(m.effort, 1e-12))
        assert m.n_target == fixture_arts.groups.i_target.size

    def test_json_and_csv_row(self, fixture_arts):
        m = fixture_arts.metrics
        row = m.csv_row()
        assert set(row) == set(m.CSV_FIELDS)
        doc = json.loads(json.dumps(m.to_dict(), sort_keys=True))
        assert doc["n_conv"] == m.n_conv


class TestOneLatentMap:
    """Pre and post are both the projection of the target rows onto the frozen
    basis, so only the feature change can move a score."""

    def test_zero_intervention_scores_zero(self):
        # the default config at n=500 ends with no active lever
        arts = run_pipeline(ExperimentConfig(synthetic_n=500), seed=42)
        assert np.all(arts.result.delta == 0.0)
        m = arts.metrics
        assert m.n_conv == 0 and m.mean_dp == 0.0 and m.dw == 0.0

    def test_replace_copy_is_projected_again(self, fixture_arts):
        # the fixture's result keeps the post projection of its own delta; a
        # zero copy made by replace must not score that stale projection
        result = fixture_arts.result
        assert result.post_projection is not None and np.any(result.delta)
        zero = replace(result, delta=np.zeros_like(result.delta))
        report = evaluate_intervention(fixture_arts.problem, zero)
        assert report.n_conv == 0 and report.dw == 0.0 and report.effort == 0.0

    def test_zero_intervention_reuses_the_pre_side(self, fixture_arts, monkeypatch):
        # a copy made by replace has projected nothing yet
        problem, result = fixture_arts.problem, fixture_arts.result
        zero = replace(result, delta=np.zeros_like(result.delta))
        i_b = problem.groups.i_target
        # the old way: X_B + 0 projected in its own call and the post side solved
        old = replace(zero)
        old.post_projection = nnls_project_rows(problem.dataset.X[i_b] + 0.0, problem.latent.H)
        expected = evaluate_intervention(problem, old)
        ref = la.normalize_rows(problem.latent.W)[problem.groups.i_reference]
        post = la.normalize_rows(old.post_projection)
        assert expected.w_after == sinkhorn(TransportProblem.from_supports(post, ref, problem.eta)).transport_cost

        projections = []
        project = evaluation.nnls_project_rows
        monkeypatch.setattr(evaluation, "nnls_project_rows", lambda *a: projections.append(1) or project(*a))
        solves = _count_solves(monkeypatch)
        report = evaluate_intervention(problem, zero)
        # no projection and no solve: the post side is the problem's pre side
        assert projections == [] and solves == []
        assert zero.post_projection is problem.target_projection
        assert report.w_after == report.w_before == problem.pre_discrepancy
        assert report == expected
        assert report.dw == 0.0 and report.n_conv == 0

    def test_conversions_match_per_row_projection(self, fixture_arts):
        model = fixture_arts.surrogate
        pre, post = _projected_one_row_at_a_time(fixture_arts)
        p_pre, p_post = model.predict_proba(pre), model.predict_proba(post)
        recount = int(np.sum((p_pre < model.tau_y) & (p_post >= model.tau_y)))
        assert fixture_arts.metrics.n_conv == recount > 0
