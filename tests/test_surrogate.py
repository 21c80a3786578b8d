import warnings

import numpy as np
import pytest
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from latent_align.surrogate import (
    GRAD_TOL,
    MAX_NEWTON_ITERS,
    PriorityWeights,
    SurrogateModel,
    _sigmoid,
    aggregate_relevance,
    binarize_outcome,
    feature_priorities,
    fit_logistic,
    select_topq,
    shapley_latent,
)

from conftest import fixture_config
from oracles import central_difference, logistic_bfgs, logistic_loss_grad, shapley_permutations, sigmoid_two_branch


class TestBinarize:
    def test_median_strictly_above(self):
        out = binarize_outcome(np.array([1.0, 2, 3, 4, 5]))
        assert out.tolist() == [0, 0, 0, 1, 1]

    def test_constant_errors(self):
        with pytest.raises(ValueError, match="constant"):
            binarize_outcome(np.array([2.0, 2.0, 2.0]))

    def test_fixed_threshold_inclusive(self):
        out = binarize_outcome(np.array([0.2, 0.8]), rule="fixed", threshold=0.5)
        assert out.tolist() == [0, 1]
        assert binarize_outcome(np.array([0.5, 0.4]), rule="fixed", threshold=0.5).tolist() == [1, 0]


class TestFitLogistic:
    def test_separable_perfect_accuracy(self):
        W = np.array([[0.0], [0.1], [0.2], [0.8], [0.9], [1.0]])
        labels = np.array([0, 0, 0, 1, 1, 1])
        model = fit_logistic(W, labels, l2=0.1)
        assert model.train_accuracy == 1.0

    def test_independent_labels_small_coefficients(self):
        # frozen seed; observed max |beta| well below 0.5 at build time
        rng = np.random.default_rng(123)
        W = rng.dirichlet(np.ones(4), size=500)
        labels = rng.integers(0, 2, size=500)
        model = fit_logistic(W, labels, l2=0.1)
        assert np.max(np.abs(model.beta)) < 0.5

    def test_gradient_matches_finite_differences_at_optimum(self):
        rng = np.random.default_rng(5)
        W = rng.dirichlet(np.ones(3), size=80)
        labels = (W[:, 0] + 0.2 * rng.standard_normal(80) > 0.4).astype(int)
        model = fit_logistic(W, labels, l2=0.05)

        def loss_of(params):
            beta, bias = params[:3], params[3]
            m = W @ beta + bias
            return float(np.mean(np.logaddexp(0, m) - labels * m) + 0.025 * beta @ beta)

        params = np.concatenate([model.beta, [model.bias]])
        g_fd = central_difference(loss_of, params, h=1e-6)
        # at convergence both should be ~0; compare directly
        assert np.max(np.abs(g_fd)) < 1e-5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="class"):
            fit_logistic(np.ones((4, 2)), np.zeros(4))

    def test_bias_not_penalized(self):
        # a penalty this large pins beta near 0; an unpenalized bias still
        # fits the label mean, logit(3/4) = log 3
        rng = np.random.default_rng(4)
        W = rng.dirichlet(np.ones(3), size=40)
        labels = np.repeat([1, 1, 1, 0], 10)
        model = fit_logistic(W, labels, l2=1e6)
        assert np.max(np.abs(model.beta)) < 1e-5
        assert model.bias == pytest.approx(np.log(3.0), abs=1e-5)

    def test_fixture_probe_converges_in_few_newton_steps(self, fixture_arts):
        assert fixture_arts.surrogate.n_iters <= 10
        assert fixture_arts.surrogate.grad_norm < GRAD_TOL

    @pytest.mark.parametrize("grad_tol", [GRAD_TOL, 0.0])
    def test_unpenalized_fit_on_simplex_codes(self, grad_tol):
        # rows summing to one make the columns of [W, 1] dependent, so at
        # l2 = 0 the Hessian is singular along (1, ..., 1, -1)
        rng = np.random.default_rng(5)
        W = rng.dirichlet(np.ones(4), size=200)
        labels = (W[:, 0] + 0.2 * rng.standard_normal(200) > 0.3).astype(int)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_logistic(W, labels, l2=0.0, grad_tol=grad_tol)
        assert np.isfinite(model.grad_norm) and model.grad_norm < GRAD_TOL
        assert model.n_iters <= MAX_NEWTON_ITERS
        _, grad = logistic_loss_grad(np.append(model.beta, model.bias), W, labels, 0.0)
        assert np.max(np.abs(grad)) < GRAD_TOL

    def test_unpenalized_fit_on_separable_data(self):
        # no finite minimizer: the loss falls toward 0 as |beta| grows
        W = np.array([[0.0], [0.1], [0.2], [0.8], [0.9], [1.0]])
        labels = np.array([0, 0, 0, 1, 1, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_logistic(W, labels, l2=0.0)
        assert np.isfinite(model.grad_norm) and model.grad_norm < GRAD_TOL
        assert model.n_iters <= MAX_NEWTON_ITERS and model.train_accuracy == 1.0

    def test_grad_norm_round_trips(self):
        W = np.array([[0.0], [0.1], [0.2], [0.8], [0.9], [1.0]])
        model = fit_logistic(W, np.array([0, 1, 0, 1, 0, 1]), l2=0.1)
        doc = model.to_dict()
        assert doc["grad_norm"] == model.grad_norm > 0.0
        assert SurrogateModel.from_dict(doc).grad_norm == model.grad_norm

    @pytest.mark.parametrize("key", ["l2", "n_iters", "grad_norm"])
    def test_from_dict_requires_fit_record(self, key):
        # a missing grad_norm must not load as 0.0, which reads as converged
        W = np.array([[0.0], [0.1], [0.2], [0.8], [0.9], [1.0]])
        doc = fit_logistic(W, np.array([0, 1, 0, 1, 0, 1]), l2=0.1).to_dict()
        del doc[key]
        with pytest.raises(KeyError, match=key):
            SurrogateModel.from_dict(doc)


@settings(max_examples=40, deadline=None)
@given(
    half_n=st.integers(20, 100),
    k=st.integers(2, 6),
    l2=st.floats(0.2, 1.0),
    concentration=st.floats(0.2, 3.0),
    signal=st.floats(0.0, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_is_stationary_and_matches_bfgs(half_n, k, l2, concentration, signal, seed):
    # l2 >= 0.2 keeps the Hessian's smallest eigenvalue away from 0, so a
    # gradient below GRAD_TOL bounds the parameter error; at small l2 the
    # flat direction (1, ..., 1, -1) of simplex codes lets it grow past 1e-6
    rng = np.random.default_rng(seed)
    W = rng.dirichlet(np.full(k, concentration), size=2 * half_n)
    score = signal * W @ rng.standard_normal(k) + rng.standard_normal(2 * half_n)
    labels = (score > np.median(score)).astype(int)
    model = fit_logistic(W, labels, l2=l2)
    theta = np.append(model.beta, model.bias)
    _, grad = logistic_loss_grad(theta, W, labels, l2)
    assert np.max(np.abs(grad)) < GRAD_TOL
    assert np.max(np.abs(theta - logistic_bfgs(W, labels, l2))) < 1e-6


class TestShapley:
    def test_null_model(self):
        model = SurrogateModel(beta=np.zeros(3), bias=0.4)
        phi = shapley_latent(model, np.random.default_rng(0).dirichlet(np.ones(3), 5), np.full(3, 1 / 3))
        assert np.all(phi == 0.0)

    def test_at_background_zero(self):
        model = SurrogateModel(beta=np.array([1.0, -2.0]), bias=0.1)
        bg = np.array([0.3, 0.7])
        phi = shapley_latent(model, bg[None, :], bg)
        assert np.all(phi == 0.0)

    def test_matches_permutation_oracle(self):
        rng = np.random.default_rng(8)
        beta = rng.normal(size=3)
        bias = rng.normal()
        model = SurrogateModel(beta=beta, bias=float(bias))
        W = rng.dirichlet(np.ones(3), size=12)
        bg = W.mean(axis=0)
        phi = shapley_latent(model, W, bg)
        for i in range(12):
            ref = shapley_permutations(beta, bias, W[i], bg)
            assert np.max(np.abs(phi[i] - ref)) < 1e-10

    def test_efficiency_exact(self):
        rng = np.random.default_rng(9)
        model = SurrogateModel(beta=rng.normal(size=6), bias=0.3)
        W = rng.dirichlet(np.ones(6), size=200)
        bg = W.mean(axis=0)
        phi = shapley_latent(model, W, bg)
        lhs = phi.sum(axis=1)
        rhs = (W - bg) @ model.beta
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_dummy_factor_exact_zero(self):
        beta = np.array([0.5, 0.0, -1.0])
        model = SurrogateModel(beta=beta, bias=0.0)
        rng = np.random.default_rng(10)
        phi = shapley_latent(model, rng.dirichlet(np.ones(3), 50), np.full(3, 1 / 3))
        assert np.all(phi[:, 1] == 0.0)


class TestAggregationSelection:
    def test_absolute_value_semantics(self):
        phi = np.array([[1.0, -1.0], [-1.0, 1.0]])
        np.testing.assert_allclose(aggregate_relevance(phi), [1.0, 1.0])

    def test_single_member(self):
        phi = np.array([[1.0, -2.0], [3.0, 4.0]])
        np.testing.assert_allclose(aggregate_relevance(phi[[0]]), [1.0, 2.0])

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError, match="no target rows"):
            aggregate_relevance(np.zeros((0, 2)))

    def test_topq_ordering_and_ties(self):
        assert select_topq(np.array([0.1, 0.9, 0.5]), 2).tolist() == [1, 2]
        assert select_topq(np.array([0.5, 0.5]), 1).tolist() == [0]
        assert select_topq(np.array([0.3, 0.2, 0.1]), 3).tolist() == [0, 1, 2]

    def test_topq_range_check(self):
        with pytest.raises(ValueError):
            select_topq(np.array([1.0, 2.0]), 3)


def test_priorities_match_the_all_respondent_chain(fixture_arts):
    # build_priorities attributes only the target rows; the result is the
    # chain that attributes every respondent and then averages the target's
    arts, p = fixture_arts, fixture_arts.priorities
    phi = shapley_latent(arts.surrogate, arts.codes, arts.codes.mean(0))
    varphi = aggregate_relevance(phi[arts.groups.i_target])
    top = select_topq(varphi, fixture_config().resolved_q())
    omega, rho = feature_priorities(top, varphi, arts.latent.H, arts.dataset.schema.s_ctrl, p.eps_omega)
    assert np.array_equal(p.varphi, varphi) and np.array_equal(p.top_factors, top)
    assert np.array_equal(p.omega, omega) and np.array_equal(p.rho, rho)


class TestFeaturePriorities:
    def test_single_factor_transfer(self):
        H = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
        omega, rho = feature_priorities(
            np.array([0]), np.array([2.0, 1.0]), H, np.array([0, 1, 2]), eps_omega=1e-6
        )
        np.testing.assert_allclose(omega, [1.0, 1.0, 0.0])
        np.testing.assert_allclose(rho, 1.0 / (omega + 1e-6))

    def test_zero_relevance(self):
        H = np.array([[0.5, 0.5], [1.0, 0.0]])
        omega, rho = feature_priorities(np.array([0, 1]), np.zeros(2), H, np.array([0, 1]), 1e-6)
        assert np.all(omega == 0.0)
        np.testing.assert_allclose(rho, 1e6)

    def test_ranking_matches_exact_rational_recomputation(self):
        rng = np.random.default_rng(21)
        k, d = 5, 9
        H = rng.uniform(size=(k, d))
        H /= H.sum(axis=1, keepdims=True)
        varphi = rng.uniform(size=k)
        top = np.array([0, 2, 3])
        s_ctrl = np.arange(d)
        omega, _ = feature_priorities(top, varphi, H, s_ctrl, 1e-6)
        exact = [
            sum(Fraction(varphi[r]) * Fraction(H[r, j]) for r in top.tolist()) for j in range(d)
        ]
        assert np.argsort(omega, kind="stable").tolist() == sorted(
            range(d), key=lambda j: (exact[j], j)
        )

    @pytest.mark.parametrize("lookup, expected", [("rho_for", [4.0, 2.0]), ("omega_for", [0.25, 0.5])])
    def test_lookup_rejects_non_controllable_feature(self, lookup, expected):
        weights = PriorityWeights(
            varphi=np.ones(1),
            top_factors=np.array([0]),
            omega=np.array([0.5, 0.25]),
            rho=np.array([2.0, 4.0]),
            s_ctrl=np.array([1, 3]),
            eps_omega=1e-6,
        )
        assert getattr(weights, lookup)(np.array([3, 1])).tolist() == expected
        with pytest.raises(ValueError, match="feature 2 is not controllable"):
            getattr(weights, lookup)(np.array([1, 2]))


@settings(max_examples=30, deadline=None)
@given(scale=st.floats(0.01, 100.0))
def test_scaling_varphi_keeps_selection_and_ranking(scale):
    varphi = np.array([0.4, 0.1, 0.7, 0.2])
    H = np.full((4, 3), 1 / 3)
    base_sel = select_topq(varphi, 2)
    scaled_sel = select_topq(scale * varphi, 2)
    assert base_sel.tolist() == scaled_sel.tolist()
    omega1, _ = feature_priorities(base_sel, varphi, H, np.arange(3), 1e-6)
    omega2, _ = feature_priorities(scaled_sel, scale * varphi, H, np.arange(3), 1e-6)
    assert np.argsort(omega1).tolist() == np.argsort(omega2).tolist()


def _assert_same_floats(a, b):
    """Equal values, NaN where NaN, and the same sign on every zero."""
    assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(np.signbit(a[~np.isnan(a)]), np.signbit(b[~np.isnan(b)]))


SIGMOID_EDGES = [0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, 36.7, -36.7, 745.2, -745.2, 5e-324, -5e-324]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40))
def test_sigmoid_is_the_two_branch_form_bit_for_bit(values):
    m = np.array(values + SIGMOID_EDGES)
    _assert_same_floats(_sigmoid(m), sigmoid_two_branch(m))
