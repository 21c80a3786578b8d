import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls as scipy_nnls

import latent_align as la
import latent_align.factorization as factorization
from latent_align.factorization import (
    LatentModel,
    NNLSError,
    fit_nmf,
    nnls_project,
    nnls_project_rows,
    normalize_rows,
)

from conftest import fixture_config
from oracles import nmf_residual_loss, nnls_enumerate


def _rand_nonneg(rng, n, d):
    return rng.uniform(0.0, 2.0, size=(n, d))


class TestFitNMF:
    def test_exact_product_recovered_to_tolerance(self):
        # frozen regression: rank-3 exact product, residual observed ~1e-5 scale
        rng = np.random.default_rng(11)
        W0 = rng.uniform(0.1, 2.0, size=(40, 3))
        H0 = rng.uniform(0.1, 2.0, size=(3, 12))
        X = W0 @ H0
        model = fit_nmf(X, k=3, seed=5, max_iters=2000, tol=0.0)
        assert model.fit_loss / np.sum(X**2) < 1e-3

    def test_loss_history_non_increasing(self):
        rng = np.random.default_rng(2)
        X = _rand_nonneg(rng, 30, 8)
        model = fit_nmf(X, k=4, seed=1, max_iters=200, tol=0.0)
        hist = np.array(model.loss_history)
        assert np.all(hist[1:] <= hist[:-1] * (1 + 1e-12) + 1e-12)

    def test_zero_row_stays_zero_in_w(self):
        rng = np.random.default_rng(3)
        X = _rand_nonneg(rng, 10, 6)
        X[4, :] = 0.0
        model = fit_nmf(X, k=3, seed=9, max_iters=50, tol=0.0)
        assert np.all(model.W[4, :] == 0.0)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        X = _rand_nonneg(rng, 25, 7)
        m1 = fit_nmf(X, k=3, seed=42, max_iters=100, tol=1e-10)
        m2 = fit_nmf(X, k=3, seed=42, max_iters=100, tol=1e-10)
        assert np.array_equal(m1.W, m2.W) and np.array_equal(m1.H, m2.H)

    def test_h_rows_l1_normalized(self):
        rng = np.random.default_rng(5)
        model = fit_nmf(_rand_nonneg(rng, 30, 9), k=4, seed=0, max_iters=150, tol=0.0)
        np.testing.assert_allclose(model.H.sum(axis=1), 1.0, atol=1e-9)

    def test_rescaling_preserves_product(self):
        rng = np.random.default_rng(6)
        W = rng.uniform(0.01, 1.0, size=(12, 4))
        H = rng.uniform(0.01, 1.0, size=(4, 7))
        scale = H.sum(axis=1)
        H2 = H / scale[:, None]
        W2 = W * scale[None, :]
        np.testing.assert_allclose(W2 @ H2, W @ H, atol=1e-10)

    def test_rejects_bad_rank_and_zero_matrix(self):
        X = np.ones((4, 3))
        with pytest.raises(ValueError, match="k"):
            fit_nmf(X, k=5, seed=0)
        with pytest.raises(ValueError, match="zero"):
            fit_nmf(np.zeros((4, 3)), k=2, seed=0)

    def test_fit_loss_matches_product(self):
        rng = np.random.default_rng(7)
        X = _rand_nonneg(rng, 20, 6)
        model = fit_nmf(X, k=3, seed=2, max_iters=100, tol=0.0)
        assert abs(model.fit_loss - np.sum((X - model.W @ model.H) ** 2)) < 1e-9 * np.sum(X**2)

    def test_returned_arrays_read_only(self):
        rng = np.random.default_rng(8)
        model = fit_nmf(_rand_nonneg(rng, 10, 5), k=2, seed=0, max_iters=20)
        with pytest.raises(ValueError):
            model.H[0, 0] = 1.0


def _nmf_input(seed, n, d, k, exact):
    rng = np.random.default_rng(seed)
    if exact:
        return rng.uniform(0.1, 2.0, size=(n, k)) @ rng.uniform(0.1, 2.0, size=(k, d))
    return rng.uniform(0.0, 2.0, size=(n, d))


# (seed, n, d, k, exact product). On the exact products the loss falls to
# its rounding floor, where the Gram-form loss alone stops the fit hundreds
# of iterations early or late at every tol; on the first random input it
# does so at tol = 0.
NMF_ORACLE_INPUTS = [
    (17, 30, 10, 2, True),
    (1, 12, 6, 3, True),
    (8, 6, 9, 3, True),
    (0, 20, 8, 2, False),
    (2, 25, 8, 3, False),
]


class TestFitNMFMatchesResidualLoop:
    """fit_nmf reads its stop-test loss from the Gram products; it must stop
    where the residual-loss loop stops, with the same factors bit for bit."""

    @pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-6])
    @pytest.mark.parametrize("seed, n, d, k, exact", NMF_ORACLE_INPUTS)
    def test_same_stop_and_factors(self, seed, n, d, k, exact, tol):
        X = _nmf_input(seed, n, d, k, exact)
        W, H, iters = nmf_residual_loss(X, k, seed, 3000, tol)
        model = fit_nmf(X, k=k, seed=seed, max_iters=3000, tol=tol)
        assert model.iters_run == iters
        assert np.array_equal(model.W, W) and np.array_equal(model.H, H)
        diff = X - W @ H
        assert model.fit_loss == float(np.einsum("ij,ij->", diff, diff))


class TestHitCap:
    def test_fixture_fit_stops_at_the_cap(self, fixture_arts):
        latent = fixture_arts.latent
        assert latent.iters_run == fixture_config().nmf_max_iters and latent.hit_cap

    def test_fit_that_meets_tol_did_not_hit_the_cap(self):
        X = _nmf_input(0, 20, 8, 2, False)
        model = fit_nmf(X, k=2, seed=4, max_iters=5000)
        assert model.iters_run < 5000 and not model.hit_cap
        # meeting the stop test at the last allowed iteration is not a capped fit
        assert not fit_nmf(X, k=2, seed=4, max_iters=model.iters_run).hit_cap
        capped = fit_nmf(X, k=2, seed=4, max_iters=model.iters_run - 1)
        assert capped.iters_run == model.iters_run - 1 and capped.hit_cap


class TestNNLSProject:
    def test_exact_representability(self):
        rng = np.random.default_rng(0)
        H = rng.uniform(0.1, 1.0, size=(3, 6))
        w0 = rng.uniform(0.0, 2.0, size=3)
        w = nnls_project(w0 @ H, H)
        assert np.linalg.norm(w @ H - w0 @ H) <= 1e-6

    def test_zero_input_gives_zero(self):
        rng = np.random.default_rng(1)
        H = rng.uniform(0.1, 1.0, size=(4, 5))
        assert np.array_equal(nnls_project(np.zeros(5), H), np.zeros(4))

    def test_matches_enumeration_oracle(self):
        # 50 seeded instances, k=3, d=6
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            H = rng.uniform(0.05, 1.0, size=(3, 6))
            x = rng.uniform(0.0, 2.0, size=6) - 0.5 * rng.uniform(size=6)
            x = np.clip(x, 0.0, None)
            w = nnls_project(x, H)
            w_ref = nnls_enumerate(x, H)
            assert np.max(np.abs(w - w_ref)) < 1e-6, f"seed {seed}"

    def test_kkt_conditions(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            H = rng.uniform(0.05, 1.0, size=(5, 9))
            x = rng.uniform(0.0, 3.0, size=9)
            w = nnls_project(x, H)
            g = 2.0 * (w @ H - x) @ H.T
            assert np.all(g >= -1e-6)
            assert np.max(np.abs(w * g)) <= 1e-6

    def test_beats_random_candidates(self):
        rng = np.random.default_rng(77)
        H = rng.uniform(0.05, 1.0, size=(4, 8))
        x = rng.uniform(0.0, 2.0, size=8)
        w = nnls_project(x, H)
        best = np.sum((w @ H - x) ** 2)
        for _ in range(100):
            cand = rng.uniform(0.0, 2.0, size=4)
            assert best <= np.sum((cand @ H - x) ** 2) + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            nnls_project(np.ones(4), np.ones((2, 5)))


@st.composite
def _nnls_batches(draw):
    """A row-normalized basis with k <= 6 (some entries zeroed) and 1-40 rows,
    some with negative entries, some zero."""
    k = draw(st.integers(1, 6))
    d = draw(st.integers(k, 10))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    H = rng.uniform(0.0, 1.0, size=(k, d)) * (rng.uniform(size=(k, d)) > 0.3)
    H[np.arange(k), rng.integers(0, d, size=k)] += 0.1  # no all-zero row
    H /= H.sum(axis=1, keepdims=True)
    X = rng.normal(1.0, 1.5, size=(n, d)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    X[rng.uniform(size=n) < 0.1] = 0.0
    return X, H


class TestBatchedNNLS:
    @settings(max_examples=60, deadline=None)
    @given(_nnls_batches())
    def test_kkt_per_row(self, batch):
        X, H = batch
        W = nnls_project_rows(X, H)
        C = X @ H.T
        grad = W @ (H @ H.T) - C
        # the solver's own sign tolerance, 1e-10 * max(1, max|c|) per row
        tol = 1e-10 * np.maximum(1.0, np.max(np.abs(C), axis=1, keepdims=True))
        assert np.all(W >= 0.0)
        assert np.all(grad >= -tol)
        assert np.all(np.abs(W * grad) <= tol)

    @settings(max_examples=60, deadline=None)
    @given(_nnls_batches())
    def test_row_result_independent_of_batch(self, batch):
        X, H = batch
        W = nnls_project_rows(X, H)
        assert np.array_equal(W, nnls_project_rows(X, H))
        for i in range(X.shape[0]):
            solo = nnls_project_rows(X[i : i + 1], H)[0]
            assert np.max(np.abs(W[i] - solo)) <= 1e-12 * np.linalg.norm(X[i])

    def test_pass_cap_raises_typed_error(self, monkeypatch):
        H = np.array([[0.6, 0.4, 0.0], [0.0, 0.5, 0.5], [0.3, 0.3, 0.4]])
        X = np.array(
            [
                [0.0, 0.0, 0.0],  # feasible at w = 0
                [1.0, 2.0, 3.0] @ H,  # the first swap's passive set is optimal
                [2.0, 0.1, 1.0],  # every c_j > 0, but w_1 = 0 at the optimum
            ]
        )
        assert np.all(X[2] @ H.T > 0)
        W = nnls_project_rows(X, H)
        assert W[2, 1] == 0.0
        monkeypatch.setattr(factorization, "NNLS_MAX_PASSES", 1)
        with pytest.raises(NNLSError, match="1 of 3 rows"):
            nnls_project_rows(X, H)
        assert issubclass(la.NNLSError, RuntimeError)

    def test_nonfinite_rows_rejected(self):
        # a NaN row would fail every sign test and come back as silent zeros
        with pytest.raises(ValueError, match="finite"):
            nnls_project_rows(np.array([[1.0, np.nan, 2.0]]), np.eye(3))

    def _assert_matches_scipy_residuals(self, X, H):
        W = nnls_project_rows(X, H)
        assert np.all(np.isfinite(W)) and np.all(W >= 0.0)
        ref = np.array([scipy_nnls(H.T, x)[0] for x in X])
        resid = np.sum((W @ H - X) ** 2, axis=1)
        ref_resid = np.sum((ref @ H - X) ** 2, axis=1)
        assert np.all(np.abs(resid - ref_resid) <= 1e-12 * np.sum(X**2, axis=1))

    def test_two_dead_factors_parked_at_uniform(self):
        # fit_nmf parks dead factors at 1/d, so H[P]^T can repeat a column
        rng = np.random.default_rng(5)
        H = rng.uniform(0.0, 1.0, size=(6, 8))
        H /= H.sum(axis=1, keepdims=True)
        H[[1, 4]] = 1.0 / 8
        X = rng.uniform(0.0, 2.0, size=(200, 8))
        X[:20] = rng.uniform(0.5, 2.0, size=(20, 1))  # constant rows use the dead factors
        X[20] = 0.0
        self._assert_matches_scipy_residuals(X, H)

    def test_square_nmf_basis_on_default_data(self):
        # k = d = 15 leaves cond(H H^T) near 1e17 and numerical rank 14
        X = la.generate_synthetic(500, la.default_synthetic_schema(), 4, 0).X
        H = fit_nmf(X, k=15, seed=42).H
        self._assert_matches_scipy_residuals(X, H)


class TestNormalizeRows:
    def test_simple_rows(self):
        out = normalize_rows(np.array([[2.0, 2.0], [1.0, 3.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.5], [0.25, 0.75]])

    def test_zero_row_uniform_and_masked(self):
        out = normalize_rows(np.array([[0.0, 0.0], [1.0, 1.0]]))
        np.testing.assert_allclose(out[0], [0.5, 0.5])

    def test_row_sums(self):
        rng = np.random.default_rng(3)
        out = normalize_rows(rng.uniform(0.0, 5.0, size=(50, 6)))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)


class TestSerializationAndImmutability:
    def test_json_round_trip(self):
        rng = np.random.default_rng(9)
        model = fit_nmf(rng.uniform(0.0, 2.0, size=(15, 6)), k=3, seed=4, max_iters=80)
        loaded = LatentModel.from_dict(json.loads(json.dumps(model.to_dict(), sort_keys=True)))
        np.testing.assert_allclose(loaded.W, model.W)
        np.testing.assert_allclose(loaded.H, model.H)
        assert loaded.k == model.k and loaded.seed == model.seed
        assert (loaded.iters_run, loaded.hit_cap) == (80, True)
        uncapped = replace(model, hit_cap=False)
        assert not LatentModel.from_dict(json.loads(json.dumps(uncapped.to_dict()))).hit_cap

    def test_invariants_rechecked_on_load(self, tmp_path):
        rng = np.random.default_rng(10)
        model = fit_nmf(rng.uniform(0.0, 2.0, size=(10, 5)), k=2, seed=4, max_iters=40)
        doc = model.to_dict()
        doc["H"][0][0] = -0.5
        with pytest.raises(ValueError, match="nonnegative"):
            LatentModel.from_dict(doc)

    def test_basis_untouched_by_full_pipeline(self, fixture_arts, fixture_dataset):
        cfg_k, seed = fixture_arts.latent.k, fixture_arts.latent.seed
        fresh = fit_nmf(fixture_dataset.X, k=cfg_k, seed=seed, max_iters=500, tol=1e-9)
        before = hashlib.sha256(fresh.H.tobytes()).hexdigest()
        after = hashlib.sha256(fixture_arts.latent.H.tobytes()).hexdigest()
        assert before == after
