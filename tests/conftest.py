import os

import numpy as np
import pytest
from hypothesis import settings

import latent_align as la
from latent_align.pipeline import ExperimentConfig, run_pipeline

# HYPOTHESIS_PROFILE=ci (set in CI) makes property tests draw the same examples
# on every run and print the reproduction blob of any failure; local runs stay
# random.
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# Frozen synthetic fixture: n=500, rank 6, 3 clusters. The seeds and the
# sparsity weight were fixed after verifying conversion, lever recovery and
# sweep behavior on this exact configuration.
FIXTURE_SEED = 42
FIXTURE_KWARGS = dict(
    synthetic_n=500,
    synthetic_k_true=3,
    synthetic_seed=0,
    k=6,
    n_clusters=3,
    sparsity_weight=3e-5,
    eta=0.05,
    max_outer=800,
    tol_obj=1e-6,
)

# Small, fast configuration for CLI mechanics tests.
SMALL_KWARGS = dict(
    synthetic_n=200,
    synthetic_k_true=3,
    synthetic_seed=1,
    k=4,
    n_clusters=3,
    sparsity_weight=1e-4,
    max_outer=60,
    tol_obj=1e-5,
    nmf_max_iters=200,
    kmeans_restarts=4,
)


def fixture_config(**overrides) -> ExperimentConfig:
    return ExperimentConfig(**{**FIXTURE_KWARGS, **overrides})


def small_config(**overrides) -> ExperimentConfig:
    return ExperimentConfig(**{**SMALL_KWARGS, **overrides})


@pytest.fixture(scope="session")
def fixture_dataset():
    cfg = fixture_config()
    return la.generate_synthetic(
        cfg.synthetic_n, la.default_synthetic_schema(), cfg.synthetic_k_true, cfg.synthetic_seed
    )


@pytest.fixture(scope="session")
def fixture_arts(fixture_dataset):
    return run_pipeline(fixture_config(), seed=FIXTURE_SEED, dataset=fixture_dataset)


@pytest.fixture(scope="session")
def small_schema():
    """Two numeric features plus a binary and a Likert; handy for unit tests."""
    return la.FeatureSchema(
        features=(
            la.FeatureSpec("a", la.FeatureKind.NUMERIC, 0.0, 10.0, controllable=True),
            la.FeatureSpec("b", la.FeatureKind.NUMERIC, 0.0, 10.0, controllable=True),
            la.FeatureSpec("lik", la.FeatureKind.LIKERT, 1, 5, controllable=True),
            la.FeatureSpec("bin", la.FeatureKind.BINARY, 0.0, 1.0, controllable=False),
        ),
        outcome="score",
    )


def make_rng(seed=0):
    return np.random.default_rng(seed)
