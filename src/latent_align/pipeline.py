"""End-to-end experiment assembly: configuration, one-seed pipeline run, and
the artifact bundle the CLI serializes. The config checks its field types by
`records.check_types` and its solve knobs' ranges by `optimizer.check_knobs`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .evaluation import MetricsReport, evaluate_intervention
from .factorization import LatentModel, fit_nmf, normalize_rows
from .grouping import GroupAssignment, anchor_groups, kmeans
from .optimizer import InterventionProblem, InterventionResult, check_knobs, optimize
from .records import check_types
from .schema import (
    SurveyDataset,
    default_synthetic_schema,
    generate_synthetic,
    load_dataset,
)
from .surrogate import PriorityWeights, SurrogateModel, binarize_outcome, build_priorities, fit_logistic


class ConfigError(ValueError):
    """Invalid experiment configuration."""


# dataclass attribute -> external (JSON / CLI) name, for the few that differ
_RENAMES = {"n_clusters": "G", "sparsity_weight": "lambda"}
_FIELD_NAMES = {v: k for k, v in _RENAMES.items()}
# sweep name (the field's external name) -> type its value strings parse to
SWEEPABLE = {"k": int, "G": int, "lambda": float, "eta": float, "q": int}


@dataclass(frozen=True)
class ExperimentConfig:
    """Every field has a default; the config round-trips through JSON. It is
    frozen and checked when built, so an invalid value raises ConfigError."""

    dataset_csv: str | None = None
    schema_json: str | None = None
    synthetic_n: int = 500
    synthetic_k_true: int = 4
    synthetic_seed: int = 0

    k: int = 10
    n_clusters: int = 3
    q: int | None = None
    eta: float = 0.05
    sparsity_weight: float = 0.05
    tau_y: float = 0.5
    tau_delta: float = 1e-6
    eps_omega: float = 1e-6
    binarize_rule: str = "median"
    binarize_threshold: float | None = None

    nmf_max_iters: int = 500
    kmeans_restarts: int = 10
    max_outer: int = 200
    tol_obj: float = 1e-5

    seeds: tuple[int, ...] = (42,)
    out_dir: str = "runs/latest"
    baseline_k_levers: int = 5
    baseline_step: float = 0.2

    def resolved_q(self) -> int:
        return self.q if self.q is not None else math.ceil(self.k / 2)

    def __post_init__(self) -> None:
        check_types(self, ConfigError, names=_RENAMES)
        check_knobs(self, ConfigError, names=_RENAMES)
        if self.k < 2:
            raise ConfigError(f"k must be >= 2, got {self.k}")
        if self.n_clusters < 2:
            raise ConfigError(f"G must be >= 2, got {self.n_clusters}")
        if not 1 <= self.resolved_q() <= self.k:
            raise ConfigError(f"q must lie in [1, k], got {self.q} with k={self.k}")
        if not 0 < self.tau_y < 1:
            raise ConfigError(f"tau_y must lie in (0, 1), got {self.tau_y}")
        if not self.eps_omega > 0:
            raise ConfigError(f"eps_omega must be positive, got {self.eps_omega}")
        for name in ("nmf_max_iters", "kmeans_restarts", "baseline_k_levers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.baseline_step > 0:
            raise ConfigError(f"baseline_step must be positive, got {self.baseline_step}")
        if not self.seeds:
            raise ConfigError("at least one seed required")
        if min(self.seeds) < 0 or len(set(self.seeds)) < len(self.seeds):
            raise ConfigError(f"seeds must be distinct non-negative integers, got {list(self.seeds)}")
        for name in ("dataset_csv", "schema_json", "out_dir"):
            if getattr(self, name) == "":
                raise ConfigError(f"{name} must be a non-empty path")
        if (self.dataset_csv is None) != (self.schema_json is None):
            raise ConfigError("dataset_csv and schema_json must be given together")
        if self.binarize_rule not in ("median", "fixed"):
            raise ConfigError(f"unknown binarize rule {self.binarize_rule!r}")
        if (self.binarize_rule == "fixed") != (self.binarize_threshold is not None):
            raise ConfigError("binarize_threshold must be given under the fixed rule and only there")

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            key = _RENAMES.get(f.name, f.name)
            val = getattr(self, f.name)
            out[key] = list(val) if isinstance(val, tuple) else val
        return out

    @classmethod
    def from_dict(cls, d: dict, **overrides) -> "ExperimentConfig":
        """The config of d's keys, with each keyword override (a field name)
        laid over them; the merged config is checked as a whole. A field that
        d names twice, by its external key and its attribute name (G and
        n_clusters, lambda and sparsity_weight), is a ConfigError."""
        known = {f.name for f in fields(cls)}
        kwargs, keys = {}, {}
        for key, val in d.items():
            name = _FIELD_NAMES.get(key, key)
            if name not in known:
                raise ConfigError(f"unknown config key {key!r}")
            if name in keys:
                raise ConfigError(f"config keys {keys[name]!r} and {key!r} name the same field")
            keys[name] = key
            kwargs[name] = tuple(val) if name == "seeds" and isinstance(val, list) else val
        return cls(**{**kwargs, **overrides})

    def with_param(self, param: str, value) -> "ExperimentConfig":
        """This config with sweep parameter param set to value. A string
        value is parsed to the parameter's SWEEPABLE type; a bad literal is
        a ConfigError."""
        if param not in SWEEPABLE:
            raise ConfigError(f"sweep parameter must be one of {tuple(SWEEPABLE)}, got {param!r}")
        if isinstance(value, str):
            try:
                value = SWEEPABLE[param](value)
            except ValueError:
                raise ConfigError(f"{param} value must be {SWEEPABLE[param].__name__}, got {value!r}") from None
        return replace(self, **{_FIELD_NAMES.get(param, param): value})


@dataclass(frozen=True, eq=False)
class PipelineArtifacts:
    seed: int
    dataset: SurveyDataset
    latent: LatentModel
    codes: np.ndarray
    groups: GroupAssignment
    surrogate: SurrogateModel
    priorities: PriorityWeights
    problem: InterventionProblem
    result: InterventionResult
    metrics: MetricsReport


def load_or_generate(config: ExperimentConfig) -> SurveyDataset:
    if config.dataset_csv is not None:
        try:
            return load_dataset(config.dataset_csv, config.schema_json)
        except (OSError, UnicodeError, json.JSONDecodeError) as exc:  # an unreadable file is a usage error
            raise ConfigError(f"cannot read dataset {config.dataset_csv} or schema {config.schema_json}: {exc}") from exc
    try:
        return generate_synthetic(
            n=config.synthetic_n,
            schema=default_synthetic_schema(),
            k_true=config.synthetic_k_true,
            seed=config.synthetic_seed,
        )
    except ValueError as exc:  # synthetic settings the generator rejects are a usage error
        raise ConfigError(f"cannot generate synthetic data: {exc}") from exc


def run_pipeline(config: ExperimentConfig, seed: int, dataset: SurveyDataset | None = None) -> PipelineArtifacts:
    """Execute the whole chain for one seed.

    Order: factorize and freeze the basis, normalize codes, cluster and
    anchor groups by outcome, fit the probe on binarized labels, derive
    lever priorities, then solve the intervention and score it.
    """
    if dataset is None:
        dataset = load_or_generate(config)

    latent = fit_nmf(dataset.X, k=config.k, seed=seed, max_iters=config.nmf_max_iters)
    codes = normalize_rows(latent.W)
    labels, centroids = kmeans(codes, config.n_clusters, seed=seed, restarts=config.kmeans_restarts)
    groups = anchor_groups(labels, dataset.y, centroids)

    labels_bin = binarize_outcome(dataset.y, rule=config.binarize_rule, threshold=config.binarize_threshold)
    surrogate = fit_logistic(codes, labels_bin, tau_y=config.tau_y)
    priorities = build_priorities(
        surrogate,
        codes,
        groups.i_target,
        latent.H,
        dataset.schema.s_ctrl,
        q=config.resolved_q(),
        eps_omega=config.eps_omega,
    )
    problem = InterventionProblem(
        dataset=dataset,
        latent=latent,
        groups=groups,
        priorities=priorities,
        surrogate=surrogate,
        eta=config.eta,
        sparsity_weight=config.sparsity_weight,
        max_outer=config.max_outer,
        tol_obj=config.tol_obj,
        tau_delta=config.tau_delta,
    )
    result = optimize(problem)
    metrics = evaluate_intervention(problem, result)
    return PipelineArtifacts(
        seed=seed,
        dataset=dataset,
        latent=latent,
        codes=codes,
        groups=groups,
        surrogate=surrogate,
        priorities=priorities,
        problem=problem,
        result=result,
        metrics=metrics,
    )
