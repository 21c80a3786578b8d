"""The three benchmark workloads: inputs, operation and output check.

Each workload is closed-loop: one caller runs the operation back to back.
`fixture` and `scale` call `run_pipeline` with the dataset passed in;
`compare` calls the CLI's `baselines` command on files written at set-up.

The workload seed perturbs the generated inputs; it does not redraw them.
The solver's work depends strongly on its input: over data seeds 0-4 and
pipeline seeds 42-47 the fixture takes 391 to 800 outer iterations and its
final objective runs from 0.09 to 0.54, and on data seeds 3 and 4 it
converts nobody, so the acceptance invariants checked here do not apply.
Seed 0 is the unperturbed acceptance fixture; any other seed adds a seeded
uniform jitter of +-JITTER times the feature range to every numeric
(non-Likert, non-binary) feature, clipped to the schema bounds.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import latent_align as la
from latent_align import baselines, cli, optimizer
from latent_align.pipeline import ExperimentConfig, run_pipeline
from latent_align.schema import FeatureKind, SurveyDataset

import tracing

# Mirrors FIXTURE_KWARGS and SMALL_KWARGS in tests/conftest.py (the self-test
# compares them).
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
# Default ExperimentConfig at the ROADMAP's n=2000 target, with the outer
# loop capped. Uncapped, one operation takes about 52 s on a 2-core Xeon:
# too long for several samples per run. The cap keeps the plan shape
# (500 x 1000), the iterations per Sinkhorn call and the 40 MB cost-matrix
# temporary of the full run, and shortens only the outer loop.
SCALE_KWARGS = dict(synthetic_n=2000, max_outer=5)
# scale's own config at the test size, for its warm-up and the self-test
SMALL_SCALE_KWARGS = dict(SCALE_KWARGS, synthetic_n=200)
# cli baselines flags of the compare workload (acceptance comparison config)
COMPARE_FLAGS = ["--k", "6", "--g", "3", "--lambda", "3e-5"]
SMALL_COMPARE_FLAGS = ["--k", "4", "--g", "3", "--lambda", "1e-4", "--max-outer", "60"]

PIPELINE_SEED = 42
JITTER = 1e-6

DOCUMENTED_STATUSES = frozenset(
    {
        optimizer.STATUS_CONVERGED,
        optimizer.STATUS_MAX_OUTER,
        optimizer.STATUS_PLATEAU,
        optimizer.STATUS_STALLED,
        baselines.STATUS_CONSTRUCTED,
    }
)


class CheckFailed(AssertionError):
    """An operation returned, but its output broke an invariant."""


@dataclass(frozen=True)
class Outcome:
    """What the fidelity check compares between traced and untraced runs."""

    objective: float
    refreshes: int


def make_dataset(config: ExperimentConfig, seed: int) -> SurveyDataset:
    ds = la.generate_synthetic(
        config.synthetic_n, la.default_synthetic_schema(), config.synthetic_k_true, config.synthetic_seed
    )
    if seed == 0:
        return ds
    schema = ds.schema
    num = [j for j, f in enumerate(schema.features) if f.kind == FeatureKind.NUMERIC]
    lo, hi = schema.lowers[num], schema.uppers[num]
    X = ds.X.copy()
    noise = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(ds.n, len(num)))
    X[:, num] = np.clip(X[:, num] + JITTER * (hi - lo) * noise, lo, hi)
    return SurveyDataset(X=X, y=ds.y.copy(), schema=schema, respondent_ids=ds.respondent_ids)


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _require_finite(obj, where: str) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _require_finite(v, f"{where}.{k}")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _require_finite(v, f"{where}[{i}]")
    elif isinstance(obj, float):
        _require(math.isfinite(obj), f"{where} is not finite: {obj!r}")


def _require_common(status: str, objectives: list[float], metrics: dict, where: str) -> None:
    _require(status in DOCUMENTED_STATUSES, f"{where}: undocumented status {status!r}")
    _require_finite(metrics, where)
    _require_finite(objectives, f"{where}.trajectory")
    _require(
        all(b < a for a, b in zip(objectives, objectives[1:])),
        f"{where}: objective trajectory does not strictly decrease",
    )


class PipelineWorkload:
    """run_pipeline on a generated dataset held in memory."""

    root = tracing.ROOT_PIPELINE

    def __init__(self, name: str, kwargs: dict, small_kwargs: dict, small: bool):
        self.name = name
        self.small = small
        self.small_kwargs = small_kwargs
        self.config = ExperimentConfig(**(small_kwargs if small else kwargs))
        self.dataset: SurveyDataset | None = None

    def set_up(self, seed: int) -> None:
        self.dataset = make_dataset(self.config, seed)

    def warm_up(self, seed: int) -> None:
        twin = PipelineWorkload(self.name, self.small_kwargs, self.small_kwargs, True)
        twin.set_up(seed)
        twin.check(twin.run())

    def prepare(self) -> None:
        pass

    def run(self):
        return run_pipeline(self.config, PIPELINE_SEED, dataset=self.dataset)

    def check(self, arts) -> Outcome:
        result, m = arts.result, arts.metrics
        _require_common(result.status, [r.objective for r in result.trajectory], m.to_dict(), self.name)
        _require(math.isfinite(result.objective), f"{self.name}: objective {result.objective!r}")
        if self.name == "fixture" and not self.small:
            # criterion-5 invariants of tests/test_acceptance.py
            rows = {r.group: r for r in m.group_movement}
            _require(m.r_conv > 0.0, f"r_conv = {m.r_conv}")
            _require(m.dw > 0.0, f"dw = {m.dw}")
            pre, post = rows["target_pre"], rows["target_post"]
            _require(post.centroid_distance < pre.centroid_distance, "post centroid not closer than pre")
            _require(post.ot_discrepancy < pre.ot_discrepancy, "post OT discrepancy not below pre")
            jstar = la.synthetic_lever_index(arts.dataset.schema)
            _require(jstar in {a.feature for a in result.active_levers}, "planted lever not active")
        return Outcome(result.objective, result.n_sinkhorn_calls)


class CompareWorkload:
    """`latent-align baselines` on a CSV and schema written at set-up."""

    root = tracing.ROOT_CLI
    name = "compare"

    def __init__(self, small: bool, workdir: Path):
        self.small = small
        self.workdir = workdir
        self.config = ExperimentConfig(**(SMALL_KWARGS if small else FIXTURE_KWARGS))
        self.flags = SMALL_COMPARE_FLAGS if small else COMPARE_FLAGS
        self.out = workdir / "out"

    def set_up(self, seed: int) -> None:
        inputs = self.workdir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        self.csv, self.schema = inputs / "dataset.csv", inputs / "schema.json"
        la.save_dataset(make_dataset(self.config, seed), self.csv, self.schema)

    def warm_up(self, seed: int) -> None:
        twin = CompareWorkload(True, self.workdir / "warm_up")
        twin.set_up(seed)
        twin.prepare()
        twin.check(twin.run())

    def prepare(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self):
        argv = ["baselines", "--dataset", str(self.csv), "--schema", str(self.schema)]
        argv += self.flags + ["--seed", str(PIPELINE_SEED), "--out", str(self.out)]
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"latent-align baselines exited with {code}")
        return self.out

    def bytes_written(self) -> int:
        return sum(p.stat().st_size for p in self.out.rglob("*") if p.is_file())

    def check(self, out: Path) -> Outcome:
        rows = json.loads((out / "comparison.json").read_text())
        full = json.loads((out / f"seed_{PIPELINE_SEED}" / "intervention.json").read_text())
        with open(out / "comparison.csv", newline="") as fh:
            statuses = {r["method"]: r["status"] for r in csv.DictReader(fh)}
        _require(set(statuses) == set(rows), "comparison.csv and comparison.json list different methods")
        objectives = [r["objective"] for r in full["trajectory"]]
        _require_common(full["status"], objectives, rows, "compare.full_method")
        for method, status in statuses.items():
            _require(status in DOCUMENTED_STATUSES, f"{method}: undocumented status {status!r}")
        if not self.small:
            # criterion-6 ordering of tests/test_acceptance.py
            for kind in baselines.BASELINE_KINDS:
                n_full, n_kind = rows["full_method"]["n_conv"], rows[kind]["n_conv"]
                _require(n_full >= n_kind, f"full method n_conv {n_full} < {kind} n_conv {n_kind}")
        return Outcome(full["objective"], full["n_sinkhorn_calls"])


NAMES = ("fixture", "scale", "compare")


def make(name: str, small: bool, workdir: Path):
    if name == "fixture":
        return PipelineWorkload("fixture", FIXTURE_KWARGS, SMALL_KWARGS, small)
    if name == "scale":
        return PipelineWorkload("scale", SCALE_KWARGS, SMALL_SCALE_KWARGS, small)
    if name == "compare":
        return CompareWorkload(small, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
