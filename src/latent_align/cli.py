"""Command-line experiment driver.

Subcommands: run (full pipeline per seed plus a mean/std aggregate), sweep
(one hyperparameter over a value list), baselines (full method, four
comparison rules, three ablations on identical inputs), synth (emit a
synthetic dataset), inspect (pretty-print an artifact). All outputs are JSON
or tidy CSV; reruns with the same config and seed are byte-identical except
for the timestamp in the run manifest. LATENT_ALIGN_THREADS, a positive
integer (default 1), caps the worker count for seeds and sweep cells.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import sys
import traceback
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, baselines as bl
from .evaluation import GroupMovementRow, MetricsReport, evaluate_intervention, target_codes
from .optimizer import TrajectoryRecord
from .pipeline import (
    ConfigError,
    ExperimentConfig,
    PipelineArtifacts,
    SWEEPABLE,
    load_or_generate,
    run_pipeline,
)
from .records import JSONRecord, field_rows
from .schema import DataValidationError, SchemaError, SurveyDataset, save_dataset
from .surrogate import binarize_outcome

AGGREGATE_FIELDS = ("n_conv", "r_conv", "mean_dp", "n_lever", "effort")


class ArtifactError(ValueError):
    """An artifact file that cannot be read as JSON."""


def _write_json(obj, path: Path, indent: int | None = 2) -> None:
    """Sorted keys and a trailing newline; indent=None is the compact layout
    of the per-seed files."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=indent, sort_keys=True) + "\n")


def _config_hash(config: ExperimentConfig) -> str:
    # identifies the experiment, not where it is written
    doc = {k: v for k, v in config.to_dict().items() if k != "out_dir"}
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    import hashlib  # imported here, off the start-up path of every command

    return hashlib.sha256(canon.encode()).hexdigest()


def _thread_cap() -> int:
    """The worker cap LATENT_ALIGN_THREADS sets: a positive integer, 1 when
    unset. Any other value is a ConfigError."""
    raw = os.environ.get("LATENT_ALIGN_THREADS", "1")
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ConfigError(f"LATENT_ALIGN_THREADS must be a positive integer, got {raw!r}")
    return cap


def _fan_out(cap: int, fn, *arg_lists) -> list:
    """fn over the zipped argument lists, in order; on a process pool when
    the cap allows more than one worker."""
    workers = min(cap, len(arg_lists[0]))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a multi-worker run pays its import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, *arg_lists))
    return list(map(fn, *arg_lists))


def _write_rows_csv(rows: list[dict], header: list[str], path: Path) -> None:
    """RFC 4180 CSV (CRLF line ends); floats are written as repr(float)."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header)
        writer.writeheader()
        writer.writerows(rows)


def _codes_rows(arts: PipelineArtifacts) -> list[dict]:
    """Pre codes for everyone plus post codes for the target group, for
    external latent-space plotting. The target rows carry the codes the
    metrics score; the other rows carry the model codes."""
    groups = arts.groups
    roles = {groups.reference: "reference", groups.target: "target"}
    pre, post = target_codes(arts.problem, arts.result)
    codes = arts.codes.copy()
    codes[groups.i_target] = pre
    entries = [(i, roles.get(int(groups.labels[i]), "other"), "pre", codes[i]) for i in range(arts.dataset.n)]
    entries += [(i, "target", "post", post[r]) for r, i in enumerate(groups.i_target)]
    return [
        {
            "respondent_id": arts.dataset.respondent_ids[i],
            "cluster": int(groups.labels[i]),
            "role": role,
            "phase": phase,
            **{f"c{r}": float(v) for r, v in enumerate(codes)},
        }
        for i, role, phase, codes in entries
    ]


def _write_seed_artifacts(arts: PipelineArtifacts, seed_dir: Path) -> None:
    objects = {
        "latent_model.json": arts.latent,
        "groups.json": arts.groups,
        "surrogate.json": arts.surrogate,
        "priorities.json": arts.priorities,
        "intervention.json": arts.result,
        "metrics.json": arts.metrics,
    }
    for name, obj in objects.items():
        _write_json(obj.to_dict(), seed_dir / name, indent=None)
    trajectory_header = [f.name for f in fields(TrajectoryRecord)]
    _write_rows_csv(field_rows(arts.result.trajectory), trajectory_header, seed_dir / "trajectory.csv")
    movement_header = [f.name for f in fields(GroupMovementRow)]
    _write_rows_csv(field_rows(arts.metrics.group_movement), movement_header, seed_dir / "movement.csv")
    codes_header = ["respondent_id", "cluster", "role", "phase"] + [f"c{r}" for r in range(arts.latent.k)]
    _write_rows_csv(_codes_rows(arts), codes_header, seed_dir / "latent_codes.csv")

    # read-back check: every artifact parses, and the typed records re-validate
    for name, obj in objects.items():
        doc = json.loads((seed_dir / name).read_text())
        if isinstance(obj, JSONRecord):
            type(obj).from_dict(doc)


def _run_one_seed(config: ExperimentConfig, seed: int, out_root: str, dataset: SurveyDataset) -> dict:
    arts = run_pipeline(config, seed, dataset)
    _write_seed_artifacts(arts, Path(out_root) / f"seed_{seed}")
    row = arts.metrics.csv_row()
    row["seed"] = seed
    row["objective"] = arts.result.objective
    row["status"] = arts.result.status
    return row


def _make_out_dir(out_dir: str) -> Path:
    try:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a path under a regular file, say: a usage error
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
    return Path(out_dir)


def _open_run_dir(config: ExperimentConfig) -> Path:
    """Make config.out_dir and write its manifest.json; returns the directory.

    The config is valid once built. Every other check that can reject the
    run (the worker cap, the sweep values, the dataset and the settings it
    cannot support) comes before this call, so a rejected run writes nothing.
    """
    out = _make_out_dir(config.out_dir)
    manifest = {
        "config": config.to_dict(),
        "config_hash": _config_hash(config),
        "seeds": list(config.seeds),
        "versions": {
            "latent_align": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    _write_json(manifest, out / "manifest.json")
    return out


def _load_for_run(config: ExperimentConfig) -> SurveyDataset:
    """The dataset of a run or baselines command, checked against the settings
    that would otherwise fail only after the run directory exists."""
    dataset = load_or_generate(config)
    if config.k > min(dataset.X.shape):
        raise ConfigError(f"k={config.k} exceeds min(n, d) = {min(dataset.X.shape)} of the data")
    if config.n_clusters > dataset.n:
        raise ConfigError(f"G={config.n_clusters} exceeds the {dataset.n} rows of the data")
    try:
        labels = binarize_outcome(dataset.y, rule=config.binarize_rule, threshold=config.binarize_threshold)
    except ValueError as exc:  # a constant outcome under the median rule
        raise ConfigError(f"cannot binarize the outcome: {exc}") from exc
    if np.unique(labels).size < 2:
        raise ConfigError(f"{config.binarize_rule} binarization leaves one outcome class; the probe needs both")
    if dataset.schema.policy_levers.size == 0:
        raise ConfigError("the schema has no controllable non-categorical feature to intervene on")
    return dataset


def cmd_run(config: ExperimentConfig) -> int:
    cap = _thread_cap()
    dataset = _load_for_run(config)
    out = _open_run_dir(config)

    seeds = list(config.seeds)
    n = len(seeds)
    rows = _fan_out(cap, _run_one_seed, [config] * n, seeds, [str(out)] * n, [dataset] * n)
    rows.sort(key=lambda r: r["seed"])
    header = ["seed"] + list(MetricsReport.CSV_FIELDS) + ["objective", "status"]
    _write_rows_csv(rows, header, out / "runs.csv")

    agg = {"n_seeds": len(rows)}
    for name in AGGREGATE_FIELDS:
        vals = np.array([float(r[name]) for r in rows])
        agg[name] = {"mean": float(vals.mean()), "std": float(vals.std(ddof=0))}
    # dw is aggregated for completeness; there is no external reference value
    # to compare it against, so it is marked accordingly.
    dw_vals = np.array([float(r["dw"]) for r in rows])
    agg["dw"] = {"mean": float(dw_vals.mean()), "std": float(dw_vals.std(ddof=0)), "reference_comparable": False}
    _write_json(agg, out / "aggregate.json")
    agg_rows = [{"metric": name, **agg[name]} for name in AGGREGATE_FIELDS]
    _write_rows_csv(agg_rows, ["metric", "mean", "std"], out / "aggregate.csv")
    return 0


def _sweep_cell(config: ExperimentConfig, param: str, dataset: SurveyDataset) -> dict:
    seed = config.seeds[0]
    base = {"param": param, "value": config.to_dict()[param], "seed": seed}
    try:
        arts = run_pipeline(config, seed, dataset)
        row = arts.metrics.csv_row()
        return {**base, **row, "status": "ok"}
    except Exception as exc:  # sweep keeps going; the cell is marked failed
        empty = {k: "" for k in MetricsReport.CSV_FIELDS}
        return {**base, **empty, "status": f"error: {type(exc).__name__}: {exc}"}


def cmd_sweep(config: ExperimentConfig, param: str, values: list[str]) -> int:
    # a value its cell's config rejects fails the sweep; one that fails against the data is an error row
    cells = [config.with_param(param, v) for v in values]
    cap = _thread_cap()
    dataset = load_or_generate(config)  # no sweepable parameter changes the data
    out = _open_run_dir(config)

    rows = _fan_out(cap, _sweep_cell, cells, [param] * len(cells), [dataset] * len(cells))
    header = ["param", "value", "seed"] + list(MetricsReport.CSV_FIELDS) + ["status"]
    _write_rows_csv(rows, header, out / f"sweep_{param}.csv")
    return 0


def cmd_baselines(config: ExperimentConfig) -> int:
    dataset = _load_for_run(config)
    n_levers = dataset.schema.policy_levers.size
    if config.baseline_k_levers > n_levers:
        raise ConfigError(f"baseline_k_levers={config.baseline_k_levers} exceeds the {n_levers} eligible levers")
    out = _open_run_dir(config)
    seed = config.seeds[0]

    arts = run_pipeline(config, seed, dataset)
    _write_seed_artifacts(arts, out / f"seed_{seed}")

    rows = [("full_method", arts.metrics, arts.result)]
    for kind in bl.BASELINE_KINDS:
        spec = bl.BaselineSpec(kind=kind, k_levers=config.baseline_k_levers, step_magnitude=config.baseline_step)
        result = bl.run_baseline(spec, arts.problem)
        rows.append((kind, evaluate_intervention(arts.problem, result), result))
    for kind in bl.ABLATION_KINDS:
        result = bl.run_ablation(kind, arts.problem)
        rows.append((f"ablation_{kind}", evaluate_intervention(arts.problem, result), result))

    header = ["method"] + list(MetricsReport.CSV_FIELDS) + ["status"]
    _write_rows_csv(
        [{"method": name, **metrics.csv_row(), "status": result.status} for name, metrics, result in rows],
        header,
        out / "comparison.csv",
    )
    _write_json(
        {name: metrics.to_dict() for name, metrics, _ in rows},
        out / "comparison.json",
    )
    return 0


def cmd_synth(n: int, k_true: int, seed: int, out_dir: str) -> int:
    # the config rejects an empty path, which would write into the working directory
    config = ExperimentConfig(synthetic_n=n, synthetic_k_true=k_true, synthetic_seed=seed, out_dir=out_dir)
    dataset = load_or_generate(config)
    out = _make_out_dir(config.out_dir)
    save_dataset(dataset, out / "dataset.csv", out / "schema.json")
    return 0


def cmd_inspect(path: str) -> int:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        raise ArtifactError(f"cannot read artifact {path}: {exc}") from exc
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _load_config(args) -> ExperimentConfig:
    doc = {}
    if args.config:
        try:
            doc = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config {args.config} is not a JSON object")
    overrides = {f.name: v for f in fields(ExperimentConfig) if (v := getattr(args, f.name, None)) is not None}
    return ExperimentConfig.from_dict(doc, **overrides)


def _seed_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--dataset", dest="dataset_csv", help="dataset CSV path")
    p.add_argument("--schema", dest="schema_json", help="schema JSON path")
    p.add_argument("--out", dest="out_dir", help="output directory")
    p.add_argument("--seed", dest="seeds", type=_seed_list, help="comma-separated seed list, e.g. 42,43,44")
    p.add_argument("--k", dest="k", type=int, help="latent rank")
    p.add_argument("--g", dest="n_clusters", type=int, help="number of clusters")
    p.add_argument("--q", dest="q", type=int, help="top factors kept for priorities")
    p.add_argument("--eta", dest="eta", type=float, help="entropic regularization")
    p.add_argument("--lambda", dest="sparsity_weight", type=float, help="sparsity weight")
    p.add_argument("--max-outer", dest="max_outer", type=int, help="outer iteration budget")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="latent-align", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full pipeline per seed plus aggregate")
    _add_common(p_run)

    p_sweep = sub.add_parser("sweep", help="sensitivity sweep over one parameter")
    _add_common(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=SWEEPABLE)
    p_sweep.add_argument("--values", required=True, help="comma-separated values")

    p_base = sub.add_parser("baselines", help="full method vs baselines and ablations")
    _add_common(p_base)

    p_synth = sub.add_parser("synth", help="emit a synthetic dataset and schema")
    p_synth.add_argument("--n", type=int, default=500)
    p_synth.add_argument("--k-true", dest="k_true", type=int, default=4)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", default="synthetic")

    p_inspect = sub.add_parser("inspect", help="pretty-print a JSON artifact")
    p_inspect.add_argument("path")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(_load_config(args))
        if args.command == "sweep":
            return cmd_sweep(_load_config(args), args.param, args.values.split(","))
        if args.command == "baselines":
            return cmd_baselines(_load_config(args))
        if args.command == "synth":
            return cmd_synth(args.n, args.k_true, args.seed, args.out)
        if args.command == "inspect":
            return cmd_inspect(args.path)
        parser.error(f"unknown command {args.command!r}")
    except (ConfigError, SchemaError, DataValidationError, ArtifactError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    except Exception as exc:
        detail = {"error": type(exc).__name__, "message": str(exc), "trace": traceback.format_exc(limit=10)}
        print(json.dumps(detail), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
