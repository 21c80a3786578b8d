"""Command-line experiment driver.

Subcommands: run (full pipeline per seed plus a mean/std aggregate), sweep
(one hyperparameter over a value list), baselines (full method, four
comparison rules, three ablations on identical inputs), synth (emit a
synthetic dataset), inspect (pretty-print an artifact). All outputs are JSON
or tidy CSV; reruns with the same config and seed are byte-identical except
for the timestamp in the run manifest. LATENT_ALIGN_THREADS caps the worker
count for seeds and sweep cells.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, baselines as bl
from .evaluation import GroupMovementRow, MetricsReport, evaluate_intervention, target_codes
from .factorization import LatentModel
from .grouping import GroupAssignment
from .optimizer import TrajectoryRecord
from .pipeline import (
    ConfigError,
    ExperimentConfig,
    PipelineArtifacts,
    SWEEPABLE,
    run_pipeline,
)
from .schema import DataValidationError, SchemaError, default_synthetic_schema, generate_synthetic, save_dataset
from .surrogate import SurrogateModel

AGGREGATE_FIELDS = ("n_conv", "r_conv", "mean_dp", "n_lever", "effort")


def _write_json(obj, path: Path, indent: int | None = 2) -> None:
    """Sorted keys and a trailing newline; indent=None is the compact layout
    of the per-seed files."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=indent, sort_keys=True) + "\n")


def _config_hash(config: ExperimentConfig) -> str:
    # identifies the experiment, not where it is written
    doc = {k: v for k, v in config.to_dict().items() if k != "out_dir"}
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _fan_out(fn, *arg_lists) -> list:
    """fn over the zipped argument lists, in order; on a process pool when
    LATENT_ALIGN_THREADS allows more than one worker."""
    try:
        cap = max(1, int(os.environ.get("LATENT_ALIGN_THREADS", "1")))
    except ValueError:
        cap = 1
    workers = min(cap, len(arg_lists[0]))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, *arg_lists))
    return list(map(fn, *arg_lists))


def _write_rows_csv(rows: list[dict], header: list[str], path: Path) -> None:
    """RFC 4180 CSV (CRLF line ends); floats are written as repr(float)."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header)
        writer.writeheader()
        writer.writerows(rows)


def _record_rows(records) -> list[dict]:
    # float() turns NumPy scalars into Python floats, which csv writes as repr
    return [{k: float(v) if isinstance(v, float) else v for k, v in asdict(r).items()} for r in records]


def _codes_rows(arts: PipelineArtifacts) -> list[dict]:
    """Pre codes for everyone plus post codes for the target group, for
    external latent-space plotting. The target rows carry the codes the
    metrics score; the other rows carry the model codes."""
    groups = arts.groups
    roles = {groups.reference: "reference", groups.target: "target"}
    pre, post = target_codes(arts.problem, arts.result.delta)
    codes = arts.codes.codes.copy()
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
    docs = {
        "latent_model.json": arts.latent.to_dict(),
        "groups.json": arts.groups.to_dict(),
        "surrogate.json": arts.surrogate.to_dict(),
        "priorities.json": arts.priorities.to_dict(),
        "intervention.json": arts.result.to_dict(),
        "metrics.json": arts.metrics.to_dict(),
    }
    for name, doc in docs.items():
        _write_json(doc, seed_dir / name, indent=None)
    trajectory_header = [f.name for f in fields(TrajectoryRecord)]
    _write_rows_csv(_record_rows(arts.result.trajectory), trajectory_header, seed_dir / "trajectory.csv")
    movement_header = [f.name for f in fields(GroupMovementRow)]
    _write_rows_csv(_record_rows(arts.metrics.group_movement), movement_header, seed_dir / "movement.csv")
    codes_header = ["respondent_id", "cluster", "role", "phase"] + [f"c{r}" for r in range(arts.latent.k)]
    _write_rows_csv(_codes_rows(arts), codes_header, seed_dir / "latent_codes.csv")

    # read-back check: every artifact parses, and the typed ones re-validate
    read = {name: json.loads((seed_dir / name).read_text()) for name in docs}
    LatentModel.from_dict(read["latent_model.json"])
    GroupAssignment.from_dict(read["groups.json"])
    SurrogateModel.from_dict(read["surrogate.json"])


def _run_one_seed(config_dict: dict, seed: int, out_root: str) -> dict:
    config = ExperimentConfig.from_dict(config_dict)
    arts = run_pipeline(config, seed)
    _write_seed_artifacts(arts, Path(out_root) / f"seed_{seed}")
    row = arts.metrics.csv_row()
    row["seed"] = seed
    row["objective"] = arts.result.objective
    row["status"] = arts.result.status
    return row


def _manifest(config: ExperimentConfig) -> dict:
    return {
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


def cmd_run(config: ExperimentConfig) -> int:
    config.validate()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(_manifest(config), out / "manifest.json")

    seeds = list(config.seeds)
    n = len(seeds)
    rows = _fan_out(_run_one_seed, [config.to_dict()] * n, seeds, [str(out)] * n)
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


def _sweep_cell(config_dict: dict, param: str, value, seed: int) -> dict:
    config = ExperimentConfig.from_dict(config_dict).with_param(param, value)
    base = {"param": param, "value": value, "seed": seed}
    try:
        arts = run_pipeline(config, seed)
        row = arts.metrics.csv_row()
        return {**base, **row, "status": "ok"}
    except Exception as exc:  # sweep keeps going; the cell is marked failed
        empty = {k: "" for k in MetricsReport.CSV_FIELDS}
        return {**base, **empty, "status": f"error: {type(exc).__name__}: {exc}"}


def cmd_sweep(config: ExperimentConfig, param: str, values: list[str]) -> int:
    config.validate()
    if param not in SWEEPABLE:
        raise ConfigError(f"sweep parameter must be one of {SWEEPABLE}, got {param!r}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(_manifest(config), out / "manifest.json")
    seed = config.seeds[0]

    parsed = [int(v) if param in ("k", "G", "q") else float(v) for v in values]
    n = len(parsed)
    rows = _fan_out(_sweep_cell, [config.to_dict()] * n, [param] * n, parsed, [seed] * n)
    header = ["param", "value", "seed"] + list(MetricsReport.CSV_FIELDS) + ["status"]
    _write_rows_csv(rows, header, out / f"sweep_{param}.csv")
    return 0


def cmd_baselines(config: ExperimentConfig) -> int:
    config.validate()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(_manifest(config), out / "manifest.json")
    seed = config.seeds[0]

    arts = run_pipeline(config, seed)
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
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataset = generate_synthetic(n=n, schema=default_synthetic_schema(), k_true=k_true, seed=seed)
    save_dataset(dataset, out / "dataset.csv", out / "schema.json")
    return 0


def cmd_inspect(path: str) -> int:
    doc = json.loads(Path(path).read_text())
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _load_config(args) -> ExperimentConfig:
    if getattr(args, "config", None):
        config = ExperimentConfig.from_dict(json.loads(Path(args.config).read_text()))
    else:
        config = ExperimentConfig()
    overrides = {}
    if getattr(args, "dataset", None):
        overrides["dataset_csv"] = args.dataset
    if getattr(args, "schema", None):
        overrides["schema_json"] = args.schema
    if getattr(args, "out", None):
        overrides["out_dir"] = args.out
    if getattr(args, "seed", None):
        overrides["seeds"] = tuple(int(s) for s in args.seed.split(","))
    for name in ("k", "q", "max_outer"):
        if getattr(args, name, None) is not None:
            overrides[name] = getattr(args, name)
    if getattr(args, "g", None) is not None:
        overrides["n_clusters"] = args.g
    if getattr(args, "lambda_", None) is not None:
        overrides["sparsity_weight"] = args.lambda_
    if getattr(args, "eta", None) is not None:
        overrides["eta"] = args.eta
    if getattr(args, "beta_couple", None) is not None:
        overrides["beta_couple"] = args.beta_couple
    return replace(config, **overrides) if overrides else config


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--dataset", help="dataset CSV path")
    p.add_argument("--schema", help="schema JSON path")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", help="comma-separated seed list, e.g. 42,43,44")
    p.add_argument("--k", type=int, help="latent rank")
    p.add_argument("--g", type=int, help="number of clusters")
    p.add_argument("--q", type=int, help="top factors kept for priorities")
    p.add_argument("--eta", type=float, help="entropic regularization")
    p.add_argument("--lambda", dest="lambda_", type=float, help="sparsity weight")
    p.add_argument("--beta-couple", dest="beta_couple", type=float, help="coupling weight (default: data-scaled)")
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
            values = [v for v in args.values.split(",") if v != ""]
            return cmd_sweep(_load_config(args), args.param, values)
        if args.command == "baselines":
            return cmd_baselines(_load_config(args))
        if args.command == "synth":
            return cmd_synth(args.n, args.k_true, args.seed, args.out)
        if args.command == "inspect":
            return cmd_inspect(args.path)
        parser.error(f"unknown command {args.command!r}")
    except (ConfigError, SchemaError, DataValidationError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    except Exception as exc:
        detail = {"error": type(exc).__name__, "message": str(exc), "trace": traceback.format_exc(limit=10)}
        print(json.dumps(detail), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
