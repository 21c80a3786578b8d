"""Benchmark runner: one workload, one seed, one process.

    python3 perfbench/run.py --workload fixture --seed 1 --seconds 60 --trace 0

Runs from the root of a source checkout and imports the package from src/.
Each operation is preceded by a timed set-up (input generation, input
writing, a small warm-up), so set-ups are sampled across the whole run;
operations run back to back until one more would end after --seconds.
Every operation's output is checked; a failure is recorded with its
exception type and the loop goes on.

--trace 0 reports the end-to-end metrics of untraced operations. --trace 1
alternates untraced and traced operations and reports per-layer metrics from
the traced ones, the tracing overhead, and a fidelity check: the traced
objective must be bit-identical to the untraced one, with the same number of
Sinkhorn refreshes, and every wrapper must be restored afterwards.

A human-readable table goes to stdout, a result file with the environment
record to perfbench/out/, and the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import os  # noqa: E402

# Pinned before numpy loads so every run uses the same BLAS thread count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "objective": "1"}
# per-layer metrics measured around a traced operation rather than from its spans
TRACE_UNITS = {
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "cli.bytes_written": "B",
    "process.minor_faults": "count",
    "process.sys_s": "s",
}


class FidelityError(RuntimeError):
    """A traced operation disagreed with the untraced one, or a wrapper stayed installed."""


def import_package():
    """Import latent_align from this checkout's src/, never from elsewhere."""
    if not (SRC / "latent_align" / "__init__.py").is_file():
        raise FileNotFoundError(f"no package source at {SRC / 'latent_align'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import latent_align

    if Path(latent_align.__file__).resolve().parent != SRC / "latent_align":
        raise ImportError(f"latent_align imported from {latent_align.__file__}, not {SRC}")


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():  # a source export; do not let git search parent directories
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "latent_align").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.26 prints its config and cannot return it
        blas = {}
    caches = _cache_sizes()
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "workload_seed": seed,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """Set up, measure and check one workload; returns the full result record."""
    import tracing
    import workloads

    workdir = OUT / f"work-{name}-{os.getpid()}"
    workload = workloads.make(name, small, workdir)
    t_import = time.perf_counter() - T_START
    setups, ops, failures = [], [], []
    untraced_walls, traced_walls, layer_per_op = [], [], []
    reference = None
    spans_kept = None
    min_ops = 2 if trace else 1
    t_measure = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        workload.set_up(seed)
        workload.warm_up(seed)
        setups.append(time.perf_counter() - t0)
        traced = trace and len(ops) % 2 == 1
        workload.prepare()
        record = {"traced": traced}
        t0 = time.perf_counter()
        try:
            if traced:
                tracer = tracing.Tracer()
                try:
                    tracing.install(tracer)
                    r0 = resource.getrusage(resource.RUSAGE_SELF)
                    t0 = time.perf_counter()
                    with tracer.span(workload.root):
                        value = workload.run()
                    wall = time.perf_counter() - t0
                    r1 = resource.getrusage(resource.RUSAGE_SELF)
                finally:
                    restored = tracer.restore()
            else:
                t0 = time.perf_counter()
                value = workload.run()
                wall = time.perf_counter() - t0
            record["wall_s"] = wall
            outcome = workload.check(value)
            record["objective"], record["refreshes"] = outcome.objective, outcome.refreshes
            if reference is None:
                reference = outcome
            elif outcome != reference:
                raise FidelityError(f"operation gave {outcome}, first operation gave {reference}")
            if traced:
                if not restored:
                    raise FidelityError("a wrapper was not restored")
                layers = tracing.layer_metrics(tracer.spans)
                layers["trace.spans"] = len(tracer.spans)
                layers["process.minor_faults"] = r1.ru_minflt - r0.ru_minflt
                layers["process.sys_s"] = r1.ru_stime - r0.ru_stime
                if name == "compare":
                    layers["cli.bytes_written"] = workload.bytes_written()
                layer_per_op.append(layers)
                traced_walls.append(wall)
                spans_kept = spans_kept or [s.to_list() for s in tracer.spans]
            else:
                untraced_walls.append(wall)
        except Exception as exc:  # the run goes on; the failure is counted and kept
            record.setdefault("wall_s", time.perf_counter() - t0)
            record["error"] = {
                "type": type(exc).__name__,
                "message": str(exc)[:500],
                "trace": traceback.format_exc(limit=6),
            }
            failures.append(record["error"])
        ops.append(record)
        elapsed = time.perf_counter() - t_measure
        if len(ops) >= min_ops and elapsed + median(setups) + median(r["wall_s"] for r in ops) > seconds:
            break

    wall_s = median(untraced_walls or [r["wall_s"] for r in ops if not r["traced"]])
    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        layers = tracing.median_metrics(layer_per_op, {**tracing.LAYER_UNITS, **TRACE_UNITS}) if layer_per_op else {k: 0.0 for k in tracing.LAYER_UNITS}
        for k, unit in tracing.LAYER_UNITS.items():
            metrics[k] = (layers.get(k, 0.0), unit)
        traced_wall = median(traced_walls) if traced_walls else 0.0
        layers.update({
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": wall_s,
            "trace.overhead_s": traced_wall - wall_s,
        })
        for k, unit in TRACE_UNITS.items():
            metrics[k] = (layers.get(k, 0), unit)
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": t_import + median(setups),
            "peak_rss_mb": peak_rss_mb(),
            "objective": reference.objective if reference else float("nan"),
        }
        for k, v in values.items():
            metrics[k] = (v, END_TO_END_UNITS[k])

    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "small": small,
        "environment": environment(seed),
        "attempted": len(ops),
        "failed": len(failures),
        "fail_rate": len(failures) / len(ops),
        "failures": failures,
        "setup": {"import_s": t_import, "per_operation_s": setups},
        "operations": ops,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "spans_first_traced_op": spans_kept,
        "workdir": str(workdir),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        import_package()
    except (ImportError, OSError) as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    shutil.rmtree(result.pop("workdir"), ignore_errors=True)
    spans = result.pop("spans_first_traced_op")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if spans is not None:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(spans) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"operations {result['attempted']}  failed {result['failed']}  fail_rate {result['fail_rate']:.3f}")
    for err in result["failures"]:
        print(f"  failure {err['type']}: {err['message']}")
    for k, m in result["metrics"].items():
        print(f"  {k:34s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
