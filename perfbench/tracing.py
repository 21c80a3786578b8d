"""Spans and counters recorded from outside the package.

The benchmark wraps the package's public functions at the module attribute
where each caller looks the name up, runs one operation, and restores every
original. A span records name, start, end and the span that caused it; counts
are attached to the span open at the boundary where they were observed.
Everything stays in memory until the run ends.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median, median_low

# Root span name of each operation, opened by the benchmark around its call.
ROOT_PIPELINE = "pipeline.run_pipeline"
ROOT_CLI = "cli.main"


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.counts]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0.0, parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        """Replace owner.attr by a wrapper that records a span per call.

        on_return(span, args, result) adds counts after the span closes, so
        their cost falls in the caller's span, not this one.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            s = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                s.counts["raised." + type(exc).__name__] = 1
                raise
            finally:
                tracer._close(s)
            if on_return is not None:
                on_return(s, args, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def count_calls(self, owner, attr: str, key: str) -> None:
        """Count calls of owner.attr on the innermost open span, without a span."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            if tracer._stack:
                counts = tracer.spans[tracer._stack[-1]].counts
                counts[key] = counts.get(key, 0) + 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)
        self._patched.append((owner, attr, original))

    def restore(self) -> bool:
        """Put every original back; True when each attribute is the original again."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        ok = all(getattr(owner, attr) is original for owner, attr, original in self._patched)
        self._patched.clear()
        return ok


def _sinkhorn_counts(span, args, plan):
    n_b, n_a = args[0].cost.shape
    span.counts.update(cells=n_b * n_a, iters=plan.iters)


def _cost_counts(span, args, cost):
    source, target = args[0], args[1]
    span.counts.update(n_b=len(source), n_a=len(target), k=len(source[0]))


def _optimize_counts(span, args, result):
    span.counts.update(
        outer_iters=len(result.trajectory) - 1,
        refreshes=result.n_sinkhorn_calls,
        status=result.status,
    )


def _nnls_counts(span, args, codes):
    span.counts["rows"] = len(args[0])


def _nmf_counts(span, args, latent):
    span.counts["iters"] = latent.iters_run


def install(tracer: Tracer) -> None:
    """Wrap every public entry point, patched where its callers look it up."""
    from latent_align import baselines, cli, evaluation, optimizer, pipeline, transport

    for mod in (optimizer, evaluation, baselines):
        tracer.wrap(mod, "nnls_project_rows", "factorization.nnls_project_rows", _nnls_counts)
    for mod in (pipeline, baselines):
        tracer.wrap(mod, "optimize", "optimizer.optimize", _optimize_counts)
    for mod in (pipeline, cli):
        tracer.wrap(mod, "evaluate_intervention", "evaluation.evaluate_intervention")
    tracer.wrap(pipeline, "fit_nmf", "factorization.fit_nmf", _nmf_counts)
    tracer.wrap(pipeline, "kmeans", "grouping.kmeans")
    tracer.wrap(pipeline, "fit_logistic", "surrogate.fit_logistic")
    tracer.wrap(pipeline, "build_priorities", "surrogate.build_priorities")
    tracer.wrap(pipeline, "load_dataset", "schema.load_dataset")
    tracer.wrap(cli, "run_pipeline", ROOT_PIPELINE)
    tracer.wrap(baselines, "run_baseline", "baselines.run_baseline")
    tracer.wrap(baselines, "run_ablation", "baselines.run_ablation")
    tracer.wrap(transport, "sinkhorn", "transport.sinkhorn", _sinkhorn_counts)
    tracer.wrap(transport, "cost_matrix", "transport.cost_matrix", _cost_counts)
    # one proximal step per candidate the solver evaluates, accepted or not
    tracer.count_calls(optimizer, "prox_weighted_l21", "step_attempts")


# name -> unit of every per-layer metric layer_metrics returns
LAYER_UNITS = {
    "transport.sinkhorn_s": "s",
    "transport.sinkhorn_calls": "count",
    "transport.sinkhorn_iters": "count",
    "transport.cells": "count",
    "transport.cell_iters": "count",
    "transport.ns_per_cell_iter": "ns",
    "transport.cost_s": "s",
    "transport.cost_calls": "count",
    "transport.bytes_computed": "B",
    "transport.failed": "count",
    "optimizer.optimize_s": "s",
    "optimizer.self_s": "s",
    "optimizer.solves": "count",
    "optimizer.outer_iters": "count",
    "optimizer.refreshes": "count",
    "optimizer.step_attempts": "count",
    "optimizer.halvings": "count",
    "optimizer.accept_ratio": "ratio",
    "optimizer.status.converged": "count",
    "optimizer.status.max_outer": "count",
    "optimizer.status.plateau": "count",
    "optimizer.status.stalled_at_zero": "count",
    "factorization.nmf_s": "s",
    "factorization.nmf_iters": "count",
    "factorization.nnls_s": "s",
    "factorization.nnls_calls": "count",
    "factorization.nnls_rows": "count",
    "grouping.kmeans_s": "s",
    "surrogate.probe_s": "s",
    "evaluation.evaluate_s": "s",
    "evaluation.passes": "count",
    "evaluation.sinkhorn_calls": "count",
    "baselines.variants_s": "s",
    "baselines.variants": "count",
    "schema.load_s": "s",
    "cli.self_s": "s",
    "pipeline.run_pipeline_s": "s",
    "pipeline.self_s": "s",
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals of one operation's spans.

    Self time is a span's duration minus that of its direct children.
    bytes_computed is derived from array sizes, not measured: two float64
    passes over the n_b x n_a kernel per Sinkhorn iteration (the least any
    Sinkhorn variant reads), plus reading both supports and writing the cost
    matrix once per cost_matrix call.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration

    def under(i: int, name: str) -> bool:
        p = spans[i].parent
        while p >= 0:
            if spans[p].name == name:
                return True
            p = spans[p].parent
        return False

    m = {name: 0.0 if unit == "s" else 0 for name, unit in LAYER_UNITS.items()}
    accepted = 0
    for i, s in enumerate(spans):
        c, dur, self_s = s.counts, s.duration, s.duration - child_time[i]
        if s.name == "transport.sinkhorn":
            m["transport.sinkhorn_s"] += dur
            m["transport.sinkhorn_calls"] += 1
            m["transport.failed"] += c.get("raised.ConvergenceError", 0)
            if "iters" in c:
                m["transport.sinkhorn_iters"] += c["iters"]
                m["transport.cells"] += c["cells"]
                m["transport.cell_iters"] += c["cells"] * c["iters"]
                m["transport.bytes_computed"] += 16 * c["cells"] * c["iters"]
            if under(i, "evaluation.evaluate_intervention"):
                m["evaluation.sinkhorn_calls"] += 1
        elif s.name == "transport.cost_matrix":
            m["transport.cost_s"] += dur
            m["transport.cost_calls"] += 1
            if "k" in c:
                m["transport.bytes_computed"] += 8 * ((c["n_b"] + c["n_a"]) * c["k"] + c["n_b"] * c["n_a"])
        elif s.name == "optimizer.optimize":
            m["optimizer.optimize_s"] += dur
            m["optimizer.self_s"] += self_s
            m["optimizer.solves"] += 1
            m["optimizer.step_attempts"] += c.get("step_attempts", 0)
            if "status" in c:
                accepted += c["outer_iters"]
                m["optimizer.outer_iters"] += c["outer_iters"]
                m["optimizer.refreshes"] += c["refreshes"]
                key = "optimizer.status." + c["status"]
                m[key] = m.get(key, 0) + 1
        elif s.name == "factorization.fit_nmf":
            m["factorization.nmf_s"] += dur
            m["factorization.nmf_iters"] += c.get("iters", 0)
        elif s.name == "factorization.nnls_project_rows":
            m["factorization.nnls_s"] += dur
            m["factorization.nnls_calls"] += 1
            m["factorization.nnls_rows"] += c.get("rows", 0)
        elif s.name == "grouping.kmeans":
            m["grouping.kmeans_s"] += dur
        elif s.name in ("surrogate.fit_logistic", "surrogate.build_priorities"):
            m["surrogate.probe_s"] += dur
        elif s.name == "evaluation.evaluate_intervention":
            m["evaluation.evaluate_s"] += dur
            m["evaluation.passes"] += 1
        elif s.name in ("baselines.run_baseline", "baselines.run_ablation"):
            m["baselines.variants_s"] += dur
            m["baselines.variants"] += 1
        elif s.name == "schema.load_dataset":
            m["schema.load_s"] += dur
        elif s.name == ROOT_CLI:
            m["cli.self_s"] += self_s
        elif s.name == ROOT_PIPELINE:
            m["pipeline.run_pipeline_s"] += dur
            m["pipeline.self_s"] += self_s
    # derived counters; their bases (step_attempts, outer_iters, cell_iters) are reported too
    m["optimizer.halvings"] = m["optimizer.step_attempts"] - accepted
    attempts = m["optimizer.step_attempts"]
    m["optimizer.accept_ratio"] = accepted / attempts if attempts else 0.0
    cell_iters = m["transport.cell_iters"]
    m["transport.ns_per_cell_iter"] = m["transport.sinkhorn_s"] * 1e9 / cell_iters if cell_iters else 0.0
    return m


def median_metrics(per_op: list[dict[str, float]], units: dict[str, str]) -> dict[str, float]:
    """Median of each metric over operations. A count or byte total takes the
    lower median, so it reads as a value some operation actually had."""
    out = {}
    for k in per_op[0]:
        values = [d[k] for d in per_op]
        out[k] = median_low(values) if units.get(k) in ("count", "B") else median(values)
    return out
