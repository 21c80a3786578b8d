"""Mixed-type survey data model: feature schema, validation of whole response
matrices in vectorized passes (`validate_rows`), CSV ingestion, and
deterministic synthetic data generation.

Encoding happens upstream of this package. A dataset is a nonnegative matrix of
already one-hot-expanded responses plus an outcome column; the schema declares
measurement kinds, bounds, one-hot block structure and controllability. The
schema checks its field types by the one rule of `records.check_types`.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np

from .records import check_types

BLOCK_SUM_TOL = 1e-9
BOUND_TOL = 1e-9
INTEGRALITY_TOL = 1e-9


class SchemaError(ValueError):
    """Raised when a feature schema is internally inconsistent."""


class DataValidationError(ValueError):
    """Raised when data violates its schema. Carries the full violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        shown = "; ".join(str(v) for v in self.violations[:20])
        extra = len(self.violations) - 20
        if extra > 0:
            shown += f"; ... ({extra} more)"
        super().__init__(f"{len(self.violations)} validation failure(s): {shown}")


@dataclass(frozen=True)
class Violation:
    """A single constraint failure, attributed to a feature (and row, if known)."""

    feature: str
    message: str
    row: int | None = None

    def __str__(self):
        where = f"row {self.row}, " if self.row is not None else ""
        return f"{where}feature '{self.feature}': {self.message}"


class FeatureKind(str, Enum):
    LIKERT = "likert"
    CATEGORICAL = "categorical"
    NUMERIC = "numeric"
    BINARY = "binary"


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    kind: FeatureKind
    lower: float
    upper: float
    block: str | None = None
    controllable: bool = False


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature specs plus the declared outcome column name.

    Raises SchemaError if types (checked, never cast), kinds, bounds, or
    one-hot block structure are inconsistent. Index sets are 0-based arrays.
    """

    features: tuple[FeatureSpec, ...]
    outcome: str

    def __post_init__(self):
        if not self.features:
            raise SchemaError("schema declares no features")
        for f in self.features:
            check_types(f, SchemaError, prefix=f"feature {f.name!r}: ")
            if not isinstance(f.kind, FeatureKind):
                raise SchemaError(f"feature {f.name!r}: kind must be FeatureKind, got {f.kind!r}")
        check_types(self, SchemaError)
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate feature names in schema")
        if self.outcome in names:
            raise SchemaError(f"outcome column '{self.outcome}' collides with a feature name")
        blocks: dict[str, list[FeatureSpec]] = {}
        for f in self.features:
            if f.lower < 0:
                raise SchemaError(f"feature '{f.name}': lower bound must be >= 0 (encoded responses are nonnegative)")
            if f.kind is FeatureKind.LIKERT:
                if f.lower != int(f.lower) or f.upper != int(f.upper):
                    raise SchemaError(f"feature '{f.name}': Likert bounds must be integers")
                if not f.lower < f.upper:
                    raise SchemaError(f"feature '{f.name}': Likert bounds need lower < upper")
            elif f.kind is FeatureKind.BINARY:
                if (f.lower, f.upper) != (0.0, 1.0):
                    raise SchemaError(f"feature '{f.name}': binary bounds must be [0, 1]")
            elif f.kind is FeatureKind.CATEGORICAL:
                if f.block is None:
                    raise SchemaError(f"feature '{f.name}': categorical features need a block id")
                if (f.lower, f.upper) != (0.0, 1.0):
                    raise SchemaError(f"feature '{f.name}': one-hot features must have bounds [0, 1]")
                blocks.setdefault(f.block, []).append(f)
            else:
                if not f.lower < f.upper:
                    raise SchemaError(f"feature '{f.name}': numeric bounds need lower < upper")
            if f.kind is not FeatureKind.CATEGORICAL and f.block is not None:
                raise SchemaError(f"feature '{f.name}': only categorical features may carry a block id")
        for block_id, members in blocks.items():
            if len(members) < 2:
                raise SchemaError(f"one-hot block '{block_id}' has fewer than 2 members")
            if len({m.controllable for m in members}) != 1:
                raise SchemaError(f"one-hot block '{block_id}' mixes controllable and fixed features")

    @property
    def n_features(self) -> int:
        return len(self.features)

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    @cached_property
    def lowers(self) -> np.ndarray:
        a = np.array([f.lower for f in self.features], dtype=float)
        a.setflags(write=False)
        return a

    @cached_property
    def uppers(self) -> np.ndarray:
        a = np.array([f.upper for f in self.features], dtype=float)
        a.setflags(write=False)
        return a

    def _indices(self, pred) -> np.ndarray:
        a = np.array([j for j, f in enumerate(self.features) if pred(f)], dtype=int)
        a.setflags(write=False)
        return a

    @cached_property
    def s_likert(self) -> np.ndarray:
        return self._indices(lambda f: f.kind is FeatureKind.LIKERT)

    @cached_property
    def s_binary(self) -> np.ndarray:
        return self._indices(lambda f: f.kind is FeatureKind.BINARY)

    @cached_property
    def s_ctrl(self) -> np.ndarray:
        return self._indices(lambda f: f.controllable)

    @cached_property
    def policy_levers(self) -> np.ndarray:
        """Controllable features eligible for intervention: one-hot blocks are
        excluded even when marked controllable."""
        return self._indices(
            lambda f: f.controllable and f.kind is not FeatureKind.CATEGORICAL
        )

    @cached_property
    def blocks(self) -> dict[str, np.ndarray]:
        out: dict[str, list[int]] = {}
        for j, f in enumerate(self.features):
            if f.block is not None:
                out.setdefault(f.block, []).append(j)
        final = {}
        for block_id, idx in out.items():
            a = np.array(idx, dtype=int)
            a.setflags(write=False)
            final[block_id] = a
        return final

    def to_dict(self) -> dict:
        return {"outcome": self.outcome, "features": [{**asdict(f), "kind": f.kind.value} for f in self.features]}

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureSchema":
        try:
            outcome = d["outcome"]
            raw = d["features"]
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"schema document missing required key: {exc}") from exc
        feats = []
        for entry in raw:
            try:
                feats.append(
                    FeatureSpec(
                        name=entry["name"],
                        kind=FeatureKind(entry["kind"]),
                        lower=entry["lower"],
                        upper=entry["upper"],
                        block=entry.get("block"),
                        controllable=entry["controllable"],
                    )
                )
            except (KeyError, ValueError, TypeError) as exc:
                raise SchemaError(f"bad feature entry {entry!r}: {exc}") from exc
        return cls(features=tuple(feats), outcome=outcome)

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def from_json(cls, path: str | Path) -> "FeatureSchema":
        return cls.from_dict(json.loads(Path(path).read_text()))


def validate_rows(X: np.ndarray, schema: FeatureSchema, mode: str = "optimize") -> list[Violation]:
    """Check every row of an encoded response matrix against the schema.

    In "optimize" mode Likert and binary values may be fractional inside their
    bounds; "report" mode additionally requires Likert integrality and binary
    values in {0, 1}. One-hot blocks must sum to 1 in both modes. A non-finite
    cell is reported as not finite and checked no further. Each violation
    carries its row; they come in row order, and within a row in schema
    feature order followed by the blocks.
    """
    if mode not in ("optimize", "report"):
        raise ValueError(f"mode must be 'optimize' or 'report', got {mode!r}")
    X = np.asarray(X, dtype=float)
    d = schema.n_features
    if X.ndim != 2 or X.shape[1] != d:
        raise ValueError(f"matrix has shape {X.shape}, schema expects (n, {d})")
    found: list[tuple[int, int, Violation]] = []  # (row, feature or d + block, violation)

    def add(mask, message):
        for i, j in zip(*np.nonzero(mask)):
            f = schema.features[j]
            found.append((i, j, Violation(f.name, message.format(v=float(X[i, j]), f=f), row=int(i))))

    # inf - inf and overflowing block sums are judged by the comparisons below
    with np.errstate(all="ignore"):
        finite = np.isfinite(X)
        add(~finite, "value {v} is not finite")
        add(finite & (X < schema.lowers - BOUND_TOL), "value {v!r} below lower bound {f.lower}")
        add(finite & (X > schema.uppers + BOUND_TOL), "value {v!r} above upper bound {f.upper}")
        if mode == "report":
            likert, binary = (np.isin(np.arange(d), s) for s in (schema.s_likert, schema.s_binary))
            fractional = np.abs(X - np.round(X)) > INTEGRALITY_TOL
            not_01 = np.minimum(np.abs(X), np.abs(X - 1.0)) > INTEGRALITY_TOL
            add(finite & likert & fractional, "Likert value {v!r} is not an integer level")
            add(finite & binary & not_01, "binary value {v!r} is not in {{0, 1}}")
        for b, (block_id, idx) in enumerate(schema.blocks.items()):
            block = np.take(X, idx, axis=1)  # C order, so each row sums as np.sum sums it alone
            sums = block.sum(axis=1)
            off_sum = np.abs(sums - 1.0) > BLOCK_SUM_TOL
            near_one = np.abs(block - 1.0) <= INTEGRALITY_TOL
            single = (near_one.sum(axis=1) == 1) & np.all(near_one | (np.abs(block) <= INTEGRALITY_TOL), axis=1)
            for i in np.flatnonzero(off_sum | (~single & (mode == "report"))):
                if off_sum[i]:
                    message = f"one-hot block sums to {float(sums[i])!r}, expected 1"
                else:
                    message = f"one-hot block {block[i].tolist()} is not a single-1 assignment"
                found.append((i, d + b, Violation(block_id, message, row=int(i))))
    found.sort(key=lambda t: t[:2])  # stable: a bound failure stays before its integrality failure
    return [v for _, _, v in found]


@dataclass(frozen=True, eq=False)
class SurveyDataset:
    """Validated encoded survey matrix with outcome scores.

    Construction is the one validity gate for survey data, however it was
    read or built: every row must pass `validate_rows` in report mode.
    Immutable after construction: the dataclass is frozen and the arrays are
    read-only, so the dataset can be shared across parallel workers.
    """

    X: np.ndarray
    y: np.ndarray
    schema: FeatureSchema
    respondent_ids: tuple[str, ...] = field(default=())

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if X.ndim != 2:
            raise DataValidationError([Violation("<matrix>", f"X must be 2-D, got ndim={X.ndim}")])
        n, d = X.shape
        if n < 2 or d < 2:
            raise DataValidationError([Violation("<matrix>", f"need n >= 2 and d >= 2, got {X.shape}")])
        if d != self.schema.n_features:
            raise DataValidationError(
                [Violation("<matrix>", f"X has {d} columns, schema declares {self.schema.n_features}")]
            )
        if y.shape != (n,):
            raise DataValidationError([Violation(self.schema.outcome, f"y has shape {y.shape}, expected ({n},)")])
        if not np.all(np.isfinite(y)):
            bad = int(np.flatnonzero(~np.isfinite(y))[0])
            raise DataValidationError([Violation(self.schema.outcome, "missing or non-finite outcome", row=bad)])
        violations = validate_rows(X, self.schema, mode="report")
        if violations:
            raise DataValidationError(violations)
        if not self.respondent_ids:
            object.__setattr__(self, "respondent_ids", tuple(str(i) for i in range(n)))
        elif len(self.respondent_ids) != n:
            raise DataValidationError([Violation("<ids>", f"{len(self.respondent_ids)} ids for {n} rows")])
        for name, a in (("X", X), ("y", y)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def n(self) -> int:
        return self.X.shape[0]


def load_dataset(csv_path: str | Path, schema_path: str | Path) -> SurveyDataset:
    """Load and validate a dataset from a CSV file and a JSON schema.

    The CSV header must contain exactly the schema feature names plus the
    declared outcome column, in any order. A leading UTF-8 byte order mark is
    accepted and blank lines are skipped, so row indices count data rows.
    SurveyDataset validates the rows in report mode; every failure is reported
    with its row index and feature name.
    """
    schema = FeatureSchema.from_json(schema_path)
    with open(csv_path, newline="", encoding="utf-8-sig") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise DataValidationError([Violation("<csv>", "empty file, header row required")])
    header, rows = rows[0], rows[1:]
    required = set(schema.names) | {schema.outcome}
    present = set(header)
    missing = sorted(required - present)
    if missing:
        raise DataValidationError([Violation(m, "column missing from CSV header") for m in missing])
    unknown = sorted(present - required)
    if unknown:
        raise DataValidationError([Violation(u, "column not declared in schema") for u in unknown])
    if len(present) != len(header):
        raise DataValidationError([Violation("<csv>", "duplicate column names in header")])

    col_of = {name: header.index(name) for name in header}
    n, d = len(rows), schema.n_features
    X = np.zeros((n, d), dtype=float)
    y = np.zeros(n, dtype=float)
    violations: list[Violation] = []
    for i, row in enumerate(rows):
        if len(row) != len(header):
            violations.append(Violation("<csv>", f"expected {len(header)} fields, got {len(row)}", row=i))
            continue
        for j, f in enumerate(schema.features):
            cell = row[col_of[f.name]]
            try:
                X[i, j] = float(cell)
            except ValueError:
                violations.append(Violation(f.name, f"cannot parse {cell!r} as a number", row=i))
        cell = row[col_of[schema.outcome]]
        try:
            y[i] = float(cell)
        except ValueError:
            violations.append(Violation(schema.outcome, f"cannot parse {cell!r} as a number", row=i))
    if violations:
        raise DataValidationError(violations)
    return SurveyDataset(X=X, y=y, schema=schema)


def save_dataset(dataset: SurveyDataset, csv_path: str | Path, schema_path: str | Path) -> None:
    """Write dataset CSV and schema JSON so that load_dataset round-trips."""
    dataset.schema.to_json(schema_path)
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.schema.names) + [dataset.schema.outcome])
        for i in range(dataset.n):
            writer.writerow([repr(float(v)) for v in dataset.X[i]] + [repr(float(dataset.y[i]))])


def default_synthetic_schema() -> FeatureSchema:
    """Mixed-type schema used by the synthetic generator and the CLI synth command.

    The first feature is the designed lever: controllable, wide-range, and
    given a pure loading on the high-outcome factor by the generator.
    """
    feats = [
        FeatureSpec("incentive_level", FeatureKind.NUMERIC, 0.0, 10.0, controllable=True),
    ]
    feats += [
        FeatureSpec(f"lever_{i}", FeatureKind.LIKERT, 1, 5, controllable=True) for i in range(1, 7)
    ]
    feats += [
        FeatureSpec("usage_1", FeatureKind.NUMERIC, 0.0, 5.0, controllable=True),
        FeatureSpec("opt_in", FeatureKind.BINARY, 0.0, 1.0, controllable=True),
        FeatureSpec("attitude_1", FeatureKind.LIKERT, 1, 5, controllable=False),
        FeatureSpec("attitude_2", FeatureKind.LIKERT, 1, 5, controllable=False),
        FeatureSpec("owns_car", FeatureKind.BINARY, 0.0, 1.0, controllable=False),
        FeatureSpec("district_a", FeatureKind.CATEGORICAL, 0.0, 1.0, block="district"),
        FeatureSpec("district_b", FeatureKind.CATEGORICAL, 0.0, 1.0, block="district"),
        FeatureSpec("district_c", FeatureKind.CATEGORICAL, 0.0, 1.0, block="district"),
    ]
    return FeatureSchema(features=tuple(feats), outcome="intent_score")


def synthetic_lever_index(schema: FeatureSchema) -> int:
    """Index of the designed discriminative lever: the first controllable
    non-categorical feature. The generator gives it a pure loading on the
    high-outcome latent factor."""
    levers = schema.policy_levers
    if levers.size == 0:
        raise SchemaError("schema has no controllable non-categorical feature")
    return int(levers[0])


def generate_synthetic(n: int, schema: FeatureSchema, k_true: int, seed: int) -> SurveyDataset:
    """Deterministic synthetic survey dataset with planted latent structure.

    Respondents are split over k_true latent archetypes. A ground-truth
    nonnegative basis and coefficients produce X = W_true @ H_true, quantized
    to schema-valid values. The outcome is a fixed linear function of two
    designated latent factors (factor 0 high, factor 1 low) plus seeded noise,
    so archetype-0 respondents form the natural reference group and
    archetype-1 respondents the natural target group. The first controllable
    non-categorical feature loads exclusively on factor 0, making it the
    designed discriminative lever.
    """
    if k_true < 2:
        raise ValueError(f"k_true must be >= 2, got {k_true}")
    if n < 2 * k_true:
        raise ValueError(
            f"n={n} is too small to populate two outcome-separated clusters with k_true={k_true}; need n >= {2 * k_true}"
        )
    d = schema.n_features
    if d < k_true + 1:
        raise ValueError(f"schema has {d} features, need at least k_true + 1 = {k_true + 1}")
    rng = np.random.default_rng(seed)

    arch = np.arange(n) % k_true
    rng.shuffle(arch)

    # Factor layout: the planted lever loads factor 0 (the high-outcome
    # factor) exclusively; the remaining policy levers cycle over all
    # factors starting at factor 1 so the low-outcome factor is reachable
    # through controllable features; immutable and one-hot features load
    # outcome-neutral factors (>= 2) so feasibility does not pin the
    # outcome-relevant latent mass.
    j_star = synthetic_lever_index(schema)
    primary = np.empty(d, dtype=int)
    primary[j_star] = 0
    lever_set = set(int(j) for j in schema.policy_levers)
    other_levers = [j for j in sorted(lever_set) if j != j_star]
    non_levers = [j for j in range(d) if j not in lever_set]
    for m, j in enumerate(other_levers):
        primary[j] = (1 + m) % k_true
    neutral = list(range(2, k_true)) or list(range(k_true))
    for m, j in enumerate(non_levers):
        primary[j] = neutral[m % len(neutral)]

    H = 0.06 * rng.uniform(size=(k_true, d))
    H[:, j_star] = 0.0
    for j in range(d):
        H[primary[j], j] = 1.0
    H /= H.sum(axis=1, keepdims=True)

    W = 0.30 * rng.uniform(size=(n, k_true))
    W[np.arange(n), arch] += 1.0
    W *= rng.uniform(0.75, 1.25, size=(n, 1)) * 17.0

    X = W @ H

    # Quantize to schema-valid values: clip to bounds, integerize Likert,
    # threshold binary, winner-take-all within one-hot blocks.
    lowers, uppers = schema.lowers, schema.uppers
    X = np.clip(X, lowers[None, :], uppers[None, :])
    for j in schema.s_likert:
        X[:, j] = np.clip(np.floor(X[:, j] + 0.5), lowers[j], uppers[j])
    for j in schema.s_binary:
        X[:, j] = (X[:, j] >= 0.5).astype(float)
    for idx in schema.blocks.values():
        winner = np.argmax(X[:, idx], axis=1)
        X[:, idx] = 0.0
        X[np.arange(n), idx[winner]] = 1.0

    w_norm = W / W.sum(axis=1, keepdims=True)
    y = 1.0 + 4.0 * w_norm[:, 0] - 2.0 * w_norm[:, 1] + 0.1 * rng.standard_normal(n)

    ids = tuple(f"synth-{seed}-{i:05d}" for i in range(n))
    return SurveyDataset(X=X, y=y, schema=schema, respondent_ids=ids)
