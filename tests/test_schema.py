import json
import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import latent_align as la
import latent_align.schema as la_schema
from latent_align.schema import (
    BLOCK_SUM_TOL,
    DataValidationError,
    FeatureKind,
    FeatureSchema,
    FeatureSpec,
    SchemaError,
    Violation,
)

from oracles import validate_row_loop


def _schema_4():
    return FeatureSchema(
        features=(
            FeatureSpec("age", FeatureKind.NUMERIC, 0.0, 100.0, controllable=False),
            FeatureSpec("sat", FeatureKind.LIKERT, 1, 5, controllable=True),
            FeatureSpec("use", FeatureKind.NUMERIC, 0.0, 10.0, controllable=True),
            FeatureSpec("opt", FeatureKind.BINARY, 0.0, 1.0, controllable=True),
        ),
        outcome="y",
    )


def _write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


class TestSchemaInvariants:
    def test_partitions_exhaustive_and_disjoint(self):
        schema = la.default_synthetic_schema()
        d = schema.n_features
        kinds = [f.kind for f in schema.features]
        categorical = np.concatenate(list(schema.blocks.values()))
        typed = np.concatenate([schema.s_likert, schema.s_binary, categorical])
        assert len(set(typed.tolist())) == typed.size
        numeric = sorted(set(range(d)) - set(typed.tolist()))
        assert all(kinds[j] is FeatureKind.NUMERIC for j in numeric)
        assert all(kinds[j] is FeatureKind.CATEGORICAL for j in categorical)
        assert set(schema.policy_levers) == set(schema.s_ctrl) - set(categorical)

    def test_likert_needs_integer_bounds(self):
        with pytest.raises(SchemaError, match="integer"):
            FeatureSchema(
                features=(
                    FeatureSpec("q", FeatureKind.LIKERT, 1.0, 4.5),
                    FeatureSpec("r", FeatureKind.NUMERIC, 0.0, 1.0),
                ),
                outcome="y",
            )

    def test_block_of_one_rejected(self):
        with pytest.raises(SchemaError, match="fewer than 2"):
            FeatureSchema(
                features=(
                    FeatureSpec("c1", FeatureKind.CATEGORICAL, 0.0, 1.0, block="b"),
                    FeatureSpec("x", FeatureKind.NUMERIC, 0.0, 1.0),
                ),
                outcome="y",
            )

    def test_block_mixed_controllability_rejected(self):
        with pytest.raises(SchemaError, match="mixes"):
            FeatureSchema(
                features=(
                    FeatureSpec("c1", FeatureKind.CATEGORICAL, 0.0, 1.0, block="b", controllable=True),
                    FeatureSpec("c2", FeatureKind.CATEGORICAL, 0.0, 1.0, block="b", controllable=False),
                ),
                outcome="y",
            )

    def test_categorical_never_a_policy_lever(self):
        schema = FeatureSchema(
            features=(
                FeatureSpec("c1", FeatureKind.CATEGORICAL, 0.0, 1.0, block="b", controllable=True),
                FeatureSpec("c2", FeatureKind.CATEGORICAL, 0.0, 1.0, block="b", controllable=True),
                FeatureSpec("x", FeatureKind.NUMERIC, 0.0, 1.0, controllable=True),
            ),
            outcome="y",
        )
        assert schema.policy_levers.tolist() == [2]
        assert schema.s_ctrl.tolist() == [0, 1, 2]


class TestValidateRow:
    def test_clean_row_passes(self, small_schema):
        assert la.validate_rows(np.array([[1.0, 2.0, 3.0, 1.0]]), small_schema) == []

    def test_below_lower_bound(self, small_schema):
        out = la.validate_rows(np.array([[-0.5, 2.0, 3.0, 1.0]]), small_schema)
        assert len(out) == 1 and out[0].feature == "a" and "below" in out[0].message

    def test_binary_relaxation_mode_dependent(self, small_schema):
        x = np.array([1.0, 2.0, 3.0, 0.4])
        assert la.validate_rows(x[None, :], small_schema, mode="optimize") == []
        report = la.validate_rows(x[None, :], small_schema, mode="report")
        assert [v.feature for v in report] == ["bin"]

    def test_likert_fractional_only_flagged_in_report(self, small_schema):
        x = np.array([1.0, 2.0, 3.4, 1.0])
        assert la.validate_rows(x[None, :], small_schema, mode="optimize") == []
        assert [v.feature for v in la.validate_rows(x[None, :], small_schema, mode="report")] == ["lik"]

    def test_block_sum_checked(self):
        schema = FeatureSchema(
            features=(
                FeatureSpec("c1", FeatureKind.CATEGORICAL, 0.0, 1.0, block="b"),
                FeatureSpec("c2", FeatureKind.CATEGORICAL, 0.0, 1.0, block="b"),
            ),
            outcome="y",
        )
        assert la.validate_rows(np.array([[0.5, 0.5]]), schema) == []
        bad = la.validate_rows(np.array([[0.5, 0.4]]), schema)
        assert len(bad) == 1 and bad[0].feature == "b" and "sums" in bad[0].message


class TestLoadDataset:
    def test_round_trip_identity(self, tmp_path):
        schema = _schema_4()
        _write_csv(
            tmp_path / "d.csv",
            ["age", "sat", "use", "opt", "y"],
            [[30, 4, 2.5, 1, 0.7], [41, 2, 0.0, 0, 0.1], [25, 5, 9.5, 1, 0.9]],
        )
        schema.to_json(tmp_path / "s.json")
        ds = la.load_dataset(tmp_path / "d.csv", tmp_path / "s.json")
        assert ds.X.shape == (3, 4)

        la.save_dataset(ds, tmp_path / "d2.csv", tmp_path / "s2.json")
        ds2 = la.load_dataset(tmp_path / "d2.csv", tmp_path / "s2.json")
        assert np.array_equal(ds.X, ds2.X)
        assert np.array_equal(ds.y, ds2.y)
        assert ds.schema == ds2.schema

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda text: "\ufeff" + text, id="byte_order_mark"),
            pytest.param(lambda text: text + "\n", id="trailing_blank_line"),
            pytest.param(lambda text: "\n" + text, id="leading_blank_line"),
            pytest.param(lambda text: text.replace("\n", "\n\n", 2), id="blank_lines_between_rows"),
        ],
    )
    def test_bom_and_blank_lines_load_the_clean_dataset(self, tmp_path, edit):
        # a spreadsheet's "CSV UTF-8" export starts with a byte order mark, and
        # hand-edited files often end with a blank line
        _schema_4().to_json(tmp_path / "s.json")
        _write_csv(tmp_path / "d.csv", ["age", "sat", "use", "opt", "y"], [[30, 4, 2.5, 1, 0.7], [41, 2, 0.0, 0, 0.1]])
        clean = la.load_dataset(tmp_path / "d.csv", tmp_path / "s.json")
        (tmp_path / "e.csv").write_bytes(edit((tmp_path / "d.csv").read_text()).encode("utf-8"))
        ds = la.load_dataset(tmp_path / "e.csv", tmp_path / "s.json")
        assert np.array_equal(ds.X, clean.X) and np.array_equal(ds.y, clean.y)
        assert ds.schema == clean.schema

    @pytest.mark.parametrize("text", ["", "\n\n", "\ufeff\n"])
    def test_a_file_without_a_header_is_empty(self, tmp_path, text):
        _schema_4().to_json(tmp_path / "s.json")
        (tmp_path / "d.csv").write_text(text, encoding="utf-8")
        with pytest.raises(DataValidationError, match="empty file"):
            la.load_dataset(tmp_path / "d.csv", tmp_path / "s.json")

    def test_rows_after_a_blank_line_keep_data_row_numbers(self, tmp_path):
        _schema_4().to_json(tmp_path / "s.json")
        (tmp_path / "d.csv").write_text("age,sat,use,opt,y\n30,4,2.5,1,0.7\n\n41,9,0.0,0,0.1\n")
        with pytest.raises(DataValidationError) as exc:
            la.load_dataset(tmp_path / "d.csv", tmp_path / "s.json")
        assert [(v.feature, v.row) for v in exc.value.violations] == [("sat", 1)]

    def test_missing_column(self, tmp_path):
        schema = _schema_4()
        schema.to_json(tmp_path / "s.json")
        _write_csv(tmp_path / "d.csv", ["age", "sat", "use", "y"], [[30, 4, 2.5, 0.7]])
        with pytest.raises(DataValidationError, match="opt"):
            la.load_dataset(tmp_path / "d.csv", tmp_path / "s.json")

    def test_likert_out_of_range_names_row_and_feature(self, tmp_path):
        schema = _schema_4()
        schema.to_json(tmp_path / "s.json")
        _write_csv(
            tmp_path / "d.csv",
            ["age", "sat", "use", "opt", "y"],
            [[30, 4, 2.5, 1, 0.7], [41, 6, 0.0, 0, 0.1]],
        )
        with pytest.raises(DataValidationError) as err:
            la.load_dataset(tmp_path / "d.csv", tmp_path / "s.json")
        assert "row 1" in str(err.value) and "sat" in str(err.value)

    def test_negative_value_rejected(self, tmp_path):
        schema = _schema_4()
        schema.to_json(tmp_path / "s.json")
        _write_csv(
            tmp_path / "d.csv",
            ["age", "sat", "use", "opt", "y"],
            [[30, 4, -2.5, 1, 0.7], [41, 2, 0.0, 0, 0.1]],
        )
        with pytest.raises(DataValidationError, match="use"):
            la.load_dataset(tmp_path / "d.csv", tmp_path / "s.json")

    def test_block_sum_error(self, tmp_path):
        schema = FeatureSchema(
            features=(
                FeatureSpec("x", FeatureKind.NUMERIC, 0.0, 5.0),
                FeatureSpec("c1", FeatureKind.CATEGORICAL, 0.0, 1.0, block="b"),
                FeatureSpec("c2", FeatureKind.CATEGORICAL, 0.0, 1.0, block="b"),
            ),
            outcome="y",
        )
        schema.to_json(tmp_path / "s.json")
        _write_csv(
            tmp_path / "d.csv",
            ["x", "c1", "c2", "y"],
            [[1.0, 0.5, 0.5, 0.3], [1.0, 1.0, 0.0, 0.4]],
        )
        with pytest.raises(DataValidationError, match="row 0.*'b'"):
            la.load_dataset(tmp_path / "d.csv", tmp_path / "s.json")

    def test_rows_validated_once(self, tmp_path, monkeypatch):
        _schema_4().to_json(tmp_path / "s.json")
        _write_csv(tmp_path / "d.csv", ["age", "sat", "use", "opt", "y"], [[30, 4, 2.5, 1, 0.7], [41, 2, 0.0, 0, 0.1]])
        modes = []
        validate_rows = la_schema.validate_rows

        def counted(*args, **kwargs):
            modes.append(kwargs.get("mode"))
            return validate_rows(*args, **kwargs)

        monkeypatch.setattr(la_schema, "validate_rows", counted)
        la.load_dataset(tmp_path / "d.csv", tmp_path / "s.json")
        assert modes == ["report"]


class TestSynthetic:
    def test_determinism(self):
        schema = la.default_synthetic_schema()
        a = la.generate_synthetic(200, schema, 4, seed=7)
        b = la.generate_synthetic(200, schema, 4, seed=7)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
        c = la.generate_synthetic(200, schema, 4, seed=8)
        assert not np.array_equal(a.X, c.X)

    def test_rows_valid_in_report_mode(self):
        schema = la.default_synthetic_schema()
        ds = la.generate_synthetic(100, schema, 3, seed=3)
        assert la.validate_rows(ds.X, schema, mode="report") == []

    def test_outcome_tracks_planted_lever(self):
        # frozen fixture seed; observed correlation 0.91 at build time
        schema = la.default_synthetic_schema()
        ds = la.generate_synthetic(500, schema, 3, seed=0)
        j = la.synthetic_lever_index(schema)
        r = np.corrcoef(ds.y, ds.X[:, j])[0, 1]
        assert abs(r) > 0.5

    def test_too_small_population_rejected(self):
        schema = la.default_synthetic_schema()
        with pytest.raises(ValueError, match="outcome-separated"):
            la.generate_synthetic(5, schema, 3, seed=0)
        with pytest.raises(ValueError, match="k_true"):
            la.generate_synthetic(50, schema, 1, seed=0)


class TestDatasetConstruction:
    def test_one_hot_blocks_must_sum_to_one(self):
        schema = FeatureSchema(
            features=(
                FeatureSpec("x", FeatureKind.NUMERIC, 0.0, 5.0),
                FeatureSpec("c1", FeatureKind.CATEGORICAL, 0.0, 1.0, block="b"),
                FeatureSpec("c2", FeatureKind.CATEGORICAL, 0.0, 1.0, block="b"),
            ),
            outcome="y",
        )
        X = np.array([[1.0, 1.0, 0.0], [2.0, 0.7, 0.2]])
        with pytest.raises(DataValidationError):
            la.SurveyDataset(X=X, y=np.array([0.1, 0.2]), schema=schema)

    def test_fractional_fixed_likert_rejected(self):
        # an in-memory dataset meets the report-mode rules a CSV meets
        ds = la.generate_synthetic(40, la.default_synthetic_schema(), k_true=4, seed=0)
        X = ds.X.copy()
        X[3, ds.schema.names.index("attitude_1")] = 1.3
        with pytest.raises(DataValidationError) as err:
            la.SurveyDataset(X=X, y=ds.y, schema=ds.schema)
        assert err.value.violations == [Violation("attitude_1", "Likert value 1.3 is not an integer level", row=3)]

    def test_minimum_size(self, small_schema):
        with pytest.raises(DataValidationError, match="n >= 2"):
            la.SurveyDataset(
                X=np.array([[1.0, 1.0, 2.0, 0.0]]), y=np.array([1.0]), schema=small_schema
            )

    def test_arrays_read_only(self, small_schema):
        ds = la.SurveyDataset(
            X=np.array([[1.0, 1.0, 2.0, 0.0], [2.0, 2.0, 3.0, 1.0]]),
            y=np.array([0.0, 1.0]),
            schema=small_schema,
        )
        with pytest.raises(ValueError):
            ds.X[0, 0] = 5.0

    def test_fields_cannot_be_reassigned(self):
        # swapping in an unchecked matrix would bypass the one validity gate
        ds = la.generate_synthetic(200, la.default_synthetic_schema(), k_true=3, seed=0)
        X = ds.X.copy()
        X[0, ds.schema.names.index("lever_1")] = 2.5
        X[1, ds.schema.names.index("incentive_level")] = 99.0
        with pytest.raises(FrozenInstanceError):
            ds.X = X
        assert not ds.X.flags.writeable
        assert la.validate_rows(ds.X, ds.schema, mode="report") == []


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(0.0, 10.0),
    b=st.floats(0.0, 10.0),
    lik=st.integers(1, 5),
    bin_=st.integers(0, 1),
)
def test_validate_row_accepts_any_in_bounds_row(a, b, lik, bin_):
    schema = la.FeatureSchema(
        features=(
            la.FeatureSpec("a", FeatureKind.NUMERIC, 0.0, 10.0, controllable=True),
            la.FeatureSpec("b", FeatureKind.NUMERIC, 0.0, 10.0, controllable=True),
            la.FeatureSpec("lik", FeatureKind.LIKERT, 1, 5, controllable=True),
            la.FeatureSpec("bin", FeatureKind.BINARY, 0.0, 1.0, controllable=False),
        ),
        outcome="score",
    )
    assert la.validate_rows(np.array([[a, b, float(lik), float(bin_)]]), schema, mode="report") == []


# Block members are interleaved with other features, and the nine-member block
# is long enough for numpy's unrolled summation of a row.
_MIXED_SCHEMA = FeatureSchema(
    features=(
        FeatureSpec("c1", FeatureKind.CATEGORICAL, 0.0, 1.0, block="a"),
        FeatureSpec("num", FeatureKind.NUMERIC, 0.0, 10.0),
        FeatureSpec("lik", FeatureKind.LIKERT, 1, 5),
        FeatureSpec("c2", FeatureKind.CATEGORICAL, 0.0, 1.0, block="a"),
        FeatureSpec("bin", FeatureKind.BINARY, 0.0, 1.0),
        FeatureSpec("shifted", FeatureKind.NUMERIC, 2.0, 7.0),
        FeatureSpec("c3", FeatureKind.CATEGORICAL, 0.0, 1.0, block="a"),
        *(FeatureSpec(f"w{m}", FeatureKind.CATEGORICAL, 0.0, 1.0, block="wide") for m in range(9)),
        FeatureSpec("lik0", FeatureKind.LIKERT, 0.0, 3.0),
    ),
    outcome="y",
)
# in-bound levels, fractions, values just inside and just outside each
# tolerance, huge values whose block sums overflow, and non-finite cells
_CELLS = st.one_of(
    st.sampled_from(
        [0.0, 1.0, 2.0, 3.0, 5.0, 7.0, 0.5, -0.5, 1 + 5e-10, 1 + 2e-9, -5e-10, -2e-9, 10 + 2e-9, 5e-10]
        + [1e308, -1e308, np.nan, np.inf, -np.inf]
    ),
    st.floats(-3.0, 12.0),
)


@st.composite
def _mixed_matrices(draw):
    n = draw(st.integers(0, 6))
    X = draw(arrays(np.float64, (n, _MIXED_SCHEMA.n_features), elements=_CELLS))
    for idx in _MIXED_SCHEMA.blocks.values():
        for i in range(n):
            kind = draw(st.sampled_from(["drawn", "one-hot", "split"]))
            if kind != "drawn":
                X[i, idx] = 0.0
                picks = draw(st.lists(st.sampled_from(idx.tolist()), min_size=2, max_size=2, unique=True))
                X[i, picks] = [1.0, 0.0] if kind == "one-hot" else [0.5, 0.5]
    return np.asfortranarray(X) if draw(st.booleans()) else X


@settings(max_examples=300, deadline=None)
@given(X=_mixed_matrices(), mode=st.sampled_from(["optimize", "report"]))
def test_validate_rows_matches_per_row_oracle(X, mode):
    with np.errstate(all="ignore"):  # the loop's block sums may overflow or meet inf - inf
        per_row = [validate_row_loop(x, _MIXED_SCHEMA, mode) for x in X]
    expected = [Violation(v.feature, v.message, row=i) for i, found in enumerate(per_row) for v in found]
    # no errstate here: the suite turns any RuntimeWarning into an error
    assert la.validate_rows(X, _MIXED_SCHEMA, mode) == expected
    if per_row:  # a row alone is checked as it is in the batch
        assert la.validate_rows(X[:1], _MIXED_SCHEMA, mode) == [v for v in expected if v.row == 0]


def test_schema_json_round_trip(tmp_path):
    schema = la.default_synthetic_schema()
    schema.to_json(tmp_path / "s.json")
    loaded = FeatureSchema.from_json(tmp_path / "s.json")
    assert loaded == schema
    doc = json.loads((tmp_path / "s.json").read_text())
    assert set(doc) == {"outcome", "features"}


SPEC_ANNOTATIONS = {"name": "str", "block": "str | None", "controllable": "bool", "lower": "float", "upper": "float"}


@pytest.mark.parametrize(
    "key, value",
    [
        ("controllable", "false"),
        ("controllable", "no"),
        ("controllable", 0),
        ("name", 5),
        ("block", 1),
        ("upper", "10"),
        ("lower", True),
        ("upper", float("inf")),
        ("lower", float("nan")),
    ],
)
def test_schema_entry_types_are_checked_not_cast(key, value):
    # a cast would read "false" as a lever, 5 as a name, "10" as 10.0 and true as 1.0
    doc = _schema_4().to_dict()
    doc["features"][1][key] = value
    name = doc["features"][1]["name"]
    message = f"feature {name!r}: {key} must be {SPEC_ANNOTATIONS[key]}, got {value!r}"
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        FeatureSchema.from_dict(doc)


def test_a_kind_given_as_a_string_is_rejected_not_read_as_numeric():
    # "likert" is no FeatureKind: the Likert checks and s_likert would skip the
    # feature, and to_dict would fail on kind.value when the schema is saved
    message = "feature 'a': kind must be FeatureKind, got 'likert'"
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        FeatureSchema(
            (FeatureSpec("a", "likert", 1, 5, controllable=True), FeatureSpec("b", FeatureKind.NUMERIC, 0, 1)), "y"
        )


def test_schema_outcome_must_be_a_string():
    doc = _schema_4().to_dict()
    doc["outcome"] = 7
    with pytest.raises(SchemaError, match="^outcome must be str, got 7$"):
        FeatureSchema.from_dict(doc)



def _schema_of(*specs, outcome="y"):
    return FeatureSchema(features=tuple(specs), outcome=outcome)


def _load(tmp_path, header, rows):
    _schema_4().to_json(tmp_path / "s.json")
    (tmp_path / "d.csv").write_text("\n".join([header, *rows]) + "\n")
    return la.load_dataset(tmp_path / "d.csv", tmp_path / "s.json")


def _dataset(X=((30, 4, 2.5, 1), (41, 2, 0.0, 0)), y=(0.7, 0.1), ids=()):
    return la.SurveyDataset(X=np.array(X, dtype=float), y=np.array(y, dtype=float), schema=_schema_4(), respondent_ids=ids)


NUM, LIK, BIN, CAT = FeatureKind.NUMERIC, FeatureKind.LIKERT, FeatureKind.BINARY, FeatureKind.CATEGORICAL
HEADER = "age,sat,use,opt,y"
_ORDINAL = {"name": "q", "kind": "ordinal", "lower": 1, "upper": 5, "block": None, "controllable": False}
REJECTIONS = {
    "no features": (lambda t: _schema_of(), SchemaError, "schema declares no features"),
    "duplicate names": (
        lambda t: _schema_of(FeatureSpec("x", NUM, 0.0, 1.0), FeatureSpec("x", NUM, 0.0, 2.0)),
        SchemaError,
        "duplicate feature names in schema",
    ),
    "outcome is a feature": (
        lambda t: _schema_of(FeatureSpec("x", NUM, 0.0, 1.0), outcome="x"),
        SchemaError,
        "outcome column 'x' collides with a feature name",
    ),
    "lower below 0": (
        lambda t: _schema_of(FeatureSpec("x", NUM, -1.0, 1.0)),
        SchemaError,
        "feature 'x': lower bound must be >= 0 (encoded responses are nonnegative)",
    ),
    "Likert lower not below upper": (
        lambda t: _schema_of(FeatureSpec("q", LIK, 3, 3)),
        SchemaError,
        "feature 'q': Likert bounds need lower < upper",
    ),
    "numeric lower not below upper": (
        lambda t: _schema_of(FeatureSpec("x", NUM, 2.0, 1.0)),
        SchemaError,
        "feature 'x': numeric bounds need lower < upper",
    ),
    "binary bounds": (lambda t: _schema_of(FeatureSpec("b", BIN, 0.0, 2.0)), SchemaError, "feature 'b': binary bounds must be [0, 1]"),
    "categorical without a block": (
        lambda t: _schema_of(FeatureSpec("c", CAT, 0.0, 1.0)),
        SchemaError,
        "feature 'c': categorical features need a block id",
    ),
    "categorical bounds": (
        lambda t: _schema_of(FeatureSpec("c", CAT, 0.0, 2.0, block="b")),
        SchemaError,
        "feature 'c': one-hot features must have bounds [0, 1]",
    ),
    "block on a numeric feature": (
        lambda t: _schema_of(FeatureSpec("x", NUM, 0.0, 1.0, block="b")),
        SchemaError,
        "feature 'x': only categorical features may carry a block id",
    ),
    "document without outcome": (
        lambda t: FeatureSchema.from_dict({"features": []}),
        SchemaError,
        "schema document missing required key: 'outcome'",
    ),
    "document without features": (
        lambda t: FeatureSchema.from_dict({"outcome": "y"}),
        SchemaError,
        "schema document missing required key: 'features'",
    ),
    "entry of unknown kind": (
        lambda t: FeatureSchema.from_dict({"outcome": "y", "features": [_ORDINAL]}),
        SchemaError,
        f"bad feature entry {_ORDINAL!r}: 'ordinal' is not a valid FeatureKind",
    ),
    "undeclared column": (
        lambda t: _load(t, HEADER + ",extra", ["30,4,2.5,1,0.7,0"]),
        DataValidationError,
        "1 validation failure(s): feature 'extra': column not declared in schema",
    ),
    "duplicate header name": (
        lambda t: _load(t, HEADER + ",age", ["30,4,2.5,1,0.7,30"]),
        DataValidationError,
        "1 validation failure(s): feature '<csv>': duplicate column names in header",
    ),
    "row of the wrong length": (
        lambda t: _load(t, HEADER, ["30,4,2.5,1"]),
        DataValidationError,
        "1 validation failure(s): row 0, feature '<csv>': expected 5 fields, got 4",
    ),
    "feature cell not a number": (
        lambda t: _load(t, HEADER, ["30,abc,2.5,1,0.7"]),
        DataValidationError,
        "1 validation failure(s): row 0, feature 'sat': cannot parse 'abc' as a number",
    ),
    "outcome cell not a number": (
        lambda t: _load(t, HEADER, ["30,4,2.5,1,n/a"]),
        DataValidationError,
        "1 validation failure(s): row 0, feature 'y': cannot parse 'n/a' as a number",
    ),
    "X not 2-D": (
        lambda t: _dataset(X=(30, 4, 2.5, 1)),
        DataValidationError,
        "1 validation failure(s): feature '<matrix>': X must be 2-D, got ndim=1",
    ),
    "column count": (
        lambda t: _dataset(X=((30, 4, 2.5), (41, 2, 0.0))),
        DataValidationError,
        "1 validation failure(s): feature '<matrix>': X has 3 columns, schema declares 4",
    ),
    "y shape": (
        lambda t: _dataset(y=(0.7, 0.1, 0.5)),
        DataValidationError,
        "1 validation failure(s): feature 'y': y has shape (3,), expected (2,)",
    ),
    "non-finite outcome": (
        lambda t: _dataset(y=(0.7, float("nan"))),
        DataValidationError,
        "1 validation failure(s): row 1, feature 'y': missing or non-finite outcome",
    ),
    "id count": (
        lambda t: _dataset(ids=("a",)),
        DataValidationError,
        "1 validation failure(s): feature '<ids>': 1 ids for 2 rows",
    ),
    "validate_rows unknown mode": (
        lambda t: la.validate_rows(np.zeros((1, 4)), _schema_4(), mode="strict"),
        ValueError,
        "mode must be 'optimize' or 'report', got 'strict'",
    ),
    "validate_rows wrong width": (
        lambda t: la.validate_rows(np.zeros((1, 3)), _schema_4()),
        ValueError,
        "matrix has shape (1, 3), schema expects (n, 4)",
    ),
}


@pytest.mark.parametrize("build, error, message", REJECTIONS.values(), ids=REJECTIONS.keys())
def test_rejection_type_and_message(tmp_path, build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build(tmp_path)


def test_validation_message_lists_the_first_20_violations():
    violations = [Violation("x", f"failure {i}", row=i) for i in range(25)]
    shown = "; ".join(f"row {i}, feature 'x': failure {i}" for i in range(20))
    with pytest.raises(DataValidationError, match=f"^{re.escape(f'25 validation failure(s): {shown}; ... (5 more)')}$"):
        raise DataValidationError(violations)
