import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import latent_align as la
from latent_align import pipeline
from latent_align.cli import main
from latent_align.evaluation import GroupMovementRow, target_codes
from latent_align.optimizer import TrajectoryRecord
from latent_align.pipeline import ConfigError, ExperimentConfig, run_pipeline

from conftest import small_config


def _write_config(tmp_path, **overrides) -> Path:
    """The small config with overrides as a JSON file; the overrides are written
    as given, so the file may hold a setting the command must reject."""
    doc = small_config().to_dict()
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc, indent=2))
    return path


def _tree_bytes(root: Path, skip=("manifest.json",)) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name not in skip:
            out[str(p.relative_to(root))] = p.read_bytes()
    return out


class TestConfig:
    def test_round_trip(self):
        config = small_config(seeds=(3, 4), sparsity_weight=0.01)
        again = ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert again == config

    def test_external_names(self):
        d = small_config().to_dict()
        assert "G" in d and "lambda" in d
        assert "n_clusters" not in d and "sparsity_weight" not in d

    def test_unknown_key_rejected(self):
        with pytest.raises(Exception, match="unknown config key"):
            ExperimentConfig.from_dict({"nope": 1})

    @pytest.mark.parametrize(
        "doc",
        [
            {"G": 3, "n_clusters": 5},
            {"n_clusters": 5, "G": 3},
            {"lambda": 0.1, "sparsity_weight": 0.2},
            {"sparsity_weight": 0.2, "lambda": 0.1},
        ],
    )
    def test_a_field_named_twice_is_rejected(self, doc):
        # neither key wins, in either order; the error names both
        first, second = doc
        with pytest.raises(ConfigError, match=f"^config keys {first!r} and {second!r} name the same field$"):
            ExperimentConfig.from_dict(doc)

    def test_default_q_is_half_k(self):
        assert ExperimentConfig(k=10).resolved_q() == 5
        assert ExperimentConfig(k=7).resolved_q() == 4
        assert ExperimentConfig(k=7, q=2).resolved_q() == 2

    def test_validation_errors(self):
        with pytest.raises(Exception, match="G"):
            ExperimentConfig(n_clusters=1)
        with pytest.raises(Exception, match="eta"):
            ExperimentConfig(eta=0.0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ExperimentConfig(eta=0.0),
            lambda: ExperimentConfig.from_dict({"eta": 0.0}),
            lambda: dataclasses.replace(ExperimentConfig(), eta=0.0),
            lambda: ExperimentConfig().with_param("eta", "0"),
        ],
        ids=["constructor", "from_dict", "replace", "with_param"],
    )
    def test_every_way_to_build_checks(self, build):
        with pytest.raises(ConfigError, match=r"^eta must be positive, got 0\.0$"):
            build()

    def test_config_is_immutable(self):
        config = ExperimentConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.eta = 0.0
        assert config.eta == 0.05

    @pytest.mark.parametrize(
        "overrides",
        [
            {"k": "x"},
            {"k": True},
            {"eta": "0.1"},
            {"q": 2.5},
            {"seeds": (1.5,)},
            {"dataset_csv": 3},
            {"tau_delta": float("nan")},
            {"beta_couple": float("inf")},
            {"beta_couple": 0.0},
            {"beta_couple": -1.0},
            {"seeds": (3, 3)},
            {"seeds": (-1,)},
            {"dataset_csv": ""},
            {"out_dir": ""},
            {"logistic_l2": -1.0},
            {"baseline_k_levers": 0},
            {"baseline_step": -1.0},
        ],
    )
    def test_wrong_value_type_rejected(self, overrides):
        (name,) = overrides
        with pytest.raises(ConfigError, match=f"^{name} must be "):
            ExperimentConfig(**overrides)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"k": 0}, "k must be >= 1, got 0"),
            ({"q": 0}, "q must lie in [1, k], got 0 with k=10"),
            ({"q": 11}, "q must lie in [1, k], got 11 with k=10"),
            ({"tau_y": 0.0}, "tau_y must lie in (0, 1)"),
            ({"tau_y": 1}, "tau_y must lie in (0, 1)"),
            ({"eps_omega": 0.0}, "eps_omega must be positive"),
            ({"seeds": ()}, "at least one seed required"),
            ({"dataset_csv": "d.csv"}, "dataset_csv and schema_json must be given together"),
            ({"binarize_rule": "mean"}, "unknown binarize rule 'mean'"),
            ({"sparsity_weight": -1.0}, "lambda must be >= 0, got -1.0"),
            ({"beta_couple": 0.0}, "beta_couple must be positive or None, got 0.0"),
            ({"max_outer": 0}, "max_outer must be >= 1, got 0"),
            ({"tol_obj": -1.0}, "tol_obj must be >= 0, got -1.0"),
            ({"tau_delta": -1.0}, "tau_delta must be >= 0, got -1.0"),
        ],
    )
    def test_out_of_range_value_rejected(self, overrides, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(**overrides)

    def test_integer_accepted_for_float(self):
        config = ExperimentConfig(eta=1, tau_delta=0)
        assert (config.eta, config.tau_delta) == (1, 0)

    @pytest.mark.parametrize(
        "param, text, field, value",
        [
            ("k", "3", "k", 3),
            ("G", "4", "n_clusters", 4),
            ("q", "2", "q", 2),
            ("lambda", "1e-3", "sparsity_weight", 1e-3),
            ("eta", "0.1", "eta", 0.1),
        ],
    )
    def test_with_param_parses_strings_to_the_field_type(self, param, text, field, value):
        got = getattr(ExperimentConfig().with_param(param, text), field)
        assert got == value and type(got) is type(value)

    @pytest.mark.parametrize(
        "param, text", [("k", "2.5"), ("G", "x"), ("q", "1.0"), ("q", ""), ("lambda", "abc"), ("eta", "")]
    )
    def test_with_param_rejects_bad_literals(self, param, text):
        with pytest.raises(ConfigError, match=f"^{param} value must be "):
            ExperimentConfig().with_param(param, text)

    def test_with_param_rejects_unsweepable_names(self):
        with pytest.raises(ConfigError, match="sweep parameter"):
            ExperimentConfig().with_param("tau_y", "0.4")

    @pytest.mark.parametrize("name", ["max_outer", "nmf_max_iters", "kmeans_restarts"])
    def test_iteration_budgets_below_one_rejected(self, name):
        with pytest.raises(ConfigError, match=name):
            ExperimentConfig(**{name: 0})


class TestRun:
    def test_artifacts_written_and_deterministic(self, tmp_path):
        cfg = _write_config(tmp_path, seeds=(7,))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0

        seed_dir = out1 / "seed_7"
        for name in (
            "latent_model.json",
            "groups.json",
            "priorities.json",
            "surrogate.json",
            "intervention.json",
            "metrics.json",
            "trajectory.csv",
            "movement.csv",
            "latent_codes.csv",
        ):
            assert (seed_dir / name).exists(), name

        assert _tree_bytes(out1) == _tree_bytes(out2)
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["config_hash"] == m2["config_hash"]

    def test_multi_seed_aggregate(self, tmp_path):
        cfg = _write_config(tmp_path, seeds=(7, 8))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        agg = json.loads((out / "aggregate.json").read_text())
        for name in ("n_conv", "r_conv", "mean_dp", "n_lever", "effort"):
            assert set(agg[name]) == {"mean", "std"}
        assert agg["n_seeds"] == 2
        runs = (out / "runs.csv").read_text().strip().splitlines()
        assert len(runs) == 3  # header + 2 seeds

    def test_invalid_g_fails_before_artifacts(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["G"] = 1
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert not out.exists()

    def test_zero_max_outer_fails_before_artifacts(self, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ["run", "--config", str(_write_config(tmp_path)), "--max-outer", "0", "--out", str(out)]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not out.exists()

    @pytest.mark.parametrize(
        "content",
        [
            None,
            b"{not json",
            b"[1, 2]",
            b"\xff\xfe",
            b'{"k": "x"}',
            b'{"seeds": 5}',
            b'{"logistic_l2": -1.0}',
            # synthetic settings the generator rejects
            b'{"synthetic_n": 3}',
            b'{"synthetic_k_true": 1}',
            b'{"synthetic_seed": -1}',
        ],
    )
    def test_bad_config_file_is_a_config_error(self, tmp_path, capsys, content):
        cfg = tmp_path / "config.json"
        if content is not None:  # None: the file does not exist
            cfg.write_bytes(content)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["abc", "1,,2", ""])
    def test_malformed_seed_list_is_a_usage_error(self, tmp_path, capsys, seed):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(_write_config(tmp_path)), "--seed", seed, "--out", str(out)])
        assert exc.value.code == 2
        assert "argument --seed" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_seed_fails_before_artifacts(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["run", "--config", str(_write_config(tmp_path)), "--seed", "3,3", "--out", str(out)]) == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "ConfigError" and "seeds" in doc["message"]
        assert not out.exists()

    def test_parallel_matches_single(self, tmp_path, monkeypatch):
        cfg = _write_config(tmp_path, seeds=(7, 8))
        out1, out2 = tmp_path / "single", tmp_path / "multi"
        monkeypatch.setenv("LATENT_ALIGN_THREADS", "1")
        assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
        monkeypatch.setenv("LATENT_ALIGN_THREADS", "2")
        assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
        assert _tree_bytes(out1) == _tree_bytes(out2)

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5", ""])
    def test_bad_thread_count_is_a_config_error(self, tmp_path, capsys, monkeypatch, value):
        cfg = _write_config(tmp_path)
        monkeypatch.setenv("LATENT_ALIGN_THREADS", value)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        doc = json.loads(err)
        assert doc["error"] == "ConfigError" and "LATENT_ALIGN_THREADS" in doc["message"]
        assert not out.exists()


class TestSweep:
    def test_k_sweep_completes_including_weak_cells(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = tmp_path / "o"
        assert main(
            ["sweep", "--config", str(cfg), "--out", str(out), "--param", "k", "--values", "3,4"]
        ) == 0
        rows = (out / "sweep_k.csv").read_text().strip().splitlines()
        assert len(rows) == 3
        assert all("ok" in r for r in rows[1:])

    def test_bad_thread_count_fails_before_output(self, tmp_path, capsys, monkeypatch):
        cfg = _write_config(tmp_path)
        monkeypatch.setenv("LATENT_ALIGN_THREADS", "0")
        out = tmp_path / "o"
        assert main(
            ["sweep", "--config", str(cfg), "--out", str(out), "--param", "k", "--values", "3"]
        ) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not out.exists()

    def test_empty_values_usage_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"), "--param", "k", "--values", ""])
        assert rc == 2

    @pytest.mark.parametrize(
        "param, values", [("k", "2.5"), ("G", "x"), ("q", "1.5"), ("k", "3,,4"), ("eta", "abc"), ("lambda", "abc")]
    )
    def test_malformed_value_fails_before_output(self, tmp_path, capsys, param, values):
        out = tmp_path / "o"
        argv = ["sweep", "--config", str(_write_config(tmp_path)), "--out", str(out), "--param", param, "--values", values]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert json.loads(err)["error"] == "ConfigError"
        assert not out.exists()

    def test_bad_param_rejected_by_parser(self, tmp_path):
        cfg = _write_config(tmp_path)
        with pytest.raises(SystemExit):
            main(["sweep", "--config", str(cfg), "--param", "bogus", "--values", "1"])

    def test_failed_cell_marked_and_continues(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = tmp_path / "o"
        # G=250 exceeds n=200, so that cell must fail while the sweep continues
        assert main(
            ["sweep", "--config", str(cfg), "--out", str(out), "--param", "G", "--values", "3,250"]
        ) == 0
        rows = (out / "sweep_G.csv").read_text().strip().splitlines()
        assert len(rows) == 3
        assert "ok" in rows[1]
        assert "error" in rows[2]


class TestBaselinesCommand:
    def test_eight_rows_same_target_size(self, tmp_path):
        cfg = _write_config(tmp_path, max_outer=30)
        out = tmp_path / "o"
        assert main(["baselines", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "comparison.csv").read_text().strip().splitlines()
        assert len(rows) == 9  # header + 1 full + 4 baselines + 3 ablations
        header = rows[0].split(",")
        n_target_col = header.index("n_target")
        sizes = {r.split(",")[n_target_col] for r in rows[1:]}
        assert len(sizes) == 1

    # 50 exceeds the 9 policy levers of the default synthetic schema
    @pytest.mark.parametrize("overrides", [{"baseline_k_levers": 0}, {"baseline_step": -1.0}, {"baseline_k_levers": 50}])
    def test_bad_baseline_settings_fail_before_artifacts(self, tmp_path, capsys, overrides):
        out = tmp_path / "o"
        assert main(["baselines", "--config", str(_write_config(tmp_path, **overrides)), "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not out.exists()

    def test_projects_the_target_rows_once_per_result(self, tmp_path, monkeypatch):
        # X_B once for all eight rows, then X_B + delta_B once per result
        from latent_align import baselines, evaluation, optimizer

        calls = []
        for mod in (optimizer, evaluation, baselines):
            def counted(X, H, _project=mod.nnls_project_rows):
                calls.append(X.shape)
                return _project(X, H)

            monkeypatch.setattr(mod, "nnls_project_rows", counted)
        cfg = _write_config(tmp_path, max_outer=30)
        assert main(["baselines", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1 + 8

    def test_solves_no_transport_problem_twice(self, tmp_path, monkeypatch):
        # every solve is against the reference codes, so its cost matrix
        # stands for the codes it scores
        from latent_align import transport

        solved = []

        def counted(problem, *args, _solve=transport.sinkhorn, **kwargs):
            solved.append((problem.cost.tobytes(), problem.eta))
            return _solve(problem, *args, **kwargs)

        monkeypatch.setattr(transport, "sinkhorn", counted)
        cfg = _write_config(tmp_path, max_outer=30)
        assert main(["baselines", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        repeats = len(solved) - len(set(solved))
        assert solved and repeats == 0, f"{repeats} of {len(solved)} solves repeat an earlier one"


class TestArtifactFormat:
    """The file formats of the run outputs: RFC 4180 CSV with CRLF line ends,
    record CSVs headed by their dataclass fields, and per-seed JSON in the
    compact sorted layout of each object's to_dict()."""

    @pytest.fixture(scope="class")
    def outputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("format")
        cfg = _write_config(root, seeds=(7,), max_outer=30)
        assert main(["run", "--config", str(cfg), "--out", str(root / "run")]) == 0
        assert main(["baselines", "--config", str(cfg), "--out", str(root / "baselines")]) == 0
        return root

    def test_every_csv_line_ends_in_crlf(self, outputs):
        paths = sorted(outputs.rglob("*.csv"))
        names = {p.name for p in paths}
        assert {"trajectory.csv", "movement.csv", "latent_codes.csv", "runs.csv", "aggregate.csv", "comparison.csv"} <= names
        for p in paths:
            lines = p.read_bytes().split(b"\n")
            assert lines[-1] == b"", p
            assert all(line.endswith(b"\r") for line in lines[:-1]), p

    def test_record_headers_are_field_names(self, outputs):
        for name, record_type in (("trajectory.csv", TrajectoryRecord), ("movement.csv", GroupMovementRow)):
            for out in ("run", "baselines"):
                header = (outputs / out / "seed_7" / name).read_text().splitlines()[0]
                assert header.split(",") == [f.name for f in fields(record_type)]

    def test_per_seed_json_is_sorted_to_dict(self, outputs):
        arts = run_pipeline(small_config(seeds=(7,), max_outer=30), 7)
        objects = {
            "latent_model.json": arts.latent,
            "groups.json": arts.groups,
            "surrogate.json": arts.surrogate,
            "priorities.json": arts.priorities,
            "intervention.json": arts.result,
            "metrics.json": arts.metrics,
        }
        for out in ("run", "baselines"):
            for name, obj in objects.items():
                text = (outputs / out / "seed_7" / name).read_text()
                assert text == json.dumps(obj.to_dict(), sort_keys=True) + "\n", (out, name)

    def test_priorities_json_has_no_provenance_and_an_older_file_loads(self, outputs):
        # eps_omega is a field, q is len(top_factors), and the seed and the binarize rule are in other files
        doc = json.loads((outputs / "run" / "seed_7" / "priorities.json").read_text())
        assert "provenance" not in doc
        older = {**doc, "provenance": {"seed": 7, "q": 2, "eps_omega": 1e-6, "binarize_rule": "median"}}
        assert la.PriorityWeights.from_dict(older).to_dict() == doc

    def test_latent_codes_target_rows_are_scored_codes(self, outputs):
        arts = run_pipeline(small_config(seeds=(7,), max_outer=30), 7)
        with open(outputs / "run" / "seed_7" / "latent_codes.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        k = arts.latent.k
        read = {(r["respondent_id"], r["phase"]): [float(r[f"c{c}"]) for c in range(k)] for r in rows}
        ids = arts.dataset.respondent_ids
        pre, post = target_codes(arts.problem, arts.result)
        codes = arts.codes.copy()
        codes[arts.groups.i_target] = pre
        assert np.array_equal([read[(ids[i], "pre")] for i in range(arts.dataset.n)], codes)
        assert np.array_equal([read[(ids[i], "post")] for i in arts.groups.i_target], post)
        assert len(rows) == arts.dataset.n + arts.groups.i_target.size


class TestDatasetFiles:
    """Each command reads its dataset once, before it writes anything."""

    @staticmethod
    def _data(tmp_path):
        assert main(["synth", "--n", "60", "--out", str(tmp_path / "data")]) == 0
        return tmp_path / "data" / "dataset.csv", tmp_path / "data" / "schema.json"

    @pytest.mark.parametrize("command", [["run"], ["baselines"], ["sweep", "--param", "k", "--values", "3"]])
    @pytest.mark.parametrize("broken", ["missing_csv", "schema_not_json"])
    def test_unreadable_file_fails_before_output(self, tmp_path, capsys, command, broken):
        csv_path, schema_path = self._data(tmp_path)
        if broken == "missing_csv":
            csv_path = tmp_path / "nope.csv"
        else:
            schema_path.write_text("{not json")
        out = tmp_path / "o"
        files = ["--dataset", str(csv_path), "--schema", str(schema_path)]
        assert main(command + ["--config", str(_write_config(tmp_path)), *files, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert json.loads(err)["error"] == "ConfigError"
        assert not out.exists()

    @pytest.mark.parametrize("bound, value", [("upper", "10"), ("lower", True)])
    def test_a_schema_bound_that_is_not_a_number_exits_2(self, tmp_path, capsys, bound, value):
        # a cast would read "10" as 10.0 and true as 1.0
        csv_path, schema_path = self._data(tmp_path)
        schema = json.loads(schema_path.read_text())
        schema["features"][0][bound] = value
        schema_path.write_text(json.dumps(schema))
        out = tmp_path / "o"
        assert main(["run", "--dataset", str(csv_path), "--schema", str(schema_path), "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError" and f"{bound} must be float" in err["message"]
        assert not out.exists()

    def test_seeds_share_one_read(self, tmp_path, monkeypatch):
        csv_path, schema_path = self._data(tmp_path)
        load, calls = pipeline.load_dataset, []

        def counted(*args):
            calls.append(args)
            return load(*args)

        monkeypatch.setattr(pipeline, "load_dataset", counted)
        files = ["--dataset", str(csv_path), "--schema", str(schema_path)]
        argv = ["run", "--config", str(_write_config(tmp_path)), *files, "--seed", "1,2,3", "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        assert len(calls) == 1
        assert (tmp_path / "o" / "runs.csv").read_text().count("\n") == 4


class TestSynthAndInspect:
    def test_synth_round_trips(self, tmp_path):
        out = tmp_path / "synth"
        assert main(["synth", "--n", "60", "--k-true", "3", "--seed", "5", "--out", str(out)]) == 0
        ds = la.load_dataset(out / "dataset.csv", out / "schema.json")
        assert ds.n == 60

    def test_inspect_prints_json(self, tmp_path, capsys):
        p = tmp_path / "x.json"
        p.write_text('{"b": 1, "a": 2}')
        assert main(["inspect", str(p)]) == 0
        out = capsys.readouterr().out
        assert json.loads(out) == {"a": 2, "b": 1}

    @pytest.mark.parametrize("content", [None, b"{not json", b"\xff\xfe"])
    def test_inspect_unreadable_exits_2(self, tmp_path, capsys, content):
        p = tmp_path / "x.json"
        if content is not None:  # None: the file does not exist
            p.write_bytes(content)
        assert main(["inspect", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "ArtifactError"

    def test_flag_overrides(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = tmp_path / "o"
        rc = main(
            ["run", "--config", str(cfg), "--out", str(out), "--seed", "9", "--lambda", "0.5", "--max-outer", "5"]
        )
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["lambda"] == 0.5
        assert manifest["seeds"] == [9]
        assert (out / "seed_9").exists()


# each flag of run, sweep and baselines -> the config keys it sets; every case
# also passes --config (whose tau_y=0.4 is the --config case) and --out
FLAG_CASES = {
    "config": ([], {"tau_y": 0.4}),
    "out": ([], {"out_dir": "o"}),
    "dataset,schema": (
        ["--dataset", "data/dataset.csv", "--schema", "data/schema.json"],
        {"dataset_csv": "data/dataset.csv", "schema_json": "data/schema.json"},
    ),
    "seed": (["--seed", "5,6"], {"seeds": [5, 6]}),
    "k": (["--k", "3"], {"k": 3}),
    "g": (["--g", "2"], {"G": 2}),
    "q": (["--q", "1"], {"q": 1}),
    "eta": (["--eta", "0.07"], {"eta": 0.07}),
    "lambda": (["--lambda", "0.002"], {"lambda": 0.002}),
    "beta-couple": (["--beta-couple", "0.5"], {"beta_couple": 0.5}),
    "max-outer": (["--max-outer", "4"], {"max_outer": 4}),
}


@pytest.mark.parametrize("flags, expected", FLAG_CASES.values(), ids=FLAG_CASES.keys())
def test_each_flag_lands_on_its_config_key(tmp_path, monkeypatch, flags, expected):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--n", "60", "--k-true", "3", "--out", "data"]) == 0
    cfg = _write_config(tmp_path, max_outer=5, tau_y=0.4)
    assert main(["run", "--config", str(cfg), "--out", "o", *flags]) == 0
    config = json.loads(Path("o/manifest.json").read_text())["config"]
    assert {key: config[key] for key in expected} == expected


def test_flag_beats_the_file_under_either_name(tmp_path):
    # the file names G once, by its external key or by its field name; the flag wins
    for key in ("G", "n_clusters"):
        doc = small_config(max_outer=1).to_dict()
        del doc["G"]
        doc[key] = 5
        cfg = tmp_path / f"config_{key}.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / key
        assert main(["run", "--config", str(cfg), "--g", "4", "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["G"] == 4


def test_import_defers_the_pool_and_hashing():
    # a command pays for the process pool only when it starts one, and for
    # hashlib only when it writes a manifest
    src = str(Path(la.__file__).resolve().parents[1])
    code = "import sys, latent_align.cli; print(sorted({'concurrent.futures.process', 'hashlib'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


# settings rejected before any work: by the config, by the config of a sweep
# cell, against the loaded data (the small config's 200 rows and 15 features,
# or a file under data/), or by the generator; each case is (argv, config keys)
FIXED_ABOVE_EVERY_SCORE = {"binarize_rule": "fixed", "binarize_threshold": 1e9}
CONSTANT_OUTCOME = ["--dataset", "data/constant.csv", "--schema", "data/schema.json"]
NO_LEVERS = ["--dataset", "data/dataset.csv", "--schema", "data/no_levers.json"]
REJECTED_CASES = {
    "run beta_couple 0": (["run", "--beta-couple", "0"], {}),
    "run G named twice": (["run"], {"n_clusters": 4}),
    "baselines lambda named twice under a flag": (["baselines", "--lambda", "0.1"], {"sparsity_weight": 0.01}),
    "baselines beta_couple -1": (["baselines", "--beta-couple", "-1"], {}),
    "run k above d": (["run", "--k", "20"], {}),
    "baselines k above d": (["baselines", "--k", "20"], {}),
    "run G above n": (["run", "--g", "201"], {}),
    "baselines G above n": (["baselines", "--g", "201"], {}),
    "run threshold above every score": (["run"], FIXED_ABOVE_EVERY_SCORE),
    "run threshold under the median rule": (["run"], {"binarize_rule": "median", "binarize_threshold": 0.3}),
    "run tol_obj -1": (["run"], {"tol_obj": -1.0}),
    "baselines threshold above every score": (["baselines"], FIXED_ABOVE_EVERY_SCORE),
    "run constant outcome": (["run", *CONSTANT_OUTCOME], {}),
    "baselines constant outcome": (["baselines", *CONSTANT_OUTCOME], {}),
    "run no lever": (["run", *NO_LEVERS], {}),
    "baselines no lever": (["baselines", *NO_LEVERS], {}),
    "sweep eta -1": (["sweep", "--param", "eta", "--values", "0.05,-1"], {}),
    "sweep G 1": (["sweep", "--param", "G", "--values", "1"], {}),
    "synth n 3": (["synth", "--n", "3"], {}),
    "synth k_true 1": (["synth", "--k-true", "1"], {}),
    "synth out empty": (["synth", "--out", ""], {}),
    "synth out under a file": (["synth", "--out", "a_file/sub"], {}),
    "run out under a file": (["run", "--max-outer", "5", "--out", "a_file/sub"], {}),
}


def _write_rejected_data(data: Path) -> None:
    """Synthetic data under data/, plus a copy whose outcome is constant and
    a schema in which no feature is controllable."""
    assert main(["synth", "--n", "60", "--out", str(data)]) == 0
    schema = json.loads((data / "schema.json").read_text())
    with open(data / "dataset.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(schema["outcome"])
    for row in rows[1:]:
        row[col] = "3.0"
    with open(data / "constant.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    for feature in schema["features"]:
        feature["controllable"] = False
    (data / "no_levers.json").write_text(json.dumps(schema))


@pytest.mark.parametrize("argv, keys", REJECTED_CASES.values(), ids=REJECTED_CASES.keys())
def test_rejected_setting_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch, argv, keys):
    monkeypatch.chdir(tmp_path)
    if any(a.startswith("data/") for a in argv):
        _write_rejected_data(tmp_path / "data")
        capsys.readouterr()
    config = [] if argv[0] == "synth" else ["--config", str(_write_config(tmp_path, **keys))]
    out = [] if "--out" in argv else ["--out", "o"]
    (tmp_path / "a_file").write_text("")
    before = sorted(tmp_path.rglob("*"))
    assert main([*argv, *config, *out]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert json.loads(err)["error"] == "ConfigError"
    assert sorted(tmp_path.rglob("*")) == before
