import csv
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import latent_align as la
from latent_align.cli import main
from latent_align.evaluation import GroupMovementRow, target_codes
from latent_align.optimizer import TrajectoryRecord
from latent_align.pipeline import ExperimentConfig, run_pipeline

from conftest import small_config


def _write_config(tmp_path, **overrides) -> Path:
    config = small_config(**overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict(), indent=2))
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

    def test_default_q_is_half_k(self):
        assert ExperimentConfig(k=10).resolved_q() == 5
        assert ExperimentConfig(k=7).resolved_q() == 4
        assert ExperimentConfig(k=7, q=2).resolved_q() == 2

    def test_validation_errors(self):
        with pytest.raises(Exception, match="G"):
            ExperimentConfig(n_clusters=1).validate()
        with pytest.raises(Exception, match="eta"):
            ExperimentConfig(eta=0.0).validate()


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

    def test_parallel_matches_single(self, tmp_path, monkeypatch):
        cfg = _write_config(tmp_path, seeds=(7, 8))
        out1, out2 = tmp_path / "single", tmp_path / "multi"
        monkeypatch.setenv("LATENT_ALIGN_THREADS", "1")
        assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
        monkeypatch.setenv("LATENT_ALIGN_THREADS", "2")
        assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
        assert _tree_bytes(out1) == _tree_bytes(out2)


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

    def test_empty_values_usage_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"), "--param", "k", "--values", ""])
        assert rc == 2

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

    def test_latent_codes_target_rows_are_scored_codes(self, outputs):
        arts = run_pipeline(small_config(seeds=(7,), max_outer=30), 7)
        with open(outputs / "run" / "seed_7" / "latent_codes.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        k = arts.latent.k
        read = {(r["respondent_id"], r["phase"]): [float(r[f"c{c}"]) for c in range(k)] for r in rows}
        ids = arts.dataset.respondent_ids
        pre, post = target_codes(arts.problem, arts.result.delta)
        codes = arts.codes.codes.copy()
        codes[arts.groups.i_target] = pre
        assert np.array_equal([read[(ids[i], "pre")] for i in range(arts.dataset.n)], codes)
        assert np.array_equal([read[(ids[i], "post")] for i in arts.groups.i_target], post)
        assert len(rows) == arts.dataset.n + arts.groups.i_target.size


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
