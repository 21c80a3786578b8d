"""Self-test of the benchmark at the small test configuration (n=200).

    python3 -m pytest perfbench -q

Runs each workload's code path once untraced and once traced, and checks
that every metric BENCHMARK.json names is emitted with its unit.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_names_runner_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.NAMES)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_configs_mirror_the_test_fixtures():
    spec = importlib.util.spec_from_file_location("_conftest_mirror", ROOT / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    assert workloads.FIXTURE_KWARGS == conftest.FIXTURE_KWARGS
    assert workloads.SMALL_KWARGS == conftest.SMALL_KWARGS


@pytest.mark.parametrize("trace", [False, True], ids=["trace0", "trace1"])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_emits_every_metric(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    result = run.run_benchmark(name, seed=1, seconds=0, trace=trace, small=True)
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] == (2 if trace else 1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    emitted = result["metrics"]
    assert set(emitted) == set(expected)
    for metric, unit in expected.items():
        assert emitted[metric]["unit"] == unit, metric
        assert isinstance(emitted[metric]["value"], (int, float)), metric
    if trace:
        # compare sums five solves; the untraced outcome counts the full method's only
        full_method_refreshes = result["operations"][0]["refreshes"]
        if name == "compare":
            assert emitted["optimizer.refreshes"]["value"] > full_method_refreshes
        else:
            assert emitted["optimizer.refreshes"]["value"] == full_method_refreshes
        assert emitted["transport.sinkhorn_calls"]["value"] > 0
        assert emitted["trace.spans"]["value"] > 0
    else:
        assert emitted["wall_s"]["value"] > 0 and emitted["objective"]["value"] > 0


def test_jitter_is_seeded_and_seed_zero_is_the_fixture():
    config = workloads.ExperimentConfig(**workloads.SMALL_KWARGS)
    base = workloads.make_dataset(config, 0)
    a, b, c = (workloads.make_dataset(config, s) for s in (1, 1, 2))
    assert (a.X == b.X).all() and not (a.X == c.X).all()
    assert abs(a.X - base.X).max() <= workloads.JITTER * 10.0


def test_exits_nonzero_without_the_package(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    (tmp_path / "perfbench").mkdir()
    for p in HERE.glob("*.py"):
        (tmp_path / "perfbench" / p.name).write_text(p.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fixture", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
