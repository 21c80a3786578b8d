"""The benchmark's tracer wraps package functions at the module attribute
where each caller looks them up (perfbench/tracing.py, `install`). A refactor
that renames or drops one of those attributes breaks the benchmark; this
test makes it fail here too.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        # install reads each attribute before wrapping it: a missing one raises
        tracing.install(tracer)
        patched = {(owner.__name__, attr) for owner, attr, _ in tracer._patched}
    finally:
        restored = tracer.restore()
    assert restored
    assert ("latent_align.cli", "evaluate_intervention") in patched
    assert ("latent_align.pipeline", "evaluate_intervention") in patched
    for mod in ("optimizer", "evaluation", "baselines"):
        assert (f"latent_align.{mod}", "nnls_project_rows") in patched
