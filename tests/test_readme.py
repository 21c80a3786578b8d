"""README's "Library use" example runs as written, so a name it documents
cannot be removed without a failing test, and the solver counters README
states for the acceptance fixture are the fixture run's."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    assert out.getvalue().strip()


def test_solver_counters_match_the_fixture_run(fixture_arts):
    # a change to the solver's work has to restate these counts in README
    text = " ".join(README.read_text(encoding="utf-8").split())
    counts = re.search(r"On the acceptance fixture they read (\d+), (\d+), (\d+), (\d+) and (\d+)\.", text).groups()
    result = fixture_arts.result
    assert tuple(map(int, counts)) == (
        result.n_outer,
        result.n_u_trials,
        result.n_delta_trials,
        result.n_sinkhorn_calls,
        result.n_sinkhorn_iters,
    )
