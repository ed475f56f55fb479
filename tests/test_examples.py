"""Every runnable walkthrough under ``examples/`` runs to the end.

Each script asserts its own story (a caught bug, a kill matrix, a
blocked DELETE) and exits non-zero when an assertion fails, so running
them in a fresh interpreter is a smoke test of the public API they
teach.  Deprecation warnings are errors: an example must teach the
current API, not a deprecated one.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs_to_the_end(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [entry for entry in
                               [env.get("PYTHONPATH")] if entry])
    result = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", str(script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, (result.stdout[-2000:]
                                    + result.stderr[-2000:])
