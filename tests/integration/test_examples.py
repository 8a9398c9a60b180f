"""Smoke-run every example script.

The ``examples/*.py`` scripts are the documented workflows; an API change
that breaks one would otherwise only surface when someone ran it by hand.
Each script runs in a subprocess from a temporary working directory (so no
script may depend on the repository being the cwd) and must exit 0.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))
#: Examples that take several seconds (the cycle-level simulator).
SLOW_EXAMPLES = {"cycle_accurate_validation"}


def test_examples_are_discovered():
    assert len(EXAMPLES) >= 5
    assert any(path.name == "declarative_experiment.py" for path in EXAMPLES)


@pytest.mark.parametrize(
    "example",
    [
        pytest.param(path, marks=pytest.mark.slow) if path.stem in SLOW_EXAMPLES else path
        for path in EXAMPLES
    ],
    ids=lambda path: path.stem,
)
def test_example_runs(example, tmp_path):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["TMPDIR"] = str(tmp_path)  # scripts that save files do it under tempfile
    process = subprocess.run(
        [sys.executable, str(example)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert process.returncode == 0, (
        f"{example.name} exited {process.returncode}:\n{process.stdout}{process.stderr}"
    )
