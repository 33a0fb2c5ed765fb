"""Smoke tests: every shipped example must run end to end."""

import pathlib
import subprocess
import sys

import pytest

_REPO = pathlib.Path(__file__).resolve().parents[2]
EXAMPLES = sorted((_REPO / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_runs(script, subprocess_env):
    completed = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
        env=subprocess_env,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip(), "examples must print their findings"


def test_expected_examples_present():
    names = {p.stem for p in EXAMPLES}
    assert {
        "quickstart",
        "mst_on_torus",
        "worst_case_hub",
        "unknown_parameters",
        "visualize_blocks",
    } <= names
