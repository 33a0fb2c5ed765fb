"""Every subpackage imports cleanly as the first import of a process.

An import cycle only shows when its modules load in one particular
order, and inside a test session everything is already loaded.  So
each subpackage gets a fresh interpreter in which it is the first
``repro`` import.
"""

import pkgutil
import subprocess
import sys

import pytest

import repro

SUBPACKAGES = sorted(
    info.name for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)


def test_subpackages_found():
    assert {"analysis", "congest", "core", "service"} <= set(SUBPACKAGES)


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_imports_first(name, subprocess_env):
    completed = subprocess.run(
        [sys.executable, "-c", f"import repro.{name}"],
        capture_output=True,
        text=True,
        timeout=120,
        env=subprocess_env,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
