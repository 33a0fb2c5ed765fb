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


@pytest.mark.parametrize("name", [*SUBPACKAGES, "bench"])
def test_import_leaves_numeric_stack_unloaded(name, subprocess_env):
    # numpy/scipy load lazily, inside the kernels that need them: a
    # module-level import would add ~0.1 s to every process start,
    # including the service's.
    probe = (
        f"import sys, repro.{name}; "
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=120,
        env=subprocess_env,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip() == "[]"
