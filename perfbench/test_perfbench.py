"""Self-test: every workload in --smoke mode, untraced and traced.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in DECLARED["workloads"]]


def run(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "7", "--seconds", "0",
            "--trace", str(trace), "--smoke", "--detail",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload):
    untraced = run(workload, 0)
    traced = run(workload, 1)
    for result, declared in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        names = [metric["name"] for metric in DECLARED[declared]]
        assert sorted(result["metrics"]) == sorted(names)
        for metric in DECLARED[declared]:
            reported = result["metrics"][metric["name"]]
            assert reported["unit"] == metric["unit"]
            assert isinstance(reported["value"], (int, float))
    for name, reported in untraced["metrics"].items():
        assert reported["value"] > 0, name
    rounds = untraced["metrics"]["rounds_total"]["value"]
    assert rounds == untraced["detail"]["rounds_total"]
    assert rounds == traced["detail"]["rounds_total"]


def test_refuses_to_run_without_library_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    completed = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
            "--seed", "0", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
