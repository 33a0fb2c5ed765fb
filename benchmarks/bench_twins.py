"""E14–E18, E22 — every fast twin timed against its reference twin.

One benchmark per twin-throughput experiment: it runs the experiment's
rows of :data:`repro.bench.ROWS` (the runner raises if a fast twin's
output differs from its reference twin's), prints the table, and
asserts each gated row's bars at the current scale, plus E17's
extension size.  The command-line twin of this module is
``python -m repro.bench``.
"""

import pytest
from conftest import run_experiment

from repro.analysis.experiments import ALL_EXPERIMENTS, E9_GRID_SIDES
from repro.bench import EXPERIMENTS
from repro.graphs.batch_csr import numpy_available


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_twin_throughput(benchmark, scale, experiment):
    result = run_experiment(benchmark, ALL_EXPERIMENTS[experiment], scale)
    rows = result.data["rows"]
    for row in rows:
        if row["gate"] is None:  # report-only
            continue
        if row["fast"] == "vector" and not numpy_available():
            assert row["anchor_speedup"] is None
            continue
        assert row["gate"]["failures"] == []
    if experiment == "E17":
        # The direct-only extension must reach >= 10x the same-scale E9 grid.
        e9_side = E9_GRID_SIDES["paper" if scale == "paper" else "small"]
        extension = [f["n"] for f in rows[0]["families"] if f["speedup"] is None]
        assert max(extension) >= 10 * e9_side**2
