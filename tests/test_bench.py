"""The twin-throughput table: every row runs, every row's == check
bites, and the gate fails exactly what it should (on synthetic
timings — nothing here asserts on wall-clock time)."""

from __future__ import annotations

import copy
import dataclasses
import json

import pytest

from repro import bench
from repro.graphs.batch_csr import numpy_available
from repro.graphs.spanning_trees import SpanningTree


def _bump_messages(result):
    result = copy.copy(result)
    result.messages += 1
    return result


def _bump_congestion(report):
    return dataclasses.replace(report, congestion=report.congestion + 1)


def _drop_last_trial(outcome):
    return dataclasses.replace(outcome, trials=outcome.trials[:-1])


def _first(perturb):
    return lambda outputs: [perturb(outputs[0]), *outputs[1:]]


def _bump_rounds(result):
    return result._replace(rounds=result.rounds + 1)


# One realistic divergence per row, applied to the fast twin's output.
PERTURB = {
    "simulator engine": _bump_messages,
    "quality-kernel": _bump_congestion,
    "quality batch pool": _first(_bump_congestion),
    "construction": _drop_last_trial,
    "construction batch grid": _first(_bump_rounds),
    "application (MST)": lambda result: dataclasses.replace(
        result, phases=result.phases + 1
    ),
    "instance-pipeline": lambda instance: dataclasses.replace(
        instance, tree=SpanningTree.bfs(instance.topology, 1)
    ),
    "batch-kernel grid": _first(_bump_rounds),
    "batched doubling-ladder": _first(_drop_last_trial),
}

ROWS = [
    pytest.param(
        index,
        id=f"{row.experiment}:{row.layer}",
        marks=pytest.mark.skipif(
            row.fast == "vector" and not numpy_available(),
            reason="the vector strategy needs numpy",
        ),
    )
    for index, row in enumerate(bench.ROWS)
]


def _smallest(row: bench.TwinRow, run) -> bench.TwinRow:
    families = row.families
    return dataclasses.replace(
        row, families=lambda scale: families(scale)[:1], run=run
    )


@pytest.fixture(scope="module")
def recorded():
    """Each row measured once on its smallest family, outputs kept."""
    runs = {}

    def record(index):
        row, outputs = bench.ROWS[index], {}

        def run(twin, case):
            outputs[twin] = row.run(twin, case)
            return outputs[twin]

        return bench.measure(_smallest(row, run), repeats=1), outputs

    def get(index):
        if index not in runs:
            runs[index] = record(index)
        return runs[index]

    return get


def test_every_row_has_a_perturbation():
    assert {row.layer for row in bench.ROWS} == set(PERTURB)


@pytest.mark.parametrize("index", ROWS)
def test_row_runs_and_its_twins_agree(recorded, index):
    row = bench.ROWS[index]
    payload, outputs = recorded(index)
    (family,) = payload["families"]
    assert set(family["wall_s"]) == set(outputs) == {row.reference, row.fast}
    assert family["speedup"] is not None
    assert payload["anchor_speedup"] == family["speedup"]


@pytest.mark.parametrize("index", ROWS)
def test_perturbed_fast_twin_fails_the_check(recorded, index):
    row = bench.ROWS[index]
    _payload, outputs = recorded(index)

    def run(twin, _case):
        return PERTURB[row.layer](outputs[twin]) if twin == row.fast else outputs[twin]

    with pytest.raises(AssertionError):
        bench.measure(_smallest(row, run), repeats=1)


@pytest.fixture
def synthetic(monkeypatch):
    """Install one synthetic row; returns a setter for its wall times."""
    row = bench.TwinRow(
        "E99",
        "synthetic",
        "ref",
        "fast",
        families=lambda scale: [("small",), ("large",)],
        run=lambda twin, case: case[0],
        check=lambda case, outputs: None,
        describe=lambda case, output: {"n": 1},
        gates=bench._every_scale(bench.Gate(3.0, floor=0.8)),
    )
    walls = {}
    monkeypatch.setattr(bench, "ROWS", (row,))
    monkeypatch.setattr(bench, "EXPERIMENTS", ("E99",))
    monkeypatch.setattr(
        bench,
        "_best_of",
        lambda row, twin, case, repeats: (walls[case[0]][twin], case[0]),
    )

    def set_speedups(small, large):
        walls["small"] = {"ref": small, "fast": 1.0}
        walls["large"] = {"ref": large, "fast": 1.0}

    return set_speedups


def test_gate_passes_above_every_bar(synthetic):
    synthetic(small=1.0, large=3.0)
    assert bench.main(["E99", "--gate"]) == 0


def test_gate_fails_below_the_anchor_bound(synthetic):
    synthetic(small=2.0, large=2.9)
    assert bench.main(["E99", "--gate"]) == 1


def test_gate_fails_below_a_family_floor(synthetic):
    synthetic(small=0.8, large=10.0)
    assert bench.main(["E99", "--gate"]) == 1


def test_without_gate_misses_are_recorded_not_failed(synthetic, tmp_path):
    synthetic(small=0.5, large=1.0)
    out = tmp_path / "BENCH.json"
    assert bench.main(["E99", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["schema"] == bench.SCHEMA
    (row,) = record["rows"]
    assert row["anchor_speedup"] == 1.0
    assert len(row["gate"]["failures"]) == 2


def test_gate_fails_without_a_speedup():
    payload = {"anchor_speedup": None, "families": [{"family": "x", "speedup": None}]}
    assert bench.Gate(0.0).failures(payload) == [
        "no speedup to gate: the fast twin did not run"
    ]
