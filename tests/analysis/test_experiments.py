"""Smoke tests for the experiment runners (full runs live in benchmarks/)."""

from repro.analysis.experiments import ALL_EXPERIMENTS, run_e01, run_e05


def test_registry_complete():
    # No experiment has the id E21; the others keep their numbers.
    assert set(ALL_EXPERIMENTS) == {f"E{i}" for i in range(1, 24)} - {"E21"}


def test_e01_bounds_hold():
    result = run_e01("small")
    assert all(ratio <= 1.0 for ratio in result.data["ratios"])
    assert result.table.rows


def test_e05_guarantees_hold():
    result = run_e05("small")
    assert result.data["all_ok"]


def test_render_contains_claim():
    result = run_e01("small")
    text = result.render()
    assert "E1" in text and "Lemma 1" in text
