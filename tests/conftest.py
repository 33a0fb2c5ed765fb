"""Shared fixtures: small instances used across the test suite."""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict

import pytest

from repro.congest.topology import Topology
from repro.graphs import generators, partitions
from repro.graphs.spanning_trees import SpanningTree

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def subprocess_env() -> Dict[str, str]:
    """Environment for a child interpreter that imports ``repro``.

    A child does not inherit pytest's ``pythonpath`` ini setting, so
    the src layout goes on ``PYTHONPATH`` explicitly.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.fixture
def path9() -> Topology:
    return generators.path(9)


@pytest.fixture
def grid6() -> Topology:
    return generators.grid(6, 6)


@pytest.fixture
def grid6_tree(grid6) -> SpanningTree:
    return SpanningTree.bfs(grid6, 0)


@pytest.fixture
def grid6_rows(grid6) -> partitions.Partition:
    return partitions.grid_rows(6, 6)


@pytest.fixture
def grid6_voronoi(grid6) -> partitions.Partition:
    return partitions.voronoi(grid6, 6, seed=3)


@pytest.fixture
def torus5() -> Topology:
    return generators.torus(5, 5)


@pytest.fixture
def hub_instance():
    topology = generators.cycle_with_hub(64, 8)
    partition = partitions.cycle_arcs(64, 8, extra_nodes=1)
    return topology, partition
