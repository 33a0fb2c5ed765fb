"""Differential suite: batched failure sweeps vs the per-scenario loop.

The same licensing discipline as the batch construction kernels: every
``batch="vector"`` sweep — survivor derivation, degradation
measurement, repair-vs-rebuild — must reproduce the per-scenario loop
**bit-for-bit**, including error identity on invalid scenarios.
"""

import pytest

from repro.analysis.instances import InstanceSpec, hydrate
from repro.congest.topology import TopologyError
from repro.errors import ShortcutError  # noqa: F401 - parity with sibling suites
from repro.failures import (
    enumerate_kwise,
    intact_baseline,
    sample_bernoulli,
    sample_srlg,
    scenarios_batch,
    srlg_groups,
    survivors_batch,
)
from repro.failures.scenarios import FailureScenario
from repro.graphs.batch_csr import numpy_available

pytestmark = pytest.mark.skipif(
    not numpy_available(),
    reason="batched sweeps need the fast-math extra (numpy)",
)

FAMILIES = [
    (InstanceSpec("grid", (6, 6), partition=("voronoi", 6, 1)),
     "grid", {"rows": 6, "cols": 6}),
    (InstanceSpec("torus", (6, 6), partition=("voronoi", 6, 2)),
     "torus", {"rows": 6, "cols": 6}),
    (InstanceSpec("hub", (48, 8), partition=("arcs", 48, 8, 1)),
     "hub", {"n_cycle": 48, "spoke_every": 8}),
]


def _scenario_grid(topology, family, params):
    groups = srlg_groups(topology, family, **params)
    return (
        enumerate_kwise(topology, 1, limit=2, seed=19)
        + enumerate_kwise(topology, 2, limit=2, seed=20)
        + sample_bernoulli(topology, 2, min(0.25, 1.5 / topology.m), seed=21)
        + sample_srlg(
            topology, groups, 2, min(0.5, 1.0 / max(1, len(groups))), seed=22
        )
    )


@pytest.fixture(scope="module", params=range(len(FAMILIES)), ids=lambda i: FAMILIES[i][1])
def family(request):
    spec, name, params = FAMILIES[request.param]
    instance = hydrate(spec)
    # Distinct weights so weighted survivors must carry them exactly.
    topology = instance.topology.with_weights(
        {e: (i * 7919) % 97 + 1 for i, e in enumerate(instance.topology.edges)}
    )
    scenarios = _scenario_grid(topology, name, params)
    return topology, instance.partition, scenarios


def test_survivors_identical(family):
    topology, _partition, scenarios = family
    loop = survivors_batch(topology, scenarios, batch="loop")
    vector = survivors_batch(topology, scenarios, batch="vector")
    assert len(loop) == len(vector) == len(scenarios)
    for reference, batched in zip(loop, vector):
        assert batched.n == reference.n
        assert batched.edges == reference.edges
        assert [batched.weight(*e) for e in batched.edges] == [
            reference.weight(*e) for e in reference.edges
        ]


def test_survivors_empty_scenario_identical(family):
    topology, _partition, _scenarios = family
    nothing = FailureScenario(edges=(), kind="kwise", label="k0")
    loop = survivors_batch(topology, [nothing], batch="loop")
    vector = survivors_batch(topology, [nothing], batch="vector")
    assert vector[0].edges == loop[0].edges == topology.edges


def test_survivors_non_edge_error_identical(family):
    topology, _partition, _scenarios = family
    bogus = FailureScenario(
        edges=((0, topology.n + 5),), kind="kwise", label="bogus"
    )
    with pytest.raises(TopologyError) as loop_error:
        survivors_batch(topology, [bogus], batch="loop")
    with pytest.raises(TopologyError) as vector_error:
        survivors_batch(topology, [bogus], batch="vector")
    assert str(vector_error.value) == str(loop_error.value)


def test_scenario_sweep_records_identical(family):
    topology, partition, scenarios = family
    baseline = intact_baseline(topology, partition, seed=5, mode="direct")
    loop = scenarios_batch(
        topology, partition, scenarios, baseline,
        seed=5, mode="direct", batch="loop",
    )
    vector = scenarios_batch(
        topology, partition, scenarios, baseline,
        seed=5, mode="direct", batch="vector",
    )
    assert vector == loop
    # Disconnected survivors are first-class rows in both paths.
    if any(not record.connected for record in loop):
        assert [r.connected for r in vector] == [r.connected for r in loop]


def test_scenario_sweep_without_dilation_identical(family):
    topology, partition, scenarios = family
    baseline = intact_baseline(topology, partition, seed=5, mode="direct")
    loop = scenarios_batch(
        topology, partition, scenarios[:4], baseline,
        seed=5, mode="direct", with_dilation=False, batch="loop",
    )
    vector = scenarios_batch(
        topology, partition, scenarios[:4], baseline,
        seed=5, mode="direct", with_dilation=False, batch="vector",
    )
    assert vector == loop

