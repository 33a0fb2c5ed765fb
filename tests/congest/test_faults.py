"""Seeded fault injection: determinism, engine independence, crashes.

The load-bearing property of :mod:`repro.congest.faults` is that every
fault decision is a pure function of ``(plan.seed, round, sender,
receiver, copy)`` — never of engine internals or arrival order.  These
tests pin that down: identical faulty runs across repeats and across
inner engines, fault-free plans that change nothing, crash-stop
schedules that halt nodes and count their dropped traffic, and the
``faults=`` axis plumbing.
"""

import pytest

from repro.congest.faults import (
    FaultPlan,
    faults_parameter,
    get_default_faults,
    using_faults,
)
from repro.congest.simulator import Simulator
from repro.congest.workloads import (
    AlarmStormAlgorithm,
    FloodAlgorithm,
    NeighborScanAlgorithm,
    TokenWalkAlgorithm,
)
from repro.errors import SimulationError
from repro.graphs import generators

LOSSY = FaultPlan(
    seed=7, p_drop=0.1, p_duplicate=0.05, p_delay=0.05, p_reorder=0.2
)


def _states(result):
    return {v: vars(s) for v, s in result.states.items()}


# ----------------------------------------------------------------------
# FaultPlan: validation, coins, derivation
# ----------------------------------------------------------------------


def test_plan_rejects_bad_probabilities():
    with pytest.raises(SimulationError):
        FaultPlan(p_drop=1.5)
    with pytest.raises(SimulationError):
        FaultPlan(p_delay=-0.1)
    with pytest.raises(SimulationError):
        FaultPlan(max_delay=-1)


def test_plan_coins_are_deterministic_and_seed_sensitive():
    plan = FaultPlan(seed=3, p_drop=0.5, p_delay=0.5)
    other = plan.reseed(4)
    grid = [
        (r, s, t) for r in range(6) for s in range(4) for t in range(4)
    ]
    first = [(plan.drops(*c), plan.delay(*c)) for c in grid]
    second = [(plan.drops(*c), plan.delay(*c)) for c in grid]
    assert first == second
    assert first != [(other.drops(*c), other.delay(*c)) for c in grid]


def test_plan_delay_respects_max_delay():
    plan = FaultPlan(seed=1, p_delay=1.0, max_delay=2)
    lags = {
        plan.delay(r, s, t)
        for r in range(8)
        for s in range(4)
        for t in range(4)
    }
    assert lags <= {1, 2} and lags


def test_plan_crashes_canonicalised_and_described():
    plan = FaultPlan(seed=2, crashes=((5, 3), (1, 2)), p_drop=0.25)
    assert plan.crashes == ((1, 2), (5, 3))
    assert plan.crash_round(5) == 3
    assert plan.crash_round(0) is None
    assert "drop=0.25" in plan.describe()
    assert "crashes=2" in plan.describe()
    assert "reliable" in plan.with_reliable().describe()


def test_with_reliable_round_trips():
    plan = FaultPlan(seed=9, p_drop=0.1)
    assert not plan.reliable
    assert plan.with_reliable().reliable
    assert not plan.with_reliable().with_reliable(False).reliable


# ----------------------------------------------------------------------
# FaultyEngine: clean plans change nothing, faulty runs are engine-free
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: FloodAlgorithm(rounds=4),
        lambda: NeighborScanAlgorithm(rounds=4),
        lambda: TokenWalkAlgorithm(steps=12),
    ],
)
def test_zero_probability_plan_matches_clean_run(make):
    topology = generators.grid(4, 4)
    clean = Simulator(topology, make(), seed=5).run()
    faulted = Simulator(topology, make(), seed=5, faults=FaultPlan(seed=5)).run()
    assert faulted.rounds == clean.rounds
    assert faulted.messages == clean.messages
    assert _states(faulted) == _states(clean)


@pytest.mark.parametrize(
    "make",
    [
        lambda: FloodAlgorithm(rounds=4),
        lambda: TokenWalkAlgorithm(steps=10),
        lambda: AlarmStormAlgorithm(period=3, ticks=3),
    ],
)
def test_faulty_run_identical_across_inner_engines(make):
    topology = generators.cycle_with_hub(20, 4)
    outcomes = {}
    for inner in ("reference", "batched"):
        result = Simulator(
            topology, make(), seed=11, faults=LOSSY, engine=inner
        ).run()
        outcomes[inner] = result
    ref, bat = outcomes["reference"], outcomes["batched"]
    assert ref.rounds == bat.rounds
    assert ref.messages == bat.messages
    assert _states(ref) == _states(bat)


def test_faulty_run_is_reproducible_and_counts_faults():
    topology = generators.grid(5, 5)
    runs = [
        Simulator(
            topology, FloodAlgorithm(rounds=5), seed=3, faults=LOSSY
        )
        for _ in range(2)
    ]
    results = [sim.run() for sim in runs]
    assert _states(results[0]) == _states(results[1])
    stats = runs[0].fault_stats
    assert stats.as_dict() == runs[1].fault_stats.as_dict()
    assert stats.dropped > 0
    assert stats.duplicated > 0
    assert stats.delivered > 0


def test_crash_stop_halts_node_and_counts_dropped_traffic():
    topology = generators.grid(4, 4)
    plan = FaultPlan(seed=1, crashes=((5, 2),))
    sim = Simulator(topology, FloodAlgorithm(rounds=6), seed=2, faults=plan)
    result = sim.run()
    assert sim.fault_stats.crashed_nodes == 1
    # Neighbors keep flooding at the dead node: its traffic is dropped
    # and counted, both in the engine total and the crash-specific
    # counter.
    assert sim.fault_stats.dropped_to_crashed > 0
    assert result.dropped_to_halted >= sim.fault_stats.dropped_to_crashed
    clean = Simulator(topology, FloodAlgorithm(rounds=6), seed=2).run()
    assert result.states[5].seen < clean.states[5].seen


# ----------------------------------------------------------------------
# The faults= axis
# ----------------------------------------------------------------------


def test_faults_axis_reaches_nested_simulations():
    topology = generators.grid(4, 4)
    clean = Simulator(topology, FloodAlgorithm(rounds=4), seed=1).run()
    with using_faults(FaultPlan(seed=1, p_drop=0.3)):
        faulted = Simulator(topology, FloodAlgorithm(rounds=4), seed=1).run()
    assert _states(faulted) != _states(clean)


def test_faults_parameter_decorator():
    topology = generators.grid(3, 3)

    @faults_parameter
    def run(seed):
        return Simulator(topology, FloodAlgorithm(rounds=3), seed=seed).run()

    clean = run(4)
    faulted = run(4, faults=FaultPlan(seed=4, p_drop=0.4))
    assert _states(faulted) != _states(clean)
    assert get_default_faults() is None


def test_from_scenario_promotes_edge_failures_to_crashes():
    from repro.failures.scenarios import FailureScenario

    scenario = FailureScenario(
        edges=((0, 1), (5, 6)), kind="kwise", label="k2"
    )
    plan = FaultPlan.from_scenario(scenario, seed=4, horizon=6, p_drop=0.1)
    twin = FaultPlan.from_scenario(scenario, seed=4, horizon=6, p_drop=0.1)
    assert plan == twin  # seeded derivation is deterministic
    assert plan.crashes  # a non-empty scenario always crashes someone
    incident = {0, 1, 5, 6}
    for node, round_ in plan.crashes:
        assert node in incident
        assert 1 <= round_ <= 6
    assert plan.p_drop == 0.1  # transport kwargs pass through
    assert plan != FaultPlan.from_scenario(scenario, seed=5, horizon=6)
