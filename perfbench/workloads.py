"""The four benchmark workloads.

Each workload is a schedule of *cycles*; a cycle is a short, fixed list
of cold operations whose inputs derive from the run seed and the
cycle index only, so a run's first cycles (its *prefix*) are the same
work on every commit and in traced and untraced runs alike.  After
each cold operation the run loop in ``run.py`` issues ``warm_per_cold``
warm repeats of recent results.

Service workloads drive a real loopback HTTP server
(:func:`repro.service.server.serve`, two pool workers) through
:class:`repro.service.client.ServiceClient`; a warm repeat is the same
request again, answered from the server's store.  In-process workloads
call the library directly and commit each result to a
:class:`repro.service.store.PersistentStore` under its content
address; a warm repeat reads it back from disk.

Library entry points are called through their modules
(``batch.find_shortcut_doubling_batch``, ``reliable.run_reliably``, ...)
so the traced run's wrappers see the calls.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Set, Tuple

from repro.analysis import instances
from repro.analysis.instances import InstanceSpec, clear_instance_cache
from repro.congest import reliable
from repro.congest.faults import FaultPlan
from repro.congest.randomness import mix
from repro.congest.simulator import Simulator
from repro.congest.workloads import FloodAlgorithm
from repro.core import batch, doubling, quality
from repro.service import server
from repro.service.client import ServiceClient
from repro.service.store import PersistentStore, spec_key


@dataclass
class Item:
    """One answered cold result, kept for warm repeats and checks."""

    key: str
    payload: Dict
    rounds: int
    request: Tuple = ()


@dataclass
class Op:
    """One cold operation; ``call`` returns the items it answered."""

    label: str
    count: int
    call: Callable[[], List[Item]]


def fresh_seed(run_seed: int, index: int) -> int:
    """A per-operation seed, distinct for every index within a run."""
    return (run_seed << 20) + index


def _jsonable(value):
    return json.loads(json.dumps(value))


@dataclass
class Workload:
    """Shared plumbing: the store, setup/teardown, warm repeats."""

    # Every DISK_READ_EVERY-th warm repeat reads from disk.  In-process
    # workloads always do: their warm repeat stands for a later run
    # finding the result in the store.
    DISK_READ_EVERY = 1

    seed: int
    smoke: bool
    tracer: object
    prefix_cycles: int = 1
    warm_per_cold: int = 1
    mismatches: List[str] = field(default_factory=list)
    # (family, params, ...) per topology the workload runs on.
    families: List[Tuple] = field(default_factory=list)
    # Operation numbers (within the prefix) whose results are re-checked
    # after the timed window, and what was kept of them.
    sample_ops: Set[int] = field(default_factory=set)
    sampled: List = field(default_factory=list)

    def choose_samples(self, per_cycle: int, count: int) -> None:
        population = range(self.prefix_cycles * per_cycle)
        self.sample_ops = set(
            random.Random(self.seed).sample(population, min(count, len(population)))
        )

    def base_specs(self) -> List[InstanceSpec]:
        """The bare topologies (and BFS trees) setup hydrates."""
        return [InstanceSpec(family[0], family[1]) for family in self.families]

    # -- overridden per workload ---------------------------------------

    def cycle(self, index: int) -> List[Op]:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One small untimed operation through the workload's path."""
        raise NotImplementedError

    def check(self) -> None:
        """Correctness checks run after the timed window."""

    # -- setup ---------------------------------------------------------

    def setup(self, work_dir: Path) -> None:
        """Open the store, start any service, hydrate, warm up once."""
        self.work_dir = work_dir
        self.store = PersistentStore(work_dir / "store")
        self.start()
        clear_instance_cache()
        for spec in self.base_specs():
            instances.hydrate(spec)
        self.warm_up()

    def start(self) -> None:
        pass

    def teardown(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def service_counters(self) -> Dict[str, int]:
        return {}

    # -- warm path -----------------------------------------------------

    def forget(self, key: str) -> None:
        self.store.forget_memory(key)

    def restart(self) -> None:
        """Called once, after the prefix; only the service restarts."""

    def warm(self, item: Item) -> None:
        payload = self.store.get(item.key)
        if payload != item.payload:
            self.mismatches.append(f"warm read of {item.key[:12]} differs from its cold result")

    def commit(self, key: str, payload: Dict, rounds: int) -> Item:
        if not self.store.put(key, payload):
            raise RuntimeError(f"store put failed for {key[:12]}")
        return Item(key=key, payload=payload, rounds=rounds)


class ServiceWorkload(Workload):
    """Closed-loop HTTP client against an in-process service."""

    # One warm repeat in four reads from disk, the rest hit the server's
    # memory front.
    DISK_READ_EVERY = 4

    def start(self) -> None:
        self.handle = server.serve(self.store, workers=2)
        self.client = ServiceClient(self.handle.base_url, timeout_s=120.0)

    def teardown(self) -> None:
        self.handle.close()
        super().teardown()

    def forget(self, key: str) -> None:
        self.handle.service.store.forget_memory(key)

    def restart(self) -> None:
        # The restart path: drop the store's memory front, so warm
        # repeats of earlier keys read from disk.
        self.handle.service.store.forget_memory()

    def service_counters(self) -> Dict[str, int]:
        return dict(self.client.stats()["service"])

    def request(self, op: str, spec: InstanceSpec, seed: int) -> Item:
        response = self.client.request(op, spec, seed=seed)
        if response.warm:
            raise RuntimeError(f"cold {op} request was answered warm")
        return Item(
            key=response.key,
            payload=response.result,
            rounds=response.result["rounds"],
            request=(op, spec, seed),
        )

    def warm(self, item: Item) -> None:
        op, spec, seed = item.request
        response = self.client.request(op, spec, seed=seed)
        if not response.warm or response.result != item.payload:
            self.mismatches.append(f"warm {op} on {spec} differs from its cold twin")

    def op(self, number: int, op: str, spec: InstanceSpec, seed: int) -> Op:
        def call() -> List[Item]:
            item = self.request(op, spec, seed)
            if number in self.sample_ops:
                self.sampled.append(item)
            return [item]

        return Op(f"{op}/{spec.family}", 1, call)

    def check(self) -> None:
        """Sampled answers equal the library's, from reference twins."""
        for item in self.sampled:
            op, spec, seed = item.request
            params = dict(server.PARAM_DEFAULTS, seed=seed)
            expected = server.OPERATIONS[op](instances.reference_instance(spec), params)
            if _jsonable(expected) != item.payload:
                self.mismatches.append(f"service {op} on {spec} differs from the library")


class ConstructCold(ServiceWorkload):
    """Cold shortcut/quality requests at n ~ 4096 plus warm repeats."""

    def __init__(self, seed: int, smoke: bool, tracer) -> None:
        super().__init__(seed, smoke, tracer, prefix_cycles=1 if smoke else 5, warm_per_cold=3)
        if smoke:
            self.families = [("grid", (8, 8)), ("torus", (8, 8)), ("hub", (63, 4))]
            self.parts = 4
        else:
            self.families = [("grid", (64, 64)), ("torus", (64, 64)), ("hub", (4095, 8))]
            self.parts = 256
        self.choose_samples(len(self.families), 2)

    def warm_up(self) -> None:
        self.client.request(
            "quality", InstanceSpec("grid", (6, 6), partition=("voronoi", 3, 0)), seed=0
        )

    def cycle(self, index: int) -> List[Op]:
        ops = []
        for offset, (family, params) in enumerate(self.families):
            number = index * len(self.families) + offset
            seed = fresh_seed(self.seed, number)
            spec = InstanceSpec(family, params, partition=("voronoi", self.parts, seed))
            ops.append(self.op(number, "shortcut" if number % 2 == 0 else "quality", spec, seed))
        return ops


class AppsCold(ServiceWorkload):
    """Cold mst/connectivity/mincut requests at n ~ 256 plus warm repeats."""

    OPS = ("mst", "connectivity", "mincut")

    def __init__(self, seed: int, smoke: bool, tracer) -> None:
        super().__init__(seed, smoke, tracer, prefix_cycles=1 if smoke else 4, warm_per_cold=2)
        if smoke:
            self.families = [("grid", (4, 4)), ("torus", (4, 4)), ("hub", (15, 4))]
        else:
            self.families = [("grid", (16, 16)), ("torus", (16, 16)), ("hub", (255, 8))]
        self.choose_samples(len(self.families) * len(self.OPS), 2)

    def warm_up(self) -> None:
        self.client.request(
            "mst", InstanceSpec("grid", (3, 3), weights=("unique", 0)), seed=0
        )

    def cycle(self, index: int) -> List[Op]:
        combos = [(op, family) for op in self.OPS for family in self.families]
        random.Random(mix(self.seed, index)).shuffle(combos)
        ops = []
        for offset, (op, (family, params)) in enumerate(combos):
            number = index * len(combos) + offset
            seed = fresh_seed(self.seed, number)
            spec = InstanceSpec(family, params, weights=("unique", seed))
            # The fresh weights make every request a miss; the algorithm
            # seed stays the service default, as most callers leave it, so
            # connectivity and min-cut cost the same on every run.
            ops.append(self.op(number, op, spec, server.PARAM_DEFAULTS["seed"]))
        return ops


def _doubling_equal(a, b) -> bool:
    """Bit-for-bit equality of two DoublingResults."""
    return (
        a.trials == b.trials
        and a.c == b.c
        and a.b == b.b
        and a.result.iterations == b.result.iterations
        and a.result.good_history == b.result.good_history
        and a.result.shortcut.subgraphs == b.result.shortcut.subgraphs
        and a.ledger == b.ledger
    )


class SweepBatch(Workload):
    """In-process sweeps through the vector ladder and batched measure."""

    def __init__(self, seed: int, smoke: bool, tracer) -> None:
        super().__init__(seed, smoke, tracer, prefix_cycles=2 if smoke else 10, warm_per_cold=3)
        side, self.triples, self.parts = (6, 2, 3) if smoke else (40, 8, 8)
        self.families = [("grid", (side, side)), ("torus", (side, side)), ("hub", (12 * side, 8))]
        self.choose_samples(self.triples * len(self.families), 3)

    def specs(self, index: int) -> List[Tuple[int, InstanceSpec, int]]:
        out = []
        for triple in range(self.triples):
            for family, params in self.families:
                number = index * self.triples * len(self.families) + len(out)
                seed = fresh_seed(self.seed, number)
                out.append(
                    (number, InstanceSpec(family, params, partition=("voronoi", self.parts, seed)), seed)
                )
        return out

    def warm_up(self) -> None:
        self.sweep([(0, InstanceSpec("grid", (4, 4), partition=("voronoi", 2, 0)), 0)], keep=False)

    def cycle(self, index: int) -> List[Op]:
        specs = self.specs(index)
        return [Op("sweep", len(specs), lambda: self.sweep(specs))]

    def sweep(self, specs, keep: bool = True) -> List[Item]:
        hydrated = [instances.hydrate(spec) for _, spec, _ in specs]
        topologies = [instance.topology for instance in hydrated]
        outcomes = batch.find_shortcut_doubling_batch(
            topologies,
            [instance.tree for instance in hydrated],
            [instance.partition for instance in hydrated],
            seeds=[seed for _, _, seed in specs],
            mode="direct",
            batch="vector",
        )
        reports = batch.measure_batch(
            [outcome.result.shortcut for outcome in outcomes],
            topologies,
            with_dilation=False,
            batch="vector",
        )
        items = []
        for (number, spec, seed), outcome, report in zip(specs, outcomes, reports):
            payload = {
                "c": outcome.c,
                "b": outcome.b,
                "rounds": outcome.rounds,
                "trials": len(outcome.trials),
                "congestion": report.congestion,
                "block_parameter": report.block_parameter,
            }
            items.append(self.commit(spec_key("sweep", spec, seed=seed), payload, outcome.rounds))
            if keep and number in self.sample_ops:
                self.sampled.append((spec, seed, outcome, report))
        return items

    def check(self) -> None:
        for spec, seed, outcome, report in self.sampled:
            instance = instances.hydrate(spec)
            loop = doubling.find_shortcut_doubling(
                instance.topology, instance.tree, instance.partition, seed=seed, mode="direct"
            )
            expected = quality.measure(loop.result.shortcut, instance.topology, with_dilation=False)
            if not _doubling_equal(loop, outcome) or expected != report:
                self.mismatches.append(f"sweep instance {spec} differs from the per-instance loop")


class Simulate(Workload):
    """Simulated CONGEST constructions plus reliable flood cells."""

    CELLS_PER_FAMILY = 3
    DROP = 0.05

    def __init__(self, seed: int, smoke: bool, tracer) -> None:
        super().__init__(seed, smoke, tracer, prefix_cycles=1 if smoke else 10, warm_per_cold=1)
        # (family, params, parts): enough parts that the first doubling
        # trial succeeds, which keeps the per-seed cost steady.
        if smoke:
            self.families = [("grid", (4, 4), 3), ("torus", (4, 4), 3), ("hub", (15, 3), 3)]
        else:
            self.families = [("grid", (12, 12), 72), ("torus", (12, 12), 72), ("hub", (143, 6), 24)]


    def warm_up(self) -> None:
        self.construct(InstanceSpec("grid", (3, 3), partition=("voronoi", 2, 0)), 0, keep=False)
        self.cell(InstanceSpec("grid", (3, 3)), 0)

    def cycle(self, index: int) -> List[Op]:
        ops = []
        per_cycle = len(self.families) * (1 + self.CELLS_PER_FAMILY)
        for offset, (family, params, parts) in enumerate(self.families):
            base = index * per_cycle + offset * (1 + self.CELLS_PER_FAMILY)
            seed = fresh_seed(self.seed, base)
            spec = InstanceSpec(family, params, partition=("voronoi", parts, seed))
            ops.append(Op(f"construct/{family}", 1, lambda spec=spec, seed=seed: self.construct(spec, seed)))
            for cell in range(1, 1 + self.CELLS_PER_FAMILY):
                cell_seed = fresh_seed(self.seed, base + cell)
                ops.append(
                    Op(
                        f"cell/{family}",
                        1,
                        lambda family=family, params=params, cell_seed=cell_seed: self.cell(
                            InstanceSpec(family, params), cell_seed
                        ),
                    )
                )
        return ops

    def construct(self, spec: InstanceSpec, seed: int, keep: bool = True) -> List[Item]:
        instance = instances.hydrate(spec)
        outcome = doubling.find_shortcut_doubling(
            instance.topology, instance.tree, instance.partition, seed=seed, mode="simulate"
        )
        signatures = [list(trial.signature) for trial in outcome.trials]
        if keep:
            self.sampled.append((spec, seed, signatures))
        payload = {"c": outcome.c, "b": outcome.b, "rounds": outcome.rounds, "trials": signatures}
        return [self.commit(spec_key("simulate", spec, seed=seed), payload, outcome.rounds)]

    def cell(self, spec: InstanceSpec, seed: int) -> List[Item]:
        topology = instances.hydrate(spec).topology
        reference = Simulator(topology, FloodAlgorithm(rounds=5), seed=seed).run()
        recovered = reliable.run_reliably(
            topology,
            FloodAlgorithm(rounds=5),
            horizon=reference.rounds,
            seed=seed,
            faults=FaultPlan(seed=seed, p_drop=self.DROP),
            max_retries=12,
        )
        self.tracer.add("reliable.reference_messages", reference.messages)
        for v in topology.nodes:
            if vars(reference.states[v]) != vars(recovered.states[v]):
                self.mismatches.append(f"reliable cell {spec} seed={seed} diverged at node {v}")
                break
        payload = {
            "rounds": recovered.rounds,
            "messages": recovered.messages,
            "prods": recovered.prods,
            "reference_rounds": reference.rounds,
        }
        return [self.commit(spec_key("cell", spec, seed=seed), payload, recovered.rounds)]

    def check(self) -> None:
        for spec, seed, signatures in self.sampled:
            instance = instances.hydrate(spec)
            direct = doubling.find_shortcut_doubling(
                instance.topology, instance.tree, instance.partition, seed=seed, mode="direct"
            )
            if [list(trial.signature) for trial in direct.trials] != signatures:
                self.mismatches.append(f"simulated construction {spec} seed={seed} differs from direct")


WORKLOADS = {
    "construct-cold": ConstructCold,
    "apps-cold": AppsCold,
    "sweep-batch": SweepBatch,
    "simulate": Simulate,
}
