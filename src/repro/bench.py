"""Twin-throughput table: every fast twin timed against its reference.

Each layer of the stack has a fast twin behind a selection axis whose
outputs must be ``==``-identical to its reference twin's (the
differential suites under ``tests/`` are the spec).  Each row of
:data:`ROWS` times the two twins on fixed workload families and
re-checks that equality on every family, so no speedup is ever taken
on a diverging fast path.  The experiments E14–E18 and E22 are
these rows; they check no claim of the paper.

One runner serves every row: the best-of-N wall time of each twin, the
row's equality check (raises :class:`AssertionError`), a per-family
speedup (reference wall / fast wall), and the *anchor* speedup — that
of the last family timed on both twins.  A row's :class:`Gate` holds
its pass bars per scale; rows without gates are report-only.

Command line::

    python -m repro.bench <E14|E15|E16|E17|E18|E22|all> \\
        --scale small|paper [--gate] [--out PATH]

prints each experiment's table, writes the ``repro.bench_twins.v1``
JSON with ``--out`` (schema in ``benchmarks/conftest.py``), and with
``--gate`` exits 1 when a gated row misses a bar.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.experiments import (
    app_families,
    construct_families,
    e22_grid,
    engine_families,
    instance_families,
    quality_families,
)
from repro.analysis.instances import clear_instance_cache, hydrate, reference_instance
from repro.analysis.tables import ExperimentResult, Table
from repro.apps.mst import kruskal_reference, minimum_spanning_tree
from repro.congest.randomness import mix
from repro.congest.simulator import Simulator
from repro.core import quality
from repro.core.batch import find_shortcut_doubling_batch, measure_batch
from repro.core.doubling import find_shortcut_doubling
from repro.core.existence import greedy_capped_shortcut
from repro.graphs.batch_csr import numpy_available
from repro.graphs.csr import adjacency_csr, tree_arrays
from repro.graphs.spanning_trees import SpanningTree

SCHEMA = "repro.bench_twins.v1"
SCALES = ("small", "paper")


@dataclass(frozen=True)
class Gate:
    """A row's pass bars at one scale.

    The anchor speedup must reach ``anchor`` and every family's speedup
    must exceed ``floor``.
    """

    anchor: float
    floor: float = 0.0

    def failures(self, payload: Dict) -> List[str]:
        """Every bar the measured row ``payload`` misses."""
        anchor = payload["anchor_speedup"]
        if anchor is None:  # no family timed both twins
            return ["no speedup to gate: the fast twin did not run"]
        failures = [
            f"{family['family']} speedup {family['speedup']:.2f}x "
            f"not above {self.floor}x"
            for family in payload["families"]
            if family["speedup"] is not None and family["speedup"] <= self.floor
        ]
        if anchor < self.anchor:
            failures.insert(0, f"anchor speedup {anchor:.2f}x below {self.anchor}x")
        return failures


@dataclass(frozen=True)
class TwinRow:
    """One fast twin timed against its reference twin.

    ``families(scale)`` lists the workload small → large as tuples
    whose first item is the family name; ``prepare`` turns one into the
    case both twins run on (untimed); ``run(twin, case)`` is the timed
    call; ``check(case, outputs)`` raises :class:`AssertionError` when
    the twins' outputs differ; ``describe(case, output)`` gives the
    family's table columns; ``twins(case)``, when set, names the twins
    that run on a case (both otherwise).  ``claim`` heads the
    experiment's table and is set on its first row.
    """

    experiment: str
    layer: str
    reference: str
    fast: str
    families: Callable[[str], Sequence[tuple]]
    run: Callable[[str, Any], Any]
    check: Callable[[Any, Dict[str, Any]], None]
    describe: Callable[[Any, Any], Dict[str, Any]]
    gates: Dict[str, Gate] = field(default_factory=dict)
    prepare: Callable[[tuple], Any] = lambda family: family
    twins: Optional[Callable[[Any], Tuple[str, ...]]] = None
    repeats: int = 3
    claim: str = ""
    notes: str = ""


def _every_scale(gate: Gate) -> Dict[str, Gate]:
    return {scale: gate for scale in SCALES}


def _strategies(_case) -> Tuple[str, ...]:
    """Batch strategies that can run: ``vector`` needs numpy."""
    return ("loop", "vector") if numpy_available() else ("loop",)


# Batch rows: at paper scale the vector strategy must win 3x; small
# instances are too tiny for that, but it must not collapse.
_BATCH_GATES = {"small": Gate(0.0, floor=0.5), "paper": Gate(3.0)}


def _diverged(fast, reference, parts: Dict[str, Callable[[Any], Any]]) -> List[str]:
    """Labels of the named parts on which two outputs differ."""
    return [label for label, part in parts.items() if part(fast) != part(reference)]


def _check_batch(workload: str):
    """Raise unless the loop and vector strategies' outputs are ``==``."""

    def check(_case, outputs) -> None:
        if "vector" not in outputs:
            return
        vector, loop = outputs["vector"], outputs["loop"]
        diverged = [index for index in range(len(loop)) if vector[index] != loop[index]]
        if diverged:
            raise AssertionError(
                f"batch strategies disagree on {workload} {diverged}: "
                f"vector={vector[diverged[0]]!r} but loop={loop[diverged[0]]!r}"
            )

    return check


def _sizes(topologies, partitions) -> Dict[str, int]:
    return {
        "n": sum(topology.n for topology in topologies),
        "m": sum(topology.m for topology in topologies),
        "parts": sum(partition.size for partition in partitions),
    }


def _worst(reports) -> Dict[str, int]:
    return {
        "congestion": max(report.congestion for report in reports),
        "dilation": max(report.dilation for report in reports),
    }


# ----------------------------------------------------------------------
# E14 — simulator engines
# ----------------------------------------------------------------------


def _simulate(engine: str, family):
    _name, topology, workload, seed = family
    return Simulator(topology, workload, seed=seed, engine=engine).run()


def _check_engines(family, outputs) -> None:
    reference, batched = outputs["reference"], outputs["batched"]
    if (reference.rounds, reference.messages) != (batched.rounds, batched.messages):
        raise AssertionError(
            f"engines disagree on {family[0]}: reference got "
            f"{reference!r} but batched got {batched!r}"
        )


def _describe_simulation(family, result) -> Dict[str, Any]:
    sizes = {"n": family[1].n, "m": family[1].m}
    return {**sizes, "rounds": result.rounds, "messages": result.messages}


# ----------------------------------------------------------------------
# E15 — quality kernels, and the same pool through the batch axis
# ----------------------------------------------------------------------


def _quality_case(family):
    """Build the family's shortcut centrally, so only measuring is timed."""
    name, topology, partition, cap = family
    tree = SpanningTree.bfs(topology, 0)
    shortcut, _unusable = greedy_capped_shortcut(tree, partition, cap)
    return name, topology, partition, shortcut


def _measure(twin: str, case):
    _name, topology, _partition, shortcut = case
    measure = quality.measure_reference if twin == "reference" else quality.measure
    return measure(shortcut, topology, with_dilation=True)


def _check_kernels(case, outputs) -> None:
    if outputs["fast"] != outputs["reference"]:
        raise AssertionError(
            f"quality kernels disagree on {case[0]}: fast="
            f"{outputs['fast']!r} but reference={outputs['reference']!r}"
        )


def _describe_quality(case, report) -> Dict[str, Any]:
    return {**_sizes([case[1]], [case[2]]), **_worst([report])}


def _quality_pool(scale: str):
    """Every E15 case as one pool: (name, topologies, partitions, shortcuts)."""
    cases = [_quality_case(family) for family in quality_families(scale)]
    _names, *pool = zip(*cases)
    return [(f"batch-pool[{len(cases)}]", *pool)]


def _measure_pool(strategy: str, pool):
    _name, topologies, _partitions, shortcuts = pool
    return measure_batch(shortcuts, topologies, batch=strategy)


def _describe_pool(pool, reports) -> Dict[str, Any]:
    return {**_sizes(pool[1], pool[2]), **_worst(reports)}


# ----------------------------------------------------------------------
# E16 — construction modes
# ----------------------------------------------------------------------


def _construct_case(family):
    name, topology, partition, seed = family
    return name, topology, partition, seed, SpanningTree.bfs(topology, 0)


def _construct(mode: str, case):
    _name, topology, partition, seed, tree = case
    return find_shortcut_doubling(topology, tree, partition, seed=seed, mode=mode)


_CONSTRUCTION_PARTS = {
    "trials": lambda outcome: [trial.signature for trial in outcome.trials],
    "edge_map": lambda outcome: outcome.result.shortcut.edge_map,
    "good_history": lambda outcome: outcome.result.good_history,
}


def _check_modes(case, outputs) -> None:
    simulate, direct = outputs["simulate"], outputs["direct"]
    diverged = _diverged(direct, simulate, _CONSTRUCTION_PARTS)
    if diverged:
        raise AssertionError(
            f"construction modes disagree on {case[0]} "
            f"({', '.join(diverged)} diverged): direct trials="
            f"{direct.trials!r} but simulate trials={simulate.trials!r}"
        )


def _describe_construction(case, outcome) -> Dict[str, Any]:
    return {
        **_sizes([case[1]], [case[2]]),
        "trials": len(outcome.trials),
        "iterations": outcome.result.iterations,
    }


# ----------------------------------------------------------------------
# E17 — application backends (the shortcut Borůvka MST)
# ----------------------------------------------------------------------


def _mst(backend: str, family):
    _name, topology, seed, _timed_in_both = family
    return minimum_spanning_tree(
        topology, params="doubling", seed=seed, backend=backend, construct_mode=backend
    )


def _mst_backends(family) -> Tuple[str, ...]:
    """Extension families run direct-only, checked against Kruskal."""
    return ("simulate", "direct") if family[3] else ("direct",)


_MST_PARTS = {
    "edges": lambda result: result.edges,
    "weight": lambda result: result.weight,
    "phases": lambda result: result.phases,
    "merges": lambda result: [record.merges for record in result.phase_records],
}


def _check_backends(family, outputs) -> None:
    name, topology = family[0], family[1]
    direct = outputs["direct"]
    if direct.weight != kruskal_reference(topology)[1]:
        raise AssertionError(f"direct MST inexact on {name}")
    if "simulate" in outputs:
        diverged = _diverged(direct, outputs["simulate"], _MST_PARTS)
        if diverged:
            raise AssertionError(f"backends disagree on {name}: {', '.join(diverged)}")


def _describe_mst(family, result) -> Dict[str, Any]:
    topology = family[1]
    return {"n": topology.n, "m": topology.m, "phases": result.phases}


# ----------------------------------------------------------------------
# E18 — instance pipelines
# ----------------------------------------------------------------------

# How often one instance is rebuilt across an experiment grid: the eXX
# runners hydrate each pool instance from several experiments (and every
# worker process re-ships it per task without the cache), so 3 rebuilds
# per process is a conservative lower bound.
E18_GRID_REPS = 3


def _build_instance(pipeline: str, family):
    """``E18_GRID_REPS`` reference rebuilds, or one cold :func:`hydrate`
    followed by cache hits."""
    spec = family[1]
    if pipeline == "reference":
        for _ in range(E18_GRID_REPS):
            instance = reference_instance(spec)
            adjacency_csr(instance.topology)
            tree_arrays(instance.tree)
            _labels = instance.partition.labels
        return instance
    clear_instance_cache()
    for _ in range(E18_GRID_REPS):
        instance = hydrate(spec)
    return instance


def _instance_parts(instance) -> Dict[str, Any]:
    topology, tree, partition = instance.topology, instance.tree, instance.partition
    nodes, edges = range(topology.n), sorted(topology.edges)
    return {
        "edges": (topology.n, edges),
        "adjacency": [topology.neighbors(v) for v in nodes],
        "weights": topology.is_weighted and [topology.weight(u, v) for u, v in edges],
        "tree parents": (tree.root, [tree.parent(v) for v in nodes]),
        "partition labels": partition and partition.labels,
    }


def _check_instances(family, outputs) -> None:
    fast, reference = (_instance_parts(outputs[twin]) for twin in ("fast", "reference"))
    diverged = [label for label in fast if fast[label] != reference[label]]
    if diverged:
        raise AssertionError(
            f"instance pipelines disagree on {family[0]}: {', '.join(diverged)}"
        )


def _describe_instance(_family, instance) -> Dict[str, Any]:
    return _sizes([instance.topology], [instance.partition])


# ----------------------------------------------------------------------
# E22 — the batched doubling ladder over a mixed-family sweep
# ----------------------------------------------------------------------


def _sweep(name: str, specs: Sequence):
    """A whole instance sweep as one family."""
    return [(f"{name}[{len(specs)}]", specs)]


def _hydrate_sweep(family):
    name, specs = family
    instances = [hydrate(spec) for spec in specs]
    return (
        name,
        [instance.topology for instance in instances],
        [instance.tree for instance in instances],
        [instance.partition for instance in instances],
    )


def _ladder(strategy: str, case):
    _name, topologies, trees, partitions = case
    seeds = [mix(22, index) for index in range(len(topologies))]
    return find_shortcut_doubling_batch(
        topologies, trees, partitions, seeds=seeds, mode="direct", batch=strategy
    )


def _same_ladder(loop, vector) -> bool:
    """Bit-for-bit equality of two DoublingResults (trials including
    the per-rung ledger-delta breakdown, endpoints, histories, edge
    maps, and full ledgers)."""
    return (
        loop.trials == vector.trials
        and loop.c == vector.c
        and loop.b == vector.b
        and loop.result.iterations == vector.result.iterations
        and loop.result.good_history == vector.result.good_history
        and loop.result.shortcut.subgraphs == vector.result.shortcut.subgraphs
        and loop.ledger == vector.ledger
    )


def _check_ladders(_case, outputs) -> None:
    if "vector" not in outputs:
        return
    loop, vector = outputs["loop"], outputs["vector"]
    diverged = [
        index
        for index in range(len(loop))
        if not _same_ladder(loop[index], vector[index])
    ]
    if diverged:
        raise AssertionError(
            f"ladder strategies disagree on instances {diverged}: loop trials "
            f"{loop[diverged[0]].trials!r} but vector {vector[diverged[0]].trials!r}"
        )


def _describe_ladder(case, outcomes) -> Dict[str, Any]:
    return {
        **_sizes(case[1], case[3]),
        "rungs": max(len(outcome.trials) for outcome in outcomes),
        "rounds": sum(outcome.ledger.total_rounds for outcome in outcomes),
    }


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------

ROWS: Tuple[TwinRow, ...] = (
    TwinRow(
        "E14", "simulator engine", "reference", "batched",
        families=engine_families, run=_simulate,
        check=_check_engines, describe=_describe_simulation,
        gates=_every_scale(Gate(3.0, floor=0.8)),
        claim="the batched engine outpaces the reference engine at identical semantics",
        notes="Workloads are engine-bound (trivial node compute); the last "
        "family is the largest message volume and anchors the speedup.",
    ),
    TwinRow(
        "E15", "quality-kernel", "reference", "fast",
        families=quality_families, prepare=_quality_case, run=_measure,
        check=_check_kernels, describe=_describe_quality,
        gates=_every_scale(Gate(3.0, floor=0.8)),
        claim="the flat-array quality kernels outpace the reference at "
        "identical reports",
        notes="Shortcuts are built centrally so the timing isolates quality "
        "measurement; the last family has the largest parts (heaviest "
        "dilation scan) and anchors the speedup.",
    ),
    TwinRow(
        "E15", "quality batch pool", "loop", "vector",
        families=_quality_pool, twins=_strategies, run=_measure_pool,
        check=_check_batch("the quality pool"), describe=_describe_pool,
        notes="The batch-pool row (report-only) times the whole pool through "
        "measure_batch: its wall columns hold the loop and vector "
        "strategies (vector needs the fast-math extra).",
    ),
    TwinRow(
        "E16", "construction", "simulate", "direct",
        families=construct_families, prepare=_construct_case, run=_construct,
        check=_check_modes, describe=_describe_construction,
        gates=_every_scale(Gate(5.0, floor=2.0)), repeats=2,
        claim="the direct construction kernels outpace the simulated pipeline "
        "at identical outputs",
        notes="Each cell runs the full parameter-oblivious doubling search; "
        "the last family is the costliest simulated pipeline and anchors "
        "the speedup.",
    ),
    TwinRow(
        "E17", "application (MST)", "simulate", "direct",
        families=app_families, twins=_mst_backends, run=_mst,
        check=_check_backends, describe=_describe_mst, repeats=2,
        gates=_every_scale(Gate(3.0, floor=2.0)),
        claim="the direct application backend outpaces the simulated stack "
        "at identical outputs",
        notes="Each cell runs the complete shortcut Borůvka MST; the last "
        "both-backend family anchors the speedup, and the extension rows "
        "are direct-only instances (≥ 10x the simulated E9 grid) validated "
        "against Kruskal.",
    ),
    TwinRow(
        "E18", "instance-pipeline", "reference", "fast",
        families=instance_families, run=_build_instance,
        check=_check_instances, describe=_describe_instance,
        gates=_every_scale(Gate(3.0, floor=0.8)),
        claim="the array-native instance pipeline outpaces the reference constructors",
        notes=f"Each cell builds one instance {E18_GRID_REPS} times, the reuse "
        "of one experiment grid: reference rebuilds against one cold "
        "hydrate plus cache hits.  The last family (largest grid, unique "
        "weights) anchors the speedup.",
    ),
    TwinRow(
        "E22", "batched doubling-ladder", "loop", "vector",
        families=lambda scale: _sweep("grid+torus+hub", e22_grid(scale)),
        prepare=_hydrate_sweep, twins=_strategies, run=_ladder,
        check=_check_ladders, describe=_describe_ladder,
        gates=_BATCH_GATES,
        claim="the doubling-construction ladder vectorizes across whole "
        "instance grids",
        notes="One whole-grid doubling search per strategy; vector climbs "
        "every instance's (c, b) ladder in lockstep rungs, compacting "
        "finished instances out of the batch.",
    ),
)

EXPERIMENTS: Tuple[str, ...] = tuple(dict.fromkeys(row.experiment for row in ROWS))


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------


def _best_of(row: TwinRow, twin: str, case, repeats: int):
    """Best-of-``repeats`` wall seconds of one twin on one case, and its output."""
    best, output = math.inf, None
    for _ in range(repeats):
        start = time.perf_counter()
        output = row.run(twin, case)
        best = min(best, time.perf_counter() - start)
    return best, output


def measure(row: TwinRow, scale: str = "small", repeats: Optional[int] = None) -> Dict:
    """Time ``row``'s twins on every family; raises if their outputs differ.

    Returns the row's entry of the ``repro.bench_twins.v1`` JSON, its
    gate verdict at ``scale`` included.
    """
    repeats = repeats or row.repeats
    families = []
    for family in row.families(scale):
        case = row.prepare(family)
        walls, outputs = {}, {}
        for twin in row.twins(case) if row.twins else (row.reference, row.fast):
            walls[twin], outputs[twin] = _best_of(row, twin, case, repeats)
        row.check(case, outputs)
        speedup = None
        if len(walls) == 2:
            fast = walls[row.fast]
            speedup = walls[row.reference] / fast if fast > 0 else math.inf
        output = outputs.get(row.fast, outputs.get(row.reference))
        columns = row.describe(case, output)
        families.append(
            {"family": case[0], **columns, "wall_s": walls, "speedup": speedup}
        )
    speedups = [f["speedup"] for f in families if f["speedup"] is not None]
    payload = {
        "experiment": row.experiment,
        "layer": row.layer,
        "reference": row.reference,
        "fast": row.fast,
        "repeats": repeats,
        "families": families,
        "anchor_speedup": speedups[-1] if speedups else None,
    }
    gate = row.gates.get(scale)
    payload["gate"] = gate and {**asdict(gate), "failures": gate.failures(payload)}
    return payload


def run_twins(
    experiment: str, scale: str = "small", repeats: Optional[int] = None
) -> ExperimentResult:
    """Measure every row of one experiment into one table."""
    rows = [row for row in ROWS if row.experiment == experiment]
    payloads = [measure(row, scale, repeats) for row in rows]
    families = [family for payload in payloads for family in payload["families"]]
    columns = list(dict.fromkeys(key for family in families for key in family))
    columns = [key for key in columns if key not in ("family", "wall_s", "speedup")]
    main = rows[0]
    table = Table(
        f"{experiment}: {main.layer} throughput "
        f"(best-of-{payloads[0]['repeats']} wall time)",
        ["family", *columns, f"{main.reference} s", f"{main.fast} s", "speedup"],
    )
    for payload in payloads:
        reference, fast = payload["reference"], payload["fast"]
        for family in payload["families"]:
            walls = [family["wall_s"].get(reference), family["wall_s"].get(fast)]
            table.add_row(
                family["family"],
                *(family.get(key, "-") for key in columns),
                *("-" if wall is None else f"{wall:.4f}" for wall in walls),
                "-" if family["speedup"] is None else family["speedup"],
            )
    data = {"schema": SCHEMA, "scale": scale, "rows": payloads}
    notes = " ".join(row.notes for row in rows)
    return ExperimentResult(experiment, main.claim, table, data=data, notes=notes)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__.splitlines()[0]
    )
    parser.add_argument("row", choices=[*EXPERIMENTS, "all"], help="experiment to run")
    parser.add_argument("--scale", default="small", choices=SCALES)
    parser.add_argument("--gate", action="store_true", help="exit 1 on a missed bar")
    parser.add_argument("--out", type=Path, help="write the JSON record here")
    args = parser.parse_args(argv)
    rows = []
    for experiment in EXPERIMENTS if args.row == "all" else (args.row,):
        result = run_twins(experiment, args.scale)
        print(result.render(), end="\n\n")
        for row in result.data["rows"]:
            rows.append(row)
            if row["gate"]:
                anchor = row["anchor_speedup"]
                verdict = "; ".join(row["gate"]["failures"]) or "every bar met"
                print(f"{experiment} {row['layer']} {anchor or 0:.2f}x: {verdict}")
        print()
    if args.out:
        record = {
            "schema": SCHEMA,
            "scale": args.scale,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "rows": rows,
        }
        args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    missed = any(row["gate"] and row["gate"]["failures"] for row in rows)
    return 1 if args.gate and missed else 0


if __name__ == "__main__":
    raise SystemExit(main())
