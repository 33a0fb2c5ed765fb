"""Experiment runners: one per quantitative claim of the paper.

The paper is a theory paper — its "evaluation" is the set of theorems
and lemmas indexed in ``EXPERIMENTS.md``.  Each ``run_eXX`` function
below regenerates the corresponding table: it builds the workload, runs
the relevant distributed algorithms on the CONGEST simulator, and
reports *measured vs claimed* quantities.  Benchmarks in
``benchmarks/`` wrap these runners; ``EXPERIMENTS.md`` records their
output.

Scale: ``"small"`` keeps every runner in seconds (CI-sized), ``"paper"``
uses larger instances for the record in EXPERIMENTS.md.

Runners whose instance grids are embarrassingly parallel (E1, E4–E7)
fan their cells out through
:func:`repro.analysis.parallel.parallel_map`: set ``REPRO_JOBS=auto``
(or an explicit worker count) to use multiple processes.  Every task
carries its own seed, and results merge in task order, so the tables
are identical at any worker count.  The
module-level ``_eXX_task`` functions exist because worker payloads
must be picklable.
"""

from __future__ import annotations

import math
import random
import tempfile
import time
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.instances import (
    InstanceSpec,
    clear_instance_cache,
    hydrate,
)
from repro.analysis.metrics import bound_ratio, fraction, loglog_slope
from repro.analysis.parallel import parallel_map, resolve_jobs
from repro.analysis.tables import ExperimentResult, Table
from repro.apps.fragment_comm import fragment_aggregate
from repro.apps.mst import kruskal_reference, minimum_spanning_tree
from repro.apps.mst_baselines import (
    mst_collect_at_root,
    mst_kutten_peleg,
    mst_no_shortcut,
)
from repro.congest.randomness import mix
from repro.congest.simulator import Simulator
from repro.core.construct_fast import construct_mode_parameter, get_default_mode
from repro.core.partwise_fast import backend_parameter, get_default_backend
from repro.congest.topology import Topology
from repro.congest.trace import RoundLedger
from repro.congest.workloads import (
    AlarmStormAlgorithm,
    FloodAlgorithm,
    NeighborScanAlgorithm,
)
from repro.core import quality, quality_fast
from repro.graphs.batch_csr import numpy_available as batch_numpy_available
from repro.core.core_fast import core_fast, sampling_parameters
from repro.core.core_slow import core_slow
from repro.core.doubling import find_shortcut_doubling
from repro.core.existence import best_certified, genus_bound
from repro.core.find_shortcut import find_shortcut
from repro.core.partwise import PartwiseEngine
from repro.core.tree_routing import (
    convergecast,
    make_task,
    task_edge_congestion,
)
from repro.core.verification import verification
from repro.failures.batch_sweep import scenarios_batch
from repro.failures.degradation import Baseline, measure_degradation
from repro.failures.repair import (
    assert_valid,
    rebuild_shortcut,
    repair_shortcut,
)
from repro.failures.scenarios import (
    enumerate_kwise,
    sample_bernoulli,
    sample_srlg,
    srlg_groups,
)
from repro.graphs import generators, partitions
from repro.graphs.hard_instances import square_instance
from repro.graphs.spanning_trees import SpanningTree
from repro.graphs.weights import hub_adversarial_weights, weighted
from repro.service.client import spec_to_json
from repro.service.server import PARAM_DEFAULTS, ShortcutService
from repro.service.store import PersistentStore, spec_key


def _log2(x: float) -> float:
    return math.log2(max(2.0, x))


def standard_instance_specs(scale: str) -> List[Tuple[str, InstanceSpec]]:
    """Content-addressed specs of the shared instance pool.

    The pool itself (planar, genus-1, hub worst case, Delaunay) is
    unchanged; specs are what parallel task payloads ship to workers —
    see :mod:`repro.analysis.instances`.
    """
    big = scale == "paper"
    side = 14 if big else 9
    hub_n = 16 * side
    return [
        (
            "grid/voronoi",
            InstanceSpec("grid", (side, side), partition=("voronoi", side, 1)),
        ),
        (
            "grid/rows",
            InstanceSpec("grid", (side, side), partition=("rows", side, side)),
        ),
        (
            "torus/voronoi",
            InstanceSpec("torus", (side, side), partition=("voronoi", side, 2)),
        ),
        (
            "hub/arcs",
            InstanceSpec("hub", (hub_n, 8), partition=("arcs", hub_n, 8, 1)),
        ),
        (
            "delaunay/voronoi",
            InstanceSpec(
                "delaunay", (side * side, 3), partition=("voronoi", side, 3)
            ),
        ),
    ]


def standard_instances(scale: str) -> List[Tuple[str, Topology, "partitions.Partition"]]:
    """The shared instance pool: planar, genus-1, and hub worst case.

    Hydrated through the per-process instance cache, so repeated
    callers (and every experiment in a ``run_all``) share one set of
    built structures.
    """
    return [
        (name, instance.topology, instance.partition)
        for name, instance in (
            (name, hydrate(spec)) for name, spec in standard_instance_specs(scale)
        )
    ]


# ----------------------------------------------------------------------
# E1 — Lemma 1: dilation <= b (2 depth(T) + 1)
# ----------------------------------------------------------------------


def _e01_task(task):
    name, spec = task
    instance = hydrate(spec)
    topology, tree, partition = instance.topology, instance.tree, instance.partition
    point = best_certified(tree, partition)
    result = find_shortcut(
        topology, tree, partition, point.congestion, point.block, seed=11
    )
    report = quality.measure(result.shortcut, topology, with_dilation=True)
    bound = quality.lemma1_bound(report.block_parameter, tree.height)
    ratio = bound_ratio(report.dilation, bound)
    return (name, tree.height, report.block_parameter, report.dilation, bound, ratio)


def run_e01(scale: str = "small") -> ExperimentResult:
    table = Table(
        "E1 (Lemma 1): dilation of constructed shortcuts vs b(2D+1)",
        ["instance", "D", "b", "dilation", "bound", "ratio"],
    )
    rows = parallel_map(_e01_task, standard_instance_specs(scale))
    ratios = []
    for row in rows:
        ratios.append(row[-1])
        table.add_row(*row)
    return ExperimentResult(
        "E1",
        "dilation <= b(2D+1) for every constructed shortcut",
        table,
        data={"ratios": ratios},
        notes="All ratios must be <= 1: Lemma 1 is a worst-case bound.",
    )


# ----------------------------------------------------------------------
# E2 — Lemma 2: subtree convergecast in <= D + c rounds
# ----------------------------------------------------------------------


def run_e02(scale: str = "small") -> ExperimentResult:
    table = Table(
        "E2 (Lemma 2): pipelined convergecast rounds vs D + c",
        ["instance", "tasks", "D", "c", "rounds", "D+c", "ratio"],
    )
    side = 16 if scale == "paper" else 10
    topology = generators.grid(side, side)
    tree = SpanningTree.bfs(topology, 0)
    rng = random.Random(7)
    ratios = []
    for n_tasks in (4, 16, 48, 96):
        tasks = []
        for tid in range(n_tasks):
            v = rng.randrange(topology.n)
            nodes = {v} | set(tree.ancestors(v))
            tasks.append(make_task(tree, tid, nodes))
        c = task_edge_congestion(tree, tasks)
        values = {t.key: {v: v for v in t.nodes} for t in tasks}
        combined, run = convergecast(topology, tree, tasks, values, "min", seed=3)
        for t in tasks:
            assert combined[t.key] == min(t.nodes)
        bound = tree.height + c
        ratio = bound_ratio(run.rounds, bound)
        ratios.append(ratio)
        table.add_row(
            f"grid{side}x{side}", n_tasks, tree.height, c, run.rounds, bound, ratio
        )
    return ExperimentResult(
        "E2",
        "subtree-family convergecast completes within D + c rounds",
        table,
        data={"ratios": ratios},
        notes="Root-path task families; the deterministic priority rule "
        "of Lemma 2 keeps every ratio <= 1 (up to the +O(1) start-up).",
    )


# ----------------------------------------------------------------------
# E3 — Theorem 2: part-parallel routing in O(b (D + c))
# ----------------------------------------------------------------------


def run_e03(scale: str = "small") -> ExperimentResult:
    table = Table(
        "E3 (Theorem 2): leader election rounds vs b(D + c)",
        ["instance", "D", "c", "b", "rounds", "4b(D+c)", "ratio", "correct"],
    )
    ratios = []
    for name, topology, partition in standard_instances(scale):
        tree = SpanningTree.bfs(topology, 0)
        point = best_certified(tree, partition)
        built = find_shortcut(
            topology, tree, partition, point.congestion, point.block, seed=13
        )
        report = quality.measure(built.shortcut, topology, with_dilation=False)
        ledger = RoundLedger()
        engine = PartwiseEngine(topology, built.shortcut, seed=5, ledger=ledger)
        b_bound = max(1, report.block_parameter)
        leaders, knowledge = engine.elect_leaders(b_bound)
        correct = all(
            leaders[i] == min(partition.members(i))
            for i in range(partition.size)
        )
        c = report.shortcut_congestion
        bound = 4 * b_bound * (tree.height + max(1, c))
        ratio = bound_ratio(ledger.total_rounds, bound)
        ratios.append(ratio)
        table.add_row(
            name, tree.height, c, b_bound,
            ledger.total_rounds, bound, ratio, correct,
        )
    return ExperimentResult(
        "E3",
        "leader election for all parts in parallel in O(b(D+c)) rounds",
        table,
        data={"ratios": ratios},
        notes="One superstep costs <= 2(D+c)+1; election runs b+1 "
        "supersteps, so 4b(D+c) normalises the constant.",
    )


# ----------------------------------------------------------------------
# E4 — Lemmas 3/6: Verification in O(b'(D + c)), exact answers
# ----------------------------------------------------------------------


def _e04_task(task):
    name, spec = task
    instance = hydrate(spec)
    topology, tree, partition = instance.topology, instance.tree, instance.partition
    rows = []
    ratios = []
    all_exact = True
    point = best_certified(tree, partition)
    outcome = core_slow(topology, tree, partition, point.congestion, seed=17)
    report = quality.measure(outcome.shortcut, topology, with_dilation=False)
    truth = quality_fast.block_counts(outcome.shortcut)
    for b_limit in {1, max(1, report.block_parameter)}:
        ledger = RoundLedger()
        verdict = verification(
            topology, outcome.shortcut, b_limit, seed=19, ledger=ledger
        )
        expected = frozenset(i for i, count in enumerate(truth) if count <= b_limit)
        exact = verdict.good_parts == expected
        all_exact = all_exact and exact
        c = max(1, report.shortcut_congestion)
        bound = 14 * b_limit * (tree.height + c)
        ratio = bound_ratio(ledger.total_rounds, bound)
        ratios.append(ratio)
        rows.append((name, b_limit, ledger.total_rounds, bound, ratio, exact))
    return rows, ratios, all_exact


def run_e04(scale: str = "small") -> ExperimentResult:
    table = Table(
        "E4 (Lemma 3/6): Verification rounds and exactness",
        ["instance", "b_limit", "rounds", "14 b'(D+c)", "ratio", "exact"],
    )
    outcomes = parallel_map(_e04_task, standard_instance_specs(scale))
    ratios = []
    all_exact = True
    for rows, task_ratios, task_exact in outcomes:
        ratios.extend(task_ratios)
        all_exact = all_exact and task_exact
        for row in rows:
            table.add_row(*row)
    return ExperimentResult(
        "E4",
        "Verification finds exactly the parts with <= b' blocks, in O(b'(D+c))",
        table,
        data={"ratios": ratios, "all_exact": all_exact},
        notes="The protocol uses ~4 b' supersteps (flood, BFS, count, "
        "verdict) of <= 2(D+c)+1 rounds plus constant overhead.",
    )


# ----------------------------------------------------------------------
# E5 — Lemma 7: CoreSlow guarantees
# ----------------------------------------------------------------------


def _e05_task(task):
    name, spec = task
    instance = hydrate(spec)
    topology, tree, partition = instance.topology, instance.tree, instance.partition
    point = best_certified(tree, partition)
    c, b = point.congestion, point.block
    outcome = core_slow(topology, tree, partition, c, seed=23)
    report = quality.measure(outcome.shortcut, topology, with_dilation=False)
    counts = quality_fast.block_counts(outcome.shortcut)
    good = sum(1 for count in counts if count <= 3 * b)
    congestion_ok = report.shortcut_congestion <= 2 * c
    good_ok = good >= partition.size / 2
    bound = 3 * tree.height * (2 * c + 2)
    ratio = bound_ratio(outcome.rounds, bound)
    row = (
        name, c, report.shortcut_congestion, congestion_ok,
        good, partition.size, good_ok, outcome.rounds, bound, ratio,
    )
    return row, ratio, congestion_ok and good_ok


def run_e05(scale: str = "small") -> ExperimentResult:
    table = Table(
        "E5 (Lemma 7): CoreSlow congestion <= 2c, >= N/2 good parts, O(Dc) rounds",
        ["instance", "c", "congestion", "<=2c", "good", "N", ">=N/2", "rounds", "3D(2c+2)", "ratio"],
    )
    outcomes = parallel_map(_e05_task, standard_instance_specs(scale))
    ratios = []
    all_ok = True
    for row, ratio, ok in outcomes:
        ratios.append(ratio)
        all_ok = all_ok and ok
        table.add_row(*row)
    return ExperimentResult(
        "E5",
        "CoreSlow: congestion <= 2c and >= N/2 good parts, O(D c) rounds",
        table,
        data={"ratios": ratios, "all_ok": all_ok},
    )


# ----------------------------------------------------------------------
# E6 — Lemma 5: CoreFast guarantees (w.h.p., over seeds)
# ----------------------------------------------------------------------


def _e06_task(task):
    """One instance × one seed chunk.

    The payload carries only the compact :class:`InstanceSpec`; each
    worker hydrates it through its per-process cache, so the instance
    is built (via the array fast paths) once per worker rather than
    pickled once per chunk."""
    spec, c, b, seed_chunk = task
    instance = hydrate(spec)
    topology, tree, partition = instance.topology, instance.tree, instance.partition
    triples = []
    for seed in seed_chunk:
        outcome = core_fast(
            topology, tree, partition, c, shared_seed=mix(97, seed), seed=seed
        )
        report = quality.measure(outcome.shortcut, topology, with_dilation=False)
        counts = quality_fast.block_counts(outcome.shortcut)
        good = sum(1 for count in counts if count <= 3 * b)
        triples.append((report.shortcut_congestion, good, outcome.rounds))
    return triples


def run_e06(scale: str = "small", seeds: Optional[Sequence[int]] = None) -> ExperimentResult:
    if seeds is None:
        seeds = range(10 if scale == "small" else 25)
    seeds = list(seeds)
    table = Table(
        "E6 (Lemma 5): CoreFast over seeds: congestion <= 8c, >= N/2 good",
        ["instance", "c", "tau", "max congestion", "<=8c rate", ">=N/2 rate", "max rounds"],
    )
    # Enough chunks per instance to saturate the workers, few enough
    # that each instance payload is pickled O(jobs) times, not once
    # per seed.  Chunk boundaries never affect the merged output.
    n_chunks = min(resolve_jobs(), len(seeds)) or 1
    chunk_size = math.ceil(len(seeds) / n_chunks)
    seed_chunks = [
        seeds[i : i + chunk_size] for i in range(0, len(seeds), chunk_size)
    ]
    instance_info = []
    tasks = []
    for name, spec in standard_instance_specs(scale):
        instance = hydrate(spec)
        point = best_certified(instance.tree, instance.partition)
        c, b = point.congestion, point.block
        _p, tau = sampling_parameters(instance.topology.n, c)
        instance_info.append((name, c, tau, instance.partition.size))
        tasks.extend((spec, c, b, chunk) for chunk in seed_chunks)
    results = parallel_map(_e06_task, tasks)
    per_seed = [triple for task_triples in results for triple in task_triples]
    rates = []
    for index, (name, c, tau, n_parts) in enumerate(instance_info):
        chunk = per_seed[index * len(seeds) : (index + 1) * len(seeds)]
        congestion_hits = sum(1 for sc, _good, _r in chunk if sc <= 8 * c)
        good_hits = sum(1 for _sc, good, _r in chunk if good >= n_parts / 2)
        max_congestion = max(sc for sc, _good, _r in chunk)
        max_rounds = max(rounds for _sc, _good, rounds in chunk)
        c_rate = fraction(congestion_hits, len(seeds))
        g_rate = fraction(good_hits, len(seeds))
        rates.append((c_rate, g_rate))
        table.add_row(name, c, tau, max_congestion, c_rate, g_rate, max_rounds)
    return ExperimentResult(
        "E6",
        "CoreFast: congestion <= 8c w.h.p. and >= N/2 good parts",
        table,
        data={"rates": rates},
        notes="Rates are success fractions over independent shared seeds.",
    )


# ----------------------------------------------------------------------
# E7 — Theorem 3: FindShortcut quality and round scaling
# ----------------------------------------------------------------------


def _e07_task(task):
    side, mode = task
    spec = InstanceSpec("grid", (side, side), partition=("voronoi", side, 4))
    instance = hydrate(spec)
    topology, tree, partition = instance.topology, instance.tree, instance.partition
    point = best_certified(tree, partition)
    result = find_shortcut(
        topology, tree, partition, point.congestion, point.block,
        seed=29, mode=mode,
    )
    report = quality.measure(result.shortcut, topology, with_dilation=False)
    return (
        topology.n, partition.size, point.congestion, point.block,
        result.iterations, result.rounds,
        report.shortcut_congestion, report.block_parameter,
    )


@construct_mode_parameter
def run_e07(scale: str = "small") -> ExperimentResult:
    mode = get_default_mode()
    table = Table(
        f"E7 (Theorem 3): FindShortcut on grids of growing size (mode={mode})",
        ["n", "N", "c", "b", "iters", "ceil(log2 N)+1", "congestion", "c*8*iters", "block", "3b", "rounds"],
    )
    sides = (6, 9, 12, 16) if scale == "small" else (8, 12, 16, 22, 28)
    if mode == "direct":
        # Simulation-free construction reaches grid sizes the simulated
        # pipeline cannot touch; the differential suite licenses the
        # outputs as bit-for-bit identical.
        sides = sides + ((20,) if scale == "small" else (40, 56, 80))
    outcomes = parallel_map(_e07_task, [(side, mode) for side in sides])
    iteration_ok = True
    quality_ok = True
    ns, rounds_list = [], []
    for n, n_parts, c, b, iterations, rounds, built_congestion, built_block in outcomes:
        iter_bound = math.ceil(_log2(n_parts)) + 1
        iteration_ok = iteration_ok and iterations <= iter_bound + 2
        quality_ok = quality_ok and built_block <= 3 * b
        ns.append(n)
        rounds_list.append(rounds)
        table.add_row(
            n, n_parts, c, b,
            iterations, iter_bound,
            built_congestion, 8 * c * iterations,
            built_block, 3 * b, rounds,
        )
    return ExperimentResult(
        "E7",
        "FindShortcut: O(log N) iterations, congestion O(c log N), block <= 3b",
        table,
        data={
            "iteration_ok": iteration_ok,
            "quality_ok": quality_ok,
            "ns": ns,
            "rounds": rounds_list,
            "construct_mode": mode,
        },
        notes=(
            "In direct mode the rounds column is the analytic ledger "
            "(exact core phases, Lemma 3 bound for verification); the "
            "combinatorial outputs are bit-for-bit the simulated ones."
            if mode == "direct"
            else ""
        ),
    )


# ----------------------------------------------------------------------
# E8 — Theorem 1 + Corollary 1: genus sweep
# ----------------------------------------------------------------------


def run_e08(scale: str = "small") -> ExperimentResult:
    table = Table(
        "E8 (Cor. 1): construction on genus-g chains with Theorem 1 parameters",
        ["g", "n", "D", "c=gDlogD", "b=logD", "iters", "congestion", "block", "rounds", "rounds/gDlog2DlogN"],
    )
    side = 5 if scale == "small" else 7
    ratios = []
    for g in (0, 1, 2, 3):
        topology = generators.genus_chain(g, side, side)
        partition = partitions.voronoi(topology, max(2, topology.n // 12), 5)
        tree = SpanningTree.bfs(topology, 0)
        c, b = genus_bound(g, tree.height)
        result = find_shortcut(topology, tree, partition, c, b, seed=31)
        report = quality.measure(result.shortcut, topology, with_dilation=False)
        denom = (
            max(1, g) * tree.height * _log2(tree.height) ** 2
            * _log2(partition.size)
        )
        ratio = result.rounds / denom
        ratios.append(ratio)
        table.add_row(
            g, topology.n, tree.height, c, b, result.iterations,
            report.shortcut_congestion, report.block_parameter,
            result.rounds, ratio,
        )
    return ExperimentResult(
        "E8",
        "genus-g graphs admit O(gD logD logN)-congestion shortcuts, built in O(gD log^2 D logN)",
        table,
        data={"ratios": ratios},
        notes="The rounds/bound column stays bounded as g grows — the "
        "construction never needed an embedding.",
    )


# ----------------------------------------------------------------------
# E9 — Lemma 4: MST rounds on bounded-genus graphs
# ----------------------------------------------------------------------

# Side of the simulated E9 grid per scale; E17's extension families are
# gated against >= 10x this instance (the E17 row of repro.bench).
E9_GRID_SIDES = {"small": 7, "paper": 10}


@backend_parameter
@construct_mode_parameter
def run_e09(scale: str = "small") -> ExperimentResult:
    backend = get_default_backend()
    mode = get_default_mode()
    table = Table(
        f"E9 (Lemma 4): shortcut Boruvka MST (params=genus, backend={backend})",
        ["instance", "n", "D", "phases", "O(log n)?", "rounds", "constr r", "agg r", "exact"],
    )
    side = E9_GRID_SIDES["paper" if scale == "paper" else "small"]
    if scale == "paper":
        cases = [("grid", generators.grid(side, side), 0), ("torus", generators.torus(8, 8), 1)]
    else:
        cases = [("grid", generators.grid(side, side), 0), ("torus", generators.torus(6, 6), 1)]
    if backend == "direct" and mode == "direct":
        # The simulation-free stack reaches instances an order of
        # magnitude past the simulated grid; outputs stay bit-for-bit
        # licensed by tests/apps/test_app_equivalence.py.
        if scale == "paper":
            cases += [
                ("grid-large", generators.grid(32, 32), 0),
                ("torus-large", generators.torus(24, 24), 1),
            ]
        else:
            cases += [
                ("grid-large", generators.grid(14, 14), 0),
                ("torus-large", generators.torus(12, 12), 1),
            ]
    all_exact = True
    for name, base, g in cases:
        topology = weighted(base, seed=41)
        result = minimum_spanning_tree(topology, params="genus", genus=g, seed=43)
        _edges, ref_weight = kruskal_reference(topology)
        exact = result.weight == ref_weight
        all_exact = all_exact and exact
        phase_bound = 8 * math.ceil(_log2(topology.n)) + 8
        table.add_row(
            name, topology.n, topology.diameter(), result.phases,
            result.phases <= phase_bound, result.rounds,
            sum(r.construct_rounds for r in result.phase_records),
            sum(r.aggregate_rounds for r in result.phase_records),
            exact,
        )
    return ExperimentResult(
        "E9",
        "MST on genus-g graphs in O(gD log^2 D log^2 n) rounds, exact output",
        table,
        data={"all_exact": all_exact, "backend": backend, "construct_mode": mode},
        notes="The constr/agg columns split each run's ledger into "
        "shortcut-construction rounds vs Theorem 2 aggregation and "
        "broadcast rounds (summed over Borůvka phases).",
    )


# ----------------------------------------------------------------------
# E10 — baselines and the crossover
# ----------------------------------------------------------------------


@backend_parameter
@construct_mode_parameter
def run_e10(scale: str = "small") -> ExperimentResult:
    """Round growth of shortcut MST vs baselines as n grows at fixed D.

    On the planar hub family the diameter stays ~O(spoke distance)
    while n grows, so the asymptotics — and not the polylog constants —
    decide the ranking: no-shortcut Borůvka pays component diameters
    (slope ~1), Kutten–Peleg pays ~sqrt(n) (slope ~0.5), and the
    shortcut MST pays polylog (slope ~0).  The Peleg–Rubinovich row
    shows the regime where the Ω̃(√n) lower bound bites everyone.

    With the direct backend + construction kernels the grid extends an
    order of magnitude into the √n-lower-bound regime; the
    pipelined-upcast baselines (kutten-peleg, collect) have no direct
    twin, so the extended rows time only the fully-direct algorithms.
    """
    backend = get_default_backend()
    table = Table(
        f"E10: round growth on the hub family (fixed D) + the lower-bound graph (backend={backend})",
        ["instance", "n", "D", "shortcut", "constr r", "agg r", "kutten-peleg", "no-shortcut", "collect"],
    )
    sizes = (96, 192, 384) if scale == "small" else (128, 256, 512, 1024)
    extended = ()
    if backend == "direct" and get_default_mode() == "direct":
        extended = (768,) if scale == "small" else (2048, 4096)
    ns, shortcut_rounds, kp_rounds, plain_rounds = [], [], [], []
    for hub_n in sizes + extended:
        topology = hub_adversarial_weights(
            generators.cycle_with_hub(hub_n, 8), hub_n, seed=47
        )
        shortcut_result = minimum_spanning_tree(topology, params="doubling", seed=59)
        plain = mst_no_shortcut(topology, seed=59)
        _edges, ref = kruskal_reference(topology)
        baseline_rows: List[object] = []
        if hub_n in sizes:
            kp = mst_kutten_peleg(topology, seed=59)
            collect = mst_collect_at_root(topology, seed=59)
            for result in (shortcut_result, kp, plain, collect):
                assert result.weight == ref
            kp_rounds.append(kp.rounds)
            baseline_rows = [kp.rounds, plain.rounds, collect.rounds]
        else:
            for result in (shortcut_result, plain):
                assert result.weight == ref
            baseline_rows = ["—", plain.rounds, "—"]
        ns.append(topology.n)
        shortcut_rounds.append(shortcut_result.rounds)
        plain_rounds.append(plain.rounds)
        table.add_row(
            f"hub({hub_n})", topology.n, topology.diameter(),
            shortcut_result.rounds,
            sum(r.construct_rounds for r in shortcut_result.phase_records),
            sum(r.aggregate_rounds for r in shortcut_result.phase_records),
            *baseline_rows,
        )
    pr = weighted(square_instance(7 if scale == "small" else 10).topology, seed=53)
    pr_shortcut = minimum_spanning_tree(pr, params="doubling", seed=59)
    pr_kp = mst_kutten_peleg(pr, seed=59)
    pr_plain = mst_no_shortcut(pr, seed=59)
    pr_collect = mst_collect_at_root(pr, seed=59)
    _edges, pr_ref = kruskal_reference(pr)
    for result in (pr_shortcut, pr_kp, pr_plain, pr_collect):
        assert result.weight == pr_ref
    table.add_row(
        "peleg-rubinovich", pr.n, pr.diameter(),
        pr_shortcut.rounds,
        sum(r.construct_rounds for r in pr_shortcut.phase_records),
        sum(r.aggregate_rounds for r in pr_shortcut.phase_records),
        pr_kp.rounds, pr_plain.rounds, pr_collect.rounds,
    )
    slopes = {
        "shortcut": loglog_slope(ns, shortcut_rounds),
        "kutten_peleg": loglog_slope(ns[: len(kp_rounds)], kp_rounds),
        "no_shortcut": loglog_slope(ns, plain_rounds),
    }
    return ExperimentResult(
        "E10",
        "Shortcuts win asymptotically on low-diameter planar topologies; "
        "on the lower-bound family nobody beats ~sqrt(n)",
        table,
        data={
            "ns": ns,
            "shortcut": shortcut_rounds,
            "kutten_peleg": kp_rounds,
            "no_shortcut": plain_rounds,
            "slopes": slopes,
        },
        notes=(
            f"log-log growth slopes vs n at fixed D — shortcut: "
            f"{slopes['shortcut']:.2f}, kutten-peleg: "
            f"{slopes['kutten_peleg']:.2f}, no-shortcut: "
            f"{slopes['no_shortcut']:.2f}.  The ordering (shortcut "
            f"flattest, no-shortcut steepest) is the paper's claim; at "
            f"small n the polylog constants still favour the baselines."
        ),
    )


# ----------------------------------------------------------------------
# E11 — Appendix A: doubling without parameter knowledge
# ----------------------------------------------------------------------


@construct_mode_parameter
def run_e11(scale: str = "small") -> ExperimentResult:
    mode = get_default_mode()
    table = Table(
        f"E11 (Appendix A): doubling search vs known parameters (mode={mode})",
        ["instance", "trials", "iters", "final c", "final b", "congestion", "block", "rounds", "known-rounds"],
    )
    found_better = False
    # Direct mode runs the full instance pool; the simulated search is
    # kept to the three cheapest so the table regenerates in seconds.
    pool = standard_instances(scale)
    if mode != "direct":
        pool = pool[:3]
    for name, topology, partition in pool:
        tree = SpanningTree.bfs(topology, 0)
        outcome = find_shortcut_doubling(topology, tree, partition, seed=61)
        report = quality.measure(outcome.result.shortcut, topology, with_dilation=False)
        point = best_certified(tree, partition)
        known = find_shortcut(
            topology, tree, partition, point.congestion, point.block, seed=61
        )
        if report.shortcut_congestion < quality.shortcut_congestion(known.shortcut):
            found_better = True
        consumed = sum(trial.iterations for trial in outcome.trials)
        table.add_row(
            name, len(outcome.trials), consumed, outcome.c, outcome.b,
            report.shortcut_congestion, report.block_parameter,
            outcome.rounds, known.rounds,
        )
    return ExperimentResult(
        "E11",
        "doubling removes the (b, c) knowledge requirement at ~log(bc) extra cost",
        table,
        data={"found_better": found_better, "construct_mode": mode},
        notes="As Appendix A remarks, the search can return far better "
        "shortcuts than the worst-case parameters.  Failed trials "
        "warm-start their successor (frozen parts carry forward); the "
        "iters column counts the iterations consumed across all trials.",
    )


# ----------------------------------------------------------------------
# E12 — CoreSlow vs CoreFast trade-off
# ----------------------------------------------------------------------


@construct_mode_parameter
def run_e12(scale: str = "small") -> ExperimentResult:
    mode = get_default_mode()
    table = Table(
        f"E12 (Sec. 5.3 vs 5.4): rounds of CoreSlow (O(Dc)) vs CoreFast (O(Dlogn + c)) (mode={mode})",
        ["c", "slow rounds", "fast rounds", "fast/slow"],
    )
    # The direct kernels report the exact simulated round counts, so
    # the trade-off curve extends to grids and caps the simulator
    # cannot sweep in reasonable time.
    if mode == "direct":
        side = 16 if scale == "small" else 40
        c_grid = (1, 2, 4, 8, 16, 32, 64, 128)
    else:
        side = 12 if scale == "small" else 18
        c_grid = (1, 2, 4, 8, 16, 32)
    topology = generators.grid(side, side)
    tree = SpanningTree.bfs(topology, 0)
    partition = partitions.grid_rows(side, side)
    cs, slows, fasts = [], [], []
    for c in c_grid:
        slow = core_slow(topology, tree, partition, c, seed=67)
        fast = core_fast(topology, tree, partition, c, shared_seed=71, seed=67)
        cs.append(c)
        slows.append(slow.rounds)
        fasts.append(fast.rounds)
        table.add_row(c, slow.rounds, fast.rounds, fast.rounds / slow.rounds)
    # CoreSlow saturates once the cap stops binding (2c >= #parts):
    # rounds plateau at the unconstrained streaming cost, so the growth
    # exponent is measured over the linear regime only (minus the first
    # point, which carries the constant start-up overhead).
    linear = [(c, r) for c, r in zip(cs, slows) if 2 * c < partition.size]
    tail = linear[1:] if len(linear) > 2 else linear
    slope_slow = loglog_slope([c for c, _ in tail], [r for _, r in tail])
    return ExperimentResult(
        "E12",
        "CoreSlow grows linearly in c; CoreFast stays ~flat until c dominates",
        table,
        data={
            "cs": cs,
            "slow": slows,
            "fast": fasts,
            "slope_slow": slope_slow,
            "construct_mode": mode,
        },
        notes=f"log-log slope of CoreSlow rounds vs c (linear regime, "
        f"2c < N): {slope_slow:.2f} (~1 expected); past 2c >= N the cap "
        "never binds and the curve plateaus.",
    )


# ----------------------------------------------------------------------
# E13 — the motivation: part diameter >> D
# ----------------------------------------------------------------------


@backend_parameter
@construct_mode_parameter
def run_e13(scale: str = "small") -> ExperimentResult:
    backend = get_default_backend()
    table = Table(
        f"E13 (Sec. 1.2): aggregation rounds, intra-part vs shortcut (backend={backend})",
        ["n_cycle", "D", "max part diam", "no-shortcut rounds", "shortcut rounds", "speedup"],
    )
    sizes = (128, 256, 512) if scale == "small" else (256, 512, 1024)
    if backend == "direct" and get_default_mode() == "direct":
        sizes = sizes + ((1024, 2048) if scale == "small" else (2048, 4096, 8192))
    speedups = []
    diam_ratio = []
    for n_cycle in sizes:
        topology = generators.cycle_with_hub(n_cycle, 8)
        partition = partitions.cycle_arcs(n_cycle, 8, extra_nodes=1)
        labels = {
            v: partition.part_of(v) for v in topology.nodes
        }
        values = {v: v for v in topology.nodes if labels[v] is not None}
        ledger_plain = RoundLedger()
        plain = fragment_aggregate(
            topology, labels, values, "min", seed=73, ledger=ledger_plain
        )
        tree = SpanningTree.bfs(topology, n_cycle)  # root at the hub
        outcome = find_shortcut_doubling(topology, tree, partition, seed=73)
        ledger_fast = RoundLedger()
        engine = PartwiseEngine(
            topology, outcome.result.shortcut, seed=73, ledger=ledger_fast
        )
        fast = engine.minimum_per_part(values, 3 * outcome.result.b)
        for i in range(partition.size):
            expect = min(partition.members(i))
            for v in partition.members(i):
                assert plain[v] == expect and fast[v] == expect
        d = topology.diameter()
        max_diam = max(partition.part_diameters(topology))
        speedup = ledger_plain.total_rounds and (
            ledger_plain.total_rounds / max(1, ledger_fast.total_rounds)
        )
        speedups.append(speedup)
        diam_ratio.append(max_diam / d)
        table.add_row(
            n_cycle, d, max_diam,
            ledger_plain.total_rounds, ledger_fast.total_rounds, speedup,
        )
    return ExperimentResult(
        "E13",
        "intra-part aggregation pays part diameter >> D; shortcuts pay ~D",
        table,
        data={"speedups": speedups, "diam_ratio": diam_ratio},
        notes="The hub graph has D = O(1) while arcs have diameter "
        "Theta(n/8); the speedup grows linearly with n.",
    )


# ----------------------------------------------------------------------
# E14–E18, E22 — twin-throughput workloads
# ----------------------------------------------------------------------
#
# These experiments check no claim of the paper: they are the rows of
# repro.bench, which time each fast twin against its reference twin on
# the family builders below.


def engine_families(scale: str) -> List[Tuple[str, Topology, "NodeAlgorithm", int]]:
    """Benchmark families: (name, topology, workload, seed), small→large.

    Each workload is engine-bound (trivial per-node compute, heavy
    traffic) so the measured wall time is the simulator's own overhead,
    not the algorithm's.  The list is ordered by message volume; the
    last entry anchors the row's speedup.
    """
    big = scale == "paper"
    side = 40 if big else 24
    rounds = 60 if big else 30
    grid = generators.grid(side, side)
    torus = generators.torus(side // 2, side // 2)
    hub = generators.cycle_with_hub(16 * side, 8)
    return [
        ("alarm-storm/grid", grid, AlarmStormAlgorithm(50, 6), 3),
        ("token+scan/hub", hub, NeighborScanAlgorithm(rounds), 5),
        ("scan/torus", torus, NeighborScanAlgorithm(2 * rounds), 7),
        ("flood/grid", grid, FloodAlgorithm(2 * rounds), 11),
    ]


def quality_families(scale: str) -> List[Tuple[str, Topology, "partitions.Partition", int]]:
    """Benchmark families for the quality kernels, small→large.

    Each entry is ``(name, topology, partition, congestion_cap)``; the
    shortcut under measurement is built *centrally* with
    ``greedy_capped_shortcut`` so the timed work is measuring quality,
    not constructing shortcuts.  Ordered by ``measure()`` cost; the
    last entry (largest parts, heaviest all-pairs dilation) anchors the
    row's speedup.
    """
    big = scale == "paper"
    side = 36 if big else 22
    half = side // 2
    grid_small = generators.grid(half, half)
    torus = generators.torus(half, half)
    hub_n = 16 * half
    hub = generators.cycle_with_hub(hub_n, 8)
    grid_large = generators.grid(side, side)
    return [
        ("hub/arcs", hub, partitions.cycle_arcs(hub_n, 8, extra_nodes=1), 2),
        ("grid/voronoi", grid_small, partitions.voronoi(grid_small, half, 1), 2),
        ("torus/voronoi", torus, partitions.voronoi(torus, 6, 2), 2),
        ("grid-large/voronoi", grid_large, partitions.voronoi(grid_large, 8, 3), 3),
    ]


def construct_families(scale: str) -> List[Tuple[str, Topology, "partitions.Partition", int]]:
    """Benchmark families for the construction stack, small→large.

    Each entry is ``(name, topology, partition, seed)``; E16 runs the
    full parameter-oblivious doubling search (share randomness →
    CoreFast ⟲ Verification → freeze, warm-started doubling) on every
    family in both modes.  Ordered by simulate-mode cost; the last
    entry anchors the row's speedup.
    """
    big = scale == "paper"
    side_a = 12 if big else 10
    side_b = 10 if big else 8
    hub_n = 384 if big else 160
    side_c = 20 if big else 14
    grid_small = generators.grid(side_a, side_a)
    torus = generators.torus(side_b, side_b)
    hub = generators.cycle_with_hub(hub_n, 8)
    grid_large = generators.grid(side_c, side_c)
    return [
        ("grid/voronoi", grid_small, partitions.voronoi(grid_small, side_a, 1), 43),
        ("torus/voronoi", torus, partitions.voronoi(torus, side_b, 2), 47),
        ("hub/arcs", hub, partitions.cycle_arcs(hub_n, 8, extra_nodes=1), 53),
        ("grid-large/voronoi", grid_large, partitions.voronoi(grid_large, side_c, 3), 59),
    ]


def app_families(scale: str) -> List[Tuple[str, Topology, int, bool]]:
    """Benchmark families for the application stack, small→large.

    Each entry is ``(name, weighted topology, seed, timed_in_both)``;
    E17 runs the full shortcut Borůvka MST (BFS tree → shared
    randomness → per-phase doubling search → Theorem 2 aggregation →
    star-merge broadcast) end to end.  Families with
    ``timed_in_both=True`` run on both the fully-simulated and the
    fully-direct stack (the last of them anchors the row's speedup);
    the remaining *extension* families are
    direct-only — paper-scale instances ≥ 10x beyond the simulated E9
    grid, validated against Kruskal instead of the simulated twin.
    """
    big = scale == "paper"
    side_a = 10 if big else 8
    side_b = 8 if big else 6
    hub_n = 256 if big else 128
    anchor = 14 if big else 12
    # Extension instances must reach >= 10x the same-scale E9 grid
    # (10x10 at paper scale, 7x7 at small scale) — the bench gates it.
    extension = (24, 32) if big else (16, 24)
    families: List[Tuple[str, Topology, int, bool]] = [
        ("grid/boruvka", weighted(generators.grid(side_a, side_a), seed=41), 43, True),
        ("torus/boruvka", weighted(generators.torus(side_b, side_b), seed=41), 47, True),
        (
            "hub/boruvka",
            hub_adversarial_weights(generators.cycle_with_hub(hub_n, 8), hub_n, seed=47),
            53,
            True,
        ),
        (
            "grid-large/boruvka",
            weighted(generators.grid(anchor, anchor), seed=41),
            59,
            True,
        ),
    ]
    families += [
        (
            f"grid{side}x{side}/extension",
            weighted(generators.grid(side, side), seed=41),
            61,
            False,
        )
        for side in extension
    ]
    return families


def instance_families(scale: str) -> List[Tuple[str, InstanceSpec]]:
    """Benchmark families for the instance pipeline, small→large.

    Each entry is ``(name, spec)``; E18 builds the full (topology,
    BFS tree, partition) triple through both construction pipelines.
    Ordered by reference-pipeline cost; the last entry (largest grid,
    with unique weights attached) anchors the row's speedup.  Every
    family has a reference twin
    (``fast=False`` generators), so the run doubles as a differential
    audit at benchmark scale.
    """
    big = scale == "paper"
    side_t = 32 if big else 14
    hub_n = 4096 if big else 1024
    genus = (6, 12, 12) if big else (3, 8, 8)
    kt_n = 4096 if big else 512
    pr_side = 64 if big else 24
    side_g = 96 if big else 40
    genus_n = genus[0] * genus[1] * genus[2]
    return [
        (
            "hub/arcs",
            InstanceSpec("hub", (hub_n, 8), partition=("arcs", hub_n, 8, 1)),
        ),
        (
            "torus/voronoi",
            InstanceSpec("torus", (side_t, side_t), partition=("voronoi", side_t, 2)),
        ),
        (
            "genus_chain/voronoi",
            InstanceSpec(
                "genus_chain", genus, partition=("voronoi", max(2, genus_n // 24), 5)
            ),
        ),
        (
            "k_tree/voronoi",
            InstanceSpec("k_tree", (kt_n, 3, 5), partition=("voronoi", kt_n // 64, 7)),
        ),
        (
            "peleg_rubinovich/voronoi",
            InstanceSpec(
                "peleg_rubinovich", (pr_side, pr_side), partition=("voronoi", pr_side, 11)
            ),
        ),
        (
            "grid-large/weighted-voronoi",
            InstanceSpec(
                "grid",
                (side_g, side_g),
                weights=("unique", 41),
                partition=("voronoi", side_g, 3),
            ),
        ),
    ]


def e22_grid(scale: str) -> List[InstanceSpec]:
    """The E22 ladder grid: a mixed-family seed sweep.

    The doubling ladder climbs a different number of rungs per
    instance, so the grid deliberately mixes families and partition
    seeds — ragged rung counts are what the ladder's active-set
    compaction exploits.
    """
    if scale == "paper":
        count, side = 16, 24
    else:
        count, side = 6, 8
    specs: List[InstanceSpec] = []
    for index in range(count):
        specs.append(
            InstanceSpec(
                "grid", (side, side), partition=("voronoi", 8, 3 + index)
            )
        )
        specs.append(
            InstanceSpec(
                "torus", (side, side), partition=("voronoi", 8, 5 + index)
            )
        )
        specs.append(
            InstanceSpec(
                "hub", (12 * side, 8),
                partition=("voronoi", 8, 7 + index),
            )
        )
    return specs


# ----------------------------------------------------------------------
# E19 — failure injection: degradation and incremental repair
# ----------------------------------------------------------------------

E19_SEED = 19


def e19_families(scale: str) -> List[Tuple[str, InstanceSpec, Optional[str], Dict]]:
    """The failure-sweep families: grid/torus/hub/delaunay, weighted.

    Each entry is ``(name, spec, srlg_family, srlg_params)`` — the last
    two key the SRLG group builder on the generator structure (grid
    rows/columns as trench cuts, hub spokes as a site failure);
    Delaunay has no registered structure and falls back to
    node-incidence groups.
    """
    big = scale == "paper"
    side = 14 if big else 9
    hub_n = 16 * side
    return [
        (
            "grid/voronoi",
            InstanceSpec(
                "grid", (side, side), weights=("unique", 7),
                partition=("voronoi", side, 1),
            ),
            "grid",
            {"rows": side, "cols": side},
        ),
        (
            "torus/voronoi",
            InstanceSpec(
                "torus", (side, side), weights=("unique", 8),
                partition=("voronoi", side, 2),
            ),
            "torus",
            {"rows": side, "cols": side},
        ),
        (
            "hub/arcs",
            InstanceSpec(
                "hub", (hub_n, 8), weights=("unique", 9),
                partition=("arcs", hub_n, 8, 1),
            ),
            "hub",
            {"n_cycle": hub_n, "spoke_every": 8},
        ),
        (
            "delaunay/voronoi",
            InstanceSpec(
                "delaunay", (side * side, 3), weights=("unique", 10),
                partition=("voronoi", side, 3),
            ),
            None,
            {},
        ),
    ]


def _e19_scenarios(topology, srlg_family, srlg_params):
    """The per-family failure suite: k-wise, Bernoulli, and SRLG draws.

    Sized so an E19 run covers every generator kind on every family
    while staying CI-budgeted; deterministic under ``E19_SEED``.
    """
    m = topology.m
    scenarios = list(enumerate_kwise(topology, 1, limit=3, seed=E19_SEED))
    scenarios += enumerate_kwise(topology, 2, limit=3, seed=E19_SEED + 1)
    scenarios += sample_bernoulli(
        topology, 3, min(0.25, 1.5 / m), seed=E19_SEED + 2
    )
    groups = srlg_groups(topology, srlg_family, **srlg_params)
    scenarios += sample_srlg(
        topology, groups, 2, min(0.5, 1.0 / len(groups)), seed=E19_SEED + 3
    )
    return scenarios


def _e19_task(task):
    name, spec, srlg_family, srlg_params, scale = task
    instance = hydrate(spec)
    topology = instance.topology
    tree, partition = instance.tree, instance.partition

    # Intact baseline: one doubling construction + quality + MST.
    old = find_shortcut_doubling(
        topology, tree, partition, seed=E19_SEED, mode="direct"
    )
    report = quality.measure(old.result.shortcut, topology, with_dilation=False)
    mst = minimum_spanning_tree(
        topology, seed=E19_SEED, construct_mode="direct", backend="direct"
    )
    baseline = Baseline(
        congestion=report.congestion,
        block=report.block_parameter,
        dilation=None,
        construction_rounds=old.rounds,
        mst_weight=mst.weight,
        mst_rounds=mst.rounds,
    )

    scenarios = _e19_scenarios(topology, srlg_family, srlg_params)
    # One timed pass of the per-scenario loop produces the reference
    # records; with numpy available, the whole grid re-runs through the
    # batched sweep (survivors_batch + the batched doubling ladder +
    # measure_batch) and must reproduce them ==-identically.
    start = time.perf_counter()
    records = scenarios_batch(
        topology, partition, scenarios, baseline,
        seed=E19_SEED, mode="direct", backends=("direct",),
        with_dilation=False, batch="loop",
    )
    sweep_wall_loop = time.perf_counter() - start
    sweep_wall_vector = sweep_speedup = None
    if batch_numpy_available():
        start = time.perf_counter()
        vector_records = scenarios_batch(
            topology, partition, scenarios, baseline,
            seed=E19_SEED, mode="direct", backends=("direct",),
            with_dilation=False, batch="vector",
        )
        sweep_wall_vector = time.perf_counter() - start
        if vector_records != records:
            diverged = [
                scenarios[i].label
                for i in range(len(scenarios))
                if vector_records[i] != records[i]
            ]
            raise AssertionError(
                f"batched scenario sweep diverges from the loop on "
                f"{name}: {diverged}"
            )
        if sweep_wall_vector > 0:
            sweep_speedup = sweep_wall_loop / sweep_wall_vector
    # The first two scenarios of each family double as the
    # both-backends equivalence audit at small scale; the audit rerun
    # must reproduce the reference record (its fields come from the
    # first backend, the extra one is asserted identical inside).
    if scale != "paper":
        for index, scenario in enumerate(scenarios[:2]):
            audit = measure_degradation(
                topology, partition, scenario, baseline,
                seed=E19_SEED, mode="direct",
                backends=("direct", "simulate"), with_dilation=False,
            )
            assert audit == records[index], (
                f"backend audit diverges on {name} / {scenario.label}"
            )

    scenario_rows = []
    rounds_speedups = []
    repair_wall = rebuild_wall = 0.0
    frozen_fractions = []
    disconnected = 0
    for index, scenario in enumerate(scenarios):
        record = records[index]
        row = {
            "label": scenario.label,
            "kind": scenario.kind,
            "failed_edges": scenario.size,
            "connected": record.connected,
            "components": record.components,
            "congestion_delta": record.congestion_delta,
            "block_delta": record.block_delta,
            "mst_weight_delta": record.mst_weight_delta,
            "connectivity_components": record.connectivity_components,
        }
        if record.connected:
            start = time.perf_counter()
            repaired = repair_shortcut(
                topology, old, scenario.edges, seed=E19_SEED, mode="direct"
            )
            wall_rep = time.perf_counter() - start
            start = time.perf_counter()
            rebuilt = rebuild_shortcut(
                topology, old, scenario.edges, seed=E19_SEED, mode="direct"
            )
            wall_reb = time.perf_counter() - start
            # Differential ==-verification: both shortcuts must be
            # structurally valid in the survivor and pass a full
            # Verification sweep at their 3b thresholds.
            assert_valid(repaired.survivor, repaired)
            assert_valid(rebuilt.survivor, rebuilt)
            speedup = rebuilt.rounds / max(1, repaired.rounds)
            rounds_speedups.append(speedup)
            repair_wall += wall_rep
            rebuild_wall += wall_reb
            frozen = len(repaired.frozen_parts) / max(1, repaired.partition.size)
            frozen_fractions.append(frozen)
            row.update(
                {
                    "repair_rounds": repaired.rounds,
                    "rebuild_rounds": rebuilt.rounds,
                    "rounds_speedup": speedup,
                    "repair_wall_s": wall_rep,
                    "rebuild_wall_s": wall_reb,
                    "frozen_fraction": frozen,
                    "tree_rebuilt": repaired.tree_rebuilt,
                    "repair_cb": [repaired.c, repaired.b],
                    "rebuild_cb": [rebuilt.c, rebuilt.b],
                }
            )
        else:
            disconnected += 1
        scenario_rows.append(row)
    ordered = sorted(rounds_speedups)
    median_speedup = ordered[len(ordered) // 2] if ordered else 0.0
    return {
        "family": name,
        "n": topology.n,
        "m": topology.m,
        "parts": partition.size,
        "baseline": {
            "congestion": baseline.congestion,
            "block": baseline.block,
            "construction_rounds": baseline.construction_rounds,
            "mst_weight": baseline.mst_weight,
            "mst_rounds": baseline.mst_rounds,
        },
        "scenarios": scenario_rows,
        "disconnected": disconnected,
        "rounds_speedups": rounds_speedups,
        "median_rounds_speedup": median_speedup,
        "repair_wall_s": repair_wall,
        "rebuild_wall_s": rebuild_wall,
        "wall_speedup": rebuild_wall / repair_wall if repair_wall > 0 else 0.0,
        "mean_frozen_fraction": (
            sum(frozen_fractions) / len(frozen_fractions)
            if frozen_fractions
            else 0.0
        ),
        "sweep_wall_loop_s": sweep_wall_loop,
        "sweep_wall_vector_s": sweep_wall_vector,
        "sweep_speedup": sweep_speedup,
    }


def run_e19(scale: str = "small") -> ExperimentResult:
    """Failure injection and incremental shortcut repair.

    For every family of :func:`e19_families`, generates a mixed failure
    suite (exhaustive/sampled k-wise, per-edge Bernoulli, SRLG groups
    keyed on generator structure), measures degradation against the
    intact baseline (both quality kernels on every survivor, both
    application backends on the audit sample), and — on every connected
    survivor — runs :func:`repair_shortcut` against its
    :func:`rebuild_shortcut` twin, differentially ==-verifying both and
    comparing ledgers and wall time.  Disconnecting scenarios are
    first-class rows: the components-aware MST forest and per-component
    connectivity results are recorded instead of the repair pair.

    Families fan out through :func:`parallel_map` (REPRO_JOBS); the
    table and every deterministic ``data`` field are identical at any
    worker count (wall-clock fields vary, rounds never do).  The
    ``data`` dict carries the ``BENCH_failures.json`` payload; see
    ``benchmarks/conftest.py`` for the schema.
    """
    table = Table(
        "E19: failure degradation and repair-vs-rebuild (rounds)",
        [
            "family", "scen", "disc", "frozen%",
            "med dC", "med dB", "repair rounds", "rebuild rounds", "speedup",
            "sweep x",
        ],
    )
    families = parallel_map(
        _e19_task,
        [
            (name, spec, srlg_family, srlg_params, scale)
            for name, spec, srlg_family, srlg_params in e19_families(scale)
        ],
    )
    for family in families:
        connected_rows = [s for s in family["scenarios"] if s["connected"]]
        deltas_c = sorted(s["congestion_delta"] for s in connected_rows)
        deltas_b = sorted(s["block_delta"] for s in connected_rows)
        repair_rounds = sum(s["repair_rounds"] for s in connected_rows)
        rebuild_rounds = sum(s["rebuild_rounds"] for s in connected_rows)
        table.add_row(
            family["family"],
            len(family["scenarios"]),
            family["disconnected"],
            round(100 * family["mean_frozen_fraction"], 1),
            deltas_c[len(deltas_c) // 2] if deltas_c else "-",
            deltas_b[len(deltas_b) // 2] if deltas_b else "-",
            repair_rounds,
            rebuild_rounds,
            round(family["median_rounds_speedup"], 2),
            "-"
            if family["sweep_speedup"] is None
            else round(family["sweep_speedup"], 2),
        )
    pooled = sorted(
        speedup for f in families for speedup in f["rounds_speedups"]
    )
    suite_rounds_speedup = pooled[len(pooled) // 2] if pooled else 0.0
    repair_wall = sum(f["repair_wall_s"] for f in families)
    rebuild_wall = sum(f["rebuild_wall_s"] for f in families)
    suite_wall_speedup = rebuild_wall / repair_wall if repair_wall > 0 else 0.0
    sweep_loop = sum(f["sweep_wall_loop_s"] for f in families)
    sweep_vector = (
        sum(f["sweep_wall_vector_s"] for f in families)
        if all(f["sweep_wall_vector_s"] is not None for f in families)
        else None
    )
    return ExperimentResult(
        "E19",
        "incremental repair beats a full rebuild across the failure suite",
        table,
        data={
            "schema": "repro.bench_failures.v1",
            "scale": scale,
            "families": families,
            "suite_rounds_speedup": suite_rounds_speedup,
            "suite_wall_speedup": suite_wall_speedup,
            "largest_scale_speedup": min(
                suite_rounds_speedup, suite_wall_speedup
            ),
            "sweep_wall_loop_s": sweep_loop,
            "sweep_wall_vector_s": sweep_vector,
            "sweep_speedup": (
                sweep_loop / sweep_vector
                if sweep_vector not in (None, 0.0) and sweep_vector > 0
                else None
            ),
        },
        notes="Each family runs its full failure suite; disc counts the "
        "scenarios whose survivor disconnects (measured via the "
        "components-aware MST forest / connectivity results instead of "
        "repair).  Speedup is the median rebuild/repair round ratio per "
        "family; the benchmark gate takes the suite-pooled median and "
        "also requires the pooled wall-time ratio to clear the same "
        "bar.  'sweep x' is the wall ratio of the per-scenario "
        "degradation loop over the batched sweep (survivors_batch + "
        "the batched doubling ladder + measure_batch), whose records "
        "are asserted ==-identical inside the runner.  A family whose full construction is a single CoreFast "
        "iteration (hub) bounds repair at parity — one Verification "
        "sweep is the floor for both sides whenever any part broke; "
        "repair wins grow with construction hardness.",
    )


# ----------------------------------------------------------------------
# E20 — fault-tolerant shortcut service: warm store and chaos storm
# ----------------------------------------------------------------------

E20_SEED = 20
E20_OPS = ("shortcut", "mst", "connectivity")


def service_families(scale: str) -> List[Tuple[str, InstanceSpec]]:
    """Weighted, partitioned instances the service round-trips.

    Every family supports all of :data:`E20_OPS` (weights for MST,
    partitions for shortcut construction), and each has a reference
    twin, so the chaos storm can check answers differentially.
    """
    big = scale == "paper"
    side = 8 if big else 5
    hub_n = 8 * side
    return [
        (
            "grid/voronoi",
            InstanceSpec(
                "grid", (side, side), weights=("unique", 3),
                partition=("voronoi", side, 1),
            ),
        ),
        (
            "torus/voronoi",
            InstanceSpec(
                "torus", (side, side), weights=("unique", 4),
                partition=("voronoi", side, 2),
            ),
        ),
        (
            "hub/arcs",
            InstanceSpec(
                "hub", (hub_n, 4), weights=("unique", 5),
                partition=("arcs", hub_n, 4, 1),
            ),
        ),
    ]


def run_e20(scale: str = "small") -> ExperimentResult:
    """Fault-tolerant shortcut service: warm store and chaos storm.

    Round-trips every :func:`service_families` instance through the
    in-process :class:`~repro.service.server.ShortcutService` backed by
    a :class:`~repro.service.store.PersistentStore`: the cold pass pays
    hydration plus construction per operation, the warm passes must be
    answered from the store (``warm`` flagged on every response, results
    byte-identical to the cold pass), and a recovery pass corrupts a
    committed entry on disk and times the quarantine-and-recompute
    round trip.  A seeded :func:`~repro.service.chaos.run_chaos_suite`
    storm (including a real-HTTP round) then asserts the service never
    serves a wrong answer under injected faults.

    The ``data`` dict carries the ``BENCH_service.json`` payload; see
    ``benchmarks/conftest.py`` for the schema.  The benchmark gate
    requires pooled warm throughput at least 3x cold.
    """
    # Imported here: repro.service.chaos imports this package, so a
    # module-level import would make ``import repro.service`` circular.
    from repro.service.chaos import run_chaos_suite

    warm_passes = 3 if scale == "paper" else 2
    clear_instance_cache()
    rows = []
    total_cold_wall = total_warm_wall = 0.0
    total_cold_requests = total_warm_requests = 0
    with tempfile.TemporaryDirectory(prefix="repro-e20-") as tmp:
        store = PersistentStore(Path(tmp) / "store")
        service = ShortcutService(store, workers=2)
        try:
            for name, spec in service_families(scale):
                body = {"spec": spec_to_json(spec)}

                start = time.perf_counter()
                cold = {}
                for op in E20_OPS:
                    response = service.handle(op, body)
                    assert response.status == 200, response.body
                    assert response.body["warm"] is False
                    cold[op] = response.body["result"]
                cold_wall = time.perf_counter() - start

                start = time.perf_counter()
                for _ in range(warm_passes):
                    for op in E20_OPS:
                        response = service.handle(op, body)
                        assert response.status == 200, response.body
                        assert response.body["warm"] is True
                        assert response.body["result"] == cold[op]
                warm_wall = time.perf_counter() - start

                # Recovery: damage the committed entry for the first op
                # and time the quarantine + recompute + repopulate trip.
                key = spec_key(E20_OPS[0], spec, **PARAM_DEFAULTS)
                store.path_for(key).write_bytes(b"chaos: damaged entry")
                store.forget_memory(key)
                quarantined_before = store.stats.quarantined
                start = time.perf_counter()
                recovered = service.handle(E20_OPS[0], body)
                recovery_wall = time.perf_counter() - start
                assert recovered.status == 200
                assert recovered.body["result"] == cold[E20_OPS[0]]
                assert store.stats.quarantined == quarantined_before + 1
                rewarmed = service.handle(E20_OPS[0], body)
                assert rewarmed.status == 200 and rewarmed.body["warm"] is True

                cold_requests = len(E20_OPS)
                warm_requests = len(E20_OPS) * warm_passes
                total_cold_wall += cold_wall
                total_warm_wall += warm_wall
                total_cold_requests += cold_requests
                total_warm_requests += warm_requests
                instance = hydrate(spec)
                rows.append(
                    {
                        "family": name,
                        "n": instance.topology.n,
                        "m": instance.topology.m,
                        "parts": instance.partition.size,
                        "cold_requests": cold_requests,
                        "cold_wall_s": cold_wall,
                        "cold_rps": cold_requests / cold_wall,
                        "warm_requests": warm_requests,
                        "warm_wall_s": warm_wall,
                        "warm_rps": warm_requests / warm_wall,
                        "warm_speedup": (
                            (warm_requests / warm_wall)
                            / (cold_requests / cold_wall)
                        ),
                        "recovery_s": recovery_wall,
                    }
                )
            service_stats = service.stats_payload()
        finally:
            service.close()

        chaos = run_chaos_suite(
            Path(tmp) / "chaos",
            seed=E20_SEED,
            rounds=3 if scale == "paper" else 2,
            specs=service_families(scale),
            ops=E20_OPS,
            use_http=True,
        )
    assert chaos.wrong == 0

    cold_rps = total_cold_requests / total_cold_wall
    warm_rps = total_warm_requests / total_warm_wall
    table = Table(
        "E20: shortcut service — warm store speedup and recovery",
        [
            "family", "n", "parts",
            "cold req/s", "warm req/s", "speedup", "recovery ms",
        ],
    )
    for row in rows:
        table.add_row(
            row["family"],
            row["n"],
            row["parts"],
            round(row["cold_rps"], 1),
            round(row["warm_rps"], 1),
            round(row["warm_speedup"], 1),
            round(1000 * row["recovery_s"], 1),
        )
    return ExperimentResult(
        "E20",
        "a warm store answers repeat requests without reconstruction",
        table,
        data={
            "schema": "repro.bench_service.v1",
            "scale": scale,
            "families": rows,
            "cold_rps": cold_rps,
            "warm_rps": warm_rps,
            "warm_speedup": warm_rps / cold_rps,
            "recovery_s": {
                row["family"]: row["recovery_s"] for row in rows
            },
            "service": service_stats,
            "chaos": chaos.as_dict(),
        },
        notes="Cold requests pay hydration plus construction; warm "
        "requests are store reads, checked byte-identical to their cold "
        "twins.  Recovery corrupts a committed entry on disk and times "
        "the quarantine-and-recompute round trip.  The chaos storm "
        "(seeded corruption, IO errors, latency, killed writers, plus a "
        "real-HTTP round with a tiny queue and a retrying client) must "
        "finish with zero wrong answers; its counters ride along in "
        "data['chaos'].",
    )


# ----------------------------------------------------------------------
# E23 — unreliable networks: reliable-sublayer overhead and recovery
# ----------------------------------------------------------------------

E23_FAMILIES = ("grid", "torus", "hub", "delaunay")
E23_RATES = (0.02, 0.05, 0.1)
E23_GATE_RATE = 0.05
E23_SEEDS = 5
E23_WORKLOAD_ROUNDS = 6


def _e23_topology(family: str, side: int):
    from repro.graphs import generators

    if family == "grid":
        return generators.grid(side, side)
    if family == "torus":
        return generators.torus(side, side)
    if family == "hub":
        return generators.cycle_with_hub(16 * side, 8)
    if family == "delaunay":
        return generators.delaunay(side * side, seed=11)
    raise ValueError(f"unknown E23 family {family!r}")


def _e23_task(task):
    """One resilience cell: reference run vs reliable run under faults."""
    from repro.congest.faults import FaultPlan
    from repro.congest.reliable import run_reliably
    from repro.congest.workloads import FloodAlgorithm
    from repro.errors import DetectedFailure

    family, side, rate, seed, crash = task
    topology = _e23_topology(family, side)
    make = lambda: FloodAlgorithm(rounds=E23_WORKLOAD_ROUNDS)  # noqa: E731
    reference = Simulator(topology, make(), seed=seed).run()
    plan_seed = mix(23, seed) & 0xFFFF
    if crash:
        plan = FaultPlan(
            seed=plan_seed,
            p_drop=rate,
            crashes=((mix(plan_seed, 1) % topology.n, 1 + mix(plan_seed, 2) % 4),),
        )
    else:
        # Pure-drop plans: the gate tracks overhead vs drop probability;
        # the duplicate/delay/reorder mix is covered by repro.congest.chaos.
        plan = FaultPlan(seed=plan_seed, p_drop=rate)
    try:
        outcome = run_reliably(
            topology,
            make(),
            horizon=reference.rounds,
            seed=seed,
            faults=plan,
            max_retries=6 if crash else 12,
        )
    except DetectedFailure:
        return (family, rate, seed, crash, "detected", 0.0, 0.0, 0)
    identical = all(
        vars(reference.states[v]) == vars(outcome.states[v])
        for v in topology.nodes
    )
    status = "identical" if identical else "DIVERGED"
    amplification = outcome.messages / max(1, reference.messages)
    return (
        family, rate, seed, crash, status,
        outcome.overhead, amplification, outcome.prods,
    )


def run_e23(scale: str = "small") -> ExperimentResult:
    """Reliable-sublayer overhead and recovery rate vs drop probability.

    For every family × drop-rate × seed cell, a fault-free reference
    run fixes the horizon and the lockstep-with-repair sublayer
    (:mod:`repro.congest.reliable`) re-executes the flood workload
    under the seeded fault plan.  Recovered runs must be bit-identical
    to the reference — a divergence fails the experiment outright (the
    identical-or-detected contract).  One crash-stop cell per family ×
    seed checks the detection side: a dead node must surface as a
    declared :class:`~repro.errors.DetectedFailure`, never a quiet
    wrong answer.  The benchmark gate holds mean round overhead at
    drop rate ``0.05`` to at most 3x fault-free.
    """
    side = 14 if scale == "paper" else 9
    tasks = []
    for family in E23_FAMILIES:
        for rate in E23_RATES:
            for seed in range(E23_SEEDS):
                tasks.append((family, side, rate, seed, False))
        for seed in range(E23_SEEDS):
            tasks.append((family, side, E23_RATES[0], seed, True))
    cells = parallel_map(_e23_task, tasks)

    diverged = [c for c in cells if c[4] == "DIVERGED"]
    if diverged:
        raise AssertionError(
            f"reliable runs silently diverged in cells {diverged[:3]}"
        )
    undetected_crashes = [c for c in cells if c[3] and c[4] != "detected"]
    if undetected_crashes:
        raise AssertionError(
            f"crash-stop cells finished without detection: "
            f"{undetected_crashes[:3]}"
        )

    table = Table(
        "E23: reliable execution under seeded transport faults",
        ["family", "drop", "recovered", "overhead", "msg amp", "prods"],
    )
    rows: Dict[str, Dict] = {}
    gate_overheads: List[float] = []
    for family in E23_FAMILIES:
        for rate in E23_RATES:
            bucket = [
                c for c in cells if c[0] == family and c[1] == rate and not c[3]
            ]
            recovered = [c for c in bucket if c[4] == "identical"]
            recovery = len(recovered) / len(bucket)
            overhead = (
                sum(c[5] for c in recovered) / len(recovered)
                if recovered
                else math.inf
            )
            amplification = (
                sum(c[6] for c in recovered) / len(recovered)
                if recovered
                else math.inf
            )
            prods = sum(c[7] for c in recovered)
            if rate == E23_GATE_RATE and recovered:
                gate_overheads.append(overhead)
            rows[f"{family}@{rate}"] = {
                "recovery_rate": recovery,
                "mean_overhead": overhead,
                "mean_amplification": amplification,
                "prods": prods,
            }
            table.add_row(
                family,
                rate,
                f"{len(recovered)}/{len(bucket)}",
                round(overhead, 2),
                round(amplification, 2),
                prods,
            )
    crash_cells = [c for c in cells if c[3]]
    gate_overhead = (
        sum(gate_overheads) / len(gate_overheads) if gate_overheads else math.inf
    )
    return ExperimentResult(
        "E23",
        "the reliable sublayer recovers bit-identical runs from seeded "
        "transport faults and declares what it cannot mask",
        table,
        data={
            "schema": "repro.bench_resilience.v1",
            "scale": scale,
            "families": list(E23_FAMILIES),
            "rates": list(E23_RATES),
            "seeds": E23_SEEDS,
            "workload": f"flood({E23_WORKLOAD_ROUNDS})",
            "results": rows,
            "gate_rate": E23_GATE_RATE,
            "gate_overhead": gate_overhead,
            "crash_cells": len(crash_cells),
            "crash_detected": sum(1 for c in crash_cells if c[4] == "detected"),
        },
        notes="Every transport-fault cell ended bit-identical to the "
        "fault-free reference or as a declared detection; every "
        "crash-stop cell was detected.  Overhead is physical rounds "
        "per inner round (fault-free cost ~1.0x plus one start-up "
        "round); message amplification counts retransmission frames "
        "and heartbeats against the reference's logical messages.",
    )


def _run_twins(
    experiment: str, scale: str = "small", repeats: Optional[int] = None
) -> ExperimentResult:
    """Run one twin-throughput experiment's rows of :mod:`repro.bench`."""
    from repro.bench import run_twins  # repro.bench imports this module

    return run_twins(experiment, scale, repeats)


ALL_EXPERIMENTS: Dict[str, Callable[[str], ExperimentResult]] = {
    "E1": run_e01,
    "E2": run_e02,
    "E3": run_e03,
    "E4": run_e04,
    "E5": run_e05,
    "E6": run_e06,
    "E7": run_e07,
    "E8": run_e08,
    "E9": run_e09,
    "E10": run_e10,
    "E11": run_e11,
    "E12": run_e12,
    "E13": run_e13,
    "E14": partial(_run_twins, "E14"),
    "E15": partial(_run_twins, "E15"),
    "E16": partial(_run_twins, "E16"),
    "E17": partial(_run_twins, "E17"),
    "E18": partial(_run_twins, "E18"),
    "E19": run_e19,
    "E20": run_e20,
    "E22": partial(_run_twins, "E22"),
    "E23": run_e23,
}


def run_all(scale: str = "small") -> List[ExperimentResult]:
    """Run every experiment; used to regenerate EXPERIMENTS.md."""
    return [runner(scale) for runner in ALL_EXPERIMENTS.values()]
