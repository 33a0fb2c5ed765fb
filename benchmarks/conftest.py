"""Benchmark harness configuration.

Each benchmark wraps one experiment runner from
:mod:`repro.analysis.experiments`, executes it once (the experiments
are internally repeated/averaged where that matters), prints the
regenerated paper-style table, and asserts the claim it reproduces.

Scale with ``REPRO_SCALE=paper pytest benchmarks/bench_*.py --benchmark-only``
for the larger instances recorded in EXPERIMENTS.md.

repro.bench_twins.v1 schema
---------------------------

``python -m repro.bench <row|all> --out PATH`` writes the
twin-throughput record of E14–E18, E21 and E22 (one row per fast twin
timed against its reference twin; the rows live in
:data:`repro.bench.ROWS`).  A JSON object with:

* ``schema`` — the literal string ``"repro.bench_twins.v1"``.
* ``scale`` — ``"small"`` or ``"paper"`` (the instance sizes).
* ``python`` / ``machine`` — interpreter version and architecture.
* ``rows`` — one entry per row run, in table order; each has:

  - ``experiment`` / ``layer`` — the E-id and the layer timed, e.g.
    ``"E15"`` / ``"quality-kernel"``;
  - ``reference`` / ``fast`` — the two twins' axis values, e.g.
    ``"simulate"`` / ``"direct"``;
  - ``repeats`` — N of the best-of-N wall times;
  - ``families`` — ordered small → large; each entry has ``family``
    (the label), the row's descriptive columns (``n`` and, per row,
    ``m`` / ``parts`` / ``rounds`` / ``messages`` / ``congestion`` /
    ``dilation`` / ``trials`` / ``iterations`` / ``phases`` /
    ``rungs``; identical across twins, since the run raises on any
    divergence), ``wall_s`` (twin -> best-of-N wall seconds, only the
    twins that ran) and ``speedup`` (reference wall / fast wall, or
    ``null`` when one twin did not run: E17's direct-only extension
    families, or the vector strategy without numpy);
  - ``anchor_speedup`` — the last non-null ``speedup``, the tracked
    headline number;
  - ``gate`` — ``null`` for report-only rows, else the bars at this
    scale (``anchor``: the anchor speedup must reach it; ``floor``:
    every speedup must exceed it) and ``failures``, the bars missed.  ``--gate`` exits 1 when any row has failures.

Wall-clock fields vary run to run; every other field is deterministic.

BENCH_failures.json schema
--------------------------

``python benchmarks/bench_e19_failures.py --scale paper --out
BENCH_failures.json`` writes the failure/repair baseline (schema id
``repro.bench_failures.v1``): per failure scenario, the degradation of
the survivor against the intact instance and the ledger/wall cost of
:func:`repro.failures.repair.repair_shortcut` against its
:func:`~repro.failures.repair.rebuild_shortcut` twin (both
``==``-verified in the survivor by ``assert_valid``; the run raises on
any invalid shortcut).  A JSON object with:

* ``schema`` — the literal string ``"repro.bench_failures.v1"``.
* ``scale`` — ``"small"`` or ``"paper"`` (the E19 instance sizes; the
  acceptance gate lives at paper scale).
* ``python`` / ``machine`` — interpreter version and architecture.
* ``families`` — one entry per failure family (grid/torus/hub/
  delaunay); each has:

  - ``family`` / ``n`` / ``m`` / ``parts`` — instance label and sizes;
  - ``baseline`` — intact congestion, block parameter, construction
    rounds, MST weight and rounds;
  - ``scenarios`` — one row per failure scenario: the scenario label /
    kind / size, whether the survivor stayed connected (plus component
    and components-aware MST/connectivity numbers when it did not),
    quality deltas vs the baseline, and — on connected survivors —
    ``repair_rounds`` / ``rebuild_rounds`` / ``rounds_speedup``,
    wall seconds for both, ``frozen_fraction``, ``tree_rebuilt``, and
    the resulting ``(c, b)`` pairs;
  - ``disconnected`` — how many scenarios disconnected the survivor;
  - ``rounds_speedups`` / ``median_rounds_speedup`` — the per-family
    speedup sample and its median;
  - ``repair_wall_s`` / ``rebuild_wall_s`` / ``wall_speedup`` —
    aggregated wall time of all repairs vs all rebuilds;
  - ``mean_frozen_fraction`` — average fraction of parts repair kept
    frozen.

* ``suite_rounds_speedup`` — median rebuild/repair round ratio pooled
  over every connected scenario of every family (deterministic at any
  ``REPRO_JOBS``).
* ``suite_wall_speedup`` — pooled rebuild wall seconds / repair wall
  seconds.
* ``largest_scale_speedup`` — ``min`` of the two suite ratios; the
  tracked headline number (CI gates it at >= 2 at paper scale).

Wall-clock fields vary run to run; every other field — including each
scenario's rounds and the suite rounds ratio — is deterministic and is
what ``tests/properties/test_prop_failures.py`` pins across worker
counts.

BENCH_service.json schema
-------------------------

``python benchmarks/bench_e20_service.py --out BENCH_service.json``
writes the shortcut-service baseline (schema id
``repro.bench_service.v1``): cold vs warm request throughput of the
store-backed :class:`repro.service.server.ShortcutService`, the
recovery latency after on-disk corruption, and the outcome counters of
a seeded chaos storm.  A JSON object with:

* ``schema`` — the literal string ``"repro.bench_service.v1"``.
* ``scale`` — ``"small"`` or ``"paper"`` (the E20 instance sizes).
* ``python`` / ``machine`` — interpreter version and architecture.
* ``families`` — one entry per :func:`service_families` instance; each
  has:

  - ``family`` / ``n`` / ``m`` / ``parts`` — instance label and sizes;
  - ``cold_requests`` / ``cold_wall_s`` / ``cold_rps`` — the first
    pass over every operation (hydration + construction per request);
  - ``warm_requests`` / ``warm_wall_s`` / ``warm_rps`` — the repeat
    passes, answered from the persistent store (every response carries
    ``warm: true`` and a result ``==`` its cold twin, asserted by the
    runner);
  - ``warm_speedup`` — ``warm_rps / cold_rps``;
  - ``recovery_s`` — wall seconds for one request after its committed
    store entry was overwritten with garbage on disk: quarantine +
    recompute + repopulate (the follow-up request must be warm again).

* ``cold_rps`` / ``warm_rps`` — pooled request throughput over all
  families.
* ``warm_speedup`` — pooled ``warm_rps / cold_rps``; the tracked
  headline number (CI gates it at >= 3).
* ``recovery_s`` — mapping family -> recovery latency.
* ``service`` — the service's own counters (requests, warm hits,
  computed, single-flight joins, shed, deadline expiries, store
  failures) plus the store's (hits, misses, writes, evictions,
  quarantined, swept temp files).
* ``chaos`` — the :class:`repro.service.chaos.ChaosReport` of a seeded
  storm over the same families (entry corruption, IO-error windows,
  read latency, killed writers, a zero-deadline probe per round, and a
  real-HTTP round through the retrying client against a tiny queue).
  ``wrong`` must be 0 — the runner raises otherwise — and
  ``injected`` is deterministic for the fixed ``E20_SEED``.

Throughput and latency fields vary run to run; the correctness fields
(``warm`` flags, result equality, ``chaos.wrong == 0``) are asserted
inside the runner itself.

BENCH_resilience.json schema
----------------------------

``python benchmarks/bench_e23_resilience.py --scale paper --out
BENCH_resilience.json`` writes the unreliable-network baseline (schema
id ``repro.bench_resilience.v1``): the lockstep-with-repair sublayer
(:func:`repro.congest.reliable.run_reliably`) re-executing a flood
workload under seeded pure-drop :class:`~repro.congest.faults.FaultPlan`
schedules, per family × drop rate × seed, plus one crash-stop cell per
family × seed.  A JSON object with:

* ``schema`` — the literal string ``"repro.bench_resilience.v1"``.
* ``scale`` — ``"small"`` or ``"paper"`` (grid side 9 vs 14; the
  acceptance gate lives at paper scale).
* ``families`` / ``rates`` / ``seeds`` / ``workload`` — the sweep
  shape (grid, torus, hub, delaunay × drop 0.02/0.05/0.1 × 5 seeds,
  flood workload).
* ``results`` — mapping ``"<family>@<rate>"`` ->
  ``{"recovery_rate", "mean_overhead", "mean_amplification",
  "prods"}``.  ``recovery_rate`` is the fraction of cells whose final
  states were bit-identical to the fault-free reference (non-recovered
  cells ended as declared detections — silent divergence raises inside
  the runner).  ``mean_overhead`` is physical rounds per inner round;
  ``mean_amplification`` is physical frames per reference message;
  ``prods`` counts retransmission requests.
* ``gate_rate`` / ``gate_overhead`` — the gated drop rate (0.05) and
  the mean overhead across families at that rate; the tracked
  headline number (CI gates it at <= 3 at paper scale via the
  ``resilience-bench`` job).
* ``crash_cells`` / ``crash_detected`` — crash-stop cells run and how
  many surfaced as declared detections (the runner raises unless
  every one did).
* ``python`` / ``machine`` — interpreter version and architecture.
"""

import os

import pytest


@pytest.fixture(scope="session")
def scale() -> str:
    return os.environ.get("REPRO_SCALE", "small")


def run_experiment(benchmark, runner, scale):
    """Run one experiment under pytest-benchmark and print its table."""
    result = benchmark.pedantic(runner, args=(scale,), rounds=1, iterations=1)
    print()
    print(result.render())
    benchmark.extra_info["experiment"] = result.experiment
    benchmark.extra_info["claim"] = result.claim
    return result
