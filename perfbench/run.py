"""End-to-end benchmark of the shortcut library and service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload construct-cold --seed 0 --seconds 20 --trace 0

Runs one workload (see ``workloads.py`` and ``README.md``) in this
process, checks every output, and prints one JSON object as the last
line of standard output::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics named in
``BENCHMARK.json``; ``--trace 1`` wraps the library's layers
(``spans.py``), reruns the same seed untraced in a fresh child process
for comparison, and reports the per-layer metrics over the run's
prefix, the cycles every run of that seed executes identically.
``--smoke`` shrinks every instance so a run takes seconds (the
benchmark's own tests use it).  The exit code is 0 only when every
check passed; operations that raised are counted in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
WARM_WINDOW = 128  # warm repeats pick among this many latest results


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q`` quantile (0 <= q <= 1) of ``values``."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_quantile(count: int) -> float:
    """The highest quantile with at least ten samples beyond it.

    Never below the median: with fewer than twenty samples the median is
    the only robust point, and the tail is reported as the median.
    """
    return max(0.5, 1.0 - 10.0 / count) if count else 0.5


def peak_rss_mb() -> float:
    """This process's resident-memory high-water mark so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_library():
    """Put this checkout's ``src`` first on the path and import the library."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library sources under {src}")
    sys.path.insert(0, str(src))
    # Import-order workaround: importing ``repro.service`` before
    # ``repro.analysis`` fails with a circular ImportError
    # (repro.analysis.experiments -> repro.service.chaos ->
    # repro.analysis.experiments).  Importing repro.analysis first
    # breaks the cycle; drop this once the library fixes it.
    import repro.analysis  # noqa: F401

    import spans
    import workloads

    return spans, workloads


def run_workload(args, workloads, tracer) -> dict:
    """Set up, run the timed loop, check; returns the raw measurements."""
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"run-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, tracer)

    setups = []
    for repeat in range(SETUP_REPEATS):
        started = time.perf_counter()
        workload.setup(run_dir / f"setup-{repeat}")
        setups.append(time.perf_counter() - started)
        if repeat < SETUP_REPEATS - 1:
            workload.teardown()

    tracer.enabled = bool(args.trace)
    rng = random.Random(args.seed)
    cold, warm, items, prefix_items = [], [], [], []
    client_latency, prefix_requests = {}, set()
    attempted = failed = 0
    counters_before = workload.service_counters() if tracer.enabled else {}
    prefix = {}  # filled when the prefix cycles end
    loop_started = time.perf_counter()

    def end_prefix() -> None:
        prefix["wall"] = time.perf_counter() - loop_started
        prefix["rss"] = peak_rss_mb()
        counters = workload.service_counters() if tracer.enabled else {}
        prefix["counters"] = {
            key: counters[key] - counters_before.get(key, 0) for key in counters
        }

    def timed(call):
        """Run one operation as its own request; (result, error, seconds)."""
        request = len(client_latency) + 1
        tracer.request = request
        if not prefix:
            prefix_requests.add(request)
        index = tracer.open("bench.op")
        started = time.perf_counter()
        result = error = None
        try:
            result = call()
        except Exception as exc:  # noqa: BLE001 — count it, keep the loop going
            error = exc
        elapsed = time.perf_counter() - started
        tracer.close(index)
        client_latency[request] = elapsed
        return result, error, elapsed

    # Keys the store's memory front holds: warm repeats read one of them,
    # except every DISK_READ_EVERY-th, which drops its key first and so
    # reads from disk.  The share of disk reads is thus fixed.
    in_memory = set()
    slots = 0
    cycle = 0
    try:
        while cycle < workload.prefix_cycles or (
            time.perf_counter() - loop_started < args.seconds
        ):
            if cycle == workload.prefix_cycles:
                end_prefix()
                workload.restart()
                in_memory.clear()
            for op in workload.cycle(cycle):
                attempted += op.count
                answered, error, elapsed = timed(op.call)
                if error is not None:
                    failed += op.count
                    print(f"perfbench: {op.label} failed: {error!r}", file=sys.stderr)
                    continue
                cold.append(elapsed)
                items.extend(answered)
                in_memory.update(item.key for item in answered)
                if not prefix:
                    prefix_items.extend(answered)
                for _ in range(workload.warm_per_cold):
                    slots += 1
                    window = items[-WARM_WINDOW:]
                    if slots % workload.DISK_READ_EVERY == 0:
                        item = rng.choice(window)
                        workload.forget(item.key)
                    else:
                        item = rng.choice([it for it in window if it.key in in_memory])
                    attempted += 1
                    _, error, elapsed = timed(lambda: workload.warm(item))
                    in_memory.add(item.key)
                    if error is not None:
                        failed += 1
                        print(f"perfbench: warm repeat failed: {error!r}", file=sys.stderr)
                        continue
                    warm.append(elapsed)
            cycle += 1
        loop_wall = time.perf_counter() - loop_started
        if not prefix:
            end_prefix()
        tracer.enabled = False
        workload.check()
    finally:
        tracer.enabled = False
        workload.teardown()
        shutil.rmtree(run_dir, ignore_errors=True)

    return {
        "setups": setups,
        "cold": cold,
        "warm": warm,
        "count": len(items),
        "loop_wall": loop_wall,
        "prefix": prefix,
        "rounds_total": sum(item.rounds for item in prefix_items),
        "attempted": attempted,
        "failed": failed,
        "mismatches": workload.mismatches,
        "cycles": cycle,
        "prefix_requests": prefix_requests,
        "client_latency": client_latency,
    }


def end_to_end(raw: dict, import_s: float) -> dict:
    cold, warm = raw["cold"], raw["warm"]
    if not cold or not warm:
        raise SystemExit("perfbench: no operation completed; nothing to report")
    return {
        "setup_s": import_s + statistics.median(raw["setups"]),
        "ops_per_s": raw["count"] / raw["loop_wall"],
        "op_p50_s": percentile(cold, 0.5),
        "op_tail_s": percentile(cold, tail_quantile(len(cold))),
        "warm_p50_ms": 1000.0 * percentile(warm, 0.5),
        "warm_tail_ms": 1000.0 * percentile(warm, tail_quantile(len(warm))),
        "peak_rss_mb": raw["prefix"]["rss"],
        "rounds_total": raw["rounds_total"],
    }


def untraced_twin(args) -> dict:
    """The same run untraced, in a fresh process; returns its detail."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "0",
        "--detail",
    ] + (["--smoke"] if args.smoke else [])
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(
            f"perfbench: untraced twin failed ({completed.returncode}):\n{completed.stderr}"
        )
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny instances, for the self-test")
    parser.add_argument("--detail", action="store_true", help="add the raw prefix figures to the JSON line")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    started = time.perf_counter()
    spans, workloads = import_library()
    import_s = time.perf_counter() - started

    twin = untraced_twin(args) if args.trace else None
    tracer = spans.Tracer()
    if args.trace:
        spans.install(tracer)
    raw = run_workload(args, workloads, tracer)

    mismatches = list(raw["mismatches"])
    if args.trace:
        values = spans.layer_metrics(
            tracer, raw["prefix_requests"], raw["client_latency"], raw["prefix"]["counters"]
        )
        values["trace.overhead_frac"] = raw["prefix"]["wall"] / twin["detail"]["prefix_wall_s"] - 1.0
        if twin["detail"]["rounds_total"] != raw["rounds_total"]:
            mismatches.append(
                f"traced rounds_total {raw['rounds_total']} != untraced {twin['detail']['rounds_total']}"
            )
        (WORK / "traces").mkdir(parents=True, exist_ok=True)
        tracer.dump(WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
        metrics = declared["per_layer"]
    else:
        values = end_to_end(raw, import_s)
        metrics = declared["end_to_end"]

    cold, warm = raw["cold"], raw["warm"]
    print(
        f"perfbench: {args.workload} seed={args.seed}: {raw['cycles']} cycles, "
        f"{len(cold)} cold ops (op_tail_s = p{100 * tail_quantile(len(cold)):.0f}), "
        f"{len(warm)} warm (warm_tail_ms = p{100 * tail_quantile(len(warm)):.0f})",
        file=sys.stderr,
    )
    for problem in mismatches:
        print(f"perfbench: MISMATCH {problem}", file=sys.stderr)

    result = {
        "correct": not mismatches,
        "attempted": raw["attempted"],
        "failed": raw["failed"] + len(mismatches),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics
        },
    }
    if args.detail:
        result["detail"] = {
            "prefix_wall_s": raw["prefix"]["wall"],
            "rounds_total": raw["rounds_total"],
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
