"""Regenerate ``EXPERIMENTS.md`` from the experiment runners.

Usage::

    python -m repro.analysis.report [small|paper] [output-path]

Runs every experiment E1–E23 and writes the paper-claim-vs-measured
record.  The same tables print during ``pytest benchmarks/bench_*.py``.  Set
``REPRO_JOBS`` to fan the parallel-friendly runners out over worker
processes (the output is identical at any worker count).
"""

from __future__ import annotations

import sys
import time

from repro.analysis.experiments import ALL_EXPERIMENTS

# Construction-heavy runners regenerate in direct mode (simulation-free
# kernels, bit-for-bit identical outputs — see repro.core.construct_fast):
# that is what makes their largest paper-scale grids reachable at all.
DIRECT_MODE_RUNNERS = frozenset({"E7", "E11", "E12"})

# Application runners additionally regenerate on the direct partwise
# backend (see repro.core.partwise_fast) — same outputs and ledger
# structure, extended instance grids.
DIRECT_BACKEND_RUNNERS = frozenset({"E9", "E10", "E13"})

HEADER = """\
# EXPERIMENTS — paper claims vs. measurements

Regenerate with ``python -m repro.analysis.report {scale}`` or inspect
individual tables via ``pytest benchmarks/bench_*.py --benchmark-only``.

The paper ("Low-Congestion Shortcuts without Embedding", PODC 2016) is
a theory paper: it has no measured tables, and its only figure is an
illustration (reproduced by ``examples/visualize_blocks.py``).  Its
quantitative content is the set of theorems and lemmas below; each
experiment regenerates one of them on the CONGEST simulator and reports
the measured quantity against the claimed bound.  The experiment index
lives in ``repro.analysis.experiments`` (one ``run_eXX`` per claim,
wrapped by ``benchmarks/bench_eXX_*.py``).  E14–E18, E21 and E22 check
no paper claim: they are the rows of ``repro.bench`` (wrapped by
``benchmarks/bench_twins.py``, run alone with ``python -m repro.bench``),
which time each fast twin — simulator engine, quality kernel,
construction mode, application backend, instance pipeline, batch
kernels, batched doubling ladder — against its reference twin and
re-check ``==`` between their outputs.  E19 stresses the framework
under edge failures (degradation of survivors, incremental repair vs
full rebuild), E20 exercises the fault-tolerant shortcut service
(persistent-store warm path, recovery after corruption, seeded chaos
storm), and E23 measures the unreliable-network stack (the
reliable-delivery sublayer's round overhead, message amplification,
and recovery rate under seeded transport faults, plus crash-stop
detection).

**Summary of reproduction status** (scale = ``{scale}``): every bound
holds on every instance tested; the w.h.p. guarantees hold on every
seed tried; the asymptotic shapes (who wins, where, and how growth
scales) match the paper's claims.  Absolute round counts are simulator
rounds and carry our constants — the paper states only asymptotics.

"""


def generate(scale: str = "small") -> str:
    sections = [HEADER.format(scale=scale)]
    for name, runner in ALL_EXPERIMENTS.items():
        start = time.time()
        if name in DIRECT_MODE_RUNNERS:
            result = runner(scale, construct_mode="direct")
        elif name in DIRECT_BACKEND_RUNNERS:
            result = runner(scale, backend="direct", construct_mode="direct")
        else:
            result = runner(scale)
        elapsed = time.time() - start
        sections.append(result.render())
        sections.append(f"\n*(regenerated in {elapsed:.1f}s)*\n")
    return "\n".join(sections)


def main(argv) -> int:
    scale = argv[1] if len(argv) > 1 else "small"
    path = argv[2] if len(argv) > 2 else "EXPERIMENTS.md"
    text = generate(scale)
    with open(path, "w") as handle:
        handle.write(text)
    print(f"wrote {path} ({len(text.splitlines())} lines, scale={scale})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
