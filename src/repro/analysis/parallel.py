"""Process-parallel experiment harness.

The ``run_eXX`` runners walk instance grids (families × seeds) whose
cells are completely independent; this module fans those cells out to
worker processes while keeping the results **deterministic**:

* every task carries its own seed (derive one with :func:`task_seed`
  from a base seed and the task index — never from worker identity);
* results are merged back in task-submission order, so tables and
  ``data`` payloads are identical at any worker count;
* the worker count comes from the ``REPRO_JOBS`` environment knob
  (default ``1`` = serial, ``0``/``auto`` = all cores) or an explicit
  ``jobs=`` argument.

Workers are separate processes, so task functions must be module-level
(picklable) and must not rely on the parent's axis scopes: workers
start at every axis default, and a runner ships the values its tasks
need in the payload, as E7 does with ``mode`` (see the ``_eXX_task``
workers in :mod:`repro.analysis.experiments`).

Task payloads should stay **compact**: ship an
:class:`~repro.analysis.instances.InstanceSpec` and hydrate it inside
the worker instead of pickling whole ``Topology`` objects — the
per-process instance cache makes every task after the first a
dictionary hit.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, Iterable, List, Optional, TypeVar

from repro.congest.randomness import mix

T = TypeVar("T")
R = TypeVar("R")

JOBS_ENV = "REPRO_JOBS"


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Effective worker count: explicit ``jobs``, else ``REPRO_JOBS``.

    ``0`` or ``"auto"`` selects ``os.cpu_count()``; unset defaults to
    serial execution (the deterministic, fork-free baseline).
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "1").strip().lower()
        if raw in ("", "auto"):
            jobs = 0
        else:
            try:
                jobs = int(raw)
            except ValueError:
                raise ValueError(
                    f"{JOBS_ENV}={raw!r} is not an integer or 'auto'"
                ) from None
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def task_seed(base: int, index: int) -> int:
    """Deterministic per-task seed, independent of the worker count."""
    return mix(base, index)


def chunk_seeds(base: int, start: int, count: int) -> List[int]:
    """Per-item seeds for a chunk of ``count`` tasks starting at ``start``.

    Chunked submission must derive every item's seed from its *global*
    task index — ``task_seed(base, start + offset)`` — never from the
    chunk index or a per-chunk stream, so a batch worker that processes
    ``tasks[start:start + count]`` in one call draws exactly the
    randomness the per-task loop would have drawn for the same items.
    This is the equivalence prerequisite for the ``batch="vector"``
    kernels: grids fanned out as spec chunks must be bit-identical to
    the serial per-spec run.
    """
    return [task_seed(base, start + offset) for offset in range(count)]


def chunk_tasks(tasks: Iterable[T], chunk_size: int) -> List[tuple]:
    """Split tasks into ``(start_index, items)`` chunks of ``chunk_size``.

    The start index is the chunk's first *global* task index; workers
    combine it with :func:`chunk_seeds` to reproduce per-task seeding.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    task_list = list(tasks)
    return [
        (start, task_list[start : start + chunk_size])
        for start in range(0, len(task_list), chunk_size)
    ]


def parallel_map_chunked(
    fn: Callable[[int, List[T]], List[R]],
    tasks: Iterable[T],
    *,
    chunk_size: int,
    jobs: Optional[int] = None,
) -> List[R]:
    """Fan out tasks in chunks; workers see ``(start_index, items)``.

    The chunked twin of :func:`parallel_map` for batch processing:
    ``fn`` receives a whole chunk (plus its global start index, for
    :func:`chunk_seeds`) and returns one result per item, in item
    order.  Results are flattened back to global task order, so any
    ``chunk_size`` × ``jobs`` combination returns exactly what
    ``parallel_map`` over single tasks would — provided ``fn`` honors
    the global-index seeding contract.
    """
    chunks = chunk_tasks(tasks, chunk_size)
    per_chunk = parallel_map(
        _ChunkCall(fn), chunks, jobs=jobs
    )
    results: List[R] = []
    for (start, items), chunk_results in zip(chunks, per_chunk):
        if len(chunk_results) != len(items):
            raise ValueError(
                f"chunk at {start} returned {len(chunk_results)} results "
                f"for {len(items)} tasks"
            )
        results.extend(chunk_results)
    return results


class _ChunkCall:
    """Picklable adapter unpacking ``(start, items)`` into ``fn`` calls."""

    def __init__(self, fn: Callable[[int, List[T]], List[R]]):
        self.fn = fn

    def __call__(self, chunk: tuple) -> List[R]:
        start, items = chunk
        return list(self.fn(start, items))


def _pool_attempt(
    fn: Callable[[T], R], indexed_tasks: List, workers: int
) -> tuple:
    """Run ``(index, task)`` pairs through one pool.

    Returns ``(results, failed)``: per-index results plus the sorted
    indices whose futures died with the pool (a crashed worker fails
    every task in flight and poisons the executor).  Exceptions raised
    *by the task itself* propagate unchanged.
    """
    results: Dict[int, R] = {}
    failed: List[int] = []
    with ProcessPoolExecutor(
        max_workers=min(workers, len(indexed_tasks))
    ) as pool:
        futures = [
            (index, pool.submit(fn, task)) for index, task in indexed_tasks
        ]
        for index, future in futures:
            try:
                results[index] = future.result()
            except BrokenProcessPool:
                failed.append(index)
    return results, sorted(failed)


def parallel_map(
    fn: Callable[[T], R], tasks: Iterable[T], *, jobs: Optional[int] = None
) -> List[R]:
    """Apply ``fn`` to every task, fanning out over processes.

    Results come back in task order regardless of completion order, so
    a ``jobs=8`` run is indistinguishable from a serial one.

    The fan-out survives worker crashes: a task whose worker process
    dies (OOM kill, segfault, ``os._exit``) poisons the whole pool, so
    the affected tasks are retried once in a fresh pool, and — if that
    pool breaks too — finished serially in the parent, each step with a
    warning.  Falls back to serial execution entirely where worker
    processes cannot be spawned at all.  Exceptions *raised by a task*
    are not retried; they propagate as in a serial run.
    """
    task_list = list(tasks)
    workers = min(resolve_jobs(jobs), len(task_list))
    if workers <= 1:
        return [fn(task) for task in task_list]
    try:
        results, failed = _pool_attempt(fn, list(enumerate(task_list)), workers)
        if failed:
            warnings.warn(
                f"parallel_map: a worker process died; retrying "
                f"{len(failed)} affected task(s) in a fresh pool",
                RuntimeWarning,
                stacklevel=2,
            )
            retried, failed = _pool_attempt(
                fn, [(index, task_list[index]) for index in failed], workers
            )
            results.update(retried)
        if failed:
            warnings.warn(
                f"parallel_map: worker processes keep dying; running "
                f"{len(failed)} task(s) serially in the parent",
                RuntimeWarning,
                stacklevel=2,
            )
            for index in failed:
                results[index] = fn(task_list[index])
        return [results[index] for index in range(len(task_list))]
    except (OSError, PermissionError) as error:
        warnings.warn(
            f"parallel_map: cannot spawn worker processes ({error}); "
            f"falling back to serial execution",
            RuntimeWarning,
            stacklevel=2,
        )
        return [fn(task) for task in task_list]
