"""Property-based tests of the batch layer.

Two invariants beyond the differential suite:

* **padding never leaks** — an instance's batched results depend only
  on that instance, never on its neighbors in the packed arrays: any
  sub-batch (including a batch of one) of a random ragged batch
  returns exactly the rows the full batch returned for those
  instances;
* **chunked fan-out is deterministic** — :func:`parallel_map_chunked`
  returns the same results at any ``REPRO_JOBS`` × ``chunk_size``
  combination, because per-item seeds come from the global task index
  (:func:`chunk_seeds`), not from chunk or worker identity.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis.instances import InstanceSpec, hydrate
from repro.analysis.parallel import (
    chunk_seeds,
    chunk_tasks,
    parallel_map,
    parallel_map_chunked,
    task_seed,
)
from repro.graphs.batch_csr import numpy_available

settings.register_profile(
    "repro-batch",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro-batch")

needs_numpy = pytest.mark.skipif(
    not numpy_available(),
    reason="batch kernels need the fast-math extra (numpy)",
)


@st.composite
def ragged_specs(draw):
    """A ragged batch of 2-6 instance specs with mixed families and n."""
    specs = []
    for _ in range(draw(st.integers(2, 6))):
        kind = draw(st.sampled_from(["grid", "torus", "hub"]))
        seed = draw(st.integers(0, 30))
        if kind == "grid":
            rows = draw(st.integers(3, 7))
            cols = draw(st.integers(3, 7))
            spec = InstanceSpec(
                "grid", (rows, cols), partition=("voronoi", 4, seed)
            )
        elif kind == "torus":
            rows = draw(st.integers(3, 6))
            spec = InstanceSpec(
                "torus", (rows, rows), partition=("voronoi", 4, seed)
            )
        else:
            cycle = draw(st.integers(12, 48))
            spec = InstanceSpec(
                "hub", (cycle, 4), partition=("arcs", cycle, 4, 1)
            )
        specs.append(spec)
    return specs


@needs_numpy
@given(data=st.data(), specs=ragged_specs())
def test_padding_never_leaks_across_instances(data, specs):
    from repro.core.batch import measure_batch_vector
    from repro.core.existence import greedy_capped_shortcut

    instances = [hydrate(spec) for spec in specs]
    topologies = [instance.topology for instance in instances]
    caps = data.draw(
        st.lists(
            st.integers(1, 4), min_size=len(specs), max_size=len(specs)
        )
    )
    shortcuts = [
        greedy_capped_shortcut(instance.tree, instance.partition, cap)[0]
        for instance, cap in zip(instances, caps)
    ]
    full = measure_batch_vector(shortcuts, topologies)

    picked = data.draw(
        st.lists(
            st.integers(0, len(specs) - 1),
            min_size=1,
            max_size=len(specs),
            unique=True,
        )
    )
    sub = measure_batch_vector(
        [shortcuts[index] for index in picked],
        [topologies[index] for index in picked],
    )
    assert sub == [full[index] for index in picked]


def _seeded_chunk(start, items):
    # Honors the global-index seeding contract: item i's result uses
    # task_seed(base, start + offset), exactly as a per-task run would.
    seeds = chunk_seeds(7, start, len(items))
    return [item * 1000 + seed % 997 for item, seed in zip(items, seeds)]


def _seeded_task(task):
    index, item = task
    return item * 1000 + task_seed(7, index) % 997


@given(
    count=st.integers(0, 23),
    chunk_size=st.integers(1, 9),
    jobs=st.sampled_from([1, 2, 3]),
)
def test_chunked_fanout_matches_per_task_run(count, chunk_size, jobs):
    tasks = list(range(100, 100 + count))
    per_task = parallel_map(_seeded_task, list(enumerate(tasks)), jobs=1)
    chunked = parallel_map_chunked(
        _seeded_chunk, tasks, chunk_size=chunk_size, jobs=jobs
    )
    assert chunked == per_task


def test_chunk_tasks_cover_everything_in_order():
    chunks = chunk_tasks(range(10), 3)
    assert [start for start, _items in chunks] == [0, 3, 6, 9]
    assert [items for _start, items in chunks] == [
        [0, 1, 2], [3, 4, 5], [6, 7, 8], [9]
    ]
    assert chunk_tasks([], 4) == []
    with pytest.raises(ValueError):
        chunk_tasks(range(3), 0)


def test_chunk_seeds_are_global_index_seeds():
    assert chunk_seeds(42, 5, 3) == [task_seed(42, 5 + k) for k in range(3)]
