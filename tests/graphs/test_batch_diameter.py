"""``bounded_diameter_batch`` against the per-segment scan.

The batch kernel runs the eccentricity-bounding scan over every
segment in lockstep and finishes near-symmetric stragglers with one
BFS per remaining candidate; both must agree with
:func:`repro.graphs.csr.bounded_diameter` segment by segment, on the
ELL path (max degree <= ELL_DEGREE_LIMIT) and the CSR path alike.
"""

import random

import pytest

from repro.graphs.batch_csr import ELL_DEGREE_LIMIT, numpy_available
from repro.graphs.csr import bounded_diameter

pytestmark = pytest.mark.skipif(
    not numpy_available(),
    reason="batch kernels need the fast-math extra (numpy)",
)


def _cycle(k):
    return [[(i - 1) % k, (i + 1) % k] for i in range(k)] if k > 2 else _path(k)


def _path(k):
    return [[w for w in (i - 1, i + 1) if 0 <= w < k] for i in range(k)]


def _torus(side):
    def node(r, c):
        return (r % side) * side + c % side

    return [
        sorted({node(r + 1, c), node(r - 1, c), node(r, c + 1), node(r, c - 1)})
        for r in range(side)
        for c in range(side)
    ]


def _hub(k):
    """A star plus a path through the leaves: one node of degree k - 1."""
    adjacency = [set() for _ in range(k)]
    for i in range(1, k):
        adjacency[0].add(i)
        adjacency[i].add(0)
        if i + 1 < k:
            adjacency[i].add(i + 1)
            adjacency[i + 1].add(i)
    return [sorted(row) for row in adjacency]


def _random(rng, k, density):
    adjacency = [set() for _ in range(k)]
    for _ in range(int(k * density)):
        a, b = rng.randrange(k), rng.randrange(k)
        if a != b:
            adjacency[a].add(b)
            adjacency[b].add(a)
    return [sorted(row) for row in adjacency]


def _tree(rng, k):
    adjacency = [set() for _ in range(k)]
    for i in range(1, k):
        j = rng.randrange(i)
        adjacency[i].add(j)
        adjacency[j].add(i)
    return [sorted(row) for row in adjacency]


def _batch_diameters(segments):
    import numpy as np

    from repro.graphs.batch_csr import bounded_diameter_batch

    starts, indptr, indices = [0], [0], []
    for adjacency in segments:
        base = starts[-1]
        for row in adjacency:
            indices.extend(base + w for w in row)
            indptr.append(len(indices))
        starts.append(base + len(adjacency))
    as_array = lambda values: np.asarray(values, dtype=np.int64)  # noqa: E731
    return bounded_diameter_batch(
        np, as_array(indptr), as_array(indices), as_array(starts)
    ).tolist()


def _check(segments):
    expected = [bounded_diameter(adjacency) if adjacency else 0 for adjacency in segments]
    assert _batch_diameters(segments) == expected


def test_shapes_mixed_in_one_batch():
    rng = random.Random(3)
    _check(
        [
            [],  # an empty segment
            [[]],  # a singleton
            [[1], [0]],
            _cycle(5),
            _cycle(40),
            _torus(6),
            _path(30),
            _tree(rng, 50),
            _random(rng, 30, 1.5),
            [[1], [0], []],  # disconnected
            [[1], [0], [3], [2]],  # disconnected, no singleton
        ]
    )


def test_many_symmetric_segments_reach_the_finishing_pass():
    # Cycles and tori kill few candidates per pass, so the scan hands
    # their candidates to the one-BFS-per-candidate finishing pass.
    rng = random.Random(7)
    segments = [_cycle(rng.randrange(3, 60)) for _ in range(120)]
    segments += [_torus(rng.randrange(3, 9)) for _ in range(20)]
    segments += [_tree(rng, rng.randrange(2, 40)) for _ in range(40)]
    rng.shuffle(segments)
    _check(segments)


def test_high_degree_segments_take_the_csr_path():
    rng = random.Random(11)
    hub = _hub(ELL_DEGREE_LIMIT + 10)
    assert max(len(row) for row in hub) > ELL_DEGREE_LIMIT
    segments = [hub, _cycle(30), [[]], _random(rng, 25, 1.0), _hub(40)]
    segments += [_cycle(rng.randrange(3, 40)) for _ in range(60)]
    _check(segments)


@pytest.mark.parametrize("seed", range(12))
def test_random_batches(seed):
    rng = random.Random(seed)
    segments = []
    for _ in range(rng.randrange(1, 80)):
        k = rng.choice([1, 2, 3, 5, 8, 13, 30, 70])
        kind = rng.random()
        if kind < 0.3:
            segments.append(_tree(rng, k))
        elif kind < 0.5:
            segments.append(_cycle(k))
        else:
            segments.append(_random(rng, k, rng.uniform(0.5, 2.0)))
    _check(segments)
