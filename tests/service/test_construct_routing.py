"""The service's one construction path: which items climb the vector ladder.

``shortcut``/``quality`` constructions with ``mode="direct"`` run through
one :func:`repro.core.batch.find_shortcut_doubling_batch` call when numpy
is installed and the topology has at least ``VECTOR_MIN_N`` nodes; every
other item runs the per-instance doubling search.  The route must never
show in an answer: every payload equals the library's direct-mode
payload, whichever way it was built.
"""

import threading

import pytest

from repro.analysis.instances import clear_instance_cache, reference_instance
from repro.core import batch, quality
from repro.core.doubling import find_shortcut_doubling
from repro.graphs.batch_csr import numpy_available
from repro.service import server
from repro.service.server import VECTOR_MIN_N, ShortcutService, parse_spec


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_instance_cache()
    yield
    clear_instance_cache()


@pytest.fixture
def ladder_calls(monkeypatch):
    """Count the service's vector-ladder calls (it calls through the module)."""
    calls = []
    real = batch.find_shortcut_doubling_batch

    def counting(topologies, *args, **kwargs):
        calls.append([topology.n for topology in topologies])
        return real(topologies, *args, **kwargs)

    monkeypatch.setattr(batch, "find_shortcut_doubling_batch", counting)
    return calls


def spec_json(family, params, parts, seed):
    return {
        "family": family,
        "params": list(params),
        "partition": ["voronoi", parts, seed],
    }


def library_payload(op, spec_body, seed, mode="direct"):
    """The payload straight from the library, per instance, no service."""
    instance = reference_instance(parse_spec(spec_body))
    outcome = find_shortcut_doubling(
        instance.topology, instance.tree, instance.partition, seed=seed, mode=mode
    )
    report = quality.measure(
        outcome.result.shortcut,
        instance.topology,
        with_dilation=server.PARAM_DEFAULTS["with_dilation"],
    )
    payload = (
        server._quality_payload(outcome, report)
        if op == "quality"
        else server._shortcut_payload(outcome, report)
    )
    clear_instance_cache()
    return payload


def unbatched_answers(requests):
    """Each request answered on its own by a fresh, window-less service."""
    service = ShortcutService(store=None, workers=1)
    try:
        return [service.handle(op, body) for op, body in requests]
    finally:
        service.close()


# Both sides of the crossover: hub n = 1,023 / 1,024, grid n = 512 / 1,024.
CROSSOVER_SPECS = [
    ("hub", (1022, 8)),
    ("hub", (1023, 8)),
    ("grid", (16, 32)),
    ("grid", (32, 32)),
]


@pytest.mark.parametrize("family, params", CROSSOVER_SPECS)
@pytest.mark.parametrize("op", ["shortcut", "quality"])
def test_payload_equals_library_on_both_sides_of_the_crossover(
    family, params, op, ladder_calls
):
    body = spec_json(family, params, 24, 3)
    service = ShortcutService(store=None, workers=1)
    try:
        response = service.handle(op, {"spec": body, "seed": 7})
    finally:
        service.close()
    assert response.status == 200
    n = reference_instance(parse_spec(body)).topology.n
    laddered = numpy_available() and n >= VECTOR_MIN_N
    assert ladder_calls == ([[n]] if laddered else [])
    assert response.body["result"] == library_payload(op, body, 7)


def test_simulate_mode_above_the_crossover_never_climbs_the_ladder(ladder_calls):
    body = spec_json("hub", (1023, 8), 24, 1)
    service = ShortcutService(store=None, workers=1)
    try:
        response = service.handle(
            "shortcut", {"spec": body, "seed": 1, "mode": "simulate"}
        )
    finally:
        service.close()
    assert response.status == 200
    assert ladder_calls == []
    assert response.body["result"] == library_payload(
        "shortcut", body, 1, mode="simulate"
    )


def test_without_numpy_no_ladder_call_and_the_same_payload(
    monkeypatch, ladder_calls
):
    body = spec_json("grid", (32, 32), 24, 2)
    expected = library_payload("quality", body, 4)
    monkeypatch.setattr(server, "numpy_available", lambda: False)
    service = ShortcutService(store=None, workers=1)
    try:
        response = service.handle("quality", {"spec": body, "seed": 4})
    finally:
        service.close()
    assert response.status == 200
    assert ladder_calls == []
    assert response.body["result"] == expected


def test_a_raising_ladder_falls_back_per_instance(monkeypatch):
    requests = [
        ("shortcut", {"spec": spec_json("grid", (32, 32), 24, 5), "seed": 5}),
        ("quality", {"spec": spec_json("hub", (1023, 8), 24, 6), "seed": 6}),
    ]
    expected = unbatched_answers(requests)

    def broken(*args, **kwargs):
        raise RuntimeError("ladder offline")

    monkeypatch.setattr(batch, "find_shortcut_doubling_batch", broken)
    got = unbatched_answers(requests)
    assert [r.status for r in got] == [200, 200]
    assert [r.body for r in got] == [r.body for r in expected]


def test_a_raising_ladder_keeps_errors_per_item_in_a_window(monkeypatch):
    good = {"spec": spec_json("grid", (32, 32), 24, 8), "seed": 8}
    bad = {"spec": {"family": "grid", "params": [4, 4]}}
    (expected,) = unbatched_answers([("shortcut", good)])

    def broken(*args, **kwargs):
        raise RuntimeError("ladder offline")

    monkeypatch.setattr(batch, "find_shortcut_doubling_batch", broken)
    responses = fire_window("shortcut", [good, bad])
    assert responses[0].status == 200
    assert responses[0].body["result"] == expected.body["result"]
    assert responses[1].status == 422


def fire_window(op, bodies, service=None):
    """Send every body concurrently into one batch window; the responses."""
    own = service is None
    if own:
        service = ShortcutService(
            store=None, workers=2, batch_window_s=30.0, batch_limit=len(bodies)
        )
    responses = [None] * len(bodies)

    def fire(index):
        responses[index] = service.handle(op, bodies[index])

    threads = [threading.Thread(target=fire, args=(i,)) for i in range(len(bodies))]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        if own:
            service.close()
    return responses


def test_mixed_window_makes_one_ladder_call(ladder_calls):
    # One grid window: two items above the crossover, one below, one
    # simulate item, and one partitionless spec.
    bodies = [
        {"spec": spec_json("grid", (32, 32), 24, 11), "seed": 11},
        {"spec": spec_json("grid", (16, 64), 24, 12), "seed": 12},
        {"spec": spec_json("grid", (16, 16), 16, 13), "seed": 13},
        {"spec": spec_json("grid", (5, 5), 4, 14), "seed": 14, "mode": "simulate"},
        {"spec": {"family": "grid", "params": [4, 4]}},
    ]
    expected = unbatched_answers([("quality", body) for body in bodies])
    ladder_calls.clear()

    service = ShortcutService(
        store=None, workers=2, batch_window_s=30.0, batch_limit=len(bodies)
    )
    try:
        responses = fire_window("quality", bodies, service)
        batched = service.stats.batched
    finally:
        service.close()

    assert ladder_calls == ([[1024, 1024]] if numpy_available() else [])
    assert [r.status for r in responses] == [200, 200, 200, 200, 422]
    assert [r.body for r in responses] == [r.body for r in expected]
    assert "partition" in responses[4].body["error"]
    assert batched == 4
