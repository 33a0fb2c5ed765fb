"""The selection-axis contract, checked on all five axes.

Every axis (``engine``, ``mode``, ``backend``, ``batch``, ``faults``)
is a context-scoped :class:`repro.axes.Axis`.  ``None`` is a
no-op, scopes nest and restore (also when the block raises), an
unknown value raises the axis's error type, and a scope is visible to
the thread that opened it and to no other thread.

The tests drive the public ``using_*`` / ``resolve_*`` bindings, the
names callers use.
"""

import threading
from typing import Any, Callable, NamedTuple, Type

import pytest

from repro.congest.engine import (
    BatchedEngine,
    ReferenceEngine,
    resolve_engine,
    using_engine,
)
from repro.congest.faults import FaultPlan, resolve_faults, using_faults
from repro.core.batch import resolve_batch, using_batch
from repro.core.construct_fast import resolve_mode, using_mode
from repro.core.partwise_fast import resolve_backend, using_backend
from repro.errors import ShortcutError, SimulationError

TIMEOUT_S = 30.0
PLAN = FaultPlan(seed=3, p_drop=0.3)


class Case(NamedTuple):
    using: Callable
    resolve: Callable
    default_spec: Any  # a spec selecting the declared default
    default: Any  # the declared default, as resolved
    other_spec: Any
    other: Any
    error: Type[Exception]


CASES = {
    "engine": Case(
        using_engine, resolve_engine,
        "batched", BatchedEngine, "reference", ReferenceEngine, SimulationError,
    ),
    "mode": Case(
        using_mode, resolve_mode,
        "simulate", "simulate", "direct", "direct", ShortcutError,
    ),
    "backend": Case(
        using_backend, resolve_backend,
        "simulate", "simulate", "direct", "direct", ShortcutError,
    ),
    "batch": Case(
        using_batch, resolve_batch,
        "loop", "loop", "vector", "vector", ShortcutError,
    ),
    "faults": Case(
        using_faults, resolve_faults,
        "none", None, PLAN, PLAN, SimulationError,
    ),
}

axes = pytest.mark.parametrize("case", list(CASES.values()), ids=list(CASES))


@axes
def test_none_is_a_no_op(case):
    assert case.resolve(None) == case.default
    with case.using(case.other_spec):
        with case.using(None) as selected:
            assert selected == case.other
            assert case.resolve(None) == case.other
    with case.using(None) as selected:
        assert selected == case.default


@axes
def test_nested_scopes_restore_even_on_exception(case):
    with case.using(case.other_spec) as selected:
        assert selected == case.other
        with pytest.raises(RuntimeError):
            with case.using(case.default_spec):
                assert case.resolve(None) == case.default
                raise RuntimeError("leave the inner scope by raising")
        assert case.resolve(None) == case.other
    assert case.resolve(None) == case.default


@axes
def test_unknown_value_raises_the_axis_error(case):
    with pytest.raises(case.error):
        case.resolve("turbo")
    with pytest.raises(case.error):
        with case.using("turbo"):
            pass  # pragma: no cover - the scope must not open
    with pytest.raises(case.error):
        case.resolve(object())
    assert case.resolve(None) == case.default


def _in_thread(func: Callable[[], Any]) -> Any:
    """Run ``func`` on a new thread and return its result."""
    box = []
    thread = threading.Thread(target=lambda: box.append(func()))
    thread.start()
    thread.join(TIMEOUT_S)
    assert not thread.is_alive()
    return box[0]


@axes
def test_fresh_thread_sees_the_declared_default(case):
    with case.using(case.other_spec):
        assert _in_thread(lambda: case.resolve(None)) == case.default
    assert _in_thread(lambda: case.resolve(None)) == case.default


@axes
def test_overlapping_scopes_in_two_threads_stay_apart(case):
    """Thread A opens a scope, B opens one inside A's lifetime, A exits
    first.  Each step is ordered by an Event, so the interleaving is
    the same on every run.  Neither thread nor a third observer may see
    a scope it did not open, and nothing is left selected afterwards.
    """
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def wait(event):
        assert event.wait(TIMEOUT_S)

    def thread_a():
        with case.using(case.other_spec):
            a_in.set()
            wait(b_in)
            seen["a inside"] = case.resolve(None)
        a_out.set()

    def thread_b():
        wait(a_in)
        with case.using(case.other_spec):
            b_in.set()
            wait(a_out)
            seen["b inside, after a left"] = case.resolve(None)

    def observer():
        wait(b_in)
        seen["observer"] = case.resolve(None)

    threads = [threading.Thread(target=f) for f in (thread_a, thread_b, observer)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(TIMEOUT_S)
        assert not thread.is_alive()
    assert seen == {
        "a inside": case.other,
        "b inside, after a left": case.other,
        "observer": case.default,
    }
    assert case.resolve(None) == case.default
    assert _in_thread(lambda: case.resolve(None)) == case.default


def test_axis_declarations_match_the_table():
    from repro.congest.engine import ENGINE
    from repro.congest.faults import FAULTS
    from repro.core.batch import BATCH
    from repro.core.construct_fast import MODE
    from repro.core.partwise_fast import BACKEND

    declared = {axis.name: axis for axis in (ENGINE, MODE, BACKEND, BATCH, FAULTS)}
    assert sorted(declared) == sorted(CASES)
    for name, case in CASES.items():
        axis = declared[name]
        assert (axis.default, axis.error) == (case.default, case.error)
        assert case.resolve.__self__ is axis and case.using.__self__ is axis


def test_scoped_engine_subclass_resolves_to_itself():
    class Probe(BatchedEngine):
        pass

    with using_engine(Probe):
        assert resolve_engine(None) is Probe
        with using_engine(None):
            assert resolve_engine(None) is Probe
    assert resolve_engine(None) is BatchedEngine


def test_parameter_decorator_scopes_one_call():
    from repro.axes import Axis

    axis = Axis.of_choices("probe", "a", ("a", "b"), ShortcutError)

    @axis.parameter("choice")
    def current(*args, **kwargs):
        return axis.get(), args, kwargs

    assert current(1, x=2) == ("a", (1,), {"x": 2})
    assert current(1, choice="b", x=2) == ("b", (1,), {"x": 2})
    assert current(choice=None) == ("a", (), {})
    with pytest.raises(ShortcutError):
        current(choice="c")
    assert axis.get() == "a"
