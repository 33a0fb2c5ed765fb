"""Context-scoped selection axes.

Every fast path has an executable-specification twin; where callers
outside the tests need to choose between them, a selection axis does:
``engine``, ``mode``, ``backend``, ``batch`` and ``faults``, each one
:class:`Axis` declared next to the code it selects.  The selected value lives in a
:class:`contextvars.ContextVar`, so a :meth:`Axis.using` scope is
visible to the current thread (or asyncio task) and to nothing else; a
new thread starts at the axis's declared default.
"""

from __future__ import annotations

import contextvars
import functools
from contextlib import contextmanager
from typing import Any, Callable, Generic, Iterator, Sequence, Type, TypeVar

T = TypeVar("T")


class Axis(Generic[T]):
    """A named selection with a default, a parser and an error type.

    ``parse`` maps a spec to the stored value and raises ``error`` on a
    spec it rejects.  ``None`` never reaches it: everywhere on the axis
    ``None`` means "the current scope's value".
    """

    def __init__(
        self, name: str, default: T, parse: Callable[[Any], T], error: Type[Exception]
    ) -> None:
        self.name = name
        self.default = default
        self.parse = parse
        self.error = error
        self._var = contextvars.ContextVar(f"repro.axes.{name}", default=default)

    @classmethod
    def of_choices(
        cls, name: str, default: str, choices: Sequence[str], error: Type[Exception]
    ) -> "Axis[str]":
        """An axis whose values are exactly the names in ``choices``."""

        def parse(value: Any) -> str:
            if value not in choices:
                raise error(f"unknown {name} {value!r}; available: {sorted(choices)}")
            return value

        return cls(name, default, parse, error)

    def get(self) -> T:
        """The value selected in the current scope."""
        return self._var.get()

    def resolve(self, value: Any) -> T:
        """Parse ``value``; ``None`` means the current scope's value."""
        return self._var.get() if value is None else self.parse(value)

    @contextmanager
    def using(self, value: Any) -> Iterator[T]:
        """Select ``value`` for the enclosed block (``None`` is a no-op)."""
        if value is None:
            yield self._var.get()
            return
        token = self._var.set(self.parse(value))
        try:
            yield self._var.get()
        finally:
            self._var.reset(token)

    def parameter(self, keyword: str) -> Callable:
        """Decorator giving an entry point a ``keyword=`` argument that
        is selected on this axis for the duration of the call."""

        def decorate(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                with self.using(kwargs.pop(keyword, None)):
                    return func(*args, **kwargs)

            return wrapper

        return decorate
