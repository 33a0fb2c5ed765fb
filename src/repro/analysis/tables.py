"""Plain-text tables for the experiment harness.

Every benchmark prints its results in paper-style rows through
:class:`Table`; ``EXPERIMENTS.md`` embeds the same renderings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence


class Table:
    """A fixed-header table rendered as aligned monospace text."""

    def __init__(self, title: str, headers: Sequence[str]) -> None:
        self.title = title
        self.headers = list(headers)
        self.rows: List[List[str]] = []

    def add_row(self, *cells: Any) -> None:
        """Append one row (cells are stringified)."""
        if len(cells) != len(self.headers):
            raise ValueError(
                f"expected {len(self.headers)} cells, got {len(cells)}"
            )
        self.rows.append([_fmt(c) for c in cells])

    def render(self) -> str:
        """Aligned text rendering with a title line."""
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title]
        lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(self.headers)))
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(c.rjust(widths[i]) for i, c in enumerate(row)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


@dataclass
class ExperimentResult:
    """One regenerated table plus machine-checkable data."""

    experiment: str
    claim: str
    table: Table
    data: Dict = field(default_factory=dict)
    notes: str = ""

    def render(self) -> str:
        lines = [f"## {self.experiment}: {self.claim}", "", str(self.table)]
        if self.notes:
            lines += ["", self.notes]
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
