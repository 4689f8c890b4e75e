"""The unit of lint output: one finding at one source location.

Findings are plain frozen dataclasses so reporters and tests can treat
them as values: two findings are the same finding iff their
``(path, rule, line, column, message)`` tuples are equal.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True, order=True)
class Finding:
    """One rule violation at one source location.

    ``path`` is stored relative to the project root (posix separators) so
    findings are stable across machines.
    """

    path: str
    line: int
    column: int
    rule: str
    message: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.column}"

    def as_dict(self) -> dict:
        """The JSON-reporter representation."""
        return {
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "rule": self.rule,
            "message": self.message,
        }
