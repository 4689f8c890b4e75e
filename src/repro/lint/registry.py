"""The rule registry and the base class every lint rule extends.

A rule declares which AST node types it wants (``interests``) and receives
each matching node exactly once from the driver's single tree walk, together
with a :class:`FileContext` describing the file being linted.  Rules report
violations by calling ``ctx.report(...)``; pragma suppression is the
driver's job, never the rule's.

Registering is one decorator::

    @register
    class MyRule(Rule):
        name = "my-rule"
        description = "what it catches and why"
        interests = (ast.Call,)

        def visit(self, node, ctx):
            ...

The driver instantiates one rule object per run and reuses it for every
file; per-file state belongs in ``begin_file``/``end_file`` hooks or on the
context.  A rule whose check spans files (layering's import cycles)
collects per-file facts on itself and reports them from ``end_run``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Type

from repro.lint.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.config import LintConfig


@dataclass
class FileContext:
    """Everything a rule may know about the file under analysis."""

    #: Project-root-relative posix path (``src/repro/core/engine.py``).
    rel_path: str
    #: Absolute path on disk.
    abs_path: Path
    #: The file's source, split into lines (1-indexed via ``line(n)``).
    source_lines: list[str]
    #: The effective configuration for this run.
    config: "LintConfig"
    #: The file's parsed module (the one tree every rule's walk visits).
    tree: ast.Module
    #: Findings reported so far for this file (driver-owned).
    findings: list[Finding] = field(default_factory=list)

    def line(self, lineno: int) -> str:
        """The 1-indexed source line (empty string when out of range)."""
        if 1 <= lineno <= len(self.source_lines):
            return self.source_lines[lineno - 1]
        return ""

    def report(
        self, rule: "Rule", node: ast.AST, message: str
    ) -> None:
        """Record a violation of ``rule`` at ``node``."""
        self.findings.append(
            Finding(
                path=self.rel_path,
                line=getattr(node, "lineno", 1),
                column=getattr(node, "col_offset", 0) + 1,
                rule=rule.name,
                message=message,
            )
        )


class Rule:
    """Base class for lint rules (see module docstring for the contract)."""

    #: Unique kebab-case identifier (pragma and config key).
    name: str = ""
    #: One-line human description shown by reporters and ``--list-rules``.
    description: str = ""
    #: AST node types the driver should dispatch to :meth:`visit`.
    interests: tuple[type, ...] = ()

    def applies_to(self, rel_path: str, config: "LintConfig") -> bool:
        """Whether this rule runs on ``rel_path`` at all.

        The default is every file; path-scoped rules (float safety, cache
        discipline) override this using their configuration section.
        """
        return True

    def begin_file(self, ctx: FileContext) -> None:
        """Hook before any node of a file is visited."""

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        """Inspect one node of interest (override in subclasses)."""
        raise NotImplementedError

    def end_file(self, ctx: FileContext) -> None:
        """Hook after the last node of a file was visited."""

    def end_run(self) -> list[Finding]:
        """Findings that need every linted file, after the last one."""
        return []


#: All registered rule classes, keyed by rule name.
_REGISTRY: dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_cls.name:
        raise ValueError(f"rule {rule_cls.__name__} has no name")
    existing = _REGISTRY.get(rule_cls.name)
    if existing is not None and existing is not rule_cls:
        raise ValueError(f"duplicate rule name: {rule_cls.name!r}")
    _REGISTRY[rule_cls.name] = rule_cls
    return rule_cls


def registered_rules() -> dict[str, Type[Rule]]:
    """Name → class for every registered rule (built-ins auto-import)."""
    # Importing the rules package registers every built-in rule module.
    import repro.lint.rules  # noqa: F401  (import for side effect)

    return dict(_REGISTRY)


def instantiate(names: Iterable[str] | None = None) -> list[Rule]:
    """Rule instances for ``names`` (default: every registered rule)."""
    available = registered_rules()
    if names is None:
        selected = sorted(available)
    else:
        selected = list(names)
        unknown = [name for name in selected if name not in available]
        if unknown:
            raise KeyError(f"unknown lint rules: {sorted(unknown)}")
    return [available[name]() for name in selected]


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None.

    The helper most rules use to recognise calls like ``random.Random`` or
    ``datetime.now`` without resolving imports.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> str | None:
    """The trailing identifier of a call's callee (``C`` for ``a.b.C()``)."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None
