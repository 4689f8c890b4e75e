"""Layering: imports point down the architecture's tiers, and never loop.

The package is layered (constants/obs → geodesy → uls → core → … → cli,
see :data:`LAYERS`): a module may import its own
tier or a lower one.  Every ``import`` counts, function-local ones
included — a handler-local import still makes the lower tier depend on
the higher one.  Modules matching no tier (``repro.lint``, the ``repro``
package itself) are untiered: importable from anywhere, and their own
imports are not checked.

The rule also reports import cycles among the linted files.  Cycles count
module-body imports only: a function-local import runs after every module
has loaded, which is how a cycle is legitimately broken.

A file's module name comes from its package directories (each holding an
``__init__.py``): ``src/repro/core/engine.py`` is ``repro.core.engine``.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.lint.findings import Finding
from repro.lint.registry import FileContext, Rule

#: The import layering, lowest tier first.  A module may import same-tier
#: or lower-tier modules; importing upward is a finding.  Modules matching
#: no entry (``repro.lint``, the ``repro`` package itself) are untiered:
#: they may be imported from anywhere and the rule stays silent about
#: their own imports.
LAYERS = (
    ("repro.constants", "repro.obs"),
    ("repro.geodesy",),
    ("repro.uls",),
    ("repro.core",),
    ("repro.store",),
    ("repro.leo", "repro.radio", "repro.synth"),
    ("repro.scenarios",),
    ("repro.metrics",),
    ("repro.viz",),
    ("repro.analysis", "repro.design"),
    ("repro.serve",),
    ("repro.cli", "repro.__main__"),
)


def module_name(path: Path) -> tuple[str, Path]:
    """``path``'s dotted module name and the directory its package sits in."""
    parts = [] if path.name == "__init__.py" else [path.stem]
    directory = path.parent
    while (directory / "__init__.py").is_file():
        parts.append(directory.name)
        directory = directory.parent
    return ".".join(reversed(parts)), directory


def tier_of(module: str) -> tuple[int, str] | None:
    """``(tier, entry)`` of the longest layer entry ``module`` falls under."""
    best: tuple[int, str] | None = None
    for tier, entries in enumerate(LAYERS):
        for entry in entries:
            if module == entry or module.startswith(entry + "."):
                if best is None or len(entry) > len(best[1]):
                    best = (tier, entry)
    return best


class LayeringRule(Rule):
    """Imports respect the tier order; module-body imports form no cycle."""

    name = "layering"
    description = (
        "import against the layering (constants/obs -> geodesy -> uls -> "
        "core -> analyses -> cli) or an import cycle: lower tiers must "
        "not know about higher ones"
    )
    interests = (ast.Import, ast.ImportFrom)

    def __init__(self) -> None:
        #: module → (rel_path, module-body edges ``(dep, line, column)``).
        self._edges: dict[str, tuple[str, list[tuple[str, int, int]]]] = {}
        self._is_module: dict[Path, bool] = {}

    def begin_file(self, ctx: FileContext) -> None:
        self._module, self._base = module_name(ctx.abs_path)
        self._is_package = ctx.abs_path.name == "__init__.py"
        self._tier = tier_of(self._module)
        edges = [
            (dep, node.lineno, node.col_offset + 1)
            for node in ctx.tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for dep in self._imported(node)
        ]
        self._edges[self._module] = (ctx.rel_path, edges)

    def _exists(self, module: str) -> bool:
        path = self._base.joinpath(*module.split("."))
        if path not in self._is_module:
            self._is_module[path] = (
                path.with_suffix(".py").is_file()
                or (path / "__init__.py").is_file()
            )
        return self._is_module[path]

    def _imported(self, node: ast.Import | ast.ImportFrom) -> list[str]:
        """The modules ``node`` imports, itself excluded.

        ``from a import b`` imports module ``a.b`` when that module
        exists, else names from module ``a``.
        """
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            base = node.module or ""
            if node.level:
                parts = self._module.split(".")
                if not self._is_package:
                    parts = parts[:-1]
                parts = parts[: len(parts) - (node.level - 1)]
                base = ".".join(part for part in (*parts, base) if part)
            modules = []
            for alias in node.names:
                candidate = f"{base}.{alias.name}" if base else alias.name
                modules.append(
                    candidate
                    if alias.name != "*" and self._exists(candidate)
                    else base
                )
        return sorted({m for m in modules if m and m != self._module})

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        assert isinstance(node, (ast.Import, ast.ImportFrom))
        importer = self._tier
        if importer is None:
            return
        for dep in self._imported(node):
            imported = tier_of(dep)
            if imported is not None and imported[0] > importer[0]:
                ctx.report(
                    self,
                    node,
                    f"layering violation: {self._module} (tier "
                    f"{importer[0]}, {importer[1]}) imports {dep} (tier "
                    f"{imported[0]}, {imported[1]}); dependencies must "
                    "point at the same or a lower tier",
                )

    def end_run(self) -> list[Finding]:
        """One finding per import cycle among the linted modules.

        Each module not yet on a reported cycle searches (breadth first,
        sorted edges) for its shortest way back to itself; the finding
        sits on the import that starts that cycle.
        """
        graph = {
            module: sorted(
                {(dep, line, column) for dep, line, column in edges
                 if dep in self._edges}
            )
            for module, (_path, edges) in self._edges.items()
        }
        findings: list[Finding] = []
        on_cycle: set[str] = set()
        for start in sorted(graph):
            if start in on_cycle:
                continue
            parent: dict[str, tuple[str, int, int]] = {}
            queue = [start]
            while queue and start not in parent:
                module = queue.pop(0)
                for dep, line, column in graph[module]:
                    if dep not in parent:
                        parent[dep] = (module, line, column)
                        queue.append(dep)
            if start not in parent:
                continue
            back: list[str] = []
            module, line, column = parent[start]
            while module != start:
                back.append(module)
                module, line, column = parent[module]
            cycle = [start, *reversed(back)]
            on_cycle.update(cycle)
            findings.append(
                Finding(
                    path=self._edges[start][0],
                    line=line,
                    column=column,
                    rule=self.name,
                    message="import cycle: "
                    + " -> ".join((*cycle, start)),
                )
            )
        return findings
