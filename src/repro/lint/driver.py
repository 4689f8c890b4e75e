"""The lint driver: parse once, walk once, dispatch to rules.

``lint_paths`` is the subsystem's single entry point: it expands files and
directories, runs every rule over each file's AST in one walk,
collects the findings rules report once every file is seen (layering's
import cycles), applies inline pragmas and returns a :class:`LintResult`
the reporters and the CLI consume.  It reads files and writes none.

Unparseable files are themselves findings (rule ``syntax-error``) rather
than crashes: a linter that dies on the file it should be flagging is
useless in CI.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.findings import Finding
from repro.lint.pragmas import is_suppressed, parse_pragmas
from repro.lint.registry import FileContext, Rule
from repro.lint.rules import RULES

#: The pseudo-rule name attached to unparseable files.  Not suppressible
#: via pragmas (a broken file cannot be trusted to parse its own pragmas).
SYNTAX_RULE = "syntax-error"

#: What a run lints when given no paths (relative to the project root).
DEFAULT_PATHS = ("src/repro",)


@dataclass
class LintResult:
    """Everything one lint run produced."""

    #: Findings not covered by a pragma — these fail the run.
    findings: list[Finding]
    #: Count of pragma-suppressed findings (for the summary line).
    suppressed: int
    #: Files actually linted (root-relative).
    files: list[str] = field(default_factory=list)
    #: Rule names that ran.
    rules: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings


def find_project_root(start: Path | None = None) -> Path:
    """The nearest ancestor of ``start`` holding a pyproject.toml (or .git).

    Falls back to ``start`` itself so the linter still runs on loose trees.
    """
    current = (start or Path.cwd()).resolve()
    if current.is_file():
        current = current.parent
    for candidate in (current, *current.parents):
        if (candidate / "pyproject.toml").is_file() or (candidate / ".git").exists():
            return candidate
    return current


def iter_python_files(paths: Sequence[Path]) -> list[Path]:
    """Expand files/directories into an ordered, de-duplicated .py list."""
    seen: set[Path] = set()
    ordered: list[Path] = []
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.is_file():
            candidates = (path,)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                ordered.append(resolved)
    return ordered


def _rel_path(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root).as_posix()
    except ValueError:
        return path.resolve().as_posix()


def _parse(path: Path, rel: str, source: str) -> tuple[ast.Module | None, list[Finding]]:
    """Parse one file; a SyntaxError becomes the file's only finding."""
    try:
        return ast.parse(source, filename=str(path)), []
    except SyntaxError as error:
        return None, [
            Finding(
                path=rel,
                line=error.lineno or 1,
                column=error.offset or 1,
                rule=SYNTAX_RULE,
                message=f"file does not parse: {error.msg}",
            )
        ]


def _raw_findings(
    path: Path,
    rel: str,
    source: str,
    rules: Sequence[Rule],
) -> list[Finding]:
    """Pre-suppression findings for one file (one parse, one walk)."""
    tree, syntax = _parse(path, rel, source)
    if tree is None:
        return syntax
    active = [rule for rule in rules if rule.applies_to(rel)]
    if not active:
        return []
    ctx = FileContext(
        rel_path=rel,
        abs_path=path,
        source_lines=source.splitlines(),
        tree=tree,
    )
    dispatch: dict[type, list[Rule]] = {}
    for rule in active:
        rule.begin_file(ctx)
        for node_type in rule.interests:
            dispatch.setdefault(node_type, []).append(rule)
    for node in ast.walk(tree):
        for rule in dispatch.get(type(node), ()):
            rule.visit(node, ctx)
    for rule in active:
        rule.end_file(ctx)
    return sorted(ctx.findings)


def lint_file(path: Path, rules: Sequence[Rule], root: Path) -> list[Finding]:
    """Findings for one file after pragma suppression.

    Findings that need every file (import cycles) come only from
    :func:`lint_paths`.
    """
    path = Path(path)
    rel = _rel_path(path, root)
    source = path.read_text(encoding="utf-8")
    pragmas = parse_pragmas(source)
    return [
        finding
        for finding in _raw_findings(path, rel, source, rules)
        if finding.rule == SYNTAX_RULE
        or not is_suppressed(finding.rule, finding.line, pragmas)
    ]


def lint_paths(
    paths: Sequence[Path | str] | None = None,
    *,
    root: Path | None = None,
) -> LintResult:
    """Lint ``paths`` (default: :data:`DEFAULT_PATHS`) with every rule.

    ``root`` (default: :func:`find_project_root`) is the directory
    findings' paths and the rules' scopes are relative to.
    """
    root = (root or find_project_root()).resolve()
    if paths is None:
        paths = [root / p for p in DEFAULT_PATHS]
    files = iter_python_files([Path(p) for p in paths])
    rules = [rule_cls() for rule_cls in RULES]

    raw: list[Finding] = []
    pragma_map: dict[str, dict[int, frozenset[str]]] = {}
    for path in files:
        rel = _rel_path(path, root)
        source = path.read_text(encoding="utf-8")
        pragma_map[rel] = parse_pragmas(source)
        raw.extend(_raw_findings(path, rel, source, rules))
    for rule in rules:
        raw.extend(rule.end_run())

    findings: list[Finding] = []
    suppressed = 0
    for finding in raw:
        if finding.rule != SYNTAX_RULE and is_suppressed(
            finding.rule, finding.line, pragma_map[finding.path]
        ):
            suppressed += 1
        else:
            findings.append(finding)
    return LintResult(
        findings=sorted(findings),
        suppressed=suppressed,
        files=list(pragma_map),
        rules=[rule.name for rule in rules],
    )
