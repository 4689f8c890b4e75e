"""Per-file extraction: one parse → one JSON-serialisable ModuleSummary.

A :class:`ModuleSummary` is everything the whole-program stage needs to
know about one file — imports, module-level names, classes, and for every
function its call sites, name references and *direct* effects.  Summaries
are plain dict-of-scalars values on purpose: the on-disk findings cache
(:mod:`repro.lint.flow.cache`) stores them keyed by content hash, so a
warm lint rerun rebuilds the :class:`~repro.lint.flow.graph.ProgramGraph`
from cached summaries without re-parsing unchanged files.

Direct effect kinds extracted here (the effect lattice's generators; see
:mod:`repro.lint.flow.effects` for propagation):

``global-write``
    A store to (or mutating method call on) a module-level name — of this
    module via ``global``/attribute/subscript stores, or of another module
    through an imported-module alias (``executor_mod._WORKER_CONTEXT = ...``).
``arg-mutate``
    A store to an attribute/subscript of a parameter (including ``self``),
    or a mutating method call on one.
``rng``
    Module-level ``random.*`` usage or an unseeded ``Random()``.
``clock``
    An absolute wall-clock read (``datetime.now``, ``time.time`` ...).
``timer``
    A process-timer read (``perf_counter``/``monotonic`` families).
``io``
    Filesystem or network access (``open``, ``Path.write_text``,
    ``urlopen``, ``socket.*`` ...).
``process``
    Spawning a worker process or pool.

The leaf vocabularies are shared with the per-file determinism/obs rules
so the two layers can never drift apart.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from repro.lint.registry import dotted_name
from repro.lint.rules.determinism import (
    MODULE_RNG_FUNCTIONS,
    PROCESS_TIMER_SUFFIXES,
    WALL_CLOCK_SUFFIXES,
)
from repro.lint.rules.obs import _TIMER_SUFFIXES as TIMER_SUFFIXES

#: Method names that mutate their receiver in place.
MUTATOR_METHODS = frozenset(
    {
        "add", "append", "appendleft", "clear", "discard", "extend",
        "extendleft", "insert", "pop", "popitem", "remove", "reverse",
        "rotate", "setdefault", "sort", "update",
    }
)

#: Trailing attribute names whose call reads/writes the filesystem.
_IO_METHODS = frozenset(
    {
        "mkdir", "read_bytes", "read_text", "rmdir", "touch", "unlink",
        "write_bytes", "write_text",
    }
)

#: Dotted prefixes whose calls talk to the OS (network, files, spawning).
_IO_PREFIXES = ("socket.", "shutil.", "urllib.")
_PROCESS_PREFIXES = ("subprocess.", "multiprocessing.")
_PROCESS_CALLS = frozenset(
    {"Pool", "Popen", "ProcessPoolExecutor", "ThreadPoolExecutor"}
)
_PROCESS_OS = frozenset(
    {"os.fork", "os.forkpty", "os.posix_spawn", "os.spawnv", "os.system"}
)

#: String constants that could name an attribute looked up via getattr().
_IDENTIFIER_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]{0,60}$")

#: The pseudo-function holding a module's import-time statements.
MODULE_BODY = "<module>"


@dataclass
class FunctionSummary:
    """One function's flow-relevant facts (JSON-roundtrippable)."""

    #: Qualified name inside the module: ``fn``, ``Class.fn``, ``<module>``.
    qual: str
    line: int
    #: Whether any decorator is attached (decorated functions are treated
    #: as externally reachable by the dead-code rule).
    decorated: bool = False
    params: list[str] = field(default_factory=list)
    #: Parameter/local type hints: name → dotted class name.
    annotations: dict[str, str] = field(default_factory=dict)
    #: Direct effects: ``[kind, detail, line]`` triples.
    effects: list[list] = field(default_factory=list)
    #: Call sites: ``[kind, *payload, line]`` (see module docstring).
    calls: list[list] = field(default_factory=list)
    #: Non-call references to non-local names: ``[kind, name, line]``.
    refs: list[list] = field(default_factory=list)
    #: Identifier-like string constants (getattr-style dispatch hints).
    strings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "qual": self.qual,
            "line": self.line,
            "decorated": self.decorated,
            "params": self.params,
            "annotations": self.annotations,
            "effects": self.effects,
            "calls": self.calls,
            "refs": self.refs,
            "strings": self.strings,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FunctionSummary":
        return cls(
            qual=data["qual"],
            line=int(data["line"]),
            decorated=bool(data.get("decorated", False)),
            params=list(data.get("params", [])),
            annotations=dict(data.get("annotations", {})),
            effects=[list(e) for e in data.get("effects", [])],
            calls=[list(c) for c in data.get("calls", [])],
            refs=[list(r) for r in data.get("refs", [])],
            strings=list(data.get("strings", [])),
        )


@dataclass
class ModuleSummary:
    """Everything the program graph needs to know about one module."""

    module: str
    path: str
    is_package: bool = False
    #: Import records: ``[target_module, from_name, local_alias, line]``
    #: (``from_name`` empty for plain ``import`` statements).
    imports: list[list] = field(default_factory=list)
    #: A package's lazy (PEP 562) re-exports: ``[target_module, name,
    #: line]``.  Names resolve through them like ``from`` imports, but
    #: they are not import-time edges of the module graph.
    lazy_exports: list[list] = field(default_factory=list)
    #: Module-level assigned names (the module's mutable global surface).
    module_names: list[str] = field(default_factory=list)
    #: Class name → {"line", "bases": [dotted], "methods": [names]}.
    classes: dict[str, dict] = field(default_factory=dict)
    functions: list[FunctionSummary] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "module": self.module,
            "path": self.path,
            "is_package": self.is_package,
            "imports": self.imports,
            "lazy_exports": self.lazy_exports,
            "module_names": self.module_names,
            "classes": self.classes,
            "functions": [fn.to_dict() for fn in self.functions],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModuleSummary":
        return cls(
            module=data["module"],
            path=data["path"],
            is_package=bool(data.get("is_package", False)),
            imports=[list(i) for i in data.get("imports", [])],
            lazy_exports=[list(e) for e in data.get("lazy_exports", [])],
            module_names=list(data.get("module_names", [])),
            classes={
                name: dict(info)
                for name, info in data.get("classes", {}).items()
            },
            functions=[
                FunctionSummary.from_dict(fn)
                for fn in data.get("functions", [])
            ],
        )


# ----------------------------------------------------------------------
# Effect classification of one call
# ----------------------------------------------------------------------

def _suffix_match(dotted: str, suffix: str) -> bool:
    return dotted == suffix or dotted.endswith("." + suffix)


def classify_call_effects(node: ast.Call) -> list[tuple[str, str]]:
    """``(kind, detail)`` effects a single call expression triggers."""
    effects: list[tuple[str, str]] = []
    func = node.func
    dotted = dotted_name(func)
    if isinstance(func, ast.Name):
        if func.id == "open":
            effects.append(("io", "open"))
        if func.id in _PROCESS_CALLS:
            effects.append(("process", func.id))
        if func.id == "Random" and not node.args and not node.keywords:
            effects.append(("rng", "unseeded Random()"))
        return effects

    if dotted is None:
        return effects

    head = dotted.split(".", 1)[0]
    tail = dotted.rsplit(".", 1)[-1]
    if head == "random" and tail in MODULE_RNG_FUNCTIONS:
        effects.append(("rng", dotted))
    elif tail == "Random" and not node.args and not node.keywords:
        effects.append(("rng", "unseeded Random()"))

    for suffix in WALL_CLOCK_SUFFIXES:
        if _suffix_match(dotted, suffix):
            kind = "timer" if suffix in PROCESS_TIMER_SUFFIXES else "clock"
            effects.append((kind, dotted))
            break
    else:
        for suffix in TIMER_SUFFIXES:
            if _suffix_match(dotted, suffix):
                effects.append(("timer", dotted))
                break

    if (
        tail in _IO_METHODS
        or tail in ("urlopen", "urlretrieve")
        or any(dotted.startswith(prefix) for prefix in _IO_PREFIXES)
    ):
        effects.append(("io", dotted))
    if (
        tail in _PROCESS_CALLS
        or dotted in _PROCESS_OS
        or any(dotted.startswith(prefix) for prefix in _PROCESS_PREFIXES)
    ):
        effects.append(("process", dotted))
    return effects


# ----------------------------------------------------------------------
# Per-function extraction
# ----------------------------------------------------------------------

class _FunctionExtractor:
    """Walks one function body (nested defs included, attributed to the
    outer function — a closure's effects are its owner's effects)."""

    def __init__(
        self,
        summary: FunctionSummary,
        module: str,
        module_names: frozenset[str],
        module_aliases: dict[str, str],
        at_module_level: bool,
    ) -> None:
        self.out = summary
        self.module = module
        self.module_names = module_names
        #: local import alias → imported module fqn (for ``mod.X = ...``).
        self.module_aliases = module_aliases
        self.at_module_level = at_module_level
        self.globals_declared: set[str] = set()
        self.locals: set[str] = set(summary.params)
        #: Function-local import aliases (``from x import y as z`` inside
        #: the body) — same classification as module-level aliases.
        self.local_aliases: dict[str, str] = {}
        self._callee_nodes: set[int] = set()

    # -- scope discovery ------------------------------------------------

    def discover_scope(self, body: list[ast.stmt]) -> None:
        for node in ast.walk(ast.Module(body=body, type_ignores=[])):
            if isinstance(node, ast.Global):
                self.globals_declared.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                self.locals.add(node.id)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                self.locals.add(node.name)
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                self.locals.add(node.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.local_aliases.setdefault(local, target)
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.local_aliases.setdefault(
                        local, f"{node.module}.{alias.name}"
                    )
        self.locals -= self.globals_declared

    # -- classification helpers ----------------------------------------

    def _base_kind(self, base: str) -> str:
        """How a receiver's base name resolves in this scope."""
        if base in self.out.params:
            return "param"
        if base in self.globals_declared:
            return "global"
        if base in self.locals:
            return "local"
        if base in self.local_aliases or base in self.module_aliases:
            return "module-alias"
        if base in self.module_names:
            return "module-name"
        return "unknown"

    def _effect(self, kind: str, detail: str, node: ast.AST) -> None:
        self.out.effects.append([kind, detail, getattr(node, "lineno", 0)])

    def _record_store(self, target: ast.AST, node: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_store(element, node)
            return
        if isinstance(target, ast.Starred):
            self._record_store(target.value, node)
            return
        if isinstance(target, ast.Name):
            if target.id in self.globals_declared:
                self._effect(
                    "global-write", f"{self.module}.{target.id}", node
                )
            return
        # Attribute / subscript store: walk to the base name.
        dotted = None
        base_node = target
        while isinstance(base_node, (ast.Attribute, ast.Subscript)):
            if isinstance(base_node, ast.Attribute) and dotted is None:
                dotted = dotted_name(base_node)
            base_node = base_node.value
        if not isinstance(base_node, ast.Name):
            return
        base = base_node.id
        kind = self._base_kind(base)
        if kind == "param":
            self._effect("arg-mutate", base, node)
        elif kind in ("global", "module-name"):
            self._effect("global-write", f"{self.module}.{base}", node)
        elif kind == "module-alias":
            target_module = (
                self.local_aliases.get(base) or self.module_aliases[base]
            )
            attr = (
                dotted.split(".", 1)[1]
                if dotted and "." in dotted
                else dotted or base
            )
            self._effect("global-write", f"{target_module}.{attr}", node)
        elif kind == "unknown" and self.at_module_level:
            # Module body mutating a name it did not assign: treat as a
            # write to this module's namespace (e.g. conditional setup).
            self._effect("global-write", f"{self.module}.{base}", node)

    # -- the walk -------------------------------------------------------

    def walk(self, body: list[ast.stmt]) -> None:
        self.discover_scope(body)
        for node in ast.walk(ast.Module(body=body, type_ignores=[])):
            if isinstance(node, ast.Call):
                self._visit_call(node)
            elif isinstance(node, ast.Import):
                # Importing executes the module body (side effects count).
                for alias in node.names:
                    self.out.calls.append(["module", alias.name, node.lineno])
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module:
                    self.out.calls.append(
                        ["module", node.module, node.lineno]
                    )
                    for alias in node.names:
                        if alias.name != "*":
                            self.out.calls.append(
                                [
                                    "module",
                                    f"{node.module}.{alias.name}",
                                    node.lineno,
                                ]
                            )
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    self._record_store(target, node)
                if isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name
                ):
                    hint = (
                        dotted_name(node.annotation)
                        if node.annotation is not None
                        else None
                    )
                    if hint:
                        self.out.annotations[node.target.id] = hint
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    self._record_store(target, node)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if (
                    id(node) not in self._callee_nodes
                    and node.id not in self.locals
                    and node.id not in self.out.params
                ):
                    self.out.refs.append(["name", node.id, node.lineno])
            elif isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                if id(node) in self._callee_nodes:
                    continue
                dotted = dotted_name(node)
                if dotted is not None:
                    base = dotted.split(".", 1)[0]
                    parts = dotted.split(".")
                    if base in ("self", "cls") and len(parts) == 2:
                        # A bound method used as a value (callback):
                        # ``on_chunk=self._absorb`` keeps ``_absorb`` live
                        # and propagates its effects to the caller.
                        self.out.refs.append(
                            [base, parts[1], node.lineno]
                        )
                    elif base not in self.locals and base not in self.out.params:
                        self.out.refs.append(["dotted", dotted, node.lineno])
                    # Suppress the base Name node of this chain: the
                    # dotted ref subsumes it.
                    inner = node
                    while isinstance(inner, ast.Attribute):
                        inner = inner.value
                    self._callee_nodes.add(id(inner))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if _IDENTIFIER_RE.match(node.value):
                    self.out.strings.append(node.value)

    def _visit_call(self, node: ast.Call) -> None:
        func = node.func
        line = node.lineno
        for kind, detail in classify_call_effects(node):
            self._effect(kind, detail, node)

        if isinstance(func, ast.Name):
            self._callee_nodes.add(id(func))
            target = self.local_aliases.get(func.id)
            if target is not None:
                # Function-local import binds the name into ``locals``;
                # route the call through the imported target instead.
                self.out.calls.append(["dotted", target, line])
            elif func.id not in self.locals or func.id in self.out.params:
                self.out.calls.append(["name", func.id, line])
            return
        if not isinstance(func, ast.Attribute):
            return

        # Mark the whole attribute chain consumed so the reference pass
        # does not double-record the callee.
        inner: ast.AST = func
        while isinstance(inner, ast.Attribute):
            self._callee_nodes.add(id(inner))
            inner = inner.value
        self._callee_nodes.add(id(inner))

        dotted = dotted_name(func)
        method = func.attr
        if dotted is not None:
            parts = dotted.split(".")
            base = parts[0]
            if base == "self" and len(parts) == 2:
                self.out.calls.append(["self", method, line])
            elif base == "cls" and len(parts) == 2:
                self.out.calls.append(["cls", method, line])
            elif self._base_kind(base) in ("module-alias", "module-name"):
                # Rewrite through the alias so the graph resolves the
                # call even when the import is function-local.
                target = self.local_aliases.get(base) or self.module_aliases.get(base)
                if target and target != base:
                    dotted = target + dotted[len(base):]
                self.out.calls.append(["dotted", dotted, line])
            else:
                hint = self.out.annotations.get(base, "")
                self.out.calls.append(["attr", hint, method, line])
            if method in MUTATOR_METHODS and len(parts) == 2:
                kind = self._base_kind(base)
                if kind == "param":
                    self._effect("arg-mutate", base, node)
                elif kind in ("global", "module-name"):
                    self._effect(
                        "global-write", f"{self.module}.{base}", node
                    )
        elif (
            isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"
        ):
            # ``super().m()``: resolve through the enclosing class's base
            # chain only — never the every-method-named-m fallback.
            self.out.calls.append(["super", method, line])
        else:
            # Call on a computed receiver: f().g(), a[0].h() ...
            self.out.calls.append(["attr", "", method, line])


# ----------------------------------------------------------------------
# Module-level extraction
# ----------------------------------------------------------------------

def _resolve_relative(module: str, is_package: bool, level: int) -> str:
    """The absolute package a ``from ...X import`` resolves against."""
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    if level > 1:
        parts = parts[: len(parts) - (level - 1)]
    return ".".join(parts)


def _extract_function(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    qual: str,
    module: str,
    module_names: frozenset[str],
    module_aliases: dict[str, str],
) -> FunctionSummary:
    args = node.args
    params = [
        arg.arg
        for arg in (
            *args.posonlyargs, *args.args, *args.kwonlyargs,
            *((args.vararg,) if args.vararg else ()),
            *((args.kwarg,) if args.kwarg else ()),
        )
    ]
    summary = FunctionSummary(
        qual=qual,
        line=node.lineno,
        decorated=bool(node.decorator_list),
        params=params,
    )
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        if arg.annotation is not None:
            hint = dotted_name(arg.annotation)
            if hint:
                summary.annotations[arg.arg] = hint
    extractor = _FunctionExtractor(
        summary, module, module_names, module_aliases, at_module_level=False
    )
    extractor.walk(node.body)
    # Decorator and default expressions run at def time (module level).
    return summary


#: The helper a package ``__init__`` calls to build its lazy re-exports
#: (``__getattr__, __dir__, __all__ = _lazy_exports(__name__, {...})``).
LAZY_EXPORTS_HELPER = "_lazy_exports"


def _lazy_export_table(node: ast.AST) -> list[tuple[str, str]]:
    """``(module, name)`` pairs of a lazy re-export table, else ``[]``.

    Matches a call to :data:`LAZY_EXPORTS_HELPER` whose second argument
    is a dict literal mapping module names to tuples of exported names.
    """
    if not (
        isinstance(node, ast.Call)
        and (dotted_name(node.func) or "").rsplit(".", 1)[-1]
        == LAZY_EXPORTS_HELPER
        and len(node.args) == 2
        and isinstance(node.args[1], ast.Dict)
    ):
        return []
    pairs = []
    for key, value in zip(node.args[1].keys, node.args[1].values):
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            continue
        if isinstance(value, (ast.Tuple, ast.List)):
            pairs.extend(
                (key.value, element.value)
                for element in value.elts
                if isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            )
    return pairs


def summarize_source(
    rel_path: str, module: str, tree: ast.Module
) -> ModuleSummary:
    """Build the :class:`ModuleSummary` for one parsed file."""
    is_package = rel_path.endswith("/__init__.py") or rel_path == "__init__.py"
    out = ModuleSummary(module=module, path=rel_path, is_package=is_package)

    # Pass 1: module-level bindings (imports, assignments, defs).
    module_aliases: dict[str, str] = {}
    module_names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                out.imports.append([alias.name, "", local, node.lineno])
                target = alias.name if alias.asname else alias.name.split(".")[0]
                module_aliases[local] = target
        elif isinstance(node, ast.ImportFrom):
            base = (
                node.module
                if node.level == 0
                else ".".join(
                    part
                    for part in (
                        _resolve_relative(module, is_package, node.level),
                        node.module or "",
                    )
                    if part
                )
            )
            if base is None:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                out.imports.append([base, alias.name, local, node.lineno])
                # Optimistically treat the imported name as addressable at
                # ``base.name``: if it is a module, attribute stores on it
                # are cross-module global writes; if it is a class, they
                # are class-attribute writes — module-level state either
                # way, and dotted calls through it resolve more precisely.
                if alias.name != "*":
                    module_aliases[local] = f"{base}.{alias.name}"
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            out.lazy_exports.extend(
                [target, name, node.lineno]
                for target, name in _lazy_export_table(node.value)
            )
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                for element in ast.walk(target):
                    if isinstance(element, ast.Name) and isinstance(
                        element.ctx, ast.Store
                    ):
                        module_names.add(element.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            module_names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            module_names.add(node.name)

    out.module_names = sorted(module_names)
    frozen_names = frozenset(module_names)

    # Pass 2: functions, classes, and the <module> pseudo-function.
    module_body = FunctionSummary(qual=MODULE_BODY, line=1)
    module_extractor = _FunctionExtractor(
        module_body, module, frozen_names, module_aliases, at_module_level=True
    )
    module_statements: list[ast.stmt] = []

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.functions.append(
                _extract_function(
                    node, node.name, module, frozen_names, module_aliases
                )
            )
            module_statements.extend(node.decorator_list)  # type: ignore[arg-type]
        elif isinstance(node, ast.ClassDef):
            methods = []
            class_body: list[ast.stmt] = []
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.append(item.name)
                    out.functions.append(
                        _extract_function(
                            item,
                            f"{node.name}.{item.name}",
                            module,
                            frozen_names,
                            module_aliases,
                        )
                    )
                    class_body.extend(item.decorator_list)  # type: ignore[arg-type]
                else:
                    class_body.append(item)
            out.classes[node.name] = {
                "line": node.lineno,
                "bases": sorted(
                    filter(None, (dotted_name(base) for base in node.bases))
                ),
                "methods": sorted(methods),
            }
            module_statements.extend(class_body)
            module_statements.extend(node.decorator_list)  # type: ignore[arg-type]
        else:
            module_statements.append(node)

    # Wrap loose expressions so the extractor sees proper statements.
    wrapped = [
        stmt if isinstance(stmt, ast.stmt) else ast.Expr(value=stmt)
        for stmt in module_statements
    ]
    module_extractor.walk(wrapped)
    out.functions.append(module_body)
    out.functions.sort(key=lambda fn: (fn.line, fn.qual))
    return out
