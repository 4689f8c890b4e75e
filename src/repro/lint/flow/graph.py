"""The ProgramGraph: project symbols, import graph, call graph, SCCs.

Built once per lint run from per-file :class:`ModuleSummary` values (fresh
parses or cache hits — the graph cannot tell the difference).  Resolution
is best-effort static analysis, deterministic by construction:

* bare-name calls resolve through the module's symbol table (own defs,
  then ``from``-imports with re-export chasing, then imported modules);
* dotted calls walk the module/package namespace, then class methods;
* ``self.m()``/``cls.m()`` resolve through the enclosing class and its
  project base classes;
* attribute calls on annotated receivers (``engine: CorridorEngine``)
  resolve through the annotation; unannotated receivers fall back to
  *every* project method of that name (class-hierarchy-analysis by name —
  an over-approximation, which is the safe direction for effect
  propagation and liveness);
* plain references (a function passed as a callback) create edges too, so
  ``executor.map(fn, ...)`` propagates ``fn``'s effects to the caller;
* identifier-like string constants keep same-named functions alive for
  the dead-code rule (``getattr``-style dispatch), but never carry
  effects.

Every adjacency list, SCC and traversal is sorted, so the rendered graph
is byte-identical across processes and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lint.flow.summary import MODULE_BODY, ModuleSummary


def _component_public(part: str) -> bool:
    """A name component counts as public API surface.

    Dunders ride along: ``CorridorEngine.__init__`` is the constructor the
    outside world calls, not an implementation detail.
    """
    return not part.startswith("_") or (
        part.startswith("__") and part.endswith("__")
    )


@dataclass
class FunctionNode:
    """One function (or ``<module>`` body) in the program graph."""

    fqn: str
    module: str
    qual: str
    line: int
    decorated: bool
    #: Direct effects: ``(kind, detail, line)`` triples, sorted.
    effects: tuple[tuple[str, str, int], ...]

    @property
    def name(self) -> str:
        return self.qual.rsplit(".", 1)[-1]

    @property
    def is_module_body(self) -> bool:
        return self.qual == MODULE_BODY

    @property
    def is_public(self) -> bool:
        if self.is_module_body:
            return False
        return all(_component_public(part) for part in self.qual.split("."))

    @property
    def is_dunder(self) -> bool:
        name = self.name
        return name.startswith("__") and name.endswith("__")


@dataclass
class ClassNode:
    fqn: str
    module: str
    name: str
    line: int
    bases: tuple[str, ...]
    #: method name → function fqn.
    methods: dict[str, str] = field(default_factory=dict)


class ProgramGraph:
    """The resolved whole-program view (see module docstring)."""

    def __init__(self, summaries: dict[str, ModuleSummary]) -> None:
        #: module name → summary, in sorted-module order.
        self.summaries: dict[str, ModuleSummary] = {
            name: summaries[name] for name in sorted(summaries)
        }
        self.module_paths: dict[str, str] = {
            name: summary.path for name, summary in self.summaries.items()
        }
        self.functions: dict[str, FunctionNode] = {}
        self.classes: dict[str, ClassNode] = {}
        #: module → ((imported_module, line), ...) project-internal edges.
        self.module_imports: dict[str, tuple[tuple[str, int], ...]] = {}
        #: caller fqn → (callee fqn, ...) — call + reference edges.
        self.call_edges: dict[str, tuple[str, ...]] = {}
        #: liveness-only extra edges from identifier-like strings.
        self.string_edges: dict[str, tuple[str, ...]] = {}
        #: bare method name → (fqn, ...) across every project class.
        self.method_index: dict[str, tuple[str, ...]] = {}

        self._symbols: dict[str, dict[str, tuple[str, str]]] = {}
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build(self) -> None:
        self._collect_definitions()
        self._resolve_module_imports()
        self._build_symbol_tables()
        self._link_base_classes()
        self._resolve_edges()

    def _collect_definitions(self) -> None:
        method_index: dict[str, list[str]] = {}
        for module, summary in self.summaries.items():
            for cls_name, info in sorted(summary.classes.items()):
                cls_fqn = f"{module}.{cls_name}"
                self.classes[cls_fqn] = ClassNode(
                    fqn=cls_fqn,
                    module=module,
                    name=cls_name,
                    line=int(info.get("line", 1)),
                    bases=tuple(info.get("bases", ())),
                )
            for fn in summary.functions:
                fqn = f"{module}.{fn.qual}"
                self.functions[fqn] = FunctionNode(
                    fqn=fqn,
                    module=module,
                    qual=fn.qual,
                    line=fn.line,
                    decorated=fn.decorated,
                    effects=tuple(
                        sorted(
                            (str(k), str(d), int(ln))
                            for k, d, ln in fn.effects
                        )
                    ),
                )
                if "." in fn.qual:
                    cls_name, method = fn.qual.split(".", 1)
                    cls_fqn = f"{module}.{cls_name}"
                    if cls_fqn in self.classes:
                        self.classes[cls_fqn].methods[method] = fqn
                    method_index.setdefault(method, []).append(fqn)
        self.functions = {
            fqn: self.functions[fqn] for fqn in sorted(self.functions)
        }
        self.method_index = {
            name: tuple(sorted(fqns))
            for name, fqns in sorted(method_index.items())
        }

    def _resolve_module_imports(self) -> None:
        for module, summary in self.summaries.items():
            seen: dict[str, int] = {}
            for target, from_name, _alias, line in summary.imports:
                resolved = None
                if from_name and f"{target}.{from_name}" in self.summaries:
                    resolved = f"{target}.{from_name}"
                elif target in self.summaries:
                    resolved = target
                if resolved is not None and resolved != module:
                    seen.setdefault(resolved, int(line))
            self.module_imports[module] = tuple(
                (dep, seen[dep]) for dep in sorted(seen)
            )

    def _build_symbol_tables(self) -> None:
        """Per-module name → ("fn"|"cls"|"mod"|"reexport", payload)."""
        for module, summary in self.summaries.items():
            table: dict[str, tuple[str, str]] = {}
            for target, from_name, alias, _line in summary.imports:
                if not from_name:
                    # ``import a.b.c [as x]``: with an alias the local name
                    # is the full module; without, only the top package.
                    local = alias
                    bound = target if alias not in ("", target.split(".")[0]) \
                        else target.split(".")[0]
                    if alias == target.split(".")[0]:
                        bound = target.split(".")[0]
                    else:
                        bound = target
                    table[local] = ("mod", bound)
                else:
                    table[alias] = ("reexport", f"{target}:{from_name}")
            for target, name, _line in summary.lazy_exports:
                table[name] = ("reexport", f"{target}:{name}")
            for cls_name in summary.classes:
                table[cls_name] = ("cls", f"{module}.{cls_name}")
            for fn in summary.functions:
                if "." not in fn.qual and fn.qual != MODULE_BODY:
                    table[fn.qual] = ("fn", f"{module}.{fn.qual}")
            self._symbols[module] = table

    def _link_base_classes(self) -> None:
        """Resolve class bases to project classes where possible."""
        self._class_bases: dict[str, tuple[str, ...]] = {}
        external: set[str] = set()
        for cls_fqn, cls in sorted(self.classes.items()):
            resolved = []
            for base in cls.bases:
                symbol = self._resolve_dotted_symbol(cls.module, base)
                if symbol is not None and symbol[0] == "cls":
                    resolved.append(symbol[1])
                else:
                    # An external base (HTMLParser, NamedTuple ...) may
                    # call overridden methods from outside the project.
                    external.add(cls_fqn)
            self._class_bases[cls_fqn] = tuple(resolved)
        #: Classes deriving from at least one non-project base.
        self.externally_derived: frozenset[str] = frozenset(external)

    # -- symbol resolution ---------------------------------------------

    def resolve_symbol(
        self, module: str, name: str, _seen: frozenset = frozenset()
    ) -> tuple[str, str] | None:
        """Resolve ``name`` in ``module`` to ("fn"|"cls"|"mod", fqn)."""
        if f"{module}.{name}" in self.summaries:
            # Importing a package binds its submodules as attributes.
            return ("mod", f"{module}.{name}")
        table = self._symbols.get(module)
        if table is None:
            return None
        entry = table.get(name)
        if entry is None:
            return None
        kind, payload = entry
        if kind != "reexport":
            return (kind, payload)
        target, attr = payload.split(":", 1)
        if f"{target}.{attr}" in self.summaries:
            return ("mod", f"{target}.{attr}")
        key = f"{target}:{attr}"
        if key in _seen:
            return None
        if target in self.summaries:
            return self.resolve_symbol(target, attr, _seen | {key})
        return None

    def _resolve_dotted_symbol(
        self, module: str, dotted: str
    ) -> tuple[str, str] | None:
        parts = dotted.split(".")
        symbol = self.resolve_symbol(module, parts[0])
        if symbol is None:
            # Absolute fallback: the summary layer rewrites calls through
            # import aliases to absolute dotted names (repro.core.engine.X),
            # which need no local binding — match the longest module prefix.
            for i in range(len(parts), 0, -1):
                prefix = ".".join(parts[:i])
                if prefix in self.summaries:
                    symbol = ("mod", prefix)
                    parts = parts[i - 1 :]  # loop below consumes parts[1:]
                    break
            else:
                return None
        for part in parts[1:]:
            if symbol is None:
                return None
            kind, payload = symbol
            if kind == "mod":
                symbol = self.resolve_symbol(payload, part)
            elif kind == "cls":
                method = self.classes[payload].methods.get(part)
                symbol = ("fn", method) if method else None
            else:
                return None
        return symbol

    def _lookup_method(self, cls_fqn: str, method: str) -> str | None:
        """Find ``method`` on ``cls_fqn`` or its project base chain."""
        seen: set[str] = set()
        stack = [cls_fqn]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls = self.classes.get(current)
            if cls is None:
                continue
            if method in cls.methods:
                return cls.methods[method]
            stack.extend(self._class_bases.get(current, ()))
        return None

    def _class_of(self, caller_fqn: str) -> str | None:
        node = self.functions[caller_fqn]
        if "." not in node.qual:
            return None
        return f"{node.module}.{node.qual.rsplit('.', 1)[0]}"

    def _symbol_targets(self, symbol: tuple[str, str] | None) -> list[str]:
        """Call targets a resolved symbol contributes."""
        if symbol is None:
            return []
        kind, payload = symbol
        if kind == "fn":
            return [payload] if payload in self.functions else []
        if kind == "cls":
            init = self.classes[payload].methods.get("__init__")
            if init is None:
                init = self._lookup_method(payload, "__init__")
            return [init] if init else []
        if kind == "mod":
            # Calling (or referencing) a module executes its body.
            body = f"{payload}.{MODULE_BODY}"
            return [body] if body in self.functions else []
        return []

    # -- edge resolution ------------------------------------------------

    def _resolve_edges(self) -> None:
        for module, summary in self.summaries.items():
            for fn in summary.functions:
                caller = f"{module}.{fn.qual}"
                targets: set[str] = set()
                strings: set[str] = set()

                for call in fn.calls:
                    kind = call[0]
                    if kind == "name":
                        symbol = self.resolve_symbol(module, call[1])
                        targets.update(self._symbol_targets(symbol))
                    elif kind == "dotted":
                        symbol = self._resolve_dotted_symbol(module, call[1])
                        targets.update(self._symbol_targets(symbol))
                    elif kind == "module":
                        body = f"{call[1]}.{MODULE_BODY}"
                        if body in self.functions:
                            targets.add(body)
                    elif kind == "super":
                        cls_fqn = self._class_of(caller)
                        resolved = None
                        if cls_fqn is not None:
                            for base in self._class_bases.get(cls_fqn, ()):
                                resolved = self._lookup_method(base, call[1])
                                if resolved is not None:
                                    break
                        if resolved is not None:
                            targets.add(resolved)
                    elif kind in ("self", "cls"):
                        cls_fqn = self._class_of(caller)
                        method = call[1]
                        resolved = (
                            self._lookup_method(cls_fqn, method)
                            if cls_fqn
                            else None
                        )
                        if resolved is not None:
                            targets.add(resolved)
                        else:
                            targets.update(self.method_index.get(method, ()))
                    elif kind == "attr":
                        hint, method = call[1], call[2]
                        resolved = None
                        if hint:
                            symbol = self._resolve_dotted_symbol(module, hint)
                            if symbol is not None and symbol[0] == "cls":
                                resolved = self._lookup_method(
                                    symbol[1], method
                                )
                        if resolved is not None:
                            targets.add(resolved)
                        else:
                            targets.update(self.method_index.get(method, ()))

                for ref in fn.refs:
                    if ref[0] in ("self", "cls"):
                        cls_fqn = self._class_of(caller)
                        resolved = (
                            self._lookup_method(cls_fqn, ref[1])
                            if cls_fqn
                            else None
                        )
                        if resolved is not None:
                            targets.add(resolved)
                        else:
                            targets.update(self.method_index.get(ref[1], ()))
                        continue
                    if ref[0] == "name":
                        symbol = self.resolve_symbol(module, ref[1])
                    else:
                        symbol = self._resolve_dotted_symbol(module, ref[1])
                    # Module references (import aliases in expressions) do
                    # not execute module bodies — only fn/cls refs count.
                    if symbol is not None and symbol[0] != "mod":
                        targets.update(self._symbol_targets(symbol))

                for text in fn.strings:
                    strings.update(self.method_index.get(text, ()))
                    symbol = self.resolve_symbol(module, text)
                    if symbol is not None and symbol[0] == "fn":
                        strings.update(self._symbol_targets(symbol))

                # A module body "calls" every module it imports (import
                # side effects run at import time).
                if fn.qual == MODULE_BODY:
                    for dep, _line in self.module_imports[module]:
                        body = f"{dep}.{MODULE_BODY}"
                        if body in self.functions:
                            targets.add(body)

                targets.discard(caller)
                self.call_edges[caller] = tuple(sorted(targets))
                self.string_edges[caller] = tuple(
                    sorted(strings - targets - {caller})
                )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def strongly_connected_components(self) -> list[tuple[str, ...]]:
        """Tarjan SCCs of the call graph, deterministically ordered."""
        index: dict[str, int] = {}
        lowlink: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        components: list[tuple[str, ...]] = []
        counter = [0]

        for root in self.functions:
            if root in index:
                continue
            work: list[tuple[str, int]] = [(root, 0)]
            while work:
                node, edge_i = work[-1]
                if edge_i == 0:
                    index[node] = lowlink[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                edges = self.call_edges.get(node, ())
                advanced = False
                for next_i in range(edge_i, len(edges)):
                    succ = edges[next_i]
                    if succ not in index:
                        work[-1] = (node, next_i + 1)
                        work.append((succ, 0))
                        advanced = True
                        break
                    if succ in on_stack:
                        lowlink[node] = min(lowlink[node], index[succ])
                if advanced:
                    continue
                if lowlink[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(tuple(sorted(component)))
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
        return sorted(components)

    def import_cycles(self) -> list[tuple[str, ...]]:
        """Module-level import cycles (SCCs of size > 1, or self-loops)."""
        edges = {
            module: tuple(dep for dep, _line in deps)
            for module, deps in self.module_imports.items()
        }
        index: dict[str, int] = {}
        lowlink: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        cycles: list[tuple[str, ...]] = []
        counter = [0]

        for root in sorted(edges):
            if root in index:
                continue
            work: list[tuple[str, int]] = [(root, 0)]
            while work:
                node, edge_i = work[-1]
                if edge_i == 0:
                    index[node] = lowlink[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                successors = edges.get(node, ())
                advanced = False
                for next_i in range(edge_i, len(successors)):
                    succ = successors[next_i]
                    if succ not in edges:
                        continue
                    if succ not in index:
                        work[-1] = (node, next_i + 1)
                        work.append((succ, 0))
                        advanced = True
                        break
                    if succ in on_stack:
                        lowlink[node] = min(lowlink[node], index[succ])
                if advanced:
                    continue
                if lowlink[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1 or node in edges.get(node, ()):
                        cycles.append(tuple(sorted(component)))
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
        return sorted(cycles)

    def reachable(
        self, roots: list[str], *, with_strings: bool = False
    ) -> set[str]:
        """Functions reachable from ``roots`` over call/ref edges."""
        seen: set[str] = set()
        queue = sorted(set(roots) & set(self.functions))
        while queue:
            node = queue.pop(0)
            if node in seen:
                continue
            seen.add(node)
            successors = list(self.call_edges.get(node, ()))
            if with_strings:
                successors.extend(self.string_edges.get(node, ()))
            for succ in successors:
                if succ not in seen:
                    queue.append(succ)
        return seen

    def shortest_chain(
        self, roots: list[str], target: str
    ) -> list[str] | None:
        """A shortest root → target call chain (BFS, deterministic)."""
        roots = sorted(set(roots) & set(self.functions))
        if target in roots:
            return [target]
        parent: dict[str, str] = {root: "" for root in roots}
        queue = list(roots)
        while queue:
            node = queue.pop(0)
            for succ in self.call_edges.get(node, ()):
                if succ in parent:
                    continue
                parent[succ] = node
                if succ == target:
                    chain = [succ]
                    while parent[chain[-1]]:
                        chain.append(parent[chain[-1]])
                    return list(reversed(chain))
                queue.append(succ)
        return None
