"""Parallelism discipline: fan-out goes through ``repro.parallel``.

The parallel package is the one place in the codebase where worker pools
are constructed — it is what guarantees spawn safety (no forked
interpreter state), ordered reduction, and worker metrics merge-back.  A
module that builds its own ``ProcessPoolExecutor`` or calls
``multiprocessing.Pool`` bypasses all three: results may arrive in
completion order, worker metrics are silently discarded, and the fork
start method can capture half-initialised parent state.  This rule
confines pool and process construction to ``src/repro/parallel/``.
"""

from __future__ import annotations

import ast

from repro.lint.config import LintConfig
from repro.lint.registry import FileContext, Rule, dotted_name, register

#: Pool/process constructors that match bare or dotted
#: (``ProcessPoolExecutor(...)`` and ``futures.ProcessPoolExecutor(...)``).
_POOL_NAMES = (
    "ProcessPoolExecutor",
    "ThreadPoolExecutor",
)

#: Constructors that only count when module-qualified — a bare ``Pool`` or
#: ``Process`` is too common a local name to flag.
_DOTTED_SUFFIXES = (
    "multiprocessing.Pool",
    "multiprocessing.Process",
    "mp.Pool",
    "mp.Process",
    "os.fork",
)


@register
class ParallelDisciplineRule(Rule):
    """Pool/process construction is confined to src/repro/parallel/."""

    name = "parallel-discipline"
    description = (
        "direct pool/process construction outside repro.parallel; fan "
        "out through repro.parallel (pmap/ParallelMap/GridSession) so "
        "results stay ordered and worker metrics merge back"
    )
    interests = (ast.Call,)

    def applies_to(self, rel_path: str, config: LintConfig) -> bool:
        return not any(
            rel_path.startswith(prefix)
            for prefix in config.parallel_allowed_paths()
        )

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        assert isinstance(node, ast.Call)
        dotted = dotted_name(node.func)
        if dotted is None:
            return
        for name in _POOL_NAMES:
            if dotted == name or dotted.endswith("." + name):
                self._report(ctx, node, dotted)
                return
        for suffix in _DOTTED_SUFFIXES:
            if dotted == suffix or dotted.endswith("." + suffix):
                self._report(ctx, node, dotted)
                return

    def _report(self, ctx: FileContext, node: ast.Call, dotted: str) -> None:
        ctx.report(
            self,
            node,
            f"direct pool/process construction {dotted}(): fan out "
            "through repro.parallel instead (pools are allowed only "
            "under src/repro/parallel/)",
        )
