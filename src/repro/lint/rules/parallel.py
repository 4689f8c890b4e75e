"""Parallelism discipline: fan-out goes through ``repro.parallel``.

The parallel package is the one place in the codebase where pools are
constructed.  Analysis grids are plain loops in their drivers, and the
only pool is ``pmap``'s ordered thread map for I/O-bound work.  A
module that builds its own thread or process pool, or forks, gets none
of that: results may arrive in completion order and a second process's
work never reaches the caller's caches or metrics.  This rule confines
pool and process construction to ``src/repro/parallel/``.
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
        "direct pool/process construction outside repro.parallel; loop "
        "in-process, or map I/O-bound work through repro.parallel.pmap, "
        "so results stay ordered and in one process"
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
