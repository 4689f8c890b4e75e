"""Cache discipline: all reconstruction goes through the CorridorEngine.

PR 1 centralised snapshot/route caching in
:class:`repro.core.engine.CorridorEngine`; its correctness argument (cached
results bit-identical to cache-free reconstruction) only holds if consumers
actually route through it.  A driver that quietly constructs its own
:class:`NetworkReconstructor` re-stitches every network from scratch —
correct but orders of magnitude slower, and invisible to the engine's
cache statistics.  This rule turns that convention into tooling: only the
engine module and the kernel module itself may construct the kernel or
call ``reconstruct_all``.
"""

from __future__ import annotations

import ast

from repro.lint.config import LintConfig
from repro.lint.registry import FileContext, Rule, call_name, register

#: Callables that bypass the engine's caches.
_KERNEL_CALLS = frozenset({"NetworkReconstructor", "reconstruct_all"})

#: Linear-scan active-set lookups (confined to the index's own home).
_SCAN_CALLS = frozenset({"active_on"})

#: Per-generation derived state that must come from the database's cache
#: (``UlsDatabase.columnar_store()``), not be constructed ad hoc.
_COLUMNAR_CALLS = frozenset({"ColumnarLicenseStore"})

#: The persistent store's on-disk layout functions
#: (:mod:`repro.store.layout`).  Direct entry-file access anywhere else
#: bypasses atomic write-then-rename publication and corrupt-entry
#: quarantine; everything outside the store package goes through
#: ``CacheStore``.
_STORE_CALLS = frozenset(
    {"entry_path", "read_entry", "write_entry", "quarantine_entry", "touch_entry"}
)


def _prefix_allowed(rel_path: str, prefixes: tuple[str, ...]) -> bool:
    return any(
        rel_path == prefix or rel_path.startswith(prefix)
        for prefix in prefixes
    )


@register
class CacheDisciplineRule(Rule):
    """Kernel construction is confined to the engine and kernel modules,
    and linear active-set scans to the uls layer and the engine."""

    name = "cache-discipline"
    description = (
        "NetworkReconstructor(...)/reconstruct_all(...) outside the engine "
        "and kernel modules bypasses the snapshot/route caches (use "
        "CorridorEngine or Scenario.engine()); active_on(...) outside the "
        "uls layer and the engine rescans every license (use "
        "UlsDatabase.temporal_index()); ColumnarLicenseStore(...) outside "
        "the uls layer and the engine risks stale columns (use "
        "UlsDatabase.columnar_store()); store layout calls "
        "(read_entry/write_entry/...) outside src/repro/store/ bypass "
        "atomic publication and quarantine (use CacheStore)"
    )
    interests = (ast.Call,)

    def applies_to(self, rel_path: str, config: LintConfig) -> bool:
        return (
            rel_path not in config.cache_allowed_files()
            or not _prefix_allowed(rel_path, config.active_on_allowed_paths())
            or not _prefix_allowed(rel_path, config.columnar_allowed_paths())
            or not _prefix_allowed(rel_path, config.store_allowed_paths())
        )

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        assert isinstance(node, ast.Call)
        name = call_name(node)
        if (
            name in _KERNEL_CALLS
            and ctx.rel_path not in ctx.config.cache_allowed_files()
        ):
            ctx.report(
                self,
                node,
                f"{name}(...) bypasses the CorridorEngine caches; "
                "go through CorridorEngine / Scenario.engine() "
                "(allowed only in the engine and kernel modules)",
            )
        elif name in _SCAN_CALLS and not _prefix_allowed(
            ctx.rel_path, ctx.config.active_on_allowed_paths()
        ):
            ctx.report(
                self,
                node,
                "active_on(...) linear-scans and materialises the license "
                "list; resolve active sets via "
                "UlsDatabase.temporal_index().active_ids_at(...) "
                "(allowed only under src/repro/uls/ and the engine)",
            )
        elif name in _COLUMNAR_CALLS and not _prefix_allowed(
            ctx.rel_path, ctx.config.columnar_allowed_paths()
        ):
            ctx.report(
                self,
                node,
                "ColumnarLicenseStore(...) built outside the uls layer and "
                "the engine risks stale columns after a database mutation; "
                "use UlsDatabase.columnar_store() (cached per generation)",
            )
        elif name in _STORE_CALLS and not _prefix_allowed(
            ctx.rel_path, ctx.config.store_allowed_paths()
        ):
            ctx.report(
                self,
                node,
                f"{name}(...) touches the persistent store's entry files "
                "directly, bypassing atomic publication and corrupt-entry "
                "quarantine; go through repro.store.CacheStore "
                "(allowed only under src/repro/store/)",
            )
