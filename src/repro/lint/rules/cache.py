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

from repro.lint.registry import FileContext, Rule, call_name

#: Files allowed to construct the cache-free reconstruction kernel.
CACHE_ALLOWED = (
    "src/repro/core/engine.py",
    "src/repro/core/reconstruction.py",
)

#: Path prefixes allowed to touch the persistent store's on-disk layout
#: directly (:mod:`repro.store.layout`'s entry read/write/quarantine
#: functions).  Everything else goes through ``CacheStore`` — a second
#: code path reading or writing entry files would bypass the atomic
#: publication and quarantine discipline.
STORE_ALLOWED = (
    "src/repro/store/",
)

#: Path prefixes allowed to call ``UlsDatabase.active_on`` (a linear scan
#: that materialises the license list); everything else resolves active
#: sets through the temporal index or the engine.
ACTIVE_ON_ALLOWED = (
    "src/repro/uls/",
)

#: Path prefixes allowed to construct a ``ColumnarLicenseStore`` directly.
#: Stores are per-database-generation derived state; building one anywhere
#: else risks stale columns after a mutation — everything outside the uls
#: layer obtains the cached store via ``UlsDatabase.columnar_store()``
#: (the reconstructor builds throwaway stores for explicit license sets).
COLUMNAR_ALLOWED = (
    "src/repro/uls/",
    "src/repro/core/reconstruction.py",
)

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


def _scope_text(paths: tuple[str, ...]) -> str:
    """A scope constant as the rule's messages name it."""
    return " and ".join(paths)


class CacheDisciplineRule(Rule):
    """Kernel construction is confined to the engine and kernel modules,
    linear active-set scans to the uls layer, and columnar-store
    construction to the uls layer and the reconstruction kernel."""

    name = "cache-discipline"
    description = (
        "NetworkReconstructor(...)/reconstruct_all(...) outside "
        f"{_scope_text(CACHE_ALLOWED)} bypasses the snapshot/route caches "
        "(use CorridorEngine or Scenario.engine()); active_on(...) outside "
        f"{_scope_text(ACTIVE_ON_ALLOWED)} rescans every license (use "
        "UlsDatabase.temporal_index()); ColumnarLicenseStore(...) outside "
        f"{_scope_text(COLUMNAR_ALLOWED)} risks stale columns (use "
        "UlsDatabase.columnar_store()); store layout calls "
        f"(read_entry/write_entry/...) outside {_scope_text(STORE_ALLOWED)} "
        "bypass atomic publication and quarantine (use CacheStore)"
    )
    interests = (ast.Call,)

    def applies_to(self, rel_path: str) -> bool:
        return (
            rel_path not in CACHE_ALLOWED
            or not _prefix_allowed(rel_path, ACTIVE_ON_ALLOWED)
            or not _prefix_allowed(rel_path, COLUMNAR_ALLOWED)
            or not _prefix_allowed(rel_path, STORE_ALLOWED)
        )

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        assert isinstance(node, ast.Call)
        name = call_name(node)
        if name in _KERNEL_CALLS and ctx.rel_path not in CACHE_ALLOWED:
            ctx.report(
                self,
                node,
                f"{name}(...) bypasses the CorridorEngine caches; "
                "go through CorridorEngine / Scenario.engine() "
                f"(allowed only in {_scope_text(CACHE_ALLOWED)})",
            )
        elif name in _SCAN_CALLS and not _prefix_allowed(
            ctx.rel_path, ACTIVE_ON_ALLOWED
        ):
            ctx.report(
                self,
                node,
                "active_on(...) linear-scans and materialises the license "
                "list; resolve active sets via "
                "UlsDatabase.temporal_index().active_ids_at(...) "
                f"(allowed only in {_scope_text(ACTIVE_ON_ALLOWED)})",
            )
        elif name in _COLUMNAR_CALLS and not _prefix_allowed(
            ctx.rel_path, COLUMNAR_ALLOWED
        ):
            ctx.report(
                self,
                node,
                "ColumnarLicenseStore(...) built outside "
                f"{_scope_text(COLUMNAR_ALLOWED)} risks stale columns after a "
                "database mutation; use UlsDatabase.columnar_store() (cached "
                "per generation)",
            )
        elif name in _STORE_CALLS and not _prefix_allowed(
            ctx.rel_path, STORE_ALLOWED
        ):
            ctx.report(
                self,
                node,
                f"{name}(...) touches the persistent store's entry files "
                "directly, bypassing atomic publication and corrupt-entry "
                "quarantine; go through repro.store.CacheStore "
                f"(allowed only in {_scope_text(STORE_ALLOWED)})",
            )
