"""The layer map of the traced run: which functions of ``src/repro`` get a span.

Each :data:`SPANS` entry names a span, the module that defines the
function and the function's qualified name there.  ``traced_main.py``
wraps every entry before it calls ``repro.cli.main``.  A span name's
first component is the ``src/repro`` package the time is charged to
(``cli``, ``scenarios``, ``synth``, ``uls``, ``core``, ``store``,
``parallel``, ``analysis``, ``serve``).

Which end-to-end metric each layer should move, and on which workload,
is written down in ``README.md`` ("Layer-to-metric map").
"""

from __future__ import annotations

SPANS = (
    ("cli.main", "repro.cli", "main"),
    ("cli.render", "repro.analysis.report", "format_table"),
    ("cli.render", "repro.serve.payloads", "render_payload"),
    ("scenarios.resolve", "repro.scenarios.registry", "resolve_scenario"),
    ("synth.build", "repro.synth.scenario", "build_scenario"),
    ("synth.calibrate", "repro.synth.generator", "NetworkBuilder.calibrate_trunk"),
    ("synth.calibrate", "repro.synth.generator", "NetworkBuilder.calibrate_branch"),
    ("uls.portal.render", "repro.uls.portal", "UlsPortal.geographic_search_page"),
    ("uls.portal.render", "repro.uls.portal", "UlsPortal.name_search_page"),
    ("uls.portal.render", "repro.uls.portal", "UlsPortal.license_detail_page"),
    ("uls.scraper.parse", "repro.uls.scraper", "UlsScraper.geographic_search"),
    ("uls.scraper.parse", "repro.uls.scraper", "UlsScraper.licenses_of"),
    ("uls.scraper.parse", "repro.uls.scraper", "UlsScraper.license_detail"),
    ("uls.columnar", "repro.uls.database", "UlsDatabase.columnar_store"),
    ("core.snapshot", "repro.core.engine", "CorridorEngine.snapshot"),
    ("core.snapshot", "repro.core.engine", "CorridorEngine.snapshot_from_licenses"),
    ("core.route", "repro.core.engine", "CorridorEngine.route"),
    ("core.timeline", "repro.core.engine", "CorridorEngine.timeline"),
    ("store.load", "repro.store.cachestore", "CacheStore.attach"),
    ("store.load", "repro.store.cachestore", "CacheStore.load_into"),
    ("store.save", "repro.store.cachestore", "CacheStore.save_from"),
    ("store.save", "repro.store.cachestore", "CacheStore.checkpoint_all"),
    ("parallel.session", "repro.parallel.grid", "GridSession.__init__"),
    ("parallel.session", "repro.parallel.grid", "GridSession.close"),
    ("parallel.map", "repro.parallel.grid", "GridSession.map"),
    ("analysis.table1", "repro.analysis.tables", "table1_connected_networks"),
    ("analysis.funnel", "repro.analysis.funnel", "run_scraping_funnel"),
    ("analysis.timeline", "repro.analysis.figures", "fig1_latency_evolution"),
    ("analysis.timeline", "repro.analysis.figures", "fig2_active_licenses"),
    ("analysis.compare", "repro.analysis.compare", "compare_corridors"),
    # The stdlib HTTP adapter: one span per connection (parse, dispatch,
    # write), the parent of serve.handle.
    ("serve.http", "repro.serve.server", "_Handler.handle"),
    ("serve.handle", "repro.serve.service", "CorridorQueryService.handle_http"),
)

#: The span the coalescing leader's compute callable runs under
#: (``EngineFacade.coalesced`` wraps it; followers never enter it).
ENGINE_SPAN = "serve.engine"

#: Classes whose instances are collected so their own counters can be
#: read when the process exits.
COUNTED = (
    ("repro.core.engine", "CorridorEngine"),
    ("repro.store.cachestore", "CacheStore"),
    ("repro.serve.facade", "EngineFacade"),
    ("repro.serve.service", "ResponseBodyCache"),
    ("repro.parallel.grid", "GridSession"),
)


def counters(instances: dict[str, list]) -> dict[str, int]:
    """Sum the collected instances' own hit/miss counters."""
    out = dict.fromkeys(
        (
            "snapshot_hits", "snapshot_misses", "route_hits", "route_misses",
            "store_hits", "store_misses", "body_hits", "body_misses",
            "coalesce_leaders", "coalesce_followers", "workers",
        ),
        0,
    )
    for engine in instances["CorridorEngine"]:
        stats = engine.stats
        out["snapshot_hits"] += stats.snapshot.hits
        out["snapshot_misses"] += stats.snapshot.misses
        out["route_hits"] += stats.route.hits
        out["route_misses"] += stats.route.misses
    for store in instances["CacheStore"]:
        out["store_hits"] += store.hits
        out["store_misses"] += store.misses
    for bodies in instances["ResponseBodyCache"]:
        out["body_hits"] += bodies.hits
        out["body_misses"] += bodies.misses
    for facade in instances["EngineFacade"]:
        described = facade.describe()["facade"]
        out["coalesce_leaders"] += described["coalesce_leader"]
        out["coalesce_followers"] += described["coalesce_follower"]
    for session in instances["GridSession"]:
        if session.backend == "process":
            out["workers"] += session.jobs
    return out
