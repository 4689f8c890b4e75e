"""The §2.2 scraping funnel: 57 candidates → 29 shortlisted → 9 connected.

Replays the paper's data-collection pipeline end to end *through the
scraper*: a geographic license search within 10 km of CME, the MG/FXO
site filter, the ≥11-filings shortlist, and finally end-to-end
connectivity on the snapshot date.

With a store attached to the engine, the scraper starts from the
store's ``scrape`` entry for the database (the pages an earlier funnel
parsed) and publishes it back only if it parsed a page the entry
lacked, so a warm funnel fetches no page it read before.  Every stage
still runs: only the page fetches are saved.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

from repro import obs
from repro.constants import (
    CME_SEARCH_RADIUS_M,
    MIN_FILINGS_FOR_SHORTLIST,
    RADIO_SERVICE_MG,
    STATION_CLASS_FXO,
)
from repro.core.corridor import CorridorSpec
from repro.core.engine import CorridorEngine
from repro.uls.database import UlsDatabase
from repro.uls.portal import UlsPortal
from repro.uls.records import licenses_by_licensee
from repro.uls.scraper import UlsScraper


@dataclass(frozen=True)
class FunnelResult:
    """Outcome of each funnel stage."""

    candidate_licensees: tuple[str, ...]
    shortlisted_licensees: tuple[str, ...]
    connected_licensees: tuple[str, ...]
    pages_scraped: int

    @property
    def counts(self) -> tuple[int, int, int]:
        """(candidates, shortlisted, connected) — the paper's 57/29/9."""
        return (
            len(self.candidate_licensees),
            len(self.shortlisted_licensees),
            len(self.connected_licensees),
        )


def run_scraping_funnel(
    database: UlsDatabase,
    corridor: CorridorSpec,
    on_date: dt.date,
    radius_m: float = CME_SEARCH_RADIUS_M,
    min_filings: int = MIN_FILINGS_FOR_SHORTLIST,
    source: str | None = None,
    target: str | None = None,
    engine: CorridorEngine | None = None,
) -> FunnelResult:
    """Replay §2.2 through the portal + scraper.

    Stage-3 connectivity checks run through a
    :class:`~repro.core.engine.CorridorEngine` (reconstructing the
    *scraped* license records); pass ``engine`` to share its geodesic
    memo and parameterisation with other drivers.  Scraped records lose
    coordinate precision through the portal's DMS round-trip, so their
    snapshots live under content-digested cache keys — they reuse the
    engine's memo but never alias (or overwrite) the database-derived
    snapshots the ranking/timeline drivers serve.

    Every stage reads through this function's one scraper, so
    ``pages_scraped`` counts every stage.  It is store-invariant: the
    engine's store (``engine.store``) seeds the scraper with pages an
    earlier run parsed, and a page read from there counts as a scraped
    page.
    """
    source, target = corridor.resolve_path(source, target)
    if engine is None:
        engine = CorridorEngine(database, corridor)
    portal = UlsPortal(database)
    scraper = UlsScraper(portal)
    store = engine.store
    if store is not None:
        from repro.store.fingerprint import scrape_fingerprint

        fingerprint = scrape_fingerprint(database.content_digest())
        store.load_entry(fingerprint, "scrape", scraper.seed_pages)
    cme = corridor.site(source).point

    with obs.span("analysis.funnel", date=on_date.isoformat()):
        # Stage 1: geographic search around CME, then the site-based
        # MG/FXO filter applied to the scraped rows.
        with obs.span("analysis.funnel.search"):
            rows = scraper.geographic_search(
                cme.latitude, cme.longitude, radius_m / 1000.0
            )
            candidates = sorted(
                {
                    row["licensee_name"]
                    for row in rows
                    if row["radio_service_code"] == RADIO_SERVICE_MG
                    and row["station_class"] == STATION_CLASS_FXO
                }
            )

        # Stage 2: scrape every candidate's license list; shortlist
        # licensees with enough filings to span the corridor.
        with obs.span("analysis.funnel.shortlist", candidates=len(candidates)):
            shortlisted = [
                name
                for name in candidates
                if len(scraper.licenses_of(name)) >= min_filings
            ]

        # Stage 3: scrape the shortlisted licensees' license details and
        # reconstruct their networks at the snapshot date.
        with obs.span("analysis.funnel.connect", shortlisted=len(shortlisted)):
            connected = []
            for name in shortlisted:
                grouped = licenses_by_licensee(scraper.scrape_licensee(name))
                network = engine.snapshot_from_licenses(
                    grouped[name], on_date, licensee=name
                )
                if network.is_connected(source, target):
                    connected.append(name)

    if store is not None and scraper.dirty:
        store.save_entry(fingerprint, "scrape", scraper.export_pages)
    # All portal traffic flows through this scraper.
    pages_scraped = scraper.stats.search_pages + scraper.stats.detail_pages
    return FunnelResult(
        candidate_licensees=tuple(candidates),
        shortlisted_licensees=tuple(shortlisted),
        connected_licensees=tuple(connected),
        pages_scraped=pages_scraped,
    )
