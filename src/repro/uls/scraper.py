"""Scraping client for ULS portal pages.

This is the data-collection half of the paper's tool (§2.2).  It drives
the portal's search pages, parses each page in one pass over its fixed
block layout (results tables of rows and cells, the ``meta`` and
``contact`` paragraphs, the ``<h1>`` heading), and rebuilds
:class:`License` records.  A page that does not fit the layout (a missing
table, a changed header, a short row, a field that does not convert)
raises :class:`ScrapeError` naming the table and row.

The scraper is written against page *structure* (table ids, headers and
column order), not against our renderer's internals, so it would work
unchanged on any server producing the same page layout.  A per-license
cache avoids refetching detail pages, mirroring the original tool's
on-disk cache.
"""

from __future__ import annotations

import datetime as dt
import re
from dataclasses import dataclass
from html import unescape

from repro import obs
from repro.geodesy import GeoPoint
from repro.geodesy.coordinates import parse_dms
from repro.uls.portal import UlsPortal
from repro.uls.records import (
    License,
    MicrowavePath,
    TowerLocation,
    parse_date,
)


class ScrapeError(ValueError):
    """Raised when a page cannot be parsed into the expected structure."""


#: One alternation finds every block the scraper reads, in page order: a
#: ``<table>`` (kept when its class names ``results``), the ``meta`` and
#: ``contact`` paragraphs, and the ``<h1>`` heading.  A block's body may
#: not contain another tag of its own kind, and the possessive ``++`` /
#: ``*+`` never backtrack, so a scan stops at the next such tag: every
#: pattern here runs in time linear in the page, however malformed.
_BLOCK_RE = re.compile(
    r"<table\b([^<>]*+)>((?:[^<]++|<(?!/?table\b))*+)</table>"
    r'|<p id="(meta|contact)">((?:[^<]++|<(?!/?p\b))*+)</p>'
    r"|<h1\b[^<>]*+>((?:[^<]++|<(?!/?h1\b))*+)</h1>"
)
_ATTR_RE = re.compile(r'([\w-]+)="([^"]*)"')
_ROW_RE = re.compile(r"<tr\b[^<>]*+>((?:[^<]++|<(?!/?tr\b))*+)</tr>")
_CELL_RE = re.compile(r"<t[dh]\b[^<>]*+>((?:[^<]++|<(?!/?t[dh]\b))*+)</t[dh]>")
_TAG_RE = re.compile(r"</?[A-Za-z][^<>]*+>")

#: The header row each results table must carry, column by column.
_GEOGRAPHIC_HEADER = (
    "Call Sign", "License ID", "Licensee", "Radio Service", "Station Class"
)
_GEOGRAPHIC_KEYS = (
    "callsign", "license_id", "licensee_name", "radio_service_code", "station_class"
)
_NAME_HEADER = ("Call Sign", "License ID", "Licensee")
_DATES_HEADER = ("Event", "Date")
_LOCATIONS_HEADER = (
    "Loc", "Latitude", "Longitude", "Ground Elev (m)", "Height (m)", "Site"
)
_PATHS_HEADER = ("Path", "TX Loc", "RX Loc", "Frequencies (MHz)")


def _text(fragment: str) -> str:
    """The character data of an HTML fragment: tags dropped, entities decoded."""
    if "<" in fragment:
        fragment = _TAG_RE.sub("", fragment)
    if "&" in fragment:
        fragment = unescape(fragment)
    return fragment


@dataclass
class _Page:
    """What the scraper reads off one portal page.

    ``tables`` maps each results table's ``id`` (``table<n>`` when it has
    none) to its rows of stripped cell text, header row included, in page
    order.  ``meta``, ``contact`` and ``heading`` are the unstripped text
    of the ``<p id="meta">``, ``<p id="contact">`` and ``<h1>`` blocks.
    """

    tables: dict[str, list[list[str]]]
    meta: str = ""
    contact: str = ""
    heading: str = ""

    def first_table(self) -> list[list[str]]:
        if not self.tables:
            raise ScrapeError("page contains no results table")
        return next(iter(self.tables.values()))


def _parse_page(html: str) -> _Page:
    """Parse a portal page in one pass over its fixed block layout."""
    page = _Page({})
    for match in _BLOCK_RE.finditer(html):
        attrs, body, paragraph, paragraph_body, heading = match.groups()
        if body is not None:
            attributes = dict(_ATTR_RE.findall(attrs))
            if "results" in attributes.get("class", ""):
                table_id = attributes.get("id") or f"table{len(page.tables)}"
                page.tables[table_id] = [
                    [_text(cell).strip() for cell in _CELL_RE.findall(row)]
                    for row in _ROW_RE.findall(body)
                ]
        elif paragraph == "meta":
            page.meta += _text(paragraph_body)
        elif paragraph == "contact":
            page.contact += _text(paragraph_body)
        else:
            page.heading += _text(heading)
    return page


def _data_rows(
    table: str, rows: list[list[str]], header: tuple[str, ...]
) -> list[list[str]]:
    """The rows below ``header``, each checked to have one cell per column."""
    if not rows or tuple(rows[0]) != header:
        raise ScrapeError(f"unexpected {table} header: {rows[0] if rows else []!r}")
    for number, row in enumerate(rows[1:], 1):
        if len(row) != len(header):
            raise ScrapeError(
                f"{table} row {number}: expected {len(header)} cells, got {len(row)}"
            )
    return rows[1:]


def _convert_rows(table: str, rows: list[list[str]], convert) -> list:
    """``convert`` each row; a bad field raises a ScrapeError naming the row."""
    converted = []
    number = 0
    try:
        for number, row in enumerate(rows, 1):
            converted.append(convert(row))
    except (ValueError, OverflowError) as exc:
        raise ScrapeError(f"{table} row {number}: {exc}") from None
    return converted


def _date_row(row: list[str]) -> tuple[str, dt.date | None]:
    event, text = row
    return event, parse_date("" if text == "—" else text)


def _location_row(row: list[str]) -> TowerLocation:
    number, latitude, longitude, ground, height, site = row
    return TowerLocation(
        location_number=int(number),
        point=GeoPoint(parse_dms(latitude), parse_dms(longitude)),
        ground_elevation_m=float(ground),
        structure_height_m=float(height),
        site_name="" if site == "—" else site,
    )


def _path_row(row: list[str]) -> MicrowavePath:
    number, tx, rx, freq_text = row
    frequencies = (
        ()
        if freq_text == "—"
        else tuple(float(part) for part in freq_text.split(","))
    )
    return MicrowavePath(
        path_number=int(number),
        tx_location_number=int(tx),
        rx_location_number=int(rx),
        frequencies_mhz=frequencies,
    )


@dataclass
class ScrapeStats:
    """Bookkeeping for a scraping session."""

    search_pages: int = 0
    detail_pages: int = 0
    cache_hits: int = 0


class UlsScraper:
    """Replays the paper's scraping pipeline against a portal."""

    def __init__(self, portal: UlsPortal) -> None:
        self._portal = portal
        self._detail_cache: dict[str, License] = {}
        self.stats = ScrapeStats()

    # ------------------------------------------------------------------
    # Search pages
    # ------------------------------------------------------------------

    def geographic_search(
        self, latitude: float, longitude: float, radius_km: float
    ) -> list[dict[str, str]]:
        """Scrape the geographic results: one dict per row."""
        with obs.span("uls.scraper.search", kind="geographic"):
            with obs.span("uls.portal.render"):
                html = self._portal.geographic_search_page(
                    latitude, longitude, radius_km
                )
            self.stats.search_pages += 1
            obs.count("uls.scraper.page.search")
            with obs.span("uls.scraper.parse"):
                rows = _data_rows(
                    "geographic results",
                    _parse_page(html).first_table(),
                    _GEOGRAPHIC_HEADER,
                )
        return [dict(zip(_GEOGRAPHIC_KEYS, row)) for row in rows]

    def licenses_of(self, licensee_name: str) -> list[str]:
        """License ids filed by a licensee (name-search page)."""
        with obs.span("uls.scraper.search", kind="name", licensee=licensee_name):
            with obs.span("uls.portal.render"):
                html = self._portal.name_search_page(licensee_name)
            self.stats.search_pages += 1
            obs.count("uls.scraper.page.search")
            with obs.span("uls.scraper.parse"):
                rows = _data_rows(
                    "name results", _parse_page(html).first_table(), _NAME_HEADER
                )
        return [row[1] for row in rows]

    # ------------------------------------------------------------------
    # Detail pages
    # ------------------------------------------------------------------

    def license_detail(self, license_id: str) -> License:
        """Scrape (or serve from cache) one license-detail page."""
        if license_id in self._detail_cache:
            self.stats.cache_hits += 1
            obs.count("uls.scraper.cache.hit")
            return self._detail_cache[license_id]
        obs.count("uls.scraper.cache.miss")
        with obs.span("uls.scraper.detail", license_id=license_id):
            with obs.span("uls.portal.render"):
                html = self._portal.license_detail_page(license_id)
            self.stats.detail_pages += 1
            obs.count("uls.scraper.page.detail")
            with obs.span("uls.scraper.parse"):
                lic = self._parse_detail(html)
        if lic.license_id != license_id:
            raise ScrapeError(
                f"requested {license_id!r} but page is for {lic.license_id!r}"
            )
        self._detail_cache[license_id] = lic
        return lic

    def scrape_licensee(self, licensee_name: str) -> list[License]:
        """All filings of one licensee, via name search + detail pages."""
        return [self.license_detail(lid) for lid in self.licenses_of(licensee_name)]

    def absorb(self, stats: ScrapeStats) -> None:
        """Add another scraper's page counts (a grid worker's) to ours."""
        self.stats.search_pages += stats.search_pages
        self.stats.detail_pages += stats.detail_pages
        self.stats.cache_hits += stats.cache_hits

    # ------------------------------------------------------------------
    # Detail page parsing
    # ------------------------------------------------------------------

    @staticmethod
    def _parse_detail(html: str) -> License:
        page = _parse_page(html)
        tables = {}
        for table_id, header in (
            ("dates", _DATES_HEADER),
            ("locations", _LOCATIONS_HEADER),
            ("paths", _PATHS_HEADER),
        ):
            if table_id not in page.tables:
                raise ScrapeError(f"detail page missing {table_id!r} table")
            tables[table_id] = _data_rows(
                f"{table_id} table", page.tables[table_id], header
            )

        meta_fields: dict[str, str] = {}
        for chunk in page.meta.split("|"):
            if ":" in chunk:
                key, _, value = chunk.partition(":")
                meta_fields[key.strip()] = value.strip()
        license_id = meta_fields.get("License ID", "")
        if not license_id:
            raise ScrapeError("detail page has no license id")

        contact_email = ""
        if ":" in page.contact:
            value = page.contact.partition(":")[2].strip()
            contact_email = "" if value == "—" else value

        if "—" not in page.heading:
            raise ScrapeError(f"unparseable detail heading: {page.heading!r}")
        callsign_part, _, licensee_name = page.heading.partition("—")
        callsign = callsign_part.lstrip().removeprefix("License ").strip()

        dates = dict(_convert_rows("dates table", tables["dates"], _date_row))
        locations = {
            loc.location_number: loc
            for loc in _convert_rows(
                "locations table", tables["locations"], _location_row
            )
        }
        paths = _convert_rows("paths table", tables["paths"], _path_row)
        try:
            return License(
                license_id=license_id,
                callsign=callsign,
                licensee_name=licensee_name.strip(),
                contact_email=contact_email,
                radio_service_code=meta_fields.get("Radio Service", ""),
                station_class=meta_fields.get("Station Class", ""),
                grant_date=dates.get("Grant"),
                expiration_date=dates.get("Expiration"),
                cancellation_date=dates.get("Cancellation"),
                termination_date=dates.get("Termination"),
                locations=locations,
                paths=paths,
            )
        except ValueError as exc:
            raise ScrapeError(f"detail page for {license_id!r}: {exc}") from None
