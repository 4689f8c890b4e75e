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
unchanged on any server producing the same page layout.

Like the original tool, the scraper keeps what it parsed and never
fetches a page twice: detail records by license id and name-search
results by licensee.  That cache persists across processes through the
store (:meth:`UlsScraper.export_pages` / :meth:`UlsScraper.seed_pages`,
the body of a ``scrape`` entry keyed on the database's content digest),
so a warm funnel renders and parses no page it read before.  A page
served from the cache still counts as a page read (:class:`ScrapeStats`),
so page counts do not depend on what the cache held.
"""

from __future__ import annotations

import datetime as dt
import pickle
import re
import zlib
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


def _date_row(row: list[str], shared: dict) -> tuple[str, dt.date | None]:
    event, text = row
    if text not in shared:
        shared[text] = parse_date("" if text == "—" else text)
    return event, shared[text]


def _location_row(row: list[str], shared: dict) -> TowerLocation:
    number, latitude, longitude, ground, height, site = row
    point = shared.get((latitude, longitude))
    if point is None:
        point = GeoPoint(parse_dms(latitude), parse_dms(longitude))
        shared[latitude, longitude] = point
    return TowerLocation(
        location_number=int(number),
        point=point,
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
    """Bookkeeping for a scraping session.

    ``search_pages`` counts name and geographic searches, and
    ``detail_pages`` the distinct detail pages read, whether the portal
    rendered a page or the scraper's cache held it from an earlier
    session; ``cache_hits`` counts detail pages read again within the
    session.
    """

    search_pages: int = 0
    detail_pages: int = 0
    cache_hits: int = 0


class UlsScraper:
    """Replays the paper's scraping pipeline against a portal.

    Parsed pages are kept for the scraper's life and can be persisted
    (:meth:`export_pages`) and seeded into a later scraper over the same
    database (:meth:`seed_pages`); :attr:`dirty` says whether the scraper
    has parsed a page since it was built.
    """

    def __init__(self, portal: UlsPortal) -> None:
        self._portal = portal
        #: Every detail record parsed or seeded, by license id.
        self._details: dict[str, License] = {}
        #: Every name-search result parsed or seeded, by licensee.
        self._names: dict[str, tuple[str, ...]] = {}
        #: Dates and points by the page text they were parsed from.
        self._shared: dict = {}
        #: Ids whose detail page this session has counted.
        self._counted: set[str] = set()
        self.dirty = False
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
        ids = self._names.get(licensee_name)
        if ids is None:
            with obs.span(
                "uls.scraper.search", kind="name", licensee=licensee_name
            ):
                with obs.span("uls.portal.render"):
                    html = self._portal.name_search_page(licensee_name)
                obs.count("uls.scraper.page.search")
                with obs.span("uls.scraper.parse"):
                    rows = _data_rows(
                        "name results", _parse_page(html).first_table(), _NAME_HEADER
                    )
            ids = self._names[licensee_name] = tuple(row[1] for row in rows)
            self.dirty = True
        self.stats.search_pages += 1
        return list(ids)

    # ------------------------------------------------------------------
    # Detail pages
    # ------------------------------------------------------------------

    def license_detail(self, license_id: str) -> License:
        """Scrape (or serve from cache) one license-detail page."""
        if license_id in self._counted:
            self.stats.cache_hits += 1
            return self._details[license_id]
        lic = self._details.get(license_id)
        if lic is None:
            obs.count("uls.scraper.cache.miss")
            with obs.span("uls.scraper.detail", license_id=license_id):
                with obs.span("uls.portal.render"):
                    html = self._portal.license_detail_page(license_id)
                obs.count("uls.scraper.page.detail")
                with obs.span("uls.scraper.parse"):
                    lic = self._parse_detail(html, self._shared)
            if lic.license_id != license_id:
                raise ScrapeError(
                    f"requested {license_id!r} but page is for {lic.license_id!r}"
                )
            self._details[license_id] = lic
            self.dirty = True
        self._counted.add(license_id)
        self.stats.detail_pages += 1
        return lic

    def scrape_licensee(self, licensee_name: str) -> list[License]:
        """All filings of one licensee, via name search + detail pages."""
        return [self.license_detail(lid) for lid in self.licenses_of(licensee_name)]

    # ------------------------------------------------------------------
    # Persistence (the body of a ``scrape`` store entry)
    # ------------------------------------------------------------------

    def export_pages(self) -> bytes:
        """Every parsed detail record and name-search result, as one
        pickle behind its CRC-32, so a flipped byte fails
        :meth:`seed_pages` instead of seeding a wrong record."""
        data = pickle.dumps(
            (tuple(self._details.values()), tuple(self._names.items())),
            protocol=4,
        )
        return zlib.crc32(data).to_bytes(4, "big") + data

    def seed_pages(self, body: bytes) -> None:
        """Install the pages an :meth:`export_pages` of a scraper over the
        same database returned.

        Raises ``ValueError`` (or whatever unpickling raises) on a body
        that fails its checksum or does not hold pages, installing
        nothing.  Pages already held keep their records, and
        :attr:`dirty` stays as it was: seeding parses no page.
        """
        crc, data = body[:4], body[4:]
        if int.from_bytes(crc, "big") != zlib.crc32(data):
            raise ValueError("scrape entry fails its checksum")
        details, names = pickle.loads(data)
        if not all(type(lic) is License for lic in details) or not all(
            type(name) is str and type(ids) is tuple for name, ids in names
        ):
            raise ValueError("scrape entry does not hold scraped pages")
        for lic in details:
            self._details.setdefault(lic.license_id, lic)
        for name, ids in names:
            self._names.setdefault(name, ids)

    # ------------------------------------------------------------------
    # Detail page parsing
    # ------------------------------------------------------------------

    @staticmethod
    def _parse_detail(html: str, shared: dict | None = None) -> License:
        """One detail page's license.  Dates and points parsed from equal
        text are one object across the pages that share ``shared``, so a
        pickle of many records (:meth:`export_pages`) stores each once."""
        shared = {} if shared is None else shared
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

        dates = dict(
            _convert_rows(
                "dates table", tables["dates"], lambda row: _date_row(row, shared)
            )
        )
        locations = {
            loc.location_number: loc
            for loc in _convert_rows(
                "locations table",
                tables["locations"],
                lambda row: _location_row(row, shared),
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
