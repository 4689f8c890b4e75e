"""The html.parser extractors the scraper's one-pass page parser replaced.

Production scraping has one page parser, :func:`repro.uls.scraper
._parse_page`, which reads the portal's fixed block layout with compiled
regexes.  This module keeps the two general-purpose stdlib
:class:`~html.parser.HTMLParser` walks it was derived from, as test
oracles:

* :class:`TableExtractor` — every ``<table class="results">`` as rows of
  cell text, keyed by table ``id``;
* :class:`MetaExtractor` — the text of the ``meta`` and ``contact``
  paragraphs and of the ``<h1>`` heading;
* :func:`read_page` — both walks over one page, as the tuple
  ``(tables, meta, contact, heading)``;
* :func:`build_license` — the license-detail parse over that tuple, as it
  stood before the one-pass parser (it still deletes "License" anywhere
  in the heading's call sign, not only the leading word).

The equivalence tests hold the page parser to these on every page the
registered scenarios render: same tables, rows and cells, same meta,
contact and heading text.
"""

from __future__ import annotations

from html.parser import HTMLParser

from repro.geodesy import GeoPoint
from repro.geodesy.coordinates import parse_dms
from repro.uls.records import License, MicrowavePath, TowerLocation, parse_date
from repro.uls.scraper import ScrapeError


class TableExtractor(HTMLParser):
    """Collects every ``<table class="results">`` as a list of text rows.

    Tables are keyed by their ``id`` attribute ("" when absent); each table
    is a list of rows, each row a list of cell strings (header row
    included).
    """

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.tables: dict[str, list[list[str]]] = {}
        self._table_order: list[str] = []
        self._current_id: str | None = None
        self._current_rows: list[list[str]] | None = None
        self._current_row: list[str] | None = None
        self._cell_parts: list[str] | None = None

    def handle_starttag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        attributes = dict(attrs)
        if tag == "table" and "results" in (attributes.get("class") or ""):
            self._current_id = attributes.get("id") or f"table{len(self._table_order)}"
            self._current_rows = []
        elif tag == "tr" and self._current_rows is not None:
            self._current_row = []
        elif tag in ("td", "th") and self._current_row is not None:
            self._cell_parts = []

    def handle_endtag(self, tag: str) -> None:
        if tag in ("td", "th") and self._cell_parts is not None:
            assert self._current_row is not None
            self._current_row.append("".join(self._cell_parts).strip())
            self._cell_parts = None
        elif tag == "tr" and self._current_row is not None:
            assert self._current_rows is not None
            self._current_rows.append(self._current_row)
            self._current_row = None
        elif tag == "table" and self._current_rows is not None:
            assert self._current_id is not None
            self.tables[self._current_id] = self._current_rows
            self._table_order.append(self._current_id)
            self._current_rows = None
            self._current_id = None

    def handle_data(self, data: str) -> None:
        if self._cell_parts is not None:
            self._cell_parts.append(data)

    def first_table(self) -> list[list[str]]:
        if not self._table_order:
            raise ScrapeError("page contains no results table")
        return self.tables[self._table_order[0]]


class MetaExtractor(HTMLParser):
    """Extracts the license id / service / class line and the page h1."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self._in_meta = False
        self._in_contact = False
        self._in_h1 = False
        self.meta_text = ""
        self.contact_text = ""
        self.heading = ""

    def handle_starttag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        attributes = dict(attrs)
        if tag == "p" and attributes.get("id") == "meta":
            self._in_meta = True
        elif tag == "p" and attributes.get("id") == "contact":
            self._in_contact = True
        elif tag == "h1":
            self._in_h1 = True

    def handle_endtag(self, tag: str) -> None:
        if tag == "p":
            self._in_meta = False
            self._in_contact = False
        elif tag == "h1":
            self._in_h1 = False

    def handle_data(self, data: str) -> None:
        if self._in_meta:
            self.meta_text += data
        if self._in_contact:
            self.contact_text += data
        if self._in_h1:
            self.heading += data


def read_page(html: str) -> tuple[dict[str, list[list[str]]], str, str, str]:
    """``(tables, meta, contact, heading)`` of a page, by two stdlib walks."""
    tables = TableExtractor()
    tables.feed(html)
    meta = MetaExtractor()
    meta.feed(html)
    return tables.tables, meta.meta_text, meta.contact_text, meta.heading


def build_license(page: tuple[dict[str, list[list[str]]], str, str, str]) -> License:
    """The license a :func:`read_page` tuple of a detail page describes."""
    tables, meta_text, contact_text, heading = page
    for required in ("dates", "locations", "paths"):
        if required not in tables:
            raise ScrapeError(f"detail page missing {required!r} table")

    meta_fields: dict[str, str] = {}
    for chunk in meta_text.split("|"):
        if ":" in chunk:
            key, _, value = chunk.partition(":")
            meta_fields[key.strip()] = value.strip()
    license_id = meta_fields.get("License ID", "")
    if not license_id:
        raise ScrapeError("detail page has no license id")

    contact_email = ""
    if ":" in contact_text:
        value = contact_text.partition(":")[2].strip()
        contact_email = "" if value == "—" else value

    if "—" in heading:
        callsign_part, _, licensee_name = heading.partition("—")
        callsign = callsign_part.replace("License", "").strip()
        licensee_name = licensee_name.strip()
    else:
        raise ScrapeError(f"unparseable detail heading: {heading!r}")

    dates: dict[str, str] = {}
    for row in tables["dates"][1:]:
        dates[row[0]] = "" if row[1] == "—" else row[1]

    locations: dict[int, TowerLocation] = {}
    for row in tables["locations"][1:]:
        number = int(row[0])
        locations[number] = TowerLocation(
            location_number=number,
            point=GeoPoint(parse_dms(row[1]), parse_dms(row[2])),
            ground_elevation_m=float(row[3]),
            structure_height_m=float(row[4]),
            site_name="" if row[5] == "—" else row[5],
        )

    paths: list[MicrowavePath] = []
    for row in tables["paths"][1:]:
        freq_text = row[3]
        frequencies = (
            ()
            if freq_text == "—"
            else tuple(float(part) for part in freq_text.split(","))
        )
        paths.append(
            MicrowavePath(
                path_number=int(row[0]),
                tx_location_number=int(row[1]),
                rx_location_number=int(row[2]),
                frequencies_mhz=frequencies,
            )
        )

    return License(
        license_id=license_id,
        callsign=callsign,
        licensee_name=licensee_name,
        contact_email=contact_email,
        radio_service_code=meta_fields.get("Radio Service", ""),
        station_class=meta_fields.get("Station Class", ""),
        grant_date=parse_date(dates.get("Grant")),
        expiration_date=parse_date(dates.get("Expiration")),
        cancellation_date=parse_date(dates.get("Cancellation")),
        termination_date=parse_date(dates.get("Termination")),
        locations=locations,
        paths=paths,
    )
