"""Tests for the portal simulator and the scraping client."""

from __future__ import annotations

import datetime as dt
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geodesy import GeoPoint, geodesic_destination
from repro.uls.database import UlsDatabase
from repro.uls.portal import PageNotFoundError, UlsPortal
from repro.uls.scraper import ScrapeError, UlsScraper, _parse_page
from tests.conftest import make_license

CME = GeoPoint(41.7580, -88.1801)


@pytest.fixture()
def stack():
    near = geodesic_destination(CME, 45.0, 3_000.0)
    far = geodesic_destination(CME, 90.0, 40_000.0)
    licenses = [
        make_license(
            "L1",
            licensee="HFT Alpha & Co",
            points=((near.latitude, near.longitude), (far.latitude, far.longitude)),
            grant=dt.date(2015, 3, 1),
            cancellation=dt.date(2019, 9, 30),
            frequencies=(10995.0, 11485.0),
        ),
        make_license(
            "L2",
            licensee="HFT Alpha & Co",
            points=((far.latitude, far.longitude), (41.5, -86.9)),
            grant=dt.date(2016, 6, 1),
        ),
    ]
    db = UlsDatabase(licenses)
    portal = UlsPortal(db)
    return portal, UlsScraper(portal)


class TestPortal:
    def test_geographic_page_contains_rows(self, stack):
        portal, _ = stack
        html = portal.geographic_search_page(CME.latitude, CME.longitude, 10.0)
        assert "HFT Alpha &amp; Co" in html
        assert "L1" in html

    def test_detail_page_escapes_and_structures(self, stack):
        portal, _ = stack
        html = portal.license_detail_page("L1")
        assert 'id="dates"' in html and 'id="locations"' in html and 'id="paths"' in html
        assert "03/01/2015" in html  # US-format grant date
        assert "&amp;" in html  # entity escaping

    def test_missing_license_raises(self, stack):
        portal, _ = stack
        with pytest.raises(PageNotFoundError):
            portal.license_detail_page("NOPE")

    def test_request_counter(self, stack):
        portal, _ = stack
        start = portal.page_requests
        portal.name_search_page("HFT Alpha & Co")
        portal.license_detail_page("L1")
        assert portal.page_requests == start + 2


class TestScraper:
    def test_geographic_rows(self, stack):
        _, scraper = stack
        rows = scraper.geographic_search(CME.latitude, CME.longitude, 10.0)
        assert rows[0]["licensee_name"] == "HFT Alpha & Co"
        assert rows[0]["radio_service_code"] == "MG"

    def test_licenses_of(self, stack):
        _, scraper = stack
        assert scraper.licenses_of("HFT Alpha & Co") == ["L1", "L2"]

    def test_detail_roundtrip(self, stack):
        _, scraper = stack
        lic = scraper.license_detail("L1")
        assert lic.license_id == "L1"
        assert lic.licensee_name == "HFT Alpha & Co"
        assert lic.grant_date == dt.date(2015, 3, 1)
        assert lic.cancellation_date == dt.date(2019, 9, 30)
        assert lic.paths[0].frequencies_mhz == (10995.0, 11485.0)
        # Coordinates survive the DMS rendering within ~1 cm.
        original = make_license("X").locations  # not used; precision check below
        assert lic.locations[1].point.latitude == pytest.approx(
            geodesic_destination(CME, 45.0, 3_000.0).latitude, abs=1e-6
        )

    def test_detail_cache(self, stack):
        portal, scraper = stack
        scraper.license_detail("L1")
        pages_before = portal.page_requests
        scraper.license_detail("L1")
        assert portal.page_requests == pages_before
        assert scraper.stats.cache_hits == 1

    def test_scrape_licensee_reconstructs_all(self, stack):
        _, scraper = stack
        licenses = scraper.scrape_licensee("HFT Alpha & Co")
        assert [lic.license_id for lic in licenses] == ["L1", "L2"]

    def test_active_semantics_survive_scrape(self, stack):
        _, scraper = stack
        lic = scraper.license_detail("L1")
        assert lic.is_active(dt.date(2018, 1, 1))
        assert not lic.is_active(dt.date(2020, 1, 1))


class TestPersistedPages:
    def test_seeded_scraper_fetches_nothing_and_counts_every_page(self, stack):
        portal, scraper = stack
        expected = scraper.scrape_licensee("HFT Alpha & Co")
        assert scraper.dirty
        seeded = UlsScraper(portal)
        seeded.seed_pages(scraper.export_pages())
        requests = portal.page_requests
        assert seeded.scrape_licensee("HFT Alpha & Co") == expected
        assert portal.page_requests == requests
        assert seeded.stats == scraper.stats
        assert not seeded.dirty

    def test_seed_rejects_a_flipped_byte_or_a_foreign_body(self, stack):
        import pickle
        import zlib

        portal, scraper = stack
        scraper.scrape_licensee("HFT Alpha & Co")
        body = bytearray(scraper.export_pages())
        body[len(body) // 2] ^= 0xFF
        foreign = pickle.dumps(((["L1"],), ()))
        seeded = UlsScraper(portal)
        with pytest.raises(ValueError, match="checksum"):
            seeded.seed_pages(bytes(body))
        with pytest.raises(ValueError, match="scraped pages"):
            seeded.seed_pages(zlib.crc32(foreign).to_bytes(4, "big") + foreign)
        # Nothing was installed: the first read fetches its page.
        requests = portal.page_requests
        seeded.license_detail("L1")
        assert portal.page_requests == requests + 1


class TestHtmlRobustness:
    def test_table_extractor_ignores_non_result_tables(self):
        html = (
            "<table><tr><td>noise</td></tr></table>"
            '<table class="results" id="dates"><tr><th>Event</th><th>Date</th></tr>'
            "<tr><td>Grant</td><td>01/02/2015</td></tr></table>"
        )
        page = _parse_page(html)
        assert list(page.tables) == ["dates"]
        assert page.tables["dates"][1] == ["Grant", "01/02/2015"]

    def test_first_table_raises_when_absent(self):
        page = _parse_page("<html><body><p>empty</p></body></html>")
        with pytest.raises(ScrapeError):
            page.first_table()

    def test_scraper_rejects_header_drift(self, stack):
        portal, scraper = stack
        real = portal.geographic_search_page

        def tampered(lat, lon, radius, active_on=None):
            return real(lat, lon, radius, active_on).replace("Call Sign", "Callsign")

        portal.geographic_search_page = tampered
        with pytest.raises(ScrapeError, match="header"):
            scraper.geographic_search(CME.latitude, CME.longitude, 10.0)


def _tamper(portal, method, old, new):
    """Make ``portal.<method>`` serve its page with ``old`` replaced."""
    real = getattr(portal, method)

    def tampered(*args, **kwargs):
        page = real(*args, **kwargs)
        assert old in page, old
        return page.replace(old, new, 1)

    setattr(portal, method, tampered)


class TestMalformedPages:
    """Every way a page can break the layout is a ScrapeError naming where."""

    @pytest.mark.parametrize(
        ("old", "new", "match"),
        [
            # One <td> removed from the first location row.
            ("<td>200.0</td>", "", r"locations table row 1: expected 6 cells, got 5"),
            ("<tr><td>1</td>", "<tr><td>one</td>", r"locations table row 1: .*'one'"),
            ("<td>03/01/2015</td>", "<td>03/41/2015</td>", r"dates table row 1"),
            ("<td>03/01/2015</td>", "<td>2015</td>", r"dates table row 1"),
            ("<td>03/01/2015</td>", "<td>03/01/9" + "9" * 30 + "</td>", r"dates table row 1"),
            ("N</td>", "Q</td>", r"locations table row 1: unparseable DMS"),
            ("<td>10995.0, 11485.0</td>", "<td>10995.0; 11485.0</td>", r"paths table row 1"),
            ("<td>10995.0, 11485.0</td>", "<td>-5.0</td>", r"paths table row 1: frequencies"),
            ("<th>Event</th>", "<th>Kind</th>", r"unexpected dates table header"),
            ("<th>Loc</th>", "<th>Location</th>", r"unexpected locations table header"),
            ("<th>TX Loc</th>", "", r"unexpected paths table header"),
            ('id="paths"', 'id="links"', r"missing 'paths' table"),
            ("License ID: <b>L1</b>", "License ID: <b></b>", r"no license id"),
            (" — HFT", " - HFT", r"unparseable detail heading"),
            # A path that names a location the page does not list.
            (
                "<td>1</td><td>2</td><td>10995.0",
                "<td>1</td><td>7</td><td>10995.0",
                r"'L1'.*undefined rx",
            ),
        ],
    )
    def test_detail_page_errors(self, stack, old, new, match):
        portal, scraper = stack
        _tamper(portal, "license_detail_page", old, new)
        with pytest.raises(ScrapeError, match=match):
            scraper.license_detail("L1")

    def test_detail_for_another_license_is_rejected(self, stack):
        portal, scraper = stack
        _tamper(portal, "license_detail_page", "<b>L1</b>", "<b>L9</b>")
        with pytest.raises(ScrapeError, match="requested 'L1'"):
            scraper.license_detail("L1")

    def test_geographic_short_row(self, stack):
        portal, scraper = stack
        _tamper(portal, "geographic_search_page", "<td>MG</td>", "")
        with pytest.raises(ScrapeError, match="geographic results row 1: expected 5"):
            scraper.geographic_search(CME.latitude, CME.longitude, 10.0)

    @pytest.mark.parametrize(
        ("old", "new", "match"),
        [
            ("<th>Licensee</th>", "<th>Owner</th>", "unexpected name results header"),
            ("<td>L2</td>", "", "name results row 2: expected 3 cells, got 2"),
            ('<table class="results">', "<table>", "no results table"),
        ],
    )
    def test_name_search_errors(self, stack, old, new, match):
        portal, scraper = stack
        _tamper(portal, "name_search_page", old, new)
        with pytest.raises(ScrapeError, match=match):
            scraper.licenses_of("HFT Alpha & Co")

    @pytest.mark.parametrize(
        "unit", ['<table class="results">', "<tr><td>x", '<p id="meta">', "<h1>"]
    )
    def test_unclosed_blocks_parse_in_linear_time(self, unit):
        # Each block body stops at the next tag of its own kind, so 20k
        # unclosed blocks are one scan (milliseconds), not one scan per
        # opening tag (tens of seconds).
        html = '<table class="results" id="dates">' + unit * 20_000
        start = time.perf_counter()
        with pytest.raises(ScrapeError):
            UlsScraper._parse_detail(html)
        assert time.perf_counter() - start < 5.0


def _page_mutations(page: str):
    """A portal page, then truncated, a cell dropped or doubled, a tag lost."""
    cells = [i for i in range(len(page)) if page.startswith("<td>", i)]
    tags = [i for i in range(len(page)) if page[i] == "<"]
    position = st.integers(0, len(page))

    def drop_cell(i):
        end = page.index("</td>", i) + len("</td>")
        return page[:i] + page[end:]

    def double_cell(i):
        end = page.index("</td>", i) + len("</td>")
        return page[:end] + page[i:end] + page[end:]

    def drop_tag(i):
        return page[:i] + page[page.index(">", i) + 1 :]

    return st.one_of(
        st.just(page),
        position.map(lambda n: page[:n]),
        st.sampled_from(cells).map(drop_cell),
        st.sampled_from(cells).map(double_cell),
        st.sampled_from(tags).map(drop_tag),
        st.tuples(position, st.text(max_size=8)).map(
            lambda t: page[: t[0]] + t[1] + page[t[0] :]
        ),
    )


def _detail_page() -> str:
    near = geodesic_destination(CME, 45.0, 3_000.0)
    lic = make_license(
        "L1",
        licensee="HFT Alpha & Co",
        points=((near.latitude, near.longitude), (41.6, -87.9), (41.5, -86.9)),
        cancellation=dt.date(2019, 9, 30),
        frequencies=(10995.0, 11485.0),
    )
    return UlsPortal(UlsDatabase([lic])).license_detail_page("L1")


def _license_or_scrape_error(html: str) -> None:
    try:
        lic = UlsScraper._parse_detail(html)
    except ScrapeError:
        return
    assert lic.license_id


_SOUP = (
    '<table class="results" id="dates">', "<table>", "</table>", "<tr>", "</tr>",
    "<td>", "</td>", "<th>", "</th>", '<p id="meta">', "</p>", "<h1>", "</h1>",
    "License ID: L1", "|", "—", "&amp;", "01/02/2015", "x",
)


class TestParserFuzz:
    """Outside HTML yields a License or a ScrapeError — nothing else."""

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_any_string(self, html):
        _license_or_scrape_error(html)

    @settings(max_examples=300, deadline=None)
    @given(_page_mutations(_detail_page()))
    def test_mutated_detail_page(self, html):
        _license_or_scrape_error(html)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(_SOUP), max_size=60).map("".join))
    def test_tag_soup(self, html):
        _license_or_scrape_error(html)


class TestHeadingAndNames:
    def test_callsign_containing_license(self):
        lic = make_license("L1")
        lic.callsign = "WQLicense7"
        page = UlsPortal(UlsDatabase([lic])).license_detail_page("L1")
        assert UlsScraper._parse_detail(page).callsign == "WQLicense7"

    @pytest.mark.parametrize(
        "name",
        [
            "Alpha & Omega <HFT>",
            'The "Fast" Link',
            "Québec Réseaux — Hauts-de-France",
            "東京マイクロ波 株式会社",
            "A&amp;B",
        ],
    )
    def test_licensee_names_round_trip(self, name):
        lic = make_license("L1", licensee=name)
        portal = UlsPortal(UlsDatabase([lic]))
        scraper = UlsScraper(portal)
        assert scraper.license_detail("L1").licensee_name == name
        assert scraper.licenses_of(name) == ["L1"]
        (row,) = scraper.geographic_search(41.75, -88.18, 5.0)
        assert row["licensee_name"] == name
