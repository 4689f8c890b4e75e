"""The one-pass page parser reads every portal page as the stdlib parser did.

For each registered scenario below, every license-detail page the portal
renders, plus the geographic and name-search pages the §2.2 funnel
requests, is parsed both ways: :func:`repro.uls.scraper._parse_page`
against the two ``html.parser`` walks kept in ``tests/html_oracle.py``.
Tables (ids, rows, cells), the meta / contact paragraphs and the heading
must match exactly, and a detail page must rebuild an equal ``License``.
"""

from __future__ import annotations

import pytest

from repro.constants import CME_SEARCH_RADIUS_M
from repro.scenarios.registry import resolve_scenario
from repro.uls.portal import UlsPortal
from repro.uls.scraper import UlsScraper, _parse_page
from tests.html_oracle import build_license, read_page

SCENARIOS = (
    "paper2020",
    "europe2020",
    "tokyo-singapore",
    "synthetic:seed=1,networks=12",
)


def _page(html: str) -> tuple:
    page = _parse_page(html)
    return page.tables, page.meta, page.contact, page.heading


def _funnel_search_pages(scenario) -> list[str]:
    """The geographic page around the source site and one name search per
    licensee it lists, as :func:`~repro.analysis.funnel.run_scraping_funnel`
    requests them."""
    portal = UlsPortal(scenario.database)
    source, _ = scenario.corridor.resolve_path(None, None)
    center = scenario.corridor.site(source).point
    radius_km = CME_SEARCH_RADIUS_M / 1000.0
    pages = [portal.geographic_search_page(center.latitude, center.longitude, radius_km)]
    rows = UlsScraper(portal).geographic_search(
        center.latitude, center.longitude, radius_km
    )
    for name in sorted({row["licensee_name"] for row in rows}):
        pages.append(portal.name_search_page(name))
    return pages


@pytest.mark.parametrize("ref", SCENARIOS)
def test_detail_pages_match_oracle(ref):
    scenario = resolve_scenario(ref)
    portal = UlsPortal(scenario.database)
    checked = 0
    for lic in scenario.database:
        html = portal.license_detail_page(lic.license_id)
        oracle = read_page(html)
        assert _page(html) == oracle, lic.license_id
        assert UlsScraper._parse_detail(html) == build_license(oracle), lic.license_id
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("ref", SCENARIOS)
def test_funnel_search_pages_match_oracle(ref):
    pages = _funnel_search_pages(resolve_scenario(ref))
    assert len(pages) > 1
    for html in pages:
        tables, meta, contact, heading = _page(html)
        assert (tables, meta, contact, heading) == read_page(html)
        assert len(tables) == 1 and heading
