"""Tests for grid sessions: in-process engine routing and the shared scraper.

A :class:`~repro.parallel.grid.GridSession` runs every item in this
process, in order: default-parameter tasks on the parent
:class:`~repro.core.engine.CorridorEngine`, override tasks on one sibling
engine per override set.  Its results, and the state it leaves on the
parent engine, must match a hand-written loop over the same engines.
"""

from __future__ import annotations

import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import CorridorEngine
from repro.parallel import GridSession
from repro.uls.portal import UlsPortal
from repro.uls.scraper import UlsScraper

FEATURED = (
    "National Tower Company",
    "Webline Holdings",
    "Jefferson Microwave",
    "Pierce Broadband",
    "New Line Networks",
)

DATES = (dt.date(2016, 1, 1), dt.date(2019, 1, 1))


def _latency_series(ctx, item):
    name, dates = item
    return tuple(
        point.latency_ms for point in ctx.engine.timeline(name, dates)
    )


def _engine_id(ctx, item):
    return id(ctx.engine)


def _count_filings(ctx, item):
    return len(ctx.scraper.licenses_of(item))


def _fresh_engine(scenario) -> CorridorEngine:
    """A cold default-params engine (never the scenario's shared one)."""
    return CorridorEngine(scenario.database, scenario.corridor)


def _memo_contents(engine: CorridorEngine) -> dict:
    return dict(engine._geodesic_memo.entries())


class TestEngineCacheTransplant:
    def test_export_seed_roundtrip_serves_hits(self, scenario):
        warm = _fresh_engine(scenario)
        warm.snapshot("Webline Holdings", DATES[1])
        cold = _fresh_engine(scenario)
        cold.seed_cache_state(warm.export_cache_state())
        # Seeding is an install, not a lookup: no counters moved.
        assert cold.stats.snapshot.lookups == 0
        assert cold.stats.geodesic.lookups == 0
        # The seeded snapshot is served from cache.
        network = cold.snapshot("Webline Holdings", DATES[1])
        assert cold.stats.snapshot.hits == 1
        assert cold.stats.snapshot.misses == 0
        assert network is warm.snapshot("Webline Holdings", DATES[1])

    def test_seed_rejects_mismatched_params(self, scenario):
        warm = _fresh_engine(scenario)
        warm.snapshot("Webline Holdings", DATES[1])
        sibling = warm.with_params(stitch_tolerance_m=120.0)
        with pytest.raises(ValueError):
            sibling.seed_cache_state(warm.export_cache_state())


class TestGridSessionRouting:
    def test_default_params_route_to_parent(self, scenario):
        engine = _fresh_engine(scenario)
        with GridSession(engine) as session:
            assert session.backend == "serial"
            assert session.engine_for(None) is engine
            assert session.map(_engine_id, [1, 2]) == [id(engine)] * 2

    @pytest.mark.parametrize("maps", [1, 2])
    def test_overrides_share_one_sibling_per_session(self, scenario, maps):
        engine = _fresh_engine(scenario)
        engine.snapshot("Webline Holdings", DATES[1])  # warm the memo
        key = (("stitch_tolerance_m", 120.0),)
        with GridSession(engine) as session:
            first = session.engine_for(key)
            second = session.engine_for(key)
            # Every map over the session reuses the same sibling.
            for _ in range(maps):
                assert session.map(
                    _engine_id, [1, 2], params={"stitch_tolerance_m": 120.0}
                ) == [id(first)] * 2
            assert list(session._siblings) == [key]
        assert first is second
        assert first is not engine
        # The sibling starts cold: nothing is transplanted into it.
        assert _memo_contents(first) == {}
        assert len(first._snapshots) == 0

    def test_params_callable_pools_one_sibling_per_override_set(self, scenario):
        engine = _fresh_engine(scenario)
        items = [
            ("Webline Holdings", 90.0),
            ("Webline Holdings", 120.0),
            ("New Line Networks", 90.0),
        ]
        with GridSession(engine) as session:
            ids = session.map(
                _engine_id,
                items,
                params=lambda item: {"stitch_tolerance_m": item[1]},
            )
            assert set(session._siblings) == {
                (("stitch_tolerance_m", 90.0),),
                (("stitch_tolerance_m", 120.0),),
            }
        assert ids[0] == ids[2] != ids[1]
        # Closing the session drops its siblings.
        assert session._siblings == {}


class TestSerialParallelEquivalence:
    """A session's map is the plain loop: same results, same geodesic
    memo and the same CacheStats on the parent engine."""

    @settings(max_examples=10, deadline=None)
    @given(
        names=st.lists(
            st.sampled_from(FEATURED), min_size=1, max_size=3, unique=True
        ),
    )
    def test_inline_grid_leaves_identical_parent_state(self, scenario, names):
        loop_engine = _fresh_engine(scenario)
        expected = [
            tuple(p.latency_ms for p in loop_engine.timeline(name, DATES))
            for name in names
        ]

        session_engine = _fresh_engine(scenario)
        with GridSession(session_engine) as session:
            got = session.map(_latency_series, [(name, DATES) for name in names])

        assert got == expected
        assert _memo_contents(session_engine) == _memo_contents(loop_engine)
        assert session_engine.stats == loop_engine.stats

    def test_override_sweep_matches_serial_and_spares_parent(self, scenario):
        names = ("Webline Holdings", "New Line Networks")
        params = {"stitch_tolerance_m": 120.0}

        sibling = _fresh_engine(scenario).with_params(**params)
        expected = [
            tuple(p.latency_ms for p in sibling.timeline(name, DATES))
            for name in names
        ]

        parent = _fresh_engine(scenario)
        before = parent.stats
        with GridSession(parent) as session:
            got = session.map(
                _latency_series, [(name, DATES) for name in names], params=params
            )

        assert got == expected
        # Override tasks run on the sibling; the parent is untouched.
        assert parent.stats == before
        assert _memo_contents(parent) == {}


class TestScraperBatching:
    def test_grid_tasks_share_session_scraper(self, scenario):
        engine = _fresh_engine(scenario)
        with GridSession(engine) as session:
            counts = session.map(_count_filings, list(FEATURED[:2]))
            stats = session.scraper.stats
        assert all(count > 0 for count in counts)
        # Both tasks' page traffic landed on the session's one scraper.
        assert stats.search_pages == 2

    def test_caller_scraper_is_shared(self, scenario):
        scraper = UlsScraper(UlsPortal(scenario.database))
        with GridSession(_fresh_engine(scenario), scraper=scraper) as session:
            session.map(_count_filings, list(FEATURED[:3]))
            assert session.scraper is scraper
        assert scraper.stats.search_pages == 3
