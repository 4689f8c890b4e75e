"""Tests for grid fan-out sessions: routing and the results-only contract.

The core promise under test: a grid run returns exactly the results a
``jobs=1`` run would at any width.  In-process runs (``jobs=1``, or any
width on a one-CPU machine) work on the parent
:class:`~repro.core.engine.CorridorEngine` and its siblings themselves;
pool workers build their own engines and send home only results (plus
scraper page counts), so the parent engine's caches never see their
work.  Tests pick the mode by patching ``usable_cpu_count``
(``one_cpu`` / ``two_cpus``), as ``tests/test_parallel.py`` does.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import os
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.analysis.funnel import _connect_task, _count_task
from repro.core.engine import CacheMiss, CorridorEngine, cached_only
from repro.parallel import GridSession, executor, grid_session
from repro.uls.database import UlsDatabase
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


# -- module-level task functions (picklable for the process backend) ----

def _latency_series(ctx, item):
    name, dates = item
    return tuple(
        point.latency_ms for point in ctx.engine.timeline(name, dates)
    )


def _worker_id_task(ctx, item):
    return ctx.worker


def _count_filings(ctx, item):
    return len(ctx.scraper.licenses_of(item))


def _series_and_pid(ctx, item):
    return _latency_series(ctx, item), os.getpid()


def _fresh_engine(scenario) -> CorridorEngine:
    """A cold default-params engine (never the scenario's shared one)."""
    return CorridorEngine(scenario.database, scenario.corridor)


def _memo_contents(engine: CorridorEngine) -> dict:
    return dict(engine._geodesic_memo.entries())


@pytest.fixture
def one_cpu(monkeypatch):
    monkeypatch.setattr(executor, "usable_cpu_count", lambda: 1)


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(executor, "usable_cpu_count", lambda: 2)


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
        with GridSession(engine, 1) as session:
            assert session.engine_for(None) is engine

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_overrides_share_one_sibling_per_session(self, scenario, jobs):
        engine = _fresh_engine(scenario)
        engine.snapshot("Webline Holdings", DATES[1])  # warm the memo
        key = (("stitch_tolerance_m", 120.0),)
        with GridSession(engine, jobs) as session:
            first = session.engine_for(key)
            second = session.engine_for(key)
        assert first is second
        assert first is not engine
        # The sibling starts cold: nothing is transplanted into it.
        assert _memo_contents(first) == {}
        assert len(first._snapshots) == 0

    def test_worker_ids_are_chunk_indices(self, scenario, two_cpus):
        engine = _fresh_engine(scenario)
        with GridSession(engine, 2) as session:
            workers = session.map(_worker_id_task, list(range(4)))
        assert workers == [0, 0, 1, 1]

    def test_params_callable_pools_one_sibling_per_override_set(
        self, scenario, one_cpu
    ):
        engine = _fresh_engine(scenario)
        items = [("Webline Holdings", 90.0), ("Webline Holdings", 120.0)]
        with GridSession(engine, 2) as session:
            session.map(
                _worker_id_task,
                items,
                params=lambda item: {"stitch_tolerance_m": item[1]},
            )
            assert set(session._siblings) == {
                (("stitch_tolerance_m", 90.0),),
                (("stitch_tolerance_m", 120.0),),
            }


class TestSerialParallelEquivalence:
    """In-process runs at any width agree with ``jobs=1`` on results,
    geodesic-memo contents, and CacheStats totals on the parent engine."""

    @settings(max_examples=10, deadline=None)
    @given(
        names=st.lists(
            st.sampled_from(FEATURED), min_size=1, max_size=3, unique=True
        ),
        jobs=st.integers(min_value=2, max_value=4),
    )
    def test_inline_grid_leaves_identical_parent_state(
        self, scenario, names, jobs
    ):
        items = [(name, DATES) for name in names]

        serial_engine = _fresh_engine(scenario)
        with GridSession(serial_engine, 1) as session:
            expected = session.map(_latency_series, items)

        parallel_engine = _fresh_engine(scenario)
        # A one-CPU machine runs any width in-process (patched by hand:
        # hypothesis rejects function-scoped fixtures).
        with mock.patch.object(executor, "usable_cpu_count", lambda: 1):
            with GridSession(parallel_engine, jobs) as session:
                assert session.backend == "serial"
                got = session.map(_latency_series, items)

        assert got == expected
        assert _memo_contents(parallel_engine) == _memo_contents(serial_engine)
        assert parallel_engine.stats == serial_engine.stats

    def test_override_sweep_matches_serial_and_spares_parent(
        self, scenario, one_cpu
    ):
        items = [("Webline Holdings", DATES), ("New Line Networks", DATES)]
        params = {"stitch_tolerance_m": 120.0}

        serial_engine = _fresh_engine(scenario)
        with GridSession(serial_engine, 1) as session:
            expected = session.map(_latency_series, items, params=params)
        serial_stats = serial_engine.stats

        parallel_engine = _fresh_engine(scenario)
        with GridSession(parallel_engine, 3) as session:
            got = session.map(_latency_series, items, params=params)

        assert got == expected
        # Override tasks run on siblings; the parent engine is untouched
        # either way (counters idle, memo empty on these cold parents).
        assert parallel_engine.stats == serial_stats
        assert _memo_contents(parallel_engine) == _memo_contents(serial_engine)


class TestProcessGrid:
    """Spawn transport for the grid: items out, results home."""

    def test_process_grid_matches_serial_and_spares_parent(
        self, scenario, two_cpus
    ):
        items = [(name, DATES) for name in FEATURED[:4]]

        serial_engine = _fresh_engine(scenario)
        with GridSession(serial_engine, 1) as session:
            expected = session.map(_latency_series, items)

        parallel_engine = _fresh_engine(scenario)
        parallel_engine.snapshot("Webline Holdings", DATES[1])
        before = (
            parallel_engine.stats,
            _memo_contents(parallel_engine),
            parallel_engine.export_cache_state(),
        )
        with GridSession(parallel_engine, 2) as session:
            assert session.backend == "process"
            got = session.map(_latency_series, items)

        assert got == expected
        # Workers built their own engines: the parent's caches
        # and counters are exactly as they were before the fan-out.
        assert parallel_engine.stats == before[0]
        assert _memo_contents(parallel_engine) == before[1]
        assert parallel_engine.export_cache_state() == before[2]

    def test_process_session_reuses_pool_across_maps(self, scenario, two_cpus):
        engine = _fresh_engine(scenario)
        items = [(name, (DATES[1],)) for name in FEATURED[:2]]
        with GridSession(engine, 2) as session:
            first = session.map(_latency_series, items)
            pool = session._pmap._pool
            second = session.map(_latency_series, items)
            assert session._pmap._pool is pool
        assert first == second


class TestScraperBatching:
    def test_count_filings_parallel_matches_serial(self, scenario, two_cpus):
        names = list(FEATURED[:3])
        with GridSession(_fresh_engine(scenario), 1) as session:
            expected = session.map(_count_filings, names)
            serial_stats = session.scraper.stats

        with GridSession(_fresh_engine(scenario), 2) as session:
            got = session.map(_count_filings, names)
            stats = session.scraper.stats

        assert got == expected
        # The workers' page counts came home to the session's scraper.
        assert stats == serial_stats

    def test_grid_tasks_share_session_scraper(self, scenario):
        engine = _fresh_engine(scenario)
        with grid_session(engine, 2) as session:
            counts = session.map(_count_filings, list(FEATURED[:2]))
            stats = session.scraper.stats
        assert all(count > 0 for count in counts)
        # Both tasks' page traffic landed on the session's one scraper
        # (in-process runs share it; pool workers send their counts home).
        assert stats.search_pages >= 2


class TestParentAnswersWarmItems:
    """A process session runs each item as a cached-only probe in the
    parent first; only the items that would build ship to the pool."""

    def _warm(self, scenario, items) -> CorridorEngine:
        engine = _fresh_engine(scenario)
        with GridSession(engine, 1) as session:
            session.map(_latency_series, items)
        return engine

    def test_fully_warm_parent_spawns_no_pool(self, scenario, two_cpus):
        items = [(name, DATES) for name in FEATURED[:4]]
        serial = self._warm(scenario, items)
        with GridSession(serial, 1) as session:
            expected = session.map(_latency_series, items)

        parent = self._warm(scenario, items)
        with obs.capture() as cap:
            with GridSession(parent, 2) as session:
                assert session.backend == "process"
                got = session.map(_latency_series, items)
                assert session._pmap._pool is None
        assert got == expected
        # The parent's hits count exactly as the in-process loop's do.
        assert parent.stats == serial.stats
        counters = cap.counters()
        assert counters["parallel.items.parent"] == len(items)
        assert counters["parallel.items.shipped"] == 0
        grid = [rec for rec in cap.spans if rec.name == "parallel.grid"]
        assert dict(grid[0].attrs)["shipped"] == 0

    def test_half_warm_grid_ships_exactly_the_misses_in_order(
        self, scenario, two_cpus
    ):
        items = [(name, DATES) for name in FEATURED[:4]]
        with GridSession(_fresh_engine(scenario), 1) as session:
            expected = session.map(_latency_series, items)

        parent = self._warm(scenario, items[::2])
        with obs.capture() as cap:
            with GridSession(parent, 2) as session:
                got = session.map(_series_and_pid, items)
        assert [series for series, _ in got] == expected
        here = os.getpid()
        assert [pid == here for _, pid in got] == [True, False, True, False]
        assert cap.counters()["parallel.items.parent"] == 2
        assert cap.counters()["parallel.items.shipped"] == 2

    def test_override_and_scraper_items_always_ship(self, scenario, two_cpus):
        items = [(name, DATES) for name in FEATURED[:2]]
        parent = self._warm(scenario, items)
        before = parent.stats
        with obs.capture() as cap:
            with GridSession(parent, 2) as session:
                session.map(
                    _latency_series,
                    items,
                    params={"stitch_tolerance_m": 120.0},
                )
                # No sibling is built in the parent for a probe.
                assert session._siblings == {}
                session.map(_count_filings, list(FEATURED[:2]))
                assert session.scraper.stats.search_pages >= 2
        assert cap.counters()["parallel.items.parent"] == 0
        assert cap.counters()["parallel.items.shipped"] == 4
        assert parent.stats == before

    def test_aborted_probe_counts_nothing(self, scenario):
        engine = _fresh_engine(scenario)
        name = FEATURED[0]
        engine.timeline(name, DATES[1:])
        before = (engine.stats, engine.export_cache_state())
        with obs.capture() as cap:
            with pytest.raises(CacheMiss):
                with cached_only():
                    # A hit, then a lookup that would build.
                    engine.timeline(name, DATES[1:])
                    engine.timeline(name, DATES[:1])
        assert (engine.stats, engine.export_cache_state()) == before
        assert not any(key.startswith("engine.") for key in cap.counters())

    def test_probe_in_one_thread_lets_another_build(self, scenario):
        engine = _fresh_engine(scenario)
        entered, built = threading.Event(), threading.Event()
        outcome = {}

        def probe():
            with cached_only():
                entered.set()
                built.wait(timeout=60)
                # The other thread's build is served.
                outcome["hit"] = engine.snapshot(FEATURED[0], DATES[1])
            try:
                with cached_only():
                    engine.snapshot(FEATURED[1], DATES[1])
            except CacheMiss:
                outcome["miss"] = True

        thread = threading.Thread(target=probe)
        thread.start()
        entered.wait(timeout=60)
        network = engine.snapshot(FEATURED[0], DATES[1])
        built.set()
        thread.join(timeout=60)
        assert engine.stats.snapshot.misses == 1
        assert outcome["hit"] == network
        assert outcome["miss"] is True
        # The completed probe's hit counted; the aborted one left no miss.
        assert engine.stats.snapshot.hits == 1

    def test_cold_probe_builds_no_temporal_index(self, scenario, two_cpus):
        items = [(name, DATES) for name in FEATURED[:3]]
        with GridSession(_fresh_engine(scenario), 1) as session:
            expected = session.map(_latency_series, items)

        database = UlsDatabase(list(scenario.database))
        engine = CorridorEngine(database, scenario.corridor)
        engine.timeline(FEATURED[0], DATES)
        with obs.capture() as cap:
            with GridSession(engine, 2) as session:
                got = session.map(_latency_series, items)
        assert got == expected
        assert cap.counters()["parallel.items.parent"] == 1
        # The two cold licensees shipped without an index built for them.
        built = [database.built_temporal_index(name) for name in FEATURED[:3]]
        assert [index is not None for index in built] == [True, False, False]

    def test_seeded_entries_probe_past_an_unbuilt_index(self, scenario, two_cpus):
        items = [(FEATURED[0], DATES)]
        warm = self._warm(scenario, items)
        database = UlsDatabase(list(scenario.database))
        engine = CorridorEngine(database, scenario.corridor)
        engine.seed_cache_state(warm.export_cache_state())
        with GridSession(engine, 2) as session:
            got = session.map(_latency_series, items)
            assert session._pmap._pool is None
        with GridSession(warm, 1) as session:
            assert got == session.map(_latency_series, items)


def _seeded_scraper(scenario, source: UlsScraper) -> UlsScraper:
    """A new scraper session holding every page ``source`` parsed."""
    scraper = UlsScraper(UlsPortal(scenario.database))
    scraper.seed_pages(source.export_pages())
    return scraper


class TestScraperProbes:
    """A probe reads the pages the parent's scraper holds; a read that
    would fetch aborts it, and the abort takes back its page counts."""

    def test_aborted_probe_leaves_scraper_stats_unchanged(self, scenario):
        source = UlsScraper(UlsPortal(scenario.database))
        source.scrape_licensee(FEATURED[0])
        scraper = _seeded_scraper(scenario, source)
        before = dataclasses.replace(scraper.stats)
        with obs.capture() as cap:
            with pytest.raises(CacheMiss):
                with scraper.cached_only(CacheMiss), cached_only():
                    assert scraper.scrape_licensee(FEATURED[0])
                    scraper.licenses_of(FEATURED[1])
        assert scraper.stats == before
        assert not any(key.startswith("uls.") for key in cap.counters())
        # The rolled-back reads count again as first reads.
        scraper.scrape_licensee(FEATURED[0])
        assert scraper.stats == source.stats

    def test_shipped_items_count_their_pages_once(self, scenario, two_cpus):
        items = [
            (name, DATES[1], "CME", "NY4") for name in FEATURED[:3]
        ]
        serial = UlsScraper(UlsPortal(scenario.database))
        with GridSession(_fresh_engine(scenario), 1, scraper=serial) as session:
            expected = session.map(_connect_task, items)

        # Every page is held, but the engine is cold: each probe reads
        # its pages, misses a snapshot and ships.
        scraper = _seeded_scraper(scenario, serial)
        with obs.capture() as cap:
            with GridSession(_fresh_engine(scenario), 2, scraper=scraper) as session:
                got = session.map(_connect_task, items)
        assert got == expected
        assert cap.counters()["parallel.items.shipped"] == len(items)
        assert scraper.stats == serial.stats

    def test_warm_funnel_grid_spawns_no_pool(
        self, scenario, funnel_result, two_cpus
    ):
        candidates = list(funnel_result.candidate_licensees)
        items = [
            (name, scenario.snapshot_date, "CME", "NY4")
            for name in funnel_result.shortlisted_licensees
        ]
        engine = _fresh_engine(scenario)
        serial = UlsScraper(UlsPortal(scenario.database))
        with GridSession(engine, 1, scraper=serial) as session:
            expected = (
                session.map(_count_task, candidates),
                session.map(_connect_task, items),
            )

        scraper = _seeded_scraper(scenario, serial)
        with obs.capture() as cap:
            with GridSession(engine, 2, scraper=scraper) as session:
                got = (
                    session.map(_count_task, candidates),
                    session.map(_connect_task, items),
                )
                assert session._pmap._pool is None
        assert got == expected
        assert cap.counters()["parallel.items.parent"] == 86
        assert cap.counters()["parallel.items.shipped"] == 0
        assert scraper.stats == serial.stats
        assert not scraper.dirty
