"""CorridorEngine: cached results must be indistinguishable from
cache-free reconstruction, and cache keys must separate parameterisations.

The load-bearing property: for ANY (licensee, date) — including dates
that alias earlier queries through the active-license fingerprint — the
engine's snapshot and route equal a fresh object-kernel reconstruction
(``tests/object_kernel.py``) exactly.  One engine instance is shared across all hypothesis
examples precisely so the cache is hot and the property exercises reuse.

Snapshot keys are checked against the oracle's linear active-set scan
(``object_kernel.scan_fingerprint``) in any query order, and the CLI's
timeline is byte-identical to a run whose every fingerprint comes from
that scan, through real subprocesses at ``--jobs 1`` and ``--jobs 2``.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.corridor import chicago_nj_corridor, london_frankfurt_corridor
from repro.core.engine import CorridorEngine
from repro.core.latency import LatencyModel
from repro.core.reconstruction import NetworkReconstructor, reconstruct_all
from repro.core.timeline import TimelinePoint, dense_date_grid, latency_timeline
from repro.geodesy import GeoPoint, geodesic_inverse
from repro.geodesy.memo import GeodesicMemo, active_memo, use_memo
from repro.uls.database import UlsDatabase

from tests import object_kernel
from tests.conftest import make_license

_LICENSEES = (
    "New Line Networks",
    "Webline Holdings",
    "Jefferson Microwave",
    "Pierce Broadband",
    "National Tower Company",
    "Midwest Relay Partners",
)

MONTHLY = dense_date_grid("monthly")

_ENGINES: dict[int, CorridorEngine] = {}


def _shared_engine(scenario) -> CorridorEngine:
    """One engine per scenario, shared across hypothesis examples."""
    key = id(scenario)
    if key not in _ENGINES:
        _ENGINES[key] = CorridorEngine(scenario.database, scenario.corridor)
    return _ENGINES[key]


# ----------------------------------------------------------------------
# Property: cached == cache-free
# ----------------------------------------------------------------------


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    licensee=st.sampled_from(_LICENSEES),
    on_date=st.dates(dt.date(2012, 1, 1), dt.date(2020, 12, 31)),
)
def test_snapshot_equals_fresh_reconstruction(scenario, licensee, on_date):
    engine = _shared_engine(scenario)
    cached = engine.snapshot(licensee, on_date)
    fresh = object_kernel.reconstruct_licensee(
        NetworkReconstructor(scenario.corridor), scenario.database, licensee, on_date
    )
    assert cached.licensee == fresh.licensee
    assert cached.as_of == on_date == fresh.as_of
    assert cached.towers == fresh.towers
    assert list(cached.links) == list(fresh.links)
    assert list(cached.fiber_tails) == list(fresh.fiber_tails)

    cached_route = engine.route(licensee, on_date, "CME", "NY4")
    fresh_route = fresh.lowest_latency_route("CME", "NY4")
    if fresh_route is None:
        assert cached_route is None
    else:
        assert cached_route is not None
        assert cached_route.latency_ms == fresh_route.latency_ms
        assert cached_route.tower_count == fresh_route.tower_count


_PARAM_VALUES = st.fixed_dictionaries(
    {
        "stitch_tolerance_m": st.sampled_from([10.0, 30.0, 100.0]),
        "max_fiber_tail_m": st.sampled_from([10_000.0, 50_000.0]),
        "fiber_mode": st.sampled_from(["nearest", "all"]),
        "overhead_us": st.sampled_from([0.0, 1.4]),
    }
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(params_a=_PARAM_VALUES, params_b=_PARAM_VALUES)
def test_cache_keys_separate_parameterisations(scenario, params_a, params_b):
    """Snapshot keys are equal iff every reconstruction param is equal."""

    def build(params):
        return CorridorEngine(
            scenario.database,
            scenario.corridor,
            stitch_tolerance_m=params["stitch_tolerance_m"],
            max_fiber_tail_m=params["max_fiber_tail_m"],
            fiber_mode=params["fiber_mode"],
            latency_model=LatencyModel(
                per_tower_overhead_s=params["overhead_us"] * 1e-6
            ),
        )

    key_a = build(params_a).snapshot_key("New Line Networks", dt.date(2020, 4, 1))
    key_b = build(params_b).snapshot_key("New Line Networks", dt.date(2020, 4, 1))
    assert (key_a == key_b) == (params_a == params_b)


# ----------------------------------------------------------------------
# Cache behaviour
# ----------------------------------------------------------------------


def test_snapshot_cache_hits_by_active_fingerprint(scenario):
    engine = CorridorEngine(scenario.database, scenario.corridor)
    first = engine.snapshot("New Line Networks", dt.date(2020, 4, 1))
    assert engine.stats.snapshot.misses == 1
    # A nearby date with the identical active set shares the snapshot...
    assert engine.active_fingerprint(
        "New Line Networks", dt.date(2020, 4, 1)
    ) == engine.active_fingerprint("New Line Networks", dt.date(2020, 4, 2))
    second = engine.snapshot("New Line Networks", dt.date(2020, 4, 2))
    assert engine.stats.snapshot.hits == 1
    assert engine.stats.snapshot.misses == 1
    # ...but still reports the date it was asked for.
    assert first.as_of == dt.date(2020, 4, 1)
    assert second.as_of == dt.date(2020, 4, 2)
    assert second.towers == first.towers

    # A date with a different active set misses.
    engine.snapshot("New Line Networks", dt.date(2016, 1, 1))
    assert engine.stats.snapshot.misses == 2


def test_external_license_sets_never_alias_database_snapshots(scenario):
    """snapshot_from_licenses only shares slots for verbatim rows.

    A scraped record set (coordinates perturbed by the portal's DMS
    round-trip) must not overwrite the database-derived snapshot under
    the ids-only fingerprint — that would leak its floats into every
    later snapshot()/rankings result (the serve-tier parity bug).
    """
    import dataclasses

    engine = CorridorEngine(scenario.database, scenario.corridor)
    date = dt.date(2020, 4, 1)
    records = scenario.database.licenses_for("New Line Networks")

    # Verbatim database rows share the ids-only slot with snapshot().
    via_records = engine.snapshot_from_licenses(records, date)
    assert engine.stats.snapshot.misses == 1
    baseline = engine.snapshot("New Line Networks", date)
    assert engine.stats.snapshot.hits == 1
    assert baseline.towers == via_records.towers

    # Nudge one tower by 1e-9 deg — the scale of the scraper's DMS
    # precision loss.  Same license ids, different content.
    def perturb(lic):
        number, location = min(lic.locations.items())
        moved = dataclasses.replace(
            location,
            point=GeoPoint(
                location.point.latitude + 1e-9, location.point.longitude
            ),
        )
        return dataclasses.replace(
            lic, locations={**lic.locations, number: moved}
        )

    target = next(lic for lic in records if lic.is_active(date))
    perturbed = [
        perturb(lic) if lic is target else lic for lic in records
    ]
    via_perturbed = engine.snapshot_from_licenses(perturbed, date)
    assert engine.stats.snapshot.misses == 2  # content-digested key: cold
    assert via_perturbed.towers != baseline.towers

    # The database-derived snapshot survives untouched, and the
    # perturbed set reuses its own digested slot on a second call.
    assert engine.snapshot("New Line Networks", date).towers == baseline.towers
    engine.snapshot_from_licenses(perturbed, date)
    assert engine.stats.snapshot.misses == 2


def test_route_cache_and_none_routes(scenario):
    engine = CorridorEngine(scenario.database, scenario.corridor)
    date = dt.date(2020, 4, 1)
    route = engine.route("New Line Networks", date, "CME", "NY4")
    again = engine.route("New Line Networks", date, "CME", "NY4")
    assert route is again
    assert engine.stats.route.hits == 1

    # "No route" is cached too (Pierce Broadband predates 2019).
    assert engine.route("Pierce Broadband", dt.date(2015, 1, 1), "CME", "NY4") is None
    misses = engine.stats.route.misses
    assert engine.route("Pierce Broadband", dt.date(2015, 1, 1), "CME", "NY4") is None
    assert engine.stats.route.misses == misses


def test_snapshot_cache_eviction(scenario):
    engine = CorridorEngine(
        scenario.database, scenario.corridor, snapshot_cache_size=1
    )
    engine.snapshot("New Line Networks", dt.date(2020, 4, 1))
    engine.snapshot("Webline Holdings", dt.date(2020, 4, 1))  # evicts NLN
    assert engine.stats.snapshot.evictions == 1
    assert engine.stats.snapshot.size == 1
    engine.snapshot("New Line Networks", dt.date(2020, 4, 1))  # miss again
    assert engine.stats.snapshot.misses == 3


def test_with_params_builds_distinct_engine(scenario):
    engine = CorridorEngine(scenario.database, scenario.corridor)
    sibling = engine.with_params(fiber_mode="all")
    assert sibling.params_key != engine.params_key
    assert sibling.database is engine.database
    with pytest.raises(TypeError):
        engine.with_params(not_a_param=1)


def test_timeline_matches_routes(scenario):
    engine = CorridorEngine(scenario.database, scenario.corridor)
    dates = [dt.date(2015, 1, 1), dt.date(2020, 4, 1)]
    points = engine.timeline("Pierce Broadband", dates)
    assert [p.date for p in points] == dates
    assert points[0].latency_ms is None and points[0].tower_count is None
    assert points[1].latency_ms == engine.route(
        "Pierce Broadband", dates[1], "CME", "NY4"
    ).latency_ms


def test_obs_counters_mirror_stats(scenario):
    from repro import obs

    engine = CorridorEngine(scenario.database, scenario.corridor)
    with obs.capture() as captured:
        engine.timeline("New Line Networks", MONTHLY)
    counters = captured.counters()
    stats = engine.stats
    assert counters["engine.snapshot.miss"] == stats.snapshot.misses
    assert counters["engine.route.miss"] == stats.route.misses
    assert counters["engine.route.hit"] == stats.route.hits
    assert stats.route.lookups == len(MONTHLY)


def test_describe_reports_caches_and_events(scenario):
    engine = CorridorEngine(scenario.database, scenario.corridor)
    engine.timeline("New Line Networks", MONTHLY[:6])
    text = engine.stats.describe()
    for name in ("snapshot", "route", "geodesic"):
        assert f"  {name} " in text
    assert "temporal index: events=" in text
    assert engine.stats.index_events == scenario.database.temporal_index().event_count


# ----------------------------------------------------------------------
# Snapshot keys and timelines against the scan oracle
# ----------------------------------------------------------------------


def _full_rebuild_timeline(scenario, licensee, dates):
    """The Fig 1 series the slow way: scan, reconstruct and route per
    date (networks shared between dates with equal scanned sets)."""
    recon = NetworkReconstructor(scenario.corridor)
    source, target = scenario.corridor.resolve_path(None, None)
    routes: dict[frozenset, object] = {}
    points = []
    for date in dates:
        fingerprint = object_kernel.scan_fingerprint(
            scenario.database, licensee, date
        )
        if fingerprint not in routes:
            network = object_kernel.reconstruct_licensee(
                recon, scenario.database, licensee, date
            )
            routes[fingerprint] = network.lowest_latency_route(source, target)
        route = routes[fingerprint]
        if route is None:
            points.append(TimelinePoint(date=date, latency_ms=None))
        else:
            points.append(
                TimelinePoint(
                    date=date,
                    latency_ms=route.latency_ms,
                    tower_count=route.tower_count,
                )
            )
    return points


def test_timeline_identical_to_full_rebuild(scenario):
    engine = CorridorEngine(scenario.database, scenario.corridor)
    for name in _LICENSEES[:4]:
        points = engine.timeline(name, MONTHLY)
        assert points == _full_rebuild_timeline(scenario, name, MONTHLY)


def _shuffled_monthly() -> list[dt.date]:
    """The monthly grid in a fixed random order with backward jumps."""
    shuffled = list(MONTHLY)
    random.Random(18).shuffle(shuffled)
    assert any(b < a for a, b in zip(shuffled, shuffled[1:]))
    return shuffled


def test_fingerprints_agree_with_scan(scenario):
    """Fingerprints depend on the date alone, not on query order."""
    engine = CorridorEngine(scenario.database, scenario.corridor)
    for dates in (MONTHLY, _shuffled_monthly()):
        for name in _LICENSEES[:4]:
            for date in dates:
                assert engine.active_fingerprint(
                    name, date
                ) == object_kernel.scan_fingerprint(scenario.database, name, date)


def test_snapshot_key_pure_and_order_invariant(scenario):
    """snapshot_key is the scanned key in any query order, and asking
    for it touches no cache."""
    engine = CorridorEngine(scenario.database, scenario.corridor)
    name = "New Line Networks"
    for date in _shuffled_monthly():
        assert engine.snapshot_key(name, date) == (
            name,
            object_kernel.scan_fingerprint(scenario.database, name, date),
            engine.params_key,
        )
    stats = engine.stats
    for counter in (stats.snapshot, stats.route):
        assert (counter.hits, counter.misses, counter.size) == (0, 0, 0)


def test_unchanged_window_reuses_network_object(scenario):
    """Two dates inside one constant-active-set interval share one
    stitched network: the second query hits the snapshot cache."""
    engine = CorridorEngine(scenario.database, scenario.corridor)
    name = "New Line Networks"
    d1 = dt.date(2018, 3, 5)
    d2 = dt.date(2018, 3, 25)
    # Guard: no license of this licensee starts or ends in between.
    assert object_kernel.scan_fingerprint(
        scenario.database, name, d1
    ) == object_kernel.scan_fingerprint(scenario.database, name, d2)
    n1 = engine.snapshot(name, d1)
    n2 = engine.snapshot(name, d2)
    assert n2.as_of == d2
    assert n1.towers == n2.towers
    assert list(n1.links) == list(n2.links)
    assert engine.stats.snapshot.hits == 1
    assert engine.stats.snapshot.misses == 1


def test_database_mutation_invalidates_snapshot_key():
    db = UlsDatabase(
        [make_license("L1", licensee="Solo", grant=dt.date(2015, 1, 1))]
    )
    engine = CorridorEngine(db, chicago_nj_corridor())
    d = dt.date(2016, 1, 1)
    before = engine.snapshot("Solo", d)
    db.add(
        make_license(
            "L2",
            licensee="Solo",
            points=((41.60, -87.80), (41.40, -87.20)),
            grant=dt.date(2015, 6, 1),
        )
    )
    assert engine.active_fingerprint("Solo", d) == {"L1", "L2"}
    # The post-mutation query must see L2's towers, not the cached
    # pre-mutation network.
    after = engine.snapshot("Solo", d)
    fresh = object_kernel.reconstruct_licensee(
        NetworkReconstructor(chicago_nj_corridor()), db, "Solo", d
    )
    assert after.towers == fresh.towers
    assert after.towers != before.towers
    assert engine.stats.snapshot.misses == 2


class TestCliByteIdentity:
    """Snapshot-key resolution must be invisible in stdout: the CLI
    matches a run keyed by the oracle's full scan.  ``--jobs`` is still
    accepted (the e2e benchmark runs ``timeline --jobs 2``) and must not
    change a byte."""

    ARGV = ("timeline", "--step", "monthly")

    @staticmethod
    def _run(*extra: str) -> bytes:
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        result = subprocess.run(
            [sys.executable, "-m", "repro", *extra],
            capture_output=True,
            env=env,
            cwd=root,
            check=True,
        )
        return result.stdout

    @pytest.fixture(scope="class")
    def full_scan_stdout(self, scenario) -> bytes:
        """The command in-process, every fingerprint from a full scan."""
        from repro.cli import main

        def scan(engine, licensee, on_date):
            return object_kernel.scan_fingerprint(engine.database, licensee, on_date)

        out = io.StringIO()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(CorridorEngine, "active_fingerprint", scan)
            # The CLI resolves the same cached scenario; give it an engine
            # with empty caches so no entry predates the patch.
            patch.setitem(
                vars(scenario),
                "_default_engine",
                CorridorEngine(scenario.database, scenario.corridor),
            )
            with contextlib.redirect_stdout(out):
                assert main(list(self.ARGV)) == 0
        return out.getvalue().encode("utf-8")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_timeline_byte_identical(self, jobs, full_scan_stdout):
        assert self._run(*self.ARGV, "--jobs", jobs) == full_scan_stdout


# ----------------------------------------------------------------------
# Constructor validation + consumer plumbing (the satellite fixes)
# ----------------------------------------------------------------------


def test_engine_requires_a_corridor(scenario):
    with pytest.raises(ValueError):
        CorridorEngine(scenario.database)


def test_reconstruct_all_honours_latency_model():
    database = UlsDatabase()
    database.extend([make_license()])
    corridor = chicago_nj_corridor()
    model = LatencyModel(per_tower_overhead_s=2e-6)

    networks = reconstruct_all(
        database, corridor, dt.date(2020, 4, 1), latency_model=model
    )
    assert networks["Test Networks LLC"].latency_model == model


def test_latency_timeline_validates_corridor(scenario):
    dates = [dt.date(2020, 4, 1)]
    engine = CorridorEngine(scenario.database, london_frankfurt_corridor())
    with pytest.raises(ValueError):
        latency_timeline(
            scenario.database,
            scenario.corridor,
            "New Line Networks",
            dates,
            engine=engine,
        )
    good = CorridorEngine(scenario.database, scenario.corridor)
    points = latency_timeline(
        scenario.database, scenario.corridor, "New Line Networks", dates, engine=good
    )
    assert points[0].latency_ms == pytest.approx(3.96171, abs=5e-5)


# ----------------------------------------------------------------------
# Geodesic memo
# ----------------------------------------------------------------------


def test_geodesic_memo_is_opt_in_and_exact():
    a = GeoPoint(41.8, -87.6)
    b = GeoPoint(40.7, -74.0)
    bare = geodesic_inverse(a, b)

    memo = GeodesicMemo(maxsize=16)
    assert active_memo() is None
    with use_memo(memo):
        assert active_memo() is memo
        first = geodesic_inverse(a, b)
        second = geodesic_inverse(a, b)
    assert active_memo() is None
    assert first == second == bare  # bit-identical, not approximately equal
    assert memo.hits == 1 and memo.misses == 1


def test_geodesic_memo_nesting_restores_previous():
    outer, inner = GeodesicMemo(), GeodesicMemo()
    with use_memo(outer):
        with use_memo(inner):
            assert active_memo() is inner
        assert active_memo() is outer
    assert active_memo() is None


def test_geodesic_memo_eviction_bound():
    memo = GeodesicMemo(maxsize=4)
    origin = GeoPoint(41.8, -87.6)
    with use_memo(memo):
        for i in range(10):
            geodesic_inverse(origin, GeoPoint(40.0 + i * 0.01, -74.0))
    assert len(memo) == 4
    assert memo.evictions == 6
