"""Incremental snapshot evolution: cursor-based resolution must be
indistinguishable from full fingerprint rescans.

The tentpole claims of this layer:

* an incrementally-evolved timeline is element-wise identical to a
  per-date full rebuild (the object-kernel oracle: a linear active-set
  scan and a fresh reconstruction per date);
* on dense date grids the vast majority (>80%) of snapshot resolutions
  are served incrementally;
* empty deltas reuse the cached network object outright;
* the CLI's output is byte-identical to a run whose every snapshot key
  comes from the oracle's full scan, checked through real subprocesses
  at more than one ``--jobs`` width.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.engine import CorridorEngine
from repro.core.reconstruction import NetworkReconstructor
from repro.core.timeline import TimelinePoint, dense_date_grid
from repro.uls.database import UlsDatabase
from tests import object_kernel
from tests.conftest import make_license

_LICENSEES = (
    "New Line Networks",
    "Webline Holdings",
    "Jefferson Microwave",
    "Pierce Broadband",
)

MONTHLY = dense_date_grid("monthly")


def _engine(scenario):
    return CorridorEngine(scenario.database, scenario.corridor)


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


class TestEquivalence:
    def test_timeline_identical_to_full_rebuild(self, scenario):
        engine = _engine(scenario)
        for name in _LICENSEES:
            a = engine.timeline(name, MONTHLY)
            b = _full_rebuild_timeline(scenario, name, MONTHLY)
            assert len(a) == len(b) == len(MONTHLY)
            for pa, pb in zip(a, b):
                assert pa == pb

    def test_fingerprints_agree_with_scan(self, scenario):
        engine = _engine(scenario)
        for name in _LICENSEES:
            for date in MONTHLY[::7]:
                assert engine.active_fingerprint(
                    name, date
                ) == object_kernel.scan_fingerprint(scenario.database, name, date)

    def test_snapshot_key_pure_and_mode_invariant(self, scenario):
        engine = _engine(scenario)
        date = dt.date(2018, 6, 1)
        key = engine.snapshot_key("New Line Networks", date)
        assert key == (
            "New Line Networks",
            object_kernel.scan_fingerprint(
                scenario.database, "New Line Networks", date
            ),
            engine.params_key,
        )
        # snapshot_key is an inspection helper: it must not move the
        # resolution counters or create cursors.
        assert engine.stats.snapshot_incremental == 0
        assert engine.stats.snapshot_full == 0


class TestIncrementalShare:
    def test_dense_grid_mostly_incremental(self, scenario):
        engine = _engine(scenario)
        for name in _LICENSEES:
            engine.timeline(name, MONTHLY)
        stats = engine.stats
        total = stats.snapshot_incremental + stats.snapshot_full
        assert total == len(_LICENSEES) * len(MONTHLY)
        # Only the first touch of each licensee resolves fully.
        assert stats.snapshot_full == len(_LICENSEES)
        assert stats.incremental_share > 0.80

    def test_obs_counters_mirror_stats(self, scenario):
        from repro import obs

        engine = _engine(scenario)
        with obs.capture() as captured:
            engine.timeline("New Line Networks", MONTHLY)
        counters = captured.counters()
        assert counters["engine.snapshot.incremental"] == len(MONTHLY) - 1
        assert counters["engine.snapshot.full"] == 1


class TestEmptyDeltaReuse:
    def test_unchanged_window_reuses_network_object(self, scenario):
        engine = _engine(scenario)
        name = "New Line Networks"
        # Two dates inside the same constant-active-set interval must hit
        # the same snapshot key and return the identical cached object.
        index = scenario.database.temporal_index(name)
        d1 = dt.date(2018, 3, 5)
        d2 = dt.date(2018, 3, 25)
        assert index.diff(d1, d2).is_empty  # guard: interval really is quiet
        n1 = engine.snapshot(name, d1)
        n2 = engine.snapshot(name, d2)
        # One stitch served both dates: the second call resolved
        # incrementally (empty delta, key reused) and hit the snapshot
        # cache instead of reconstructing.
        assert n2.as_of == d2
        assert n1.towers == n2.towers
        assert list(n1.links) == list(n2.links)
        stats = engine.stats
        assert stats.snapshot.hits == 1
        assert stats.snapshot.misses == 1
        assert stats.snapshot_incremental == 1
        assert stats.snapshot_full == 1

    def test_describe_reports_split_and_events(self, scenario):
        engine = _engine(scenario)
        engine.timeline("New Line Networks", MONTHLY[:6])
        text = engine.stats.describe()
        assert "snapshot resolutions:" in text
        assert "incremental=5" in text
        assert "full=1" in text
        assert "incremental-share=" in text
        assert "temporal index: events=" in text
        assert engine.stats.index_events == scenario.database.temporal_index().event_count


class TestStaleness:
    def test_database_mutation_invalidates_cursors(self):
        db = UlsDatabase(
            [make_license("L1", licensee="Solo", grant=dt.date(2015, 1, 1))]
        )
        from repro.core.corridor import chicago_nj_corridor

        engine = CorridorEngine(db, chicago_nj_corridor())
        d = dt.date(2016, 1, 1)
        fp1 = engine.active_fingerprint("Solo", d)
        engine.snapshot("Solo", d)
        db.add(make_license("L2", licensee="Solo", grant=dt.date(2015, 6, 1)))
        fp2 = engine.active_fingerprint("Solo", d)
        assert fp1 == {"L1"}
        assert fp2 == {"L1", "L2"}
        # The stale cursor must not be consulted: the post-mutation
        # resolution is a full one under the new generation.
        full_before = engine.stats.snapshot_full
        engine.snapshot("Solo", d)
        assert engine.stats.snapshot_full == full_before + 1
        network = engine.snapshot("Solo", d)
        assert network.tower_count > 0


class TestCursorTransplant:
    def test_export_and_seed_carry_cursors(self, scenario):
        engine = _engine(scenario)
        engine.timeline("New Line Networks", MONTHLY[:10])
        export = engine.export_cache_state()
        assert export.cursors
        (licensee, date, key, generation) = export.cursors[0]
        assert licensee == "New Line Networks"
        assert date == MONTHLY[9]
        assert generation == scenario.database.generation

        sibling = _engine(scenario)
        sibling.seed_cache_state(export)
        # The seeded cursor serves the next resolution incrementally.
        sibling.snapshot("New Line Networks", MONTHLY[10])
        assert sibling.stats.snapshot_full == 0
        assert sibling.stats.snapshot_incremental == 1


class TestCliByteIdentity:
    """Cursor resolution must be invisible in stdout at any --jobs width."""

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
        """The command in-process, every snapshot key from a full scan."""
        from repro.cli import main

        def resolve_by_scan(engine, licensee, on_date):
            fingerprint = object_kernel.scan_fingerprint(
                engine.database, licensee, on_date
            )
            return (licensee, fingerprint, engine.params_key), "full", 0

        out = io.StringIO()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(CorridorEngine, "_resolve_key", resolve_by_scan)
            # The CLI resolves the same cached scenario; give it an engine
            # with empty caches so no entry predates the patch.
            patch.setitem(vars(scenario), "_default_engine", _engine(scenario))
            with contextlib.redirect_stdout(out):
                assert main([*self.ARGV, "--jobs", "1"]) == 0
        return out.getvalue().encode("utf-8")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_timeline_byte_identical(self, jobs, full_scan_stdout):
        assert self._run(*self.ARGV, "--jobs", jobs) == full_scan_stdout
