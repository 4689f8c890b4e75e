"""Persistent cache store (repro.store): warm starts, cold-identical output.

The store's load-bearing properties, in rough order of importance:

1. **Byte identity** — a store-warmed engine answers every query exactly
   as a cold rebuild would (the store changes speed, never bytes).
2. **Fail cold, never crash** — corrupt, truncated, or stale entries
   degrade to a cold start (with quarantine/counters), no exception.
3. **Invalidation** — any database mutation (generation bump) changes
   the content digest, so stale entries can never warm a changed world.
4. **Atomic publication** — concurrent writers of the same fingerprint
   never produce a torn read.

Plus the integration seams: engine attach/checkpoint, the CLI's
``--cache-dir`` / ``cache {stat,gc,clear}``, serve's store-warmed boot
and rendered-body cache, and engine cache export/seed.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import json
import os
import pickle
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cli import main
from repro.core.engine import CorridorEngine, EncodedValue, EngineCacheExport
from repro.serve.service import CorridorQueryService
from repro.store import (
    STORE_SCHEMA_VERSION,
    CacheStore,
    store_fingerprint,
)
from repro.store import layout
from repro.store.fingerprint import scenario_fingerprint, scrape_fingerprint
from repro.uls.database import UlsDatabase

from tests.conftest import make_license

DATES = (dt.date(2016, 1, 1), dt.date(2019, 1, 1), dt.date(2020, 4, 1))


def _engine(scenario, store=None) -> CorridorEngine:
    """A private engine (never the scenario's shared default), attached
    to ``store`` when one is given."""
    engine = CorridorEngine(scenario.database, scenario.corridor)
    return engine if store is None else store.attach(engine)


@pytest.fixture(scope="module")
def populated_store(tmp_path_factory, scenario):
    """A store holding one checkpoint of real snapshot/route work."""
    store = CacheStore(tmp_path_factory.mktemp("store"))
    engine = _engine(scenario, store=store)
    for name in scenario.connected_names:
        for date in DATES:
            engine.snapshot(name, date)
        engine.route(name, scenario.snapshot_date, "CME", "NY4")
    # Also the full /rankings workload, so a restarted server's first
    # request finds everything it needs on disk.
    service = CorridorQueryService(scenario=scenario, engine=engine)
    assert service.handle_url("/rankings")[0] == 200
    engine.checkpoint()
    return store


# ----------------------------------------------------------------------
# Fingerprints and invalidation
# ----------------------------------------------------------------------


class TestFingerprint:
    def test_identical_content_shares_digest_and_fingerprint(self, scenario):
        copy = UlsDatabase(list(scenario.database))
        assert copy.content_digest() == scenario.database.content_digest()

    def test_generation_bump_changes_digest(self, scenario):
        copy = UlsDatabase(list(scenario.database))
        before = copy.content_digest()
        copy.add(make_license(license_id="ZZ9001", licensee="Digest Test LLC"))
        assert copy.content_digest() != before

    def test_params_and_versions_separate_keys(self):
        base = store_fingerprint("digest", (100.0, "slack"))
        assert store_fingerprint("digest", (100.0, "slack")) == base
        assert store_fingerprint("digest", (120.0, "slack")) != base
        assert store_fingerprint("other", (100.0, "slack")) != base

    def test_scrape_fingerprint_tracks_database_content(self, scenario):
        digest = scenario.database.content_digest()
        key = scrape_fingerprint(digest)
        assert scrape_fingerprint(digest) == key
        copy = UlsDatabase(list(scenario.database))
        copy.add(make_license(license_id="ZZ9003", licensee="Digest Test LLC"))
        assert scrape_fingerprint(copy.content_digest()) != key
        # The kind is part of the key: no other entry shares it.
        assert key not in {scenario_fingerprint(digest), store_fingerprint(digest, ())}

    def test_engine_fingerprint_tracks_params(self, scenario, tmp_path):
        store = CacheStore(tmp_path)
        engine = _engine(scenario)
        sibling = engine.with_params(stitch_tolerance_m=120.0)
        assert store.fingerprint_for(engine) != store.fingerprint_for(sibling)

    def test_mutated_database_misses_old_entry(self, scenario, tmp_path):
        store = CacheStore(tmp_path)
        copy = UlsDatabase(list(scenario.database))
        warm = store.attach(CorridorEngine(copy, scenario.corridor))
        warm.snapshot(scenario.connected_names[0], DATES[-1])
        warm.checkpoint()
        copy.add(make_license(license_id="ZZ9002", licensee="Digest Test LLC"))
        fresh = CorridorEngine(copy, scenario.corridor)
        assert store.load_into(fresh) is False
        # Attach on the empty store was miss #1; the post-mutation lookup
        # is miss #2 — and never a hit against the pre-mutation entry.
        counters = store.counters()
        assert counters["misses"] == 2
        assert counters["hits"] == 0


# ----------------------------------------------------------------------
# Scrape entries: the funnel scraper's parsed pages
# ----------------------------------------------------------------------


class TestScrapeEntries:
    def test_another_database_misses_the_entry(
        self, scenario, funnel_result, tmp_path
    ):
        from repro import obs
        from repro.analysis.funnel import run_scraping_funnel

        def funnel(database):
            engine = CacheStore(tmp_path).attach(
                CorridorEngine(database, scenario.corridor)
            )
            with obs.capture() as cap:
                result = run_scraping_funnel(
                    database, scenario.corridor, scenario.snapshot_date, engine=engine
                )
            loads = [
                dict(record.attrs) for record in cap.spans if record.name == "store.load"
            ]
            outcomes = [attrs["outcome"] for attrs in loads if attrs["kind"] == "scrape"]
            return result, outcomes

        copy = UlsDatabase(list(scenario.database))
        assert funnel(copy) == (funnel_result, ["miss"])
        # One more MG/FXO licensee next to CME: a new candidate with one
        # filing.  The entry keyed on the old content must not serve it.
        cme = scenario.corridor.site("CME").point
        copy.add(
            make_license(
                license_id="ZZ9004",
                licensee="Digest Test LLC",
                points=(
                    (cme.latitude + 0.01, cme.longitude),
                    (cme.latitude + 0.05, cme.longitude + 0.3),
                ),
            )
        )
        result, outcomes = funnel(copy)
        assert outcomes == ["miss"]
        assert result.counts == (
            len(funnel_result.candidate_licensees) + 1,
            *funnel_result.counts[1:],
        )
        assert "Digest Test LLC" in result.candidate_licensees
        # The new candidate's name search is the only extra page.
        assert result.pages_scraped == funnel_result.pages_scraped + 1


# ----------------------------------------------------------------------
# Round-trip byte identity
# ----------------------------------------------------------------------


class TestRoundTrip:
    def test_attach_loads_and_serves_hits(self, scenario, populated_store):
        engine = _engine(scenario, store=populated_store)
        engine.snapshot(scenario.connected_names[0], DATES[-1])
        assert engine.stats.snapshot.hits == 1
        assert engine.stats.snapshot.misses == 0

    @given(
        licensee_index=st.integers(min_value=0, max_value=8),
        date=st.sampled_from(DATES),
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_store_warmed_output_equals_cold_rebuild(
        self, scenario, populated_store, licensee_index, date
    ):
        name = scenario.connected_names[
            licensee_index % len(scenario.connected_names)
        ]
        cold = _engine(scenario)
        warmed = _engine(scenario, store=populated_store)
        assert repr(warmed.snapshot(name, date)) == repr(cold.snapshot(name, date))
        assert repr(
            warmed.route(name, date, "CME", "NY4")
        ) == repr(cold.route(name, date, "CME", "NY4"))
        # The warmed engine answered without rebuilding anything the
        # store already held (full-date queries on connected names).
        if date in DATES:
            assert warmed.stats.snapshot.misses == 0

    def test_loaded_export_round_trips(self, scenario, populated_store):
        warm = _engine(scenario, store=populated_store)
        fingerprint = populated_store.fingerprint_for(warm)
        loaded = populated_store.load_export(fingerprint)
        assert isinstance(loaded, EngineCacheExport)
        re_exported = warm.export_cache_state()
        assert dict(loaded.snapshots).keys() == dict(re_exported.snapshots).keys()
        assert dict(loaded.routes).keys() == dict(re_exported.routes).keys()


# ----------------------------------------------------------------------
# Corrupt / truncated / stale entries fall back cold
# ----------------------------------------------------------------------


class TestFallbacks:
    def _entry(self, store, scenario):
        engine = _engine(scenario, store=store)
        engine.snapshot(scenario.connected_names[0], DATES[-1])
        path = engine.checkpoint()
        return engine, path

    def test_corrupt_entry_quarantined_and_cold(self, scenario, tmp_path):
        store = CacheStore(tmp_path)
        _, path = self._entry(store, scenario)
        path.write_bytes(b"not a pickle at all")
        fresh = store.attach(
            CorridorEngine(scenario.database, scenario.corridor)
        )
        assert fresh.stats.snapshot.size == 0
        counters = store.counters()
        assert counters["corrupt"] == 1
        assert not path.exists()
        quarantined = list(layout.quarantine_dir(store.cache_dir).iterdir())
        assert len(quarantined) == 1
        # Cold but correct.
        network = fresh.snapshot(scenario.connected_names[0], DATES[-1])
        assert repr(network) == repr(
            _engine(scenario).snapshot(scenario.connected_names[0], DATES[-1])
        )

    def test_truncated_entry_quarantined(self, scenario, tmp_path):
        store = CacheStore(tmp_path)
        _, path = self._entry(store, scenario)
        path.write_bytes(path.read_bytes()[:64])
        assert store.load_export(path.stem) is None
        assert store.counters()["corrupt"] == 1
        assert not path.exists()

    def test_stale_schema_is_miss_not_quarantine(self, tmp_path):
        store = CacheStore(tmp_path)
        payload = pickle.dumps(
            {"schema": STORE_SCHEMA_VERSION - 1, "fingerprint": "f" * 64}
        )
        layout.write_entry(store.cache_dir, "f" * 64, payload)
        assert store.load_export("f" * 64) is None
        counters = store.counters()
        assert counters["stale"] == 1
        assert counters["corrupt"] == 0
        # Left in place for gc to age out, not quarantined.
        assert layout.entry_path(store.cache_dir, "f" * 64).exists()

    def test_foreign_fingerprint_is_stale(self, tmp_path):
        store = CacheStore(tmp_path)
        payload = pickle.dumps(
            {
                "schema": STORE_SCHEMA_VERSION,
                "fingerprint": "b" * 64,
                "export": None,
            }
        )
        layout.write_entry(store.cache_dir, "a" * 64, payload)
        assert store.load_export("a" * 64) is None
        assert store.counters()["stale"] == 1

    def test_wrong_payload_type_is_stale(self, tmp_path):
        store = CacheStore(tmp_path)
        layout.write_entry(store.cache_dir, "c" * 64, pickle.dumps([1, 2, 3]))
        assert store.load_export("c" * 64) is None
        assert store.counters()["stale"] == 1

    def test_missing_entry_is_plain_miss(self, tmp_path):
        store = CacheStore(tmp_path)
        assert store.load_export("d" * 64) is None
        counters = store.counters()
        assert counters["misses"] == 1
        assert counters["corrupt"] == 0
        assert counters["stale"] == 0


# ----------------------------------------------------------------------
# Concurrent writers never corrupt the store
# ----------------------------------------------------------------------

_WRITER_SCRIPT = """
import pickle, sys
from repro.store import layout
from repro.store.fingerprint import STORE_SCHEMA_VERSION

cache_dir, fingerprint, marker = sys.argv[1], sys.argv[2], sys.argv[3]
payload = pickle.dumps(
    {
        "schema": STORE_SCHEMA_VERSION,
        "fingerprint": fingerprint,
        "export": marker * 2000,
    }
)
for _ in range(200):
    layout.write_entry(cache_dir, fingerprint, payload)
"""


class TestConcurrentWriters:
    def test_two_processes_publishing_same_key_never_tear(self, tmp_path):
        fingerprint = "e" * 64
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER_SCRIPT, str(tmp_path), fingerprint, marker],
                env=env,
                cwd=os.getcwd(),
            )
            for marker in ("A", "B")
        ]
        seen = set()
        try:
            while any(writer.poll() is None for writer in writers):
                data = layout.read_entry(tmp_path, fingerprint)
                if data is None:
                    continue
                # Every observed read is one writer's complete payload —
                # never a torn mix, never a partial pickle.
                payload = pickle.loads(data)
                assert payload["schema"] == STORE_SCHEMA_VERSION
                assert payload["fingerprint"] == fingerprint
                assert payload["export"] in ("A" * 2000, "B" * 2000)
                seen.add(payload["export"][0])
        finally:
            for writer in writers:
                writer.wait(timeout=60)
        assert all(writer.returncode == 0 for writer in writers)
        assert seen  # the reader actually observed published entries
        # No stray temp files left behind.
        assert not [
            p
            for p in layout.entry_dir(tmp_path).iterdir()
            if p.name.startswith(".tmp-")
        ]


# ----------------------------------------------------------------------
# GC bounds
# ----------------------------------------------------------------------


class TestGc:
    def _seed_entries(self, store):
        base = 1_700_000_000.0
        for index, fingerprint in enumerate(("1" * 64, "2" * 64, "3" * 64)):
            path = layout.write_entry(
                store.cache_dir, fingerprint, b"x" * (100 * (index + 1))
            )
            os.utime(path, (base + index * 100, base + index * 100))
        return base

    def test_stat_lists_entries_sorted(self, tmp_path):
        store = CacheStore(tmp_path)
        self._seed_entries(store)
        entries = store.stat()
        assert [e.fingerprint for e in entries] == ["1" * 64, "2" * 64, "3" * 64]
        assert [e.size_bytes for e in entries] == [100, 200, 300]

    def test_gc_age_bound_removes_old_entries(self, tmp_path):
        store = CacheStore(tmp_path)
        base = self._seed_entries(store)
        removed = store.gc(max_age_s=150.0, now_s=base + 250.0)
        assert [e.fingerprint for e in removed] == ["1" * 64]
        assert [e.fingerprint for e in store.stat()] == ["2" * 64, "3" * 64]

    def test_gc_size_bound_keeps_newest(self, tmp_path):
        store = CacheStore(tmp_path)
        self._seed_entries(store)
        # Newest (300 B) fits a 350 B budget; the rest must go.
        removed = store.gc(max_bytes=350)
        assert sorted(e.fingerprint for e in removed) == ["1" * 64, "2" * 64]
        assert [e.fingerprint for e in store.stat()] == ["3" * 64]

    def test_gc_age_requires_now(self, tmp_path):
        store = CacheStore(tmp_path)
        with pytest.raises(ValueError):
            store.gc(max_age_s=10.0)

    def test_clear_removes_everything(self, tmp_path):
        store = CacheStore(tmp_path)
        self._seed_entries(store)
        layout.write_entry(store.cache_dir, "9" * 64, b"not a pickle")
        assert store.load_export("9" * 64) is None  # quarantines it
        assert store.clear() == 3
        assert store.stat() == ()
        assert not list(layout.quarantine_dir(store.cache_dir).glob("*"))

    def _orphan(self, store) -> Path:
        # A schema bump leaves the previous version's entries behind;
        # `v1` is never the current version (schema 2 and later).
        old = store.cache_dir / "v1" / "old.pkl"
        old.parent.mkdir(parents=True, exist_ok=True)
        old.write_bytes(b"x" * 50)
        return old

    def test_gc_removes_other_schema_versions(self, tmp_path):
        store = CacheStore(tmp_path)
        base = self._seed_entries(store)
        old = self._orphan(store)
        # No current entry is old enough to go; the orphan goes anyway.
        removed = store.gc(max_age_s=1e9, now_s=base)
        assert [e.path for e in removed] == [old]
        assert not old.exists()
        assert len(store.stat()) == 3
        self._orphan(store)
        assert len(store.gc(max_bytes=0)) == 4
        assert not list(store.cache_dir.glob("v*/*.pkl"))

    def test_clear_removes_other_schema_versions(self, tmp_path):
        store = CacheStore(tmp_path)
        self._seed_entries(store)
        old = self._orphan(store)
        assert store.clear() == 4
        assert not old.exists()
        assert store.stat() == ()

    def test_read_entry_survives_age_gc(self, scenario, tmp_path):
        # Clean runs read entries without rewriting them, so a hit must
        # refresh the mtime gc ages entries by.
        store = CacheStore(tmp_path)
        engine = _engine(scenario, store=store)
        engine.snapshot(scenario.connected_names[0], DATES[-1])
        hot = engine.checkpoint()
        cold = layout.write_entry(store.cache_dir, "6" * 64, b"never read")
        long_ago = 1_700_000_000.0
        for path in (hot, cold):
            os.utime(path, (long_ago, long_ago))
        reader = CacheStore(tmp_path)
        assert reader.load_into(_engine(scenario)) is True
        assert reader.counters()["saves"] == 0
        removed = reader.gc(max_age_s=86400.0, now_s=time.time())
        assert [entry.fingerprint for entry in removed] == ["6" * 64]
        assert hot.exists()


# ----------------------------------------------------------------------
# Engine wiring
# ----------------------------------------------------------------------


class TestEngineWiring:
    def test_attach_twice_registers_and_loads_once(self, scenario, tmp_path):
        store = CacheStore(tmp_path)
        engine = CorridorEngine(scenario.database, scenario.corridor)
        assert store.attach(engine) is engine
        assert store.attach(engine) is engine
        assert engine.store is store
        assert store.engines() == (engine,)
        assert store.counters()["loads"] == 1
        # An engine that learned nothing since it was attached saves
        # nothing; one new snapshot makes the next checkpoint publish.
        assert store.checkpoint_all() == 0
        assert store.counters()["saves"] == 0
        engine.snapshot(scenario.connected_names[0], DATES[0])
        assert store.checkpoint_all() == 1
        assert store.counters()["saves"] == 1

    def test_detach_all_clears_every_engine(self, scenario, tmp_path):
        store = CacheStore(tmp_path)
        engines = [_engine(scenario, store=store) for _ in range(2)]
        store.detach_all()
        assert store.engines() == ()
        assert all(engine.store is None for engine in engines)
        assert engines[0].checkpoint() is None
        assert store.checkpoint_all() == 0

    def test_resolve_scenario_attaches_only_the_default_engine(self, tmp_path):
        from repro.scenarios import resolve_scenario

        store = CacheStore(tmp_path)
        try:
            europe = resolve_scenario("europe2020", store=store)
            assert store.engines() == (europe.engine(),)
            assert europe.engine().store is store
            # Parameter engines never persist.
            assert europe.engine(stitch_tolerance_m=120.0).store is None
        finally:
            store.detach_all()

    def test_checkpoint_without_store_is_noop(self, scenario):
        assert _engine(scenario).checkpoint() is None

    def test_with_params_sibling_never_inherits_store(self, scenario, tmp_path):
        engine = _engine(scenario, store=CacheStore(tmp_path))
        assert engine.with_params(stitch_tolerance_m=120.0).store is None

    def test_checkpoint_after_attach_preserves_prior_entries(
        self, scenario, tmp_path
    ):
        store = CacheStore(tmp_path)
        first = _engine(scenario, store=store)
        first.snapshot(scenario.connected_names[0], DATES[0])
        first.checkpoint()
        # A second process/engine doing different work must not wipe the
        # first's entries: it auto-loaded them, so its checkpoint is a
        # superset.
        second = _engine(scenario, store=store)
        second.snapshot(scenario.connected_names[1], DATES[1])
        second.checkpoint()
        third = _engine(scenario, store=CacheStore(tmp_path))
        third.snapshot(scenario.connected_names[0], DATES[0])
        third.snapshot(scenario.connected_names[1], DATES[1])
        assert third.stats.snapshot.misses == 0


class TestEngineCacheTransplant:
    def test_export_seed_roundtrip_serves_hits(self, scenario):
        warm = _engine(scenario)
        warm.snapshot("Webline Holdings", DATES[1])
        cold = _engine(scenario)
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
        warm = _engine(scenario)
        warm.snapshot("Webline Holdings", DATES[1])
        sibling = warm.with_params(stitch_tolerance_m=120.0)
        with pytest.raises(ValueError):
            sibling.seed_cache_state(warm.export_cache_state())


# ----------------------------------------------------------------------
# APA values persist beside routes
# ----------------------------------------------------------------------


def _table3_apa(scenario, engine) -> dict:
    """Table 3's APA values (spotlight pair × corridor paths), read
    through ``engine``."""
    date = scenario.snapshot_date
    return {
        (name, path): engine.apa(name, date, *path)
        for name in scenario.spotlight_names
        for path in scenario.corridor.paths
    }


class TestApaEntries:
    def _published(self, scenario, tmp_path):
        store = CacheStore(tmp_path)
        engine = _engine(scenario, store=store)
        values = _table3_apa(scenario, engine)
        path = engine.checkpoint()
        assert path is not None
        return store, values, path

    def test_seeded_engine_answers_table3_apa_without_searching(
        self, scenario, tmp_path
    ):
        store, values, _ = self._published(scenario, tmp_path)
        warm = _engine(scenario, store=CacheStore(tmp_path))
        with obs.capture() as captured:
            assert _table3_apa(scenario, warm) == values
        counters = captured.counters()
        assert [name for name in counters if name.startswith("metrics.apa.")] == []
        assert [r.name for r in captured.spans if r.name == "core.routing"] == []
        assert warm.stats.apa.hits == len(values)
        assert (warm.stats.apa.misses, warm.stats.route.lookups) == (0, 0)
        assert not warm.dirty

    def test_flipped_apa_value_counts_corrupt_once_and_is_rebuilt(
        self, scenario, tmp_path
    ):
        store, values, path = self._published(scenario, tmp_path)
        envelope = pickle.loads(path.read_bytes())
        params_key, snapshots, routes, apa, geodesic = envelope["body"]
        assert len(apa) == len(values)
        key, data, crc = apa[0]
        flipped = bytearray(data)
        flipped[len(flipped) // 2] ^= 0xFF
        apa = ((key, bytes(flipped), crc), *apa[1:])
        envelope["body"] = (params_key, snapshots, routes, apa, geodesic)
        layout.write_entry(tmp_path, path.stem, pickle.dumps(envelope))

        reader = CacheStore(tmp_path)
        warm = _engine(scenario, store=reader)
        assert _table3_apa(scenario, warm) == values
        stats = warm.stats
        assert (stats.apa.corrupt, stats.apa.misses) == (1, 1)
        assert stats.apa.hits == len(values) - 1
        # The entry itself read fine; the rebuilt value is republished.
        assert (reader.counters()["hits"], reader.counters()["corrupt"]) == (1, 0)
        assert warm.dirty
        warm.checkpoint()
        again = _engine(scenario, store=CacheStore(tmp_path))
        assert _table3_apa(scenario, again) == values
        assert (again.stats.apa.corrupt, again.stats.apa.misses) == (0, 0)

    def test_schema_v1_entry_is_a_miss(self, scenario, tmp_path):
        store, values, path = self._published(scenario, tmp_path)
        params_key, snapshots, routes, _, geodesic = pickle.loads(
            path.read_bytes()
        )["body"]
        v1_body = (params_key, snapshots, routes, geodesic)
        for schema, outcome in ((1, "stale"), (STORE_SCHEMA_VERSION, "corrupt")):
            # A v1 envelope (the four-part body, without APA values), and
            # the same body under the current schema number.
            layout.write_entry(
                tmp_path,
                path.stem,
                pickle.dumps(
                    {
                        "schema": schema,
                        "fingerprint": path.stem,
                        "kind": "engine",
                        "body": v1_body,
                    }
                ),
            )
            reader = CacheStore(tmp_path)
            cold = CorridorEngine(scenario.database, scenario.corridor)
            assert reader.load_into(cold) is False
            assert reader.counters()[outcome] == 1
            assert (reader.counters()["hits"], reader.counters()["misses"]) == (0, 1)
            assert cold.stats.snapshot.size == 0
            assert _table3_apa(scenario, cold) == values


# ----------------------------------------------------------------------
# CLI: --cache-dir and `cache {stat,gc,clear}`
# ----------------------------------------------------------------------


class TestCacheCli:
    @staticmethod
    def _reset_default_engine():
        # The paper scenario (and its shared default engine) is memoised
        # by the registry per process, so its caches stay warm across
        # in-process main() calls.  Dropping the default engine makes the
        # next run build a cold one, like the fresh process each real CLI
        # invocation gets (scripts/check.sh's store gate runs
        # subprocesses; these tests run main() in-process).  The scenario
        # object itself stays, so session fixtures still resolve to it.
        from repro.scenarios import resolve_scenario

        vars(resolve_scenario("paper2020")).pop("_default_engine", None)

    @pytest.fixture(autouse=True)
    def _fresh_scenario(self, scenario):
        # Restore the session's warm default engine afterwards, so later
        # tests see the engine the session fixtures hold.
        with pytest.MonkeyPatch.context() as patch:
            patch.delitem(vars(scenario), "_default_engine", raising=False)
            yield
            self._reset_default_engine()

    def test_cache_dir_populates_store_and_output_is_identical(
        self, capsys, tmp_path
    ):
        assert main(["table1"]) == 0
        plain = capsys.readouterr().out
        self._reset_default_engine()
        assert main(["table1", "--cache-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out == plain
        assert len(CacheStore(tmp_path).stat()) == 1
        self._reset_default_engine()
        assert main(["table1", "--cache-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out == plain

    def test_no_store_disables_env_store(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["table1", "--no-store"]) == 0
        capsys.readouterr()
        assert CacheStore(tmp_path).stat() == ()

    def test_cache_stat_gc_clear(self, capsys, tmp_path):
        store_dir = str(tmp_path)
        assert main(["cache", "stat", "--cache-dir", store_dir]) == 0
        assert "0 entries" in capsys.readouterr().out
        assert main(["table1", "--cache-dir", store_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "stat", "--cache-dir", store_dir]) == 0
        assert "1 entries" in capsys.readouterr().out
        assert main(["cache", "gc", "--cache-dir", store_dir]) == 2
        assert "pass --max-bytes" in capsys.readouterr().err
        assert (
            main(["cache", "gc", "--cache-dir", store_dir, "--max-bytes", "0"])
            == 0
        )
        assert "removed 1 entries" in capsys.readouterr().out
        self._reset_default_engine()
        assert main(["table1", "--cache-dir", store_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", store_dir]) == 0
        assert "cleared 1 entries" in capsys.readouterr().out
        assert CacheStore(store_dir).stat() == ()

    def test_cache_respects_env_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["cache", "stat"]) == 0
        assert str(tmp_path) in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["table1", "compare"])
    def test_no_engine_keeps_the_store_after_the_command(
        self, capsys, tmp_path, command
    ):
        from repro.scenarios import resolve_scenario

        assert main([command, "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        for name in ("paper2020", "europe2020", "tokyo-singapore"):
            assert resolve_scenario(name).engine().store is None

    def test_later_no_store_run_leaves_the_entry_alone(self, capsys, tmp_path):
        assert main(["table1", "--cache-dir", str(tmp_path)]) == 0
        (entry,) = CacheStore(tmp_path).stat()
        before = (entry.path.read_bytes(), os.stat(entry.path))
        # The scenario's engine stays warm in this process; a later run
        # without a store must not checkpoint it into the old store.
        assert main(["table1", "--no-store"]) == 0
        capsys.readouterr()
        after = os.stat(entry.path)
        assert entry.path.read_bytes() == before[0]
        assert (after.st_ino, after.st_mtime_ns) == (
            before[1].st_ino,
            before[1].st_mtime_ns,
        )

    def test_store_attaches_to_an_already_built_engine(self, capsys, tmp_path):
        assert main(["table1"]) == 0
        assert main(["table1", "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert len(CacheStore(tmp_path).stat()) == 1

    def test_warm_compare_loads_each_scenario_once(
        self, capsys, tmp_path, monkeypatch
    ):
        import repro.store

        stores = []

        class RecordingStore(CacheStore):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                stores.append(self)

        monkeypatch.setattr(repro.store, "CacheStore", RecordingStore)
        assert main(["compare", "--cache-dir", str(tmp_path)]) == 0
        cold = capsys.readouterr().out
        assert main(
            ["--cache-stats", "compare", "--cache-dir", str(tmp_path)]
        ) == 0
        assert capsys.readouterr().out == cold
        # The registry still holds the three scenarios, so only their
        # engine entries load; the engines learned nothing, so nothing
        # is saved.
        counters = stores[-1].counters()
        assert (counters["loads"], counters["hits"], counters["saves"]) == (
            3,
            3,
            0,
        )


    def test_corrupt_value_inside_a_valid_entry_is_rebuilt(
        self, capsys, tmp_path, monkeypatch
    ):
        import repro.store
        from repro.scenarios import resolve_scenario

        stores = []

        class RecordingStore(CacheStore):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                stores.append(self)

        monkeypatch.setattr(repro.store, "CacheStore", RecordingStore)
        argv = ["--cache-stats", "table1", "--cache-dir", str(tmp_path)]
        self._reset_default_engine()
        assert main(argv) == 0
        plain = capsys.readouterr().out
        self._reset_default_engine()
        assert main(argv) == 0
        capsys.readouterr()
        # The routes the warm run decoded are the ones table1 reads (its
        # APA values come from the entry too, so it decodes no snapshot).
        engine = resolve_scenario("paper2020").engine()
        read = [
            key
            for key, value in engine._routes.items()
            if type(value) is not EncodedValue
        ]
        assert read
        # Flip one byte of one of them inside the otherwise valid entry.
        fingerprint = stores[-1].fingerprint_for(engine)
        path = layout.entry_path(tmp_path, fingerprint)
        envelope = pickle.loads(path.read_bytes())
        params_key, snapshots, routes, *rest = envelope["body"]
        routes = list(routes)
        index = next(i for i, (key, _, _) in enumerate(routes) if key == read[0])
        key, data, crc = routes[index]
        flipped = bytearray(data)
        flipped[len(flipped) // 2] ^= 0xFF
        routes[index] = (key, bytes(flipped), crc)
        envelope["body"] = (params_key, snapshots, tuple(routes), *rest)
        layout.write_entry(tmp_path, fingerprint, pickle.dumps(envelope))

        self._reset_default_engine()
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert out == plain
        assert "Traceback" not in err
        stats = resolve_scenario("paper2020").engine().stats
        assert (stats.route.corrupt, stats.route.misses) == (1, 1)
        assert (stats.snapshot.corrupt, stats.snapshot.misses) == (0, 0)
        assert "corrupt=1" in err
        counters = stores[-1].counters()
        # The entry itself read fine; the rebuilt value made the engine
        # dirty, so the entry was rewritten at exit.
        assert (counters["hits"], counters["corrupt"], counters["saves"]) == (
            1,
            0,
            1,
        )

        self._reset_default_engine()
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert out == plain
        assert "corrupt=" not in err
        stats = resolve_scenario("paper2020").engine().stats
        assert (stats.route.corrupt, stats.route.misses) == (0, 0)
        counters = stores[-1].counters()
        assert (counters["hits"], counters["saves"]) == (1, 0)

    def test_corrupt_scrape_entry_is_quarantined_and_rewritten(
        self, capsys, tmp_path, monkeypatch
    ):
        import repro.store
        from repro.scenarios import resolve_scenario

        stores = []

        class RecordingStore(CacheStore):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                stores.append(self)

        monkeypatch.setattr(repro.store, "CacheStore", RecordingStore)
        argv = ["funnel", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert "portal pages scraped: 2974" in plain
        # Flip one byte in the middle of the scrape entry's body.
        fingerprint = scrape_fingerprint(
            resolve_scenario("paper2020").database.content_digest()
        )
        envelope = pickle.loads(layout.entry_path(tmp_path, fingerprint).read_bytes())
        assert envelope["kind"] == "scrape"
        body = bytearray(envelope["body"])
        body[len(body) // 2] ^= 0xFF
        envelope["body"] = bytes(body)
        layout.write_entry(tmp_path, fingerprint, pickle.dumps(envelope))

        self._reset_default_engine()
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert out == plain
        assert "Traceback" not in err
        # The engine entry hit; the scrape entry was quarantined, the
        # funnel scraped cold, and its scraper rewrote the entry.
        counters = stores[-1].counters()
        assert (counters["hits"], counters["corrupt"], counters["saves"]) == (
            1,
            1,
            1,
        )
        assert len(list(layout.quarantine_dir(tmp_path).iterdir())) == 1

        self._reset_default_engine()
        assert main(argv) == 0
        assert capsys.readouterr().out == plain
        counters = stores[-1].counters()
        assert (counters["hits"], counters["corrupt"], counters["saves"]) == (
            2,
            0,
            0,
        )

    def test_warm_rerun_table1_loads_once_and_saves_nothing(
        self, capsys, tmp_path, monkeypatch
    ):
        import repro.store

        stores = []

        class RecordingStore(CacheStore):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                stores.append(self)

        monkeypatch.setattr(repro.store, "CacheStore", RecordingStore)
        argv = ["table1", "--cache-dir", str(tmp_path)]
        self._reset_default_engine()
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert stores[-1].counters()["saves"] == 1
        self._reset_default_engine()
        assert main(argv) == 0
        assert capsys.readouterr().out == cold
        # One load at attach and no save: the engine learned nothing
        # the entry lacks.
        counters = stores[-1].counters()
        assert (counters["loads"], counters["hits"], counters["saves"]) == (
            1,
            1,
            0,
        )


# ----------------------------------------------------------------------
# Fresh processes: scenario entries, the source digest, clean runs
# ----------------------------------------------------------------------

_RESOLVE_SCRIPT = """
import sys
from repro.scenarios import resolve_scenario
from repro.store import CacheStore

store = CacheStore(sys.argv[1])
scenario = resolve_scenario("paper2020", store=store)
engine = scenario.engine()
engine.snapshot(scenario.connected_names[0], scenario.snapshot_date)
store.checkpoint_all()
counters = store.counters()
print(
    scenario.snapshot_date,
    scenario.database.content_digest()[:16],
    counters["hits"],
    counters["misses"],
    counters["saves"],
)
"""


def _run_in(src: Path, *argv: str) -> subprocess.CompletedProcess:
    """Run ``python *argv`` with ``src`` as the package root."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env.pop("REPRO_CACHE_DIR", None)
    return subprocess.run(
        [sys.executable, *argv],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )


def _edited_tree(tmp_path: Path, name: str, rel_path: str, edit) -> Path:
    """A copy of the ``repro`` sources with one file edited."""
    src = Path(__file__).resolve().parents[1] / "src"
    root = tmp_path / name
    shutil.copytree(
        src / "repro",
        root / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    target = root / "repro" / rel_path
    target.write_text(edit(target.read_text()))
    return root


def _metric(stderr: str, name: str) -> int:
    for line in stderr.splitlines():
        parts = line.split()
        if parts[:2] == ["counter", name]:
            return int(parts[2])
    return 0


class TestFreshProcesses:
    def test_warm_table1_hits_both_entry_kinds_and_saves_nothing(
        self, tmp_path
    ):
        src = Path(__file__).resolve().parents[1] / "src"
        argv = ["-m", "repro", "table1", "--cache-dir", str(tmp_path)]
        cold = _run_in(src, *argv, "--metrics")
        assert _metric(cold.stderr, "store.save") == 2
        warm = _run_in(src, *argv, "--metrics")
        assert warm.stdout == cold.stdout
        # One scenario entry and one engine entry, both hits.
        assert (
            _metric(warm.stderr, "store.load"),
            _metric(warm.stderr, "store.hit"),
            _metric(warm.stderr, "store.save"),
        ) == (2, 2, 0)

    def test_warm_weekly_timeline_rebuilds_nothing_and_saves_nothing(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        argv = ["-m", "repro", "timeline", "--step", "weekly"]
        store = ["--cache-dir", str(tmp_path)]
        cold = _run_in(src, *argv, *store)
        warm = _run_in(src, *argv, *store, "--metrics")
        assert warm.stdout == cold.stdout
        # The store-warmed engine answers every weekly date from its
        # caches: nothing is rebuilt and nothing is saved.
        assert _metric(warm.stderr, "engine.route.hit") > 0
        assert "engine.route.miss" not in warm.stderr
        assert "engine.snapshot.miss" not in warm.stderr
        assert _metric(warm.stderr, "store.save") == 0

    def test_warm_funnel_scrapes_nothing_and_saves_nothing(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        argv = ["-m", "repro", "funnel", "--cache-dir", str(tmp_path), "--metrics"]
        cold = _run_in(src, *argv)
        # Scenario, engine and scrape entries.
        assert _metric(cold.stderr, "store.save") == 3
        assert _metric(cold.stderr, "uls.scraper.cache.miss") == 2887
        warm = _run_in(src, *argv)
        assert warm.stdout == cold.stdout
        assert "portal pages scraped: 2974" in warm.stdout
        assert (
            _metric(warm.stderr, "store.load"),
            _metric(warm.stderr, "store.hit"),
            _metric(warm.stderr, "store.save"),
        ) == (3, 3, 0)
        # The cold run published every entry it reads: the warm run
        # misses none and fetches no page.
        assert "store.miss" not in warm.stderr
        assert "uls.scraper.cache.miss" not in warm.stderr
        assert "uls.scraper.page.detail" not in warm.stderr

    def test_cold_jobs2_funnel_publishes_every_entry(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        argv = ["-m", "repro", "funnel", "--cache-dir", str(tmp_path), "--metrics"]
        cold = _run_in(src, *argv, "--jobs", "2")
        # Scenario, engine and scrape entries, as without --jobs.
        assert _metric(cold.stderr, "store.save") == 3
        warm = _run_in(src, *argv, "--jobs", "2")
        assert warm.stdout == cold.stdout
        assert _metric(warm.stderr, "store.hit") == 3
        assert "store.miss" not in warm.stderr
        assert "uls.scraper.page.detail" not in warm.stderr

    def test_source_edits_orphan_scenario_and_engine_entries(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        store_dir = str(tmp_path / "store")
        script = ["-c", _RESOLVE_SCRIPT, store_dir]
        first = _run_in(src, *script).stdout.split()
        date, digest = first[:2]
        assert first[2:] == ["0", "2", "2"]
        assert _run_in(src, *script).stdout.split() == [date, digest, "2", "0", "0"]
        # A changed synth constant: the scenario entry must miss, and the
        # rebuilt scenario carries the new constant.
        synth_edit = _edited_tree(
            tmp_path,
            "synth-edit",
            "synth/scenario.py",
            lambda text: text.replace(
                "SNAPSHOT_DATE = dt.date(2020, 4, 1)",
                "SNAPSHOT_DATE = dt.date(2020, 4, 2)",
            ),
        )
        edited = _run_in(synth_edit, *script).stdout.split()
        assert edited[0] == "2020-04-02"
        assert edited[2:] == ["0", "2", "2"]
        # An edit outside synth leaves the database identical, so only
        # the source digest can make the engine entry miss.
        core_edit = _edited_tree(
            tmp_path,
            "core-edit",
            "core/network.py",
            lambda text: text + "\n# edited\n",
        )
        assert _run_in(core_edit, *script).stdout.split() == [
            date,
            digest,
            "0",
            "2",
            "2",
        ]


# ----------------------------------------------------------------------
# Serve: store-warmed boot, checkpoint on shutdown, body cache
# ----------------------------------------------------------------------


class TestServeStore:
    def test_restart_serves_first_rankings_from_store(
        self, scenario, populated_store
    ):
        # "Restart": a brand-new engine over the same database, warmed
        # purely from disk.
        engine = _engine(scenario, store=populated_store)
        service = CorridorQueryService(scenario=scenario, engine=engine)
        status, payload = service.handle_url("/rankings")
        assert status == 200
        assert payload["rankings"]
        assert engine.stats.snapshot.misses == 0
        status, stats = service.handle_url("/stats")
        assert status == 200
        assert stats["store"]["hits"] >= 1
        assert stats["store"]["loads"] >= 1

    def test_scenario_loaded_on_demand_is_checkpointed(
        self, scenario, tmp_path
    ):
        from repro.scenarios import resolve_scenario
        from repro.serve import CorridorServer

        store = CacheStore(tmp_path)
        service = CorridorQueryService(
            scenario=scenario, engine=_engine(scenario), store=store
        )
        try:
            with CorridorServer(service):
                status, _ = service.handle_url("/rankings?scenario=europe2020")
                assert status == 200
            europe = resolve_scenario("europe2020").engine()
            assert europe.store is store
            published = {entry.fingerprint for entry in store.stat()}
            assert store.fingerprint_for(europe) in published
        finally:
            store.detach_all()

    def test_server_close_checkpoints_store(self, scenario, tmp_path):
        from repro.serve import CorridorServer

        store = CacheStore(tmp_path)
        engine = _engine(scenario, store=store)
        service = CorridorQueryService(scenario=scenario, engine=engine)
        with CorridorServer(service) as server:
            import urllib.request

            with urllib.request.urlopen(server.url + "/rankings") as response:
                assert response.status == 200
        saves = store.counters()["saves"]
        assert saves >= 1
        assert len(store.stat()) == 1


class TestBodyCache:
    def _service(self, scenario):
        copy = UlsDatabase(list(scenario.database))
        engine = CorridorEngine(copy, scenario.corridor)
        replaced = dataclasses.replace(scenario, database=copy)
        return CorridorQueryService(scenario=replaced, engine=engine), copy

    def test_repeat_request_served_from_body_cache(self, scenario):
        service, _ = self._service(scenario)
        status1, body1 = service.handle_http("/rankings")
        status2, body2 = service.handle_http("/rankings")
        assert (status1, status2) == (200, 200)
        assert body1 == body2
        described = service.bodies.describe()
        assert described["hits"] == 1
        assert described["misses"] == 1
        assert described["entries"] == 1
        # Body hits still count as requests.
        assert service.facade.describe()["facade"]["requests"] == 2

    @staticmethod
    def _fingerprints(service, date: dt.date) -> tuple:
        engine = service.facade.engine
        return tuple(
            engine.active_fingerprint(name, date)
            for name in engine.database.licensee_names()
        )

    def test_distinct_params_are_distinct_entries(self, scenario):
        # Bodies are keyed by the licensees' active sets, not the date:
        # dates whose fingerprints differ get an entry each.
        service, _ = self._service(scenario)
        assert self._fingerprints(service, scenario.snapshot_date) != (
            self._fingerprints(service, dt.date(2019, 1, 1))
        )
        service.handle_http("/rankings")
        service.handle_http("/rankings?date=2019-01-01")
        described = service.bodies.describe()
        assert described["entries"] == 2
        assert (described["hits"], described["misses"]) == (0, 2)

    def test_equal_fingerprints_share_one_entry(self, scenario):
        # Two dates five days apart on which no license is granted or
        # lapses: the second is a hit, and echoes its own date.
        service, _ = self._service(scenario)
        first, second = dt.date(2018, 2, 6), dt.date(2018, 2, 11)
        assert self._fingerprints(service, first) == self._fingerprints(
            service, second
        )
        _, body1 = service.handle_http(f"/rankings?date={first}")
        status, body2 = service.handle_http(f"/rankings?date={second}")
        assert status == 200
        assert body2 == body1.replace(
            first.isoformat().encode(), second.isoformat().encode()
        )
        assert json.loads(body2)["date"] == second.isoformat()
        described = service.bodies.describe()
        assert described["entries"] == 1
        assert (described["hits"], described["misses"]) == (1, 1)

    def test_signed_zero_coordinates_are_distinct_entries(self, scenario):
        # Validated args compare -0.0 equal to 0.0, but /search echoes the
        # sign: the two must not share an entry.
        service, _ = self._service(scenario)
        _, negative = service.handle_http("/search?lat=-0&radius_m=1")
        _, positive = service.handle_http("/search?lat=0&radius_m=1")
        assert b'"latitude":-0.0,' in negative
        assert b'"latitude":0.0,' in positive
        assert service.bodies.describe()["entries"] == 2

    def test_generation_bump_invalidates_bodies(self, scenario):
        service, database = self._service(scenario)
        service.handle_http("/rankings")
        database.add(
            make_license(license_id="ZZ9003", licensee="Body Cache LLC")
        )
        status, _ = service.handle_http("/rankings")
        assert status == 200
        described = service.bodies.describe()
        assert described["invalidations"] == 1
        assert described["hits"] == 0
        assert described["generation"] == database.generation

    def test_errors_and_live_endpoints_never_cached(self, scenario):
        service, _ = self._service(scenario)
        status, _ = service.handle_http("/rankings?date=nope")
        assert status == 400
        service.handle_http("/rankings?date=nope")
        service.handle_http("/healthz")
        service.handle_http("/stats")
        described = service.bodies.describe()
        assert described["entries"] == 0
        assert described["hits"] == 0

    def test_stats_exposes_body_cache_section(self, serve_service):
        status, payload = serve_service.handle_url("/stats")
        assert status == 200
        assert set(payload["body_cache"]) == {
            "entries",
            "hits",
            "misses",
            "invalidations",
            "generation",
        }
