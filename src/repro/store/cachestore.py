"""The persistent cache store: disk-backed warm starts.

:class:`CacheStore` persists three kinds of entry under
content-addressed fingerprints (:mod:`repro.store.fingerprint`):

* **engine** entries — an engine's :class:`~repro.core.engine
  .EngineCacheExport` (snapshot, route and APA caches, geodesic memo), so
  a cold process (a CLI driver or a restarted server) starts from the
  previous run's warm state instead of rebuilding it.  Each snapshot,
  route and APA value is pickled on its own inside the one entry file and
  seeded as an :class:`~repro.core.engine.EncodedValue`, so a command
  unpickles only what it reads;
* **scenario** entries — opaque bytes a higher tier hands in
  (:meth:`load_entry` / :meth:`save_entry`): the scenario registry
  stores pickled, built scenarios there, so a warm run skips
  synthesis;
* **scrape** entries — opaque bytes too: the §2.2 funnel stores its
  scraper's parsed portal pages (detail records and name-search
  results, behind a CRC-32), so a warm funnel fetches no page it read
  before.  It saves only when the scraper parsed a page the entry
  lacked.

The store never imports the tiers above it.

Every entry file is one pickled envelope ``{"schema", "fingerprint",
"kind", "body"}``, published atomically by :mod:`repro.store.layout`.

Failure discipline: the store **never makes an answer wrong and never
crashes a driver**.  Unreadable or undecodable entries are quarantined
and treated as misses; entries whose envelope (schema / fingerprint /
kind) does not match are stale misses; every error path degrades to a
cold start that produces byte-identical output anyway.
"""

from __future__ import annotations

import pickle
import threading
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import TypeVar

from repro import obs
from repro.core.engine import EncodedValue, EngineCacheExport
from repro.store.fingerprint import STORE_SCHEMA_VERSION, store_fingerprint
from repro.store.layout import (
    default_cache_dir,
    list_entries,
    orphaned_entries,
    quarantine_entry,
    read_entry,
    touch_entry,
    write_entry,
)

_T = TypeVar("_T")


@dataclass(frozen=True)
class StoreEntry:
    """One published entry, as reported by :meth:`CacheStore.stat`."""

    fingerprint: str
    path: Path
    size_bytes: int
    mtime_s: float


def _described(paths) -> tuple[StoreEntry, ...]:
    """A :class:`StoreEntry` per entry file still present."""
    entries = []
    for path in paths:
        try:
            info = path.stat()
        except OSError:
            continue
        entries.append(
            StoreEntry(
                fingerprint=path.stem,
                path=path,
                size_bytes=info.st_size,
                mtime_s=info.st_mtime,
            )
        )
    return tuple(entries)


class _StaleEntry(Exception):
    """A well-formed entry whose envelope does not match the request."""


def _encode_values(pairs) -> tuple:
    """``(key, bytes, crc)`` per value, reusing the bytes of any value
    still encoded (never looked up since it was seeded)."""
    encoded = []
    for key, value in pairs:
        if type(value) is not EncodedValue:
            value = EncodedValue.encode(value)
        encoded.append((key, value.data, value.crc))
    return tuple(encoded)


def _decode_values(triples) -> tuple:
    return tuple((key, EncodedValue(data, crc)) for key, data, crc in triples)


def _encode_export(export: EngineCacheExport) -> tuple:
    """An engine entry's body: keys and geodesic memo pickled in place,
    each snapshot, route and APA value as its own checksummed pickle."""
    return (
        export.params_key,
        _encode_values(export.snapshots),
        _encode_values(export.routes),
        _encode_values(export.apa),
        export.geodesic,
    )


def _decode_export(body: tuple) -> EngineCacheExport:
    """The export an engine body holds, values left as placeholders."""
    params_key, snapshots, routes, apa, geodesic = body
    return EngineCacheExport(
        params_key=params_key,
        snapshots=_decode_values(snapshots),
        routes=_decode_values(routes),
        apa=_decode_values(apa),
        geodesic=geodesic,
    )


class CacheStore:
    """A content-addressed on-disk store of engine, scenario and scrape
    entries.

    Parameters
    ----------
    cache_dir:
        Store root.  ``None`` resolves ``$REPRO_CACHE_DIR``, then
        ``$XDG_CACHE_HOME/repro``, then ``~/.cache/repro``.

    Attachment is explicit: :meth:`attach` is the only code that gives an
    engine a store.  It registers the engine for :meth:`checkpoint_all`
    and immediately loads a matching entry if one exists;
    :meth:`detach_all` hands every engine back store-less, so no engine
    outlives its command still writing here; :meth:`detach` does so for
    one engine (the server drops a hosted scenario's engine this way).
    The CLI builds one store per command and attaches scenario default
    engines through :func:`repro.scenarios.resolve_scenario`.
    """

    def __init__(self, cache_dir: "Path | str | None" = None) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.loads = 0
        self.hits = 0
        self.misses = 0
        self.saves = 0
        self.corrupt = 0
        self.stale = 0
        self._engines: list = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------

    def fingerprint_for(self, engine) -> str:
        """The entry key for an engine's (database, params)."""
        return store_fingerprint(
            engine.database.content_digest(), engine.params_key
        )

    # ------------------------------------------------------------------
    # Engine attachment
    # ------------------------------------------------------------------

    def attach(self, engine):
        """Register ``engine`` for checkpointing and warm it; returns it.

        Idempotent: attaching an engine this store already holds neither
        registers nor loads it again.
        """
        with self._lock:
            if engine.store is self:
                return engine
            self._engines.append(engine)
            engine.store = self
        self.load_into(engine)
        return engine

    def detach(self, engine) -> None:
        """Unregister ``engine`` and clear its ``store``; a no-op for an
        engine this store does not hold."""
        with self._lock:
            self._engines = [held for held in self._engines if held is not engine]
            if engine.store is self:
                engine.store = None

    def detach_all(self) -> None:
        """Unregister every attached engine and clear its ``store``."""
        with self._lock:
            for engine in self._engines:
                if engine.store is self:
                    engine.store = None
            self._engines.clear()

    def engines(self) -> tuple:
        """Engines attached to this store, in attachment order."""
        with self._lock:
            return tuple(self._engines)

    def load_into(self, engine) -> bool:
        """Seed ``engine`` from its matching entry; ``False`` on any miss.

        A miss seeds nothing but still re-bases the engine's dirty flag
        on this store: an engine that already holds entries will publish
        them at its next checkpoint.
        """
        export = self.load_export(self.fingerprint_for(engine))
        hit = export is not None and export.params_key == engine.params_key
        if not hit:
            export = EngineCacheExport(engine.params_key, (), (), (), ())
        # A re-attached engine may be serving requests meanwhile.
        with engine.locked():
            engine.seed_cache_state(export)
        return hit

    def save_from(self, engine) -> Path:
        """Publish ``engine``'s current cache contents as its entry.

        Callers that may race with other threads should go through
        :meth:`~repro.core.engine.CorridorEngine.checkpoint`, which holds
        the engine lock across the export.
        """
        return self.save_entry(
            self.fingerprint_for(engine),
            "engine",
            lambda: _encode_export(engine.export_cache_state()),
        )

    def checkpoint_all(self) -> int:
        """Checkpoint every attached engine; returns how many saved.

        Engines that learned nothing since they were attached save
        nothing.
        """
        saved = 0
        for engine in self.engines():
            if engine.checkpoint() is not None:
                saved += 1
        return saved

    # ------------------------------------------------------------------
    # Entry access
    # ------------------------------------------------------------------

    def load_export(self, fingerprint: str) -> EngineCacheExport | None:
        """The engine export stored under ``fingerprint``, or ``None``.

        Snapshot, route and APA values come back as
        :class:`~repro.core.engine.EncodedValue` placeholders.
        """
        return self.load_entry(fingerprint, "engine", _decode_export)

    def load_entry(
        self, fingerprint: str, kind: str, decode: Callable[[object], _T]
    ) -> _T | None:
        """``decode(body)`` of the ``kind`` entry under ``fingerprint``.

        ``body`` is what the publishing :meth:`save_entry`'s ``encode``
        returned; callers above the store (the scenario registry) pass
        opaque pickled bytes.  Reading, unpickling and ``decode`` all run
        inside the ``store.load`` span.  Misses are silent; corrupt
        entries (unreadable pickles, bodies ``decode`` raises on) are
        quarantined and counted; well-formed pickles with a mismatched
        envelope (schema bump, foreign fingerprint, other kind) are
        *stale* misses left in place for ``cache gc`` to age out.  A hit
        refreshes the entry's mtime, so gc sees it as recently used.
        """
        self._count("loads", "store.load")
        with obs.span(
            "store.load", kind=kind, fingerprint=fingerprint[:12]
        ) as span:
            data = read_entry(self.cache_dir, fingerprint)
            outcome, value = "miss", None
            if data is not None:
                try:
                    payload = pickle.loads(data)
                    value = decode(self._body(payload, fingerprint, kind))
                    outcome = "hit"
                except _StaleEntry:
                    outcome = "stale"
                except Exception:  # lint: disable=broad-except (unpickling an arbitrary corrupt file can raise nearly anything; the contract is quarantine-and-go-cold, never crash the driver)
                    quarantine_entry(self.cache_dir, fingerprint)
                    outcome = "corrupt"
            span.tag(outcome=outcome)
        if outcome == "hit":
            touch_entry(self.cache_dir, fingerprint)
            self._count("hits", "store.hit")
            return value
        if outcome != "miss":
            self._count(outcome, f"store.{outcome}")
        self._count("misses", "store.miss")
        return None

    @staticmethod
    def _body(payload: object, fingerprint: str, kind: str) -> object:
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != STORE_SCHEMA_VERSION
            or payload.get("fingerprint") != fingerprint
            or payload.get("kind") != kind
        ):
            raise _StaleEntry(fingerprint)
        return payload["body"]

    def save_entry(
        self, fingerprint: str, kind: str, encode: Callable[[], object]
    ) -> Path:
        """Publish ``encode()`` as the body of the ``kind`` entry
        ``fingerprint``; encoding and pickling run inside the
        ``store.save`` span."""
        with obs.span(
            "store.save", kind=kind, fingerprint=fingerprint[:12]
        ) as span:
            payload = pickle.dumps(
                {
                    "schema": STORE_SCHEMA_VERSION,
                    "fingerprint": fingerprint,
                    "kind": kind,
                    "body": encode(),
                },
                protocol=4,
            )
            span.tag(bytes=len(payload))
            path = write_entry(self.cache_dir, fingerprint, payload)
        self._count("saves", "store.save")
        return path

    def _count(self, counter: str, metric: str) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)
        obs.count(metric)

    # ------------------------------------------------------------------
    # Maintenance (cache stat / gc / clear)
    # ------------------------------------------------------------------

    def stat(self) -> tuple[StoreEntry, ...]:
        """Published entries with sizes and mtimes, sorted by fingerprint."""
        return _described(list_entries(self.cache_dir))

    def _orphans(self) -> tuple[StoreEntry, ...]:
        """Entries of other schema versions, which no load ever reads."""
        return _described(orphaned_entries(self.cache_dir))

    def gc(
        self,
        max_bytes: int | None = None,
        max_age_s: float | None = None,
        now_s: float | None = None,
    ) -> tuple[StoreEntry, ...]:
        """Remove entries beyond a size or age bound; returns the removed.

        Entries of other schema versions are always removed: no load
        reads them.  Age is mtime, which every write and every hit
        refreshes.
        ``max_bytes`` keeps the newest entries whose cumulative size fits
        the bound; ``max_age_s`` removes entries older than the bound
        relative to ``now_s``.  The store never reads the wall clock
        itself — the one ``time.time()`` call lives in the CLI, behind an
        explicit lint pragma — so ``max_age_s`` requires ``now_s``.
        """
        if max_age_s is not None and now_s is None:
            raise ValueError("max_age_s requires now_s")
        removed: dict[str, StoreEntry] = {}
        entries = sorted(self.stat(), key=lambda e: e.mtime_s, reverse=True)
        if max_age_s is not None:
            for entry in entries:
                if now_s - entry.mtime_s > max_age_s:
                    removed[entry.fingerprint] = entry
        if max_bytes is not None:
            kept_bytes = 0
            for entry in entries:
                if entry.fingerprint in removed:
                    continue
                if kept_bytes + entry.size_bytes > max_bytes:
                    removed[entry.fingerprint] = entry
                else:
                    kept_bytes += entry.size_bytes
        doomed = (*self._orphans(), *removed.values())
        for entry in doomed:
            try:
                entry.path.unlink()
            except OSError:
                pass
        return tuple(sorted(doomed, key=lambda e: e.fingerprint))

    def clear(self) -> int:
        """Remove every entry (quarantine included); returns the count.

        Only counts published entries, those of other schema versions
        included; quarantined and stale temp files are swept as a side
        effect.
        """
        count = 0
        for entry in (*self._orphans(), *self.stat()):
            try:
                entry.path.unlink()
            except OSError:
                continue
            count += 1
        for extra in self._sweepable():
            try:
                extra.unlink()
            except OSError:
                pass
        return count

    def _sweepable(self) -> list[Path]:
        """Quarantined entries and abandoned temp files."""
        from repro.store.layout import entry_dir, quarantine_dir

        paths: list[Path] = []
        qdir = quarantine_dir(self.cache_dir)
        try:
            paths.extend(sorted(p for p in qdir.iterdir() if p.is_file()))
        except OSError:
            pass
        try:
            children = sorted(entry_dir(self.cache_dir).iterdir())
        except OSError:
            children = []
        paths.extend(
            p for p in children if p.is_file() and p.name.startswith(".tmp-")
        )
        return paths

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Lifetime load/save activity, for ``/stats`` and ``cache stat``."""
        with self._lock:
            return {
                "loads": self.loads,
                "hits": self.hits,
                "misses": self.misses,
                "saves": self.saves,
                "corrupt": self.corrupt,
                "stale": self.stale,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CacheStore({str(self.cache_dir)!r})"
