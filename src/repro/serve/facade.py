"""The concurrency-safe facade in front of one shared warm engine.

A :class:`~repro.core.engine.CorridorEngine` is a nest of LRU dicts
and counters with no internal synchronisation — correct for the
one-shot CLI drivers, fatal under a threaded server.  The facade makes
one engine safe to share:

* **Lock-scoped resolution** — every computation that may touch engine
  state runs under the engine's reentrant lock
  (:meth:`CorridorEngine.locked`), so snapshot resolution, route
  lookups and cache eviction are serialised exactly as in a
  single-threaded driver.
* **Request coalescing** — in-flight requests with one key (the
  service passes its body-cache key) collapse onto one computation.
  The first arrival becomes the *leader* and computes under the engine
  lock; later arrivals become *followers*, wait on an event, and
  receive the leader's result (or its error) without touching the
  engine.  N concurrent identical cache misses therefore trigger
  exactly one cold build (``engine.snapshot.miss`` increments once —
  pinned in ``tests/test_serve_concurrency.py``).

The facade also keeps always-on service counters (requests, coalesce
leader/follower splits, errors, peak concurrency) independent of any
``repro.obs`` session, so ``/stats`` is meaningful without ``--trace``.
"""

from __future__ import annotations

import threading

from repro import obs
from repro.core.engine import CorridorEngine


class _Inflight:
    """One in-flight computation: the leader's result, or its error."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: object | None = None
        self.error: BaseException | None = None


class EngineFacade:
    """Serialise and coalesce concurrent queries against one engine."""

    def __init__(self, engine: CorridorEngine) -> None:
        self.engine = engine
        self._inflight: dict[object, _Inflight] = {}
        self._inflight_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._requests = 0
        self._errors = 0
        self._leaders = 0
        self._followers = 0
        self._active = 0
        self._peak_active = 0

    # ------------------------------------------------------------------
    # Coalesced execution
    # ------------------------------------------------------------------

    def coalesced(self, key: object, compute):
        """Run ``compute()`` under the engine lock, merging duplicates.

        All concurrent callers presenting the same ``key`` share one
        ``compute()`` invocation; every caller gets the identical return
        value, so it should be immutable (the service's is a pair of
        ``bytes``).  If the leader raises, followers re-raise the same
        exception object.
        """
        with self._inflight_lock:
            entry = self._inflight.get(key)
            if entry is None:
                entry = _Inflight()
                self._inflight[key] = entry
                leader = True
            else:
                leader = False

        if not leader:
            with self._stats_lock:
                self._followers += 1
            obs.count("serve.coalesce.follower")
            entry.event.wait()
            if entry.error is not None:
                raise entry.error
            return entry.value

        with self._stats_lock:
            self._leaders += 1
        obs.count("serve.coalesce.leader")
        try:
            with self.engine.locked():
                entry.value = compute()
        except BaseException as error:  # lint: disable=broad-except (leader must hand *any* failure to its waiting followers before re-raising, or they would recompute what just failed)
            entry.error = error
            raise
        finally:
            # Unregister *before* waking followers: a request arriving
            # after this point starts a fresh computation (served warm
            # from the engine's caches) instead of adopting a completed
            # entry.
            with self._inflight_lock:
                self._inflight.pop(key, None)
            entry.event.set()
        return entry.value

    # ------------------------------------------------------------------
    # Service counters
    # ------------------------------------------------------------------

    def enter_request(self) -> None:
        with self._stats_lock:
            self._requests += 1
            self._active += 1
            if self._active > self._peak_active:
                self._peak_active = self._active

    def exit_request(self) -> None:
        with self._stats_lock:
            self._active -= 1

    def note_error(self) -> None:
        with self._stats_lock:
            self._errors += 1
        obs.count("serve.error")

    def describe(self) -> dict:
        """The facade's counters plus the engine's cache statistics."""
        with self._stats_lock:
            counters = {
                "requests": self._requests,
                "errors": self._errors,
                "coalesce_leader": self._leaders,
                "coalesce_follower": self._followers,
                "in_flight": self._active,
                "peak_in_flight": self._peak_active,
            }
        with self.engine.locked():
            stats = self.engine.stats
        described = {
            "facade": counters,
            "engine": {
                "snapshot_hits": stats.snapshot.hits,
                "snapshot_misses": stats.snapshot.misses,
                "route_hits": stats.route.hits,
                "route_misses": stats.route.misses,
                "apa_hits": stats.apa.hits,
                "apa_misses": stats.apa.misses,
            },
        }
        store = self.engine.store
        if store is not None:
            described["store"] = store.counters()
        return described
