"""Concurrency guarantees of the serve facade over one shared engine.

Four nets, per the serve design (DESIGN.md §13):

* **Single-build coalescing** — N threads barrier-released on the same
  cold (date, params) key observe exactly one ``engine.snapshot.miss``
  build (obs counter), and byte-identical payloads.
* **Thread/serial equivalence** — a hypothesis-driven fleet of random
  timeline/ranking/APA interleavings produces responses element-wise
  identical to a fresh serial engine, and leaves the engine's
  ``CacheStats`` in a state reachable by some serial order (same builds,
  no more lookups).
* **Error coalescing** — followers behind a failing leader get the
  leader's error, and the in-flight slot is released for later requests.
* **Shared fingerprints** — threads asking for different dates with one
  active set coalesce onto one leader, each gets its own date back, and
  the engine builds each snapshot once.
"""

from __future__ import annotations

import datetime as dt
import json
import threading
import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.engine import CorridorEngine
from repro.serve import CorridorQueryService, ServiceError
from repro.serve.payloads import render_payload
from repro.serve.service import Endpoint


def fresh_service(scenario) -> CorridorQueryService:
    engine = CorridorEngine(scenario.database, scenario.corridor)
    return CorridorQueryService(scenario=scenario, engine=engine)


def gate_leader(service, path: str, followers: int) -> None:
    """Hold ``path``'s build until ``followers`` requests coalesced
    behind it, so the single-leader case is deterministic rather than a
    race the fast path usually wins.

    A request keys itself under the engine lock, which the leader holds
    while it builds, so every request first waits at the body cache
    until all of them hold their keys.
    """
    facade = service.facade
    endpoint = service.endpoints[path]
    keyed = threading.Barrier(followers + 1, timeout=10.0)
    get = service.bodies.get

    def gated_get(*args):
        keyed.wait()
        return get(*args)

    service.bodies.get = gated_get

    def gated(*args):
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            with facade._stats_lock:
                if facade._followers >= followers:
                    break
            time.sleep(0.001)
        return endpoint.build(*args)

    service.endpoints[path] = endpoint._replace(build=gated)


def run_threads(service, urls: list[str]) -> list[tuple[int, dict]]:
    """Fire one thread per url, barrier-released; return results in order."""
    barrier = threading.Barrier(len(urls))
    results: list = [None] * len(urls)

    def worker(index: int, url: str) -> None:
        barrier.wait()
        results[index] = service.handle_url(url)

    threads = [
        threading.Thread(target=worker, args=(index, url))
        for index, url in enumerate(urls)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


class TestCoalescingSingleBuild:
    N = 6

    def test_identical_cold_misses_build_once(self, scenario):
        service = fresh_service(scenario)
        facade = service.facade
        url = "/map?date=2018-05-01"

        gate_leader(service, "/map", self.N - 1)

        with obs.capture() as cap:
            results = run_threads(service, [url] * self.N)

        assert {status for status, _ in results} == {200}
        bodies = {render_payload(payload) for _, payload in results}
        assert len(bodies) == 1  # byte-identical payloads for everyone

        counters = cap.counters()
        # Exactly one cold build for N requests.
        assert counters.get("engine.snapshot.miss", 0) == 1
        assert counters.get("serve.coalesce.leader") == 1
        assert counters.get("serve.coalesce.follower") == self.N - 1
        assert counters.get("serve.request.map") == self.N

        stats = facade.describe()
        assert stats["facade"]["requests"] == self.N
        assert stats["facade"]["coalesce_follower"] == self.N - 1

    def test_coalesced_error_reaches_all_followers(self, scenario, engine):
        service = CorridorQueryService(scenario=scenario, engine=engine)
        facade = service.facade
        n = 4

        def failing(*_):
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                with facade._stats_lock:
                    if facade._followers >= n - 1:
                        break
                time.sleep(0.001)
            raise ServiceError(503, "overloaded", "synthetic failure")

        service.endpoints["/fail"] = Endpoint(
            lambda scenario, params: (None, (), ()), failing
        )
        results = run_threads(service, ["/fail"] * n)
        assert [status for status, _ in results] == [503] * n
        assert {payload["error"]["code"] for _, payload in results} == {
            "overloaded"
        }
        # The in-flight slot was released: a later request recomputes
        # (and fails afresh) rather than deadlocking on a dead entry.
        assert not facade._inflight
        status, payload = service.handle_url("/fail")
        assert status == 503


class TestSharedFingerprints:
    #: Six paper2020 dates on which no license is granted or lapses.
    DATES = [f"2018-02-{day:02d}" for day in range(6, 12)]

    def test_each_thread_gets_its_own_date_and_one_build(self, scenario):
        engine = CorridorEngine(scenario.database, scenario.corridor)
        names = scenario.database.licensee_names()
        fingerprints = {
            tuple(
                engine.active_fingerprint(name, dt.date.fromisoformat(date))
                for name in names
            )
            for date in self.DATES
        }
        assert len(fingerprints) == 1
        service = CorridorQueryService(scenario=scenario, engine=engine)
        urls = [f"/rankings?date={date}" for date in self.DATES]
        gate_leader(service, "/rankings", len(urls) - 1)
        barrier = threading.Barrier(len(urls))
        bodies: list = [None] * len(urls)

        def worker(index: int) -> None:
            barrier.wait()
            bodies[index] = service.handle_http(urls[index])

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(len(urls))
        ]
        with obs.capture() as cap:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        # One key for every date: one leader builds, the rest follow.
        counters = cap.counters()
        assert counters.get("serve.coalesce.leader") == 1
        assert counters.get("serve.coalesce.follower") == len(urls) - 1
        payloads = [json.loads(body) for _, body in bodies]
        assert {status for status, _ in bodies} == {200}
        assert [payload.pop("date") for payload in payloads] == self.DATES
        assert all(payload == payloads[0] for payload in payloads)
        # Every snapshot was built once: as many as one date alone needs.
        serial = fresh_service(scenario)
        serial.handle_http(urls[0])
        assert (
            engine.stats.snapshot.misses
            == serial.facade.engine.stats.snapshot.misses
        )


REQUEST_POOL = (
    "/rankings?date=2016-06-01",
    "/rankings?date=2019-01-01",
    "/apa",
    "/apa?date=2017-03-01",
    "/timeline?licensee=New%20Line%20Networks",
    "/timeline?licensee=Webline%20Holdings",
)


class TestThreadedMatchesSerial:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        picks=st.lists(
            st.integers(min_value=0, max_value=len(REQUEST_POOL) - 1),
            min_size=1,
            max_size=6,
        )
    )
    def test_random_interleavings_are_serializable(self, scenario, picks):
        urls = [REQUEST_POOL[i] for i in picks]

        threaded = fresh_service(scenario)
        threaded_results = run_threads(threaded, urls)

        serial = fresh_service(scenario)
        serial_results = [serial.handle_url(url) for url in urls]

        # Element-wise identical responses, byte for byte.
        for (t_status, t_payload), (s_status, s_payload) in zip(
            threaded_results, serial_results
        ):
            assert t_status == s_status == 200
            assert render_payload(t_payload) == render_payload(s_payload)

        # CacheStats lands in a state reachable by some serial order:
        # the same set of snapshots was built (misses and final cache
        # size are order-invariant), and coalescing may only have
        # *removed* lookups relative to the serial replay.
        t_stats = threaded.facade.engine.stats
        s_stats = serial.facade.engine.stats
        assert t_stats.snapshot.misses == s_stats.snapshot.misses
        assert t_stats.snapshot.size == s_stats.snapshot.size
        assert t_stats.snapshot.lookups <= s_stats.snapshot.lookups
