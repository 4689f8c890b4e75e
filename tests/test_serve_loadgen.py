"""The load harness: seeded mixes, percentile maths, the client fleet
(:func:`_fetch_all`, the one thread pool) and live reports."""

from __future__ import annotations

import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.serve import loadgen
from repro.serve.loadgen import (
    DEFAULT_PATHS,
    LoadProfile,
    _fetch_all,
    percentile,
    request_sequence,
    run_load,
)


class TestRequestSequence:
    def test_seeded_and_reproducible(self):
        profile = LoadProfile(requests=50, seed=7)
        assert request_sequence(profile) == request_sequence(profile)

    def test_different_seed_different_mix(self):
        base = LoadProfile(requests=50, seed=7)
        other = LoadProfile(requests=50, seed=8)
        assert request_sequence(base) != request_sequence(other)

    def test_draws_from_profile_paths(self):
        profile = LoadProfile(requests=200, paths=("/a", "/b"), seed=1)
        assert set(request_sequence(profile)) == {"/a", "/b"}

    def test_default_mix_covers_every_endpoint(self):
        endpoints = {path.split("?")[0] for path in DEFAULT_PATHS}
        assert endpoints == {"/rankings", "/apa", "/timeline", "/search", "/map"}


class TestPercentile:
    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0.50) == 51.0
        assert percentile(values, 0.99) == 99.0
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 100.0

    def test_singleton(self):
        assert percentile([42.0], 0.99) == 42.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)


class TestRunLoad:
    def test_load_against_live_server(self, serve_server):
        profile = LoadProfile(requests=20, clients=2, seed=3)
        report = run_load(serve_server.url, profile)
        assert report.requests == 20
        assert report.clients == 2
        assert report.errors == 0
        assert report.qps > 0
        assert 0 < report.p50_ms <= report.p99_ms
        assert "20 requests" in report.describe()

    def test_non_200_counts_as_error(self, serve_server):
        profile = LoadProfile(
            requests=10, clients=1, paths=("/healthz", "/nope"), seed=5
        )
        expected_errors = sum(
            1 for path in request_sequence(profile) if path == "/nope"
        )
        report = run_load(serve_server.url, profile)
        assert report.errors == expected_errors > 0


class _EchoServer:
    """A local server that answers 200 after a per-path delay and records
    the most requests it ever held at once."""

    def __init__(self) -> None:
        self.in_flight = 0
        self.peak = 0
        lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                with lock:
                    outer.in_flight += 1
                    outer.peak = max(outer.peak, outer.in_flight)
                # "/d<ms>" sleeps that long, so early requests can end last.
                time.sleep(int(self.path.lstrip("/d")) / 1000.0)
                with lock:
                    outer.in_flight -= 1
                self.send_response(200)
                self.send_header("Content-Length", "0")
                self.end_headers()

            def log_message(self, *args):
                pass

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.httpd.server_address[1]}"
        self.thread = threading.Thread(target=self.httpd.serve_forever)

    def __enter__(self) -> "_EchoServer":
        self.thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(timeout=10)


class TestClientFleet:
    # Early requests sleep longest, so they end last: samples still come
    # back in request order.
    @pytest.mark.parametrize("clients", [1, 3])
    def test_samples_in_request_order_with_clients_in_flight(self, clients):
        paths = [f"/d{delay}" for delay in (120, 80, 40, 0, 120, 80, 40, 0, 60)]
        with _EchoServer() as server:
            samples = _fetch_all(
                [(server.url, path) for path in paths], clients
            )
            assert server.peak == clients
        assert [sample.path for sample in samples] == paths
        assert all(sample.status == 200 for sample in samples)

    def test_run_load_keeps_clients_requests_in_flight(self):
        profile = LoadProfile(
            requests=12, clients=4, paths=("/d50", "/d100"), seed=2
        )
        with _EchoServer() as server:
            report = run_load(server.url, profile)
            assert server.peak == 4
        assert report.requests == 12
        assert report.errors == 0

    def test_empty_mix_sends_nothing(self):
        assert _fetch_all([], 4) == []

    def test_zero_clients_rejected(self):
        with pytest.raises(ValueError):
            _fetch_all([("http://127.0.0.1:1", "/")], 0)

    def test_first_error_in_request_order_propagates(self, monkeypatch):
        # Request 1 fails last and request 3 first; the fleet re-raises
        # request 1's error, as a serial loop would.
        def fetch(item):
            _, path = item
            if path == "/1":
                time.sleep(0.05)
                raise KeyError(path)
            if path == "/3":
                raise ValueError(path)
            return path

        monkeypatch.setattr(loadgen, "_fetch", fetch)
        items = [("http://unused", f"/{index}") for index in range(6)]
        with pytest.raises(KeyError):
            _fetch_all(items, 2)
