"""The HTTP adapter: structured errors on the wire, survival, draining.

Everything here runs against a real listening socket (ephemeral port,
loopback only).  The session-scoped ``serve_server`` fixture carries the
read-only checks; tests that crash handlers or shut servers down build
their own throwaway server so the shared one stays clean.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path
import urllib.error
import urllib.request

import pytest

from repro.core.engine import CorridorEngine
from repro.serve import CorridorQueryService, CorridorServer, active_server
from repro.serve.server import run_server
from repro.serve.service import Endpoint


def _undated(scenario, params):
    """An injected endpoint's validator: no params, no date."""
    return None, (), ()


def http_get(url: str) -> tuple[int, dict, dict]:
    """GET ``url`` -> (status, headers, parsed JSON body); never raises."""
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, dict(response.headers), json.load(response)
    except urllib.error.HTTPError as error:
        body = json.loads(error.read().decode("utf-8"))
        return error.code, dict(error.headers), body


class TestHttpResponses:
    def test_rankings_over_http(self, serve_server, serve_service):
        status, headers, body = http_get(serve_server.url + "/rankings")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert headers["Connection"] == "close"
        _, expected = serve_service.handle_url("/rankings")
        assert body == expected

    def test_content_length_matches_body(self, serve_server):
        with urllib.request.urlopen(serve_server.url + "/healthz") as response:
            raw = response.read()
            assert int(response.headers["Content-Length"]) == len(raw)

    @pytest.mark.parametrize(
        "path, status, code",
        [
            ("/nope", 404, "unknown-endpoint"),
            ("/rankings?date=not-a-date", 400, "bad-date"),
            ("/rankings?bogus=1", 400, "unknown-param"),
            ("/apa?licensee=Nobody", 404, "unknown-licensee"),
            ("/rankings?date=1999-01-01", 400, "date-out-of-range"),
        ],
    )
    def test_structured_4xx_on_the_wire(self, serve_server, path, status, code):
        got, headers, body = http_get(serve_server.url + path)
        assert got == status
        assert headers["Content-Type"] == "application/json"
        assert body["error"]["code"] == code
        assert "Traceback" not in json.dumps(body)

    def test_server_survives_a_sequence_of_faults(self, serve_server):
        for path in ("/nope", "/rankings?date=zzz", "/apa?licensee=Nobody"):
            http_get(serve_server.url + path)
        status, _, body = http_get(serve_server.url + "/healthz")
        assert status == 200
        assert body["status"] == "ok"

    def test_handler_crash_is_a_structured_500(self, scenario, engine):
        service = CorridorQueryService(scenario=scenario, engine=engine)
        service.endpoints["/boom"] = Endpoint(_undated, lambda *_: 1 / 0)
        with CorridorServer(service) as server:
            status, _, body = http_get(server.url + "/boom")
            assert status == 500
            assert body["error"]["code"] == "internal"
            status, _, _ = http_get(server.url + "/healthz")
            assert status == 200


class TestLifecycle:
    def test_graceful_shutdown_drains_in_flight_requests(self, scenario, engine):
        service = CorridorQueryService(scenario=scenario, engine=engine)
        entered = threading.Event()
        release = threading.Event()

        def slow(*_):
            entered.set()
            release.wait(timeout=30)
            return {"slow": "done"}

        service.endpoints["/slow"] = Endpoint(_undated, slow)
        server = CorridorServer(service).start()
        results: list = []
        client = threading.Thread(
            target=lambda: results.append(http_get(server.url + "/slow"))
        )
        client.start()
        assert entered.wait(timeout=30)

        closer = threading.Thread(target=server.close)
        closer.start()
        closer.join(timeout=0.3)
        # close() must still be draining: the in-flight handler is
        # blocked and no response has been produced.
        assert closer.is_alive()
        assert not results

        release.set()
        closer.join(timeout=30)
        client.join(timeout=30)
        assert not closer.is_alive()
        # The drained request completed normally, after shutdown began.
        assert results == [(200, results[0][1], {"slow": "done"})]

    def test_closed_server_refuses_connections(self, scenario, engine):
        service = CorridorQueryService(scenario=scenario, engine=engine)
        server = CorridorServer(service).start()
        url = server.url
        server.close()
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(url + "/healthz", timeout=5)

    def test_close_is_idempotent(self, scenario, engine):
        server = CorridorServer(
            CorridorQueryService(scenario=scenario, engine=engine)
        ).start()
        server.close()
        server.close()

    def test_run_server_blocking_entry(self, scenario, engine):
        service = CorridorQueryService(scenario=scenario, engine=engine)
        announced: list[str] = []
        ready = threading.Event()

        def announce(url: str) -> None:
            announced.append(url)
            ready.set()

        runner = threading.Thread(
            target=run_server, kwargs={"service": service, "announce": announce}
        )
        runner.start()
        assert ready.wait(timeout=30)
        status, _, body = http_get(announced[0] + "/healthz")
        assert (status, body["status"]) == (200, "ok")
        live = active_server()
        assert live is not None and live.url == announced[0]
        live.close()
        runner.join(timeout=30)
        assert not runner.is_alive()
        assert active_server() is None


#: Starts `repro serve` with SIGINT ignored, as a background job of a
#: non-interactive shell inherits it (`exec` keeps the disposition).
IGNORING_SIGINT = (
    "import os, signal, sys; signal.signal(signal.SIGINT, signal.SIG_IGN); "
    "os.execv(sys.executable, [sys.executable, '-m', 'repro', 'serve', "
    "'--port', '0'])"
)


class TestStopSignals:
    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
    def test_serve_drains_and_exits_zero_with_sigint_ignored(self, signum):
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        env.pop("REPRO_CACHE_DIR", None)
        proc = subprocess.Popen(
            [sys.executable, "-c", IGNORING_SIGINT],
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert banner.startswith("serving corridor analytics on "), banner
            url = banner.split()[-1]
            assert http_get(url + "/healthz")[0] == 200
            proc.send_signal(signum)
            assert proc.wait(timeout=10) == 0, proc.stderr.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            proc.stderr.close()


class TestColdMode:
    def test_cold_and_warm_payloads_are_identical(self, scenario, engine):
        warm = CorridorQueryService(scenario=scenario, engine=engine)
        for url in ("/rankings", "/apa", "/map"):
            # A service over a brand-new engine: empty caches, no store.
            cold = CorridorQueryService(
                scenario=scenario,
                engine=CorridorEngine(scenario.database, scenario.corridor),
            )
            assert warm.handle_url(url) == cold.handle_url(url)
