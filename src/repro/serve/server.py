"""The HTTP adapter: a threaded stdlib server over the query service.

``ThreadingHTTPServer`` gives one handler thread per connection — the
concurrency the facade exists to make safe — with zero dependencies.
Two deliberate deviations from the stdlib defaults:

* ``daemon_threads = False`` + ``block_on_close = True``: closing the
  server *drains* — ``server_close()`` joins every in-flight handler
  thread, so a response that has started is always finished before
  shutdown completes (pinned in ``tests/test_serve_http.py``).
* every response carries ``Connection: close``: keep-alive would let
  idle client sockets hold handler threads open across the drain.

:func:`run_server` is the blocking CLI entry (``hftnetview serve``);
:class:`CorridorServer` is the embeddable/test form (context manager,
ephemeral port).
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.serve.service import CorridorQueryService


class _Handler(BaseHTTPRequestHandler):
    server_version = "hftnetview"
    sys_version = ""

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler hook name)
        status, body = self.server.service.handle_http(self.path)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Connection", "close")
        self.close_connection = True
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: object) -> None:
        # Request logging is the obs layer's job (serve.request spans);
        # the default stderr line per request would swamp test output.
        pass


class _DrainingHTTPServer(ThreadingHTTPServer):
    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True


class CorridorServer:
    """One query service on one listening socket, served from a thread."""

    def __init__(
        self,
        service: CorridorQueryService | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service if service is not None else CorridorQueryService()
        self._httpd = _DrainingHTTPServer((host, port), _Handler)
        self._httpd.service = self.service
        self._thread: threading.Thread | None = None
        self._closed = False

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "CorridorServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                kwargs={"poll_interval": 0.05},
                name="hftnetview-serve",
                daemon=True,
            )
            self._thread.start()
        return self

    def join(self) -> None:
        """Block until the accept loop exits (another thread closing us)."""
        if self._thread is not None:
            self._thread.join()

    def close(self) -> None:
        """Stop accepting, drain in-flight handlers, release the socket."""
        if self._closed:
            return
        self._closed = True
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join()
        # Drained: no handler is in flight, so the warm engine's caches
        # are quiescent — checkpoint them to the persistent store (a
        # no-op without one) so the next boot starts warm.
        self.service.checkpoint()

    def __enter__(self) -> "CorridorServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()


#: The server the blocking entry point is currently running, if any —
#: deliberate session state so signal handlers and tests can reach the
#: live server from outside ``run_server``'s frame.
_ACTIVE_SERVER: CorridorServer | None = None


def active_server() -> CorridorServer | None:
    """The server :func:`run_server` is currently serving (None if idle)."""
    return _ACTIVE_SERVER


def run_server(
    service: CorridorQueryService | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    announce=None,
) -> str:
    """Serve until interrupted (Ctrl-C) or closed from another thread.

    ``announce(url)`` is called once the socket is listening.  Returns
    the served URL after a clean shutdown (every in-flight request
    drained).
    """
    global _ACTIVE_SERVER
    server = CorridorServer(service, host=host, port=port)
    _ACTIVE_SERVER = server
    server.start()
    try:
        # Inside the try: a stop signal can land while the banner prints.
        if announce is not None:
            announce(server.url)
        server.join()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        _ACTIVE_SERVER = None
    return server.url
