"""Tests for the pool behind loadgen's client fleet,
:func:`repro.serve.loadgen._fetch_all`, with ``_fetch`` stubbed out so no
socket opens.

``_fetch_all(items, clients)`` must return exactly ``[_fetch(item) for
item in items]`` at any width, with at most ``clients`` calls in flight
at once.  ``tests/test_serve_loadgen.py`` runs the same pool against a
live echo server.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.serve import loadgen
from repro.serve.loadgen import _fetch_all


def _items(count: int) -> list[tuple[str, str]]:
    return [("http://unused", f"/{index}") for index in range(count)]


def _square(item: tuple[str, str]) -> int:
    index = int(item[1][1:])
    return index * index


class _InFlight:
    """A fetch that records how many calls overlap it."""

    def __init__(self, hold_s: float = 0.05) -> None:
        self.hold_s = hold_s
        self.current = 0
        self.peak = 0
        self._lock = threading.Lock()

    def __call__(self, item: tuple[str, str]) -> str:
        with self._lock:
            self.current += 1
            self.peak = max(self.peak, self.current)
        time.sleep(self.hold_s)
        with self._lock:
            self.current -= 1
        return item[1]


# The class names are those of the generic ordered map this pool
# replaced; the ids are kept so the cases stay traceable.
class TestPmapLocal:
    def test_serial_matches_list_comprehension(self, monkeypatch):
        monkeypatch.setattr(loadgen, "_fetch", _square)
        assert _fetch_all(_items(10), 1) == [x * x for x in range(10)]

    def test_inline_preserves_submission_order(self, monkeypatch):
        monkeypatch.setattr(loadgen, "_fetch", _square)
        assert _fetch_all(_items(11), 3) == [x * x for x in range(11)]


class TestPmapThreads:
    """Widths above one run the calls on threads of this process."""

    def test_results_match_serial_and_keep_order(self, monkeypatch):
        # Early items sleep longest, so they finish last.
        count = 9

        def slow_first(item):
            time.sleep((count - int(item[1][1:])) * 0.005)
            return _square(item)

        monkeypatch.setattr(loadgen, "_fetch", slow_first)
        assert _fetch_all(_items(count), 3) == [x * x for x in range(count)]

    @pytest.mark.parametrize("clients", [1, 2, 4])
    def test_at_most_jobs_calls_in_flight(self, clients, monkeypatch):
        fetch = _InFlight()
        monkeypatch.setattr(loadgen, "_fetch", fetch)
        items = _items(2 * clients)
        assert _fetch_all(items, clients) == [path for _, path in items]
        assert fetch.peak == clients
