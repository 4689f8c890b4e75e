"""Tests for :func:`repro.parallel.pmap`, the ordered thread-backed map.

``pmap(fn, items, jobs)`` must return exactly ``[fn(item) for item in
items]`` at any width, with at most ``jobs`` calls in flight at once.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import obs
from repro.parallel import pmap


def _square(x: int) -> int:
    return x * x


class _InFlight:
    """A task that records how many calls overlap it."""

    def __init__(self, hold_s: float = 0.1) -> None:
        self.hold_s = hold_s
        self.current = 0
        self.peak = 0
        self._lock = threading.Lock()

    def __call__(self, item: int) -> int:
        with self._lock:
            self.current += 1
            self.peak = max(self.peak, self.current)
        time.sleep(self.hold_s)
        with self._lock:
            self.current -= 1
        return item


class TestPmapLocal:
    def test_serial_matches_list_comprehension(self):
        items = list(range(10))
        assert pmap(_square, items, jobs=1) == [x * x for x in items]

    def test_inline_preserves_submission_order(self):
        items = list(range(11))
        assert pmap(_square, items, jobs=3) == [x * x for x in items]

    def test_empty_items(self):
        assert pmap(_square, [], jobs=4) == []

    def test_task_counter_and_spans_under_obs(self):
        with obs.capture() as cap:
            pmap(_square, list(range(5)), jobs=2)
        assert cap.counters().get("parallel.tasks") == 5
        names = [record.name for record in cap.spans]
        assert names.count("parallel.task") == 5
        assert "parallel.map" in names

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            pmap(_square, [1], jobs=0)


class TestPmapThreads:
    """Widths above one run the calls on threads of this process."""

    def test_results_match_serial_and_keep_order(self):
        # Early items sleep longest, so they finish last.
        items = list(range(9))

        def slow_first(x):
            time.sleep((len(items) - x) * 0.005)
            return x * x

        assert pmap(slow_first, items, jobs=3) == [x * x for x in items]

    def test_builtin_task_without_context(self):
        words = ["alpha", "beta", "gamma"]
        assert pmap(str.upper, words, jobs=2) == ["ALPHA", "BETA", "GAMMA"]

    def test_worker_metrics_merge_into_parent_registry(self):
        with obs.capture() as cap:
            pmap(_square, list(range(6)), jobs=2)
        # The pool threads count into the caller's session registry.
        assert cap.counters().get("parallel.tasks") == 6

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_at_most_jobs_calls_in_flight(self, jobs):
        task = _InFlight()
        items = list(range(2 * jobs))
        assert pmap(task, items, jobs=jobs) == items
        assert task.peak == jobs

    def test_first_error_propagates(self):
        def boom(x):
            if x == 3:
                raise KeyError(x)
            return x

        with pytest.raises(KeyError):
            pmap(boom, list(range(6)), jobs=2)
