"""Tests for the deterministic fan-out executor (repro.parallel.executor).

The executor has two modes: in-process (``jobs == 1`` or one usable CPU)
and a spawn pool.  Tests pick the mode on any host by patching
``usable_cpu_count``: ``one_cpu`` forces the in-process loop at any
width, ``two_cpus`` forces the pool, so the spawn transport (pickling of
tasks, contexts, and chunk extras) is exercised regardless of the
machine the suite runs on.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.parallel import (
    ContextSpec,
    ParallelMap,
    chunk_spans,
    executor,
    pmap,
    resolve_backend,
    usable_cpu_count,
)


@pytest.fixture
def one_cpu(monkeypatch):
    monkeypatch.setattr(executor, "usable_cpu_count", lambda: 1)


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(executor, "usable_cpu_count", lambda: 2)


# -- module-level task/context functions (picklable by reference, as the
# -- process backend requires) ------------------------------------------

def _square(x: int) -> int:
    return x * x


def _ctx_task(ctx, item):
    return (ctx.tag, item)


class _Recorder:
    """A context that records the begin_chunk protocol."""

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self.chunks: list[int] = []

    def begin_chunk(self, worker: int) -> None:
        self.chunks.append(worker)


def _make_recorder(tag: str) -> _Recorder:
    return _Recorder(tag)


def _finalize_tag(ctx) -> str:
    return ctx.tag


def _last_chunk_task(ctx, item):
    return ctx.chunks[-1]


class TestChunkSpans:
    def test_even_split(self):
        assert chunk_spans(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_remainder_goes_to_first_chunks(self):
        assert chunk_spans(10, 4) == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_fewer_items_than_jobs_drops_empty_chunks(self):
        assert chunk_spans(2, 4) == [(0, 1), (1, 2)]

    def test_zero_items(self):
        assert chunk_spans(0, 4) == []

    def test_single_job_is_one_span(self):
        assert chunk_spans(7, 1) == [(0, 7)]

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            chunk_spans(5, 0)

    @pytest.mark.parametrize("n,jobs", [(1, 1), (5, 2), (7, 3), (16, 5), (3, 8)])
    def test_spans_are_contiguous_balanced_and_cover(self, n, jobs):
        spans = chunk_spans(n, jobs)
        # Contiguous cover of [0, n).
        assert spans[0][0] == 0 and spans[-1][1] == n
        for (_, stop), (start, _) in zip(spans, spans[1:]):
            assert stop == start
        # Balanced: chunk sizes differ by at most one.
        sizes = [stop - start for start, stop in spans]
        assert max(sizes) - min(sizes) <= 1


class TestResolveBackend:
    def test_jobs_one_is_always_serial(self, two_cpus):
        assert resolve_backend(1) == "serial"
        assert ParallelMap(1).backend == "serial"

    def test_auto_matches_machine(self):
        expected = "process" if usable_cpu_count() > 1 else "serial"
        assert resolve_backend(4) == expected
        assert ParallelMap(4).backend == expected

    def test_one_cpu_runs_any_width_in_process(self, one_cpu):
        assert resolve_backend(4) == "serial"

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            resolve_backend(0)
        with pytest.raises(ValueError):
            ParallelMap(-2)


class TestPmapLocal:
    """The in-process loop, forced at widths above one (``one_cpu``), and
    the per-chunk context hooks (``begin_chunk``, ``finalize``)."""

    def test_serial_matches_list_comprehension(self):
        items = list(range(10))
        assert pmap(_square, items, jobs=1) == [x * x for x in items]

    def test_inline_preserves_submission_order(self, one_cpu):
        items = list(range(11))
        assert pmap(_square, items, jobs=3) == [x * x for x in items]

    def test_empty_items(self, one_cpu):
        assert pmap(_square, [], jobs=4) == []

    def test_context_tasks_receive_context(self, one_cpu):
        spec = ContextSpec(_make_recorder, ("w",))
        results = pmap(_ctx_task, [1, 2, 3], jobs=2, context=spec)
        assert results == [("w", 1), ("w", 2), ("w", 3)]

    def test_in_process_run_is_one_chunk_as_worker_zero(self, one_cpu):
        recorder = _Recorder("r")
        with ParallelMap(2, local_context=recorder) as executor_:
            executor_.map(_ctx_task, list(range(4)))
        assert recorder.chunks == [0]

    def test_local_context_is_built_once_and_reused(self, one_cpu):
        spec = ContextSpec(_make_recorder, ("once",))
        with ParallelMap(2, context=spec) as executor_:
            executor_.map(_ctx_task, [1, 2])
            executor_.map(_ctx_task, [3, 4])
            recorder = executor_._local()
        # One recorder saw both map calls.
        assert recorder.chunks == [0, 0]

    def test_in_process_run_skips_finalize(self, one_cpu):
        collected: list = []
        recorder = _Recorder("tag")
        with ParallelMap(3, local_context=recorder) as executor_:
            executor_.map(
                _ctx_task,
                list(range(6)),
                finalize=_finalize_tag,
                on_chunk_result=lambda worker, extra: collected.append(extra),
            )
        # The tasks ran against the caller's own context: nothing to
        # bring home.
        assert collected == []

    def test_begin_chunk_reports_dense_worker_ids(self, two_cpus):
        spec = ContextSpec(_make_recorder, ("r",))
        with ParallelMap(2, context=spec) as executor_:
            assert executor_.backend == "process"
            workers = executor_.map(_last_chunk_task, list(range(4)))
        assert workers == [0, 0, 1, 1]

    def test_finalize_and_on_chunk_result_run_in_chunk_order(self, two_cpus):
        collected: list[tuple[int, str]] = []
        spec = ContextSpec(_make_recorder, ("tag",))
        with ParallelMap(3, context=spec) as executor_:
            executor_.map(
                _ctx_task,
                list(range(6)),
                finalize=_finalize_tag,
                on_chunk_result=lambda worker, extra: collected.append(
                    (worker, extra)
                ),
            )
        assert collected == [(0, "tag"), (1, "tag"), (2, "tag")]

    def test_task_counter_and_spans_under_obs(self, one_cpu):
        with obs.capture() as cap:
            pmap(_square, list(range(5)), jobs=2)
        assert cap.counters().get("parallel.tasks") == 5
        names = [record.name for record in cap.spans]
        assert names.count("parallel.task") == 5
        assert "parallel.map" in names


class TestPmapProcess:
    """Spawn transport, forced on any host (``two_cpus``)."""

    def test_results_match_serial_and_keep_order(self, two_cpus):
        items = list(range(9))
        assert pmap(_square, items, jobs=2) == [x * x for x in items]

    def test_builtin_task_without_context(self, two_cpus):
        words = ["alpha", "beta", "gamma"]
        assert pmap(str.upper, words, jobs=2) == ["ALPHA", "BETA", "GAMMA"]

    def test_context_rebuilt_in_workers_and_extras_come_home(self, two_cpus):
        collected: list[tuple[int, str]] = []
        spec = ContextSpec(_make_recorder, ("worker-made",))
        with ParallelMap(2, context=spec) as executor_:
            results = executor_.map(
                _ctx_task,
                [10, 20, 30, 40],
                finalize=_finalize_tag,
                on_chunk_result=lambda worker, extra: collected.append(
                    (worker, extra)
                ),
            )
        assert results == [
            ("worker-made", 10),
            ("worker-made", 20),
            ("worker-made", 30),
            ("worker-made", 40),
        ]
        assert collected == [(0, "worker-made"), (1, "worker-made")]

    def test_worker_metrics_merge_into_parent_registry(self, two_cpus):
        with obs.capture() as cap:
            pmap(_square, list(range(6)), jobs=2)
        # Worker-side task counters ship home via the registry snapshot.
        assert cap.counters().get("parallel.tasks") == 6
