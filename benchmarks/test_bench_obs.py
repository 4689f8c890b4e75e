"""Observability overhead: the disabled fast path is ~free.

Two measurements back the obs layer's core promise (instrumentation
costs nothing unless switched on):

* the disabled ``obs.span(...)`` call — one attribute check returning a
  shared no-op object — costs nanoseconds (benchmarked directly);
* on the warm-engine timeline sweep, the *estimated* disabled-path tax
  (spans entered per sweep x cost per disabled span) is under 2% of the
  sweep's wall time, and actually *enabling* observation stays within a
  small constant factor.

Results land in ``benchmarks/output/obs_overhead.txt``.
"""

from __future__ import annotations

import statistics
import time

from repro import obs
from repro.core.timeline import yearly_snapshot_dates

from conftest import emit

#: Ceiling for one disabled span() call (generous: measured ~0.35–0.6 µs).
MAX_NOOP_NS = 2_000.0

#: Estimated disabled-path share of the warm sweep's wall time.
MAX_DISABLED_OVERHEAD = 0.02

#: Enabling observation may not blow up the warm sweep (loose: the warm
#: path is microseconds per query, so sink work is comparatively large).
MAX_ENABLED_RATIO = 3.0

_CALLS_PER_ROUND = 1_000

#: Repetitions behind each timing the overhead estimate divides: one
#: ~0.2 ms sweep or a few us of no-op spans is at the timer's noise
#: floor, so each side is the median of this many runs.
_REPEATS = 15


def _noop_spans() -> None:
    for _ in range(_CALLS_PER_ROUND):
        with obs.span("bench.noop"):
            pass


def _sweep(scenario, engine, dates):
    return {
        name: engine.timeline(name, dates)
        for name in scenario.featured_names
    }


def test_bench_noop_span(benchmark):
    assert not obs.is_enabled()
    benchmark(_noop_spans)
    if benchmark.enabled:  # stats don't exist under --benchmark-disable
        per_call_ns = benchmark.stats.stats.mean / _CALLS_PER_ROUND * 1e9
        assert per_call_ns < MAX_NOOP_NS, (
            f"disabled span() costs {per_call_ns:.0f} ns/call"
        )


def test_bench_warm_sweep_overhead(benchmark, scenario, engine, output_dir):
    dates = yearly_snapshot_dates()
    _sweep(scenario, engine, dates)  # warm every snapshot/route cache

    # Disabled: what production analyses pay for carrying instrumentation.
    disabled_times = []
    for _ in range(_REPEATS):
        start = time.perf_counter()
        disabled_result = _sweep(scenario, engine, dates)
        disabled_times.append(time.perf_counter() - start)
    disabled_s = statistics.median(disabled_times)

    # Enabled: the same sweep observed (counts spans as a side effect).
    with obs.capture() as cap:
        start = time.perf_counter()
        enabled_result = _sweep(scenario, engine, dates)
        enabled_s = time.perf_counter() - start
    spans_entered = len(cap.spans)

    benchmark(_sweep, scenario, engine, dates)
    assert enabled_result == disabled_result

    # Estimate the disabled-path tax: every span the enabled sweep entered
    # is, when disabled, one attribute check + a no-op context manager.
    noop_times = []
    for _ in range(_REPEATS):
        noop_start = time.perf_counter()
        for _ in range(max(spans_entered, 1)):
            with obs.span("bench.noop"):
                pass
        noop_times.append(time.perf_counter() - noop_start)
    noop_s = statistics.median(noop_times)
    overhead_fraction = noop_s / disabled_s if disabled_s > 0 else 0.0

    emit(
        output_dir,
        "obs_overhead.txt",
        "\n".join(
            [
                "obs overhead on the warm-engine timeline sweep:",
                f"  spans entered per sweep : {spans_entered}",
                f"  sweep, obs disabled     : {disabled_s * 1e3:9.3f} ms"
                f" (median of {_REPEATS})",
                f"  sweep, obs enabled      : {enabled_s * 1e3:9.3f} ms",
                f"  est. disabled-path tax  : {overhead_fraction * 100:.3f}%"
                f" ({noop_s * 1e6:.1f} us)",
            ]
        ),
    )
    assert overhead_fraction < MAX_DISABLED_OVERHEAD
    assert enabled_s < disabled_s * MAX_ENABLED_RATIO + 0.05
