"""Parallel grid replay: serial sweep discipline vs GridSession fan-out.

The workload is the warm timeline+ablation grid the analysis drivers
replay constantly: the featured licensees' Fig 1 timelines at default
parameters plus the same timelines under a stitch-tolerance sweep.  The
serial leg runs the pre-parallel sweep discipline — one fresh engine per
knob value, rebuilt every replay.  The ``--jobs N`` legs run the same
grid through one :class:`~repro.parallel.grid.GridSession`.  On a pool,
each worker builds its own engines (one per override set) from the
shipped database and parameters, keeps them across replays, and returns
only results; on a one-CPU host the session runs in-process against the
parent engine and one sibling per knob.

Two assertions are pinned: the fan-out legs return exactly the serial
results (the determinism contract), and the 4-job leg beats serial by
``MIN_SPEEDUP``.  The backend the 4-job session ran on is recorded from
``GridSession.backend``.  Results land in
``benchmarks/output/parallel.txt`` and the consolidated
``BENCH_PR4.json`` at the repository root.
"""
from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core.timeline import yearly_snapshot_dates
from repro.parallel import GridSession, usable_cpu_count

from conftest import emit

#: The 4-worker replay must beat the serial sweep by at least this much.
MIN_SPEEDUP = 2.0

REPLAYS = 3
NAMES = ("Webline Holdings", "New Line Networks", "Pierce Broadband")
STITCH_KNOBS_M = (60.0, 90.0, 120.0, 150.0)

BENCH_JSON = Path(__file__).parent.parent / "BENCH_PR4.json"


def _series(engine, name, dates):
    return tuple(point.latency_ms for point in engine.timeline(name, dates))


def _sweep_task(ctx, item):
    name, dates, _knob = item
    return _series(ctx.engine, name, dates)


def _base_task(ctx, item):
    name, dates = item
    return _series(ctx.engine, name, dates)


def _serial_replay(engine, dates):
    """The pre-parallel code path: parent engine for the default grid,
    one fresh unseeded engine per sweep knob (never shared, never kept)."""
    base = [_series(engine, name, dates) for name in NAMES]
    sweep = []
    for knob in STITCH_KNOBS_M:
        knob_engine = engine.with_params(stitch_tolerance_m=knob)
        sweep.extend(_series(knob_engine, name, dates) for name in NAMES)
    return base, sweep


def _session_replay(session, dates):
    base = session.map(
        _base_task, [(name, dates) for name in NAMES], label="bench-base"
    )
    sweep = session.map(
        _sweep_task,
        [(name, dates, knob) for knob in STITCH_KNOBS_M for name in NAMES],
        params=lambda item: {"stitch_tolerance_m": item[2]},
        label="bench-sweep",
    )
    return base, sweep


def _time_serial(engine, dates):
    start = time.perf_counter()
    for _ in range(REPLAYS):
        result = _serial_replay(engine, dates)
    return result, time.perf_counter() - start


def _time_session(engine, dates, jobs):
    with GridSession(engine, jobs) as session:
        start = time.perf_counter()
        for _ in range(REPLAYS):
            result = _session_replay(session, dates)
        elapsed = time.perf_counter() - start
        backend = session.backend
    return result, elapsed, backend


def test_bench_parallel_grid(benchmark, scenario, engine, output_dir):
    dates = yearly_snapshot_dates()
    engine.timeline(NAMES[0], dates)  # ensure the parent grid is warm

    serial_result, serial_s = _time_serial(engine, dates)
    jobs2_result, jobs2_s, _ = _time_session(engine, dates, 2)
    jobs4_result, jobs4_s, backend = _time_session(engine, dates, 4)

    # Determinism contract: fan-out changes wall time, never a value.
    assert jobs2_result == serial_result
    assert jobs4_result == serial_result

    # pytest-benchmark pins the steady state of the 4-job session.
    with GridSession(engine, 4) as session:
        _session_replay(session, dates)  # build the sibling engines
        benchmark(_session_replay, session, dates)

    speedup2 = serial_s / jobs2_s
    speedup4 = serial_s / jobs4_s

    record = {
        "bench": "warm timeline+ablation grid",
        "replays": REPLAYS,
        "licensees": len(NAMES),
        "sweep_knobs": len(STITCH_KNOBS_M),
        "backend": backend,
        "usable_cpus": usable_cpu_count(),
        "jobs1_s": round(serial_s, 4),
        "jobs2_s": round(jobs2_s, 4),
        "jobs4_s": round(jobs4_s, 4),
        "speedup2": round(speedup2, 2),
        "speedup4": round(speedup4, 2),
    }
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    lines = [
        f"warm timeline+ablation grid · {REPLAYS} replays · "
        f"{len(NAMES)} licensees x {len(dates)} dates · "
        f"{len(STITCH_KNOBS_M)}-knob stitch sweep",
        f"backend={backend}  usable_cpus={usable_cpu_count()}",
        "",
        f"{'mode':10s} {'wall':>10s} {'speedup':>9s}",
        f"{'--jobs 1':10s} {serial_s * 1e3:8.1f}ms {'1.00x':>9s}",
        f"{'--jobs 2':10s} {jobs2_s * 1e3:8.1f}ms {speedup2:8.2f}x",
        f"{'--jobs 4':10s} {jobs4_s * 1e3:8.1f}ms {speedup4:8.2f}x",
        "",
        "serial rebuilds one engine per sweep knob per replay; the session",
        "keeps one engine per knob (in each worker on a pool) across",
        "replays and returns only results.",
    ]
    emit(output_dir, "parallel.txt", "\n".join(lines))

    assert speedup4 >= MIN_SPEEDUP, (
        f"4-job grid only {speedup4:.2f}x faster than serial "
        f"({serial_s * 1e3:.1f} ms -> {jobs4_s * 1e3:.1f} ms)"
    )
