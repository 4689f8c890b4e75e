"""Per-layer numbers from traced runs: self time, calls, share of wall time.

A span's self time is its duration minus the time its child spans
cover.  Spans nest within one thread, so the children of a span never
overlap and their durations simply add up.  Summed over every span of a
CLI process, self time equals the time the root spans cover, so the
layers add up to the traced part of the wall time; ``bench.coverage`` is
that part's share.

CLI workloads report each layer per pass of the command list: a
command's value is averaged over its traced runs, then summed over the
commands.  Serve workloads report the traced server's boot, warm-up and
reference step together, without the accept loop's ``cli.main``
span, and take the per-request latencies
(``serve.*_ms``) from the reference step alone.  The closed-loop step
is left out of both, because how many requests it makes depends on how
fast the server is; only the trace overhead compares its latencies.

Each workload also gets a collapsed-stack file, ``stacks.folded``,
beside its JSONL traces (one ``a;b;c microseconds`` line per stack).
"""

from __future__ import annotations

import json
import math
import statistics
from collections import Counter, defaultdict
from pathlib import Path

from layers import ENGINE_SPAN, SPANS

COVERAGE_FLOOR = 0.90

#: Every span a trace can hold: the wrapped functions, plus the two
#: roots ``traced_main.py`` records itself and the leader's compute.
SPAN_NAMES = sorted(
    {name for name, _, _ in SPANS} | {"python.startup", "cli.import", ENGINE_SPAN}
)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def typical_ms(by_kind: dict[str, list[float]], center) -> float:
    """Geometric mean over operation kinds of each kind's ``center`` (e.g. its mean).

    Kinds (CLI commands, serve endpoints) differ in cost by up to 10x, so
    a median pooled over all operations would jump between their modes
    as the mix shifts; this weighs every kind the same.
    """
    centers = [center(values) for values in by_kind.values() if values]
    return math.exp(statistics.fmean(math.log(value) for value in centers))


def load(path: Path) -> tuple[list[dict], dict]:
    """The spans of one JSONL trace and its final counters line."""
    spans, counters = [], {}
    with open(path, encoding="utf-8") as lines:
        for line in lines:
            record = json.loads(line)
            if "counters" in record:
                counters = record["counters"]
            else:
                spans.append(record)
    return spans, counters


def self_times(spans: list[dict]) -> tuple[dict, Counter, dict]:
    """Self seconds and calls per span name, and self seconds per stack."""
    by_id = {span["id"]: span for span in spans}
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"]:
            covered[span["parent"]] += span["end"] - span["start"]
    own: dict[str, float] = defaultdict(float)
    stacks: dict[str, float] = defaultdict(float)
    for span in spans:
        seconds = span["end"] - span["start"] - covered[span["id"]]
        own[span["name"]] += seconds
        names, node = [], span
        while node is not None:
            names.append(node["name"])
            node = by_id.get(node["parent"])
        stacks[";".join(reversed(names))] += seconds
    return own, Counter(span["name"] for span in spans), stacks


def _ratio(part: float, rest: float) -> float:
    return part / (part + rest) if part + rest else 0.0


def _layer_metrics(own: dict, calls: dict, counters: dict) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}_s"] = own.get(name, 0.0)
        metrics[f"{name}.calls"] = calls.get(name, 0)
    metrics["uls.portal.pages"] = calls.get("uls.portal.render", 0)
    metrics["parallel.workers"] = counters.get("workers", 0)
    for metric, hits, misses in (
        ("core.snapshot.hit_ratio", "snapshot_hits", "snapshot_misses"),
        ("core.route.hit_ratio", "route_hits", "route_misses"),
        ("store.hit_ratio", "store_hits", "store_misses"),
        ("serve.body_cache.hit_ratio", "body_hits", "body_misses"),
        ("serve.coalesce.follower_ratio", "coalesce_followers", "coalesce_leaders"),
    ):
        metrics[metric] = _ratio(counters.get(hits, 0), counters.get(misses, 0))
    return metrics


def _table(own: dict, calls: dict, wall_s: float, what: str) -> list[str]:
    lines = [
        f"per-layer self time ({what}; wall {wall_s:.3f} s)",
        f"  {'span':22s} {'self_s':>9s} {'calls':>9s} {'share':>7s}",
    ]
    for name in sorted(own, key=own.get, reverse=True):
        lines.append(
            f"  {name:22s} {own[name]:9.4f} {calls[name]:9.1f} {own[name] / wall_s:7.1%}"
        )
    return lines


def _coverage(coverage: float, of_what: str) -> list[str]:
    lines = [f"  coverage {coverage:.1%} of {of_what}"]
    if coverage < COVERAGE_FLOOR:
        lines.append(f"FLAG: coverage {coverage:.1%} is below {COVERAGE_FLOOR:.0%}")
    return lines


def _write_stacks(stacks: dict, out: Path) -> None:
    with open(out / "stacks.folded", "w", encoding="utf-8") as folded:
        for stack in sorted(stacks):
            folded.write(f"{stack} {round(stacks[stack] * 1e6)}\n")


def cli_layers(traced: dict, overhead: float, store_bytes: int, out: Path):
    """Per-pass layer metrics from ``{command: [(wall_s, trace path), ...]}``."""
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, float] = defaultdict(float)
    stacks: dict[str, float] = defaultdict(float)
    counters: dict[str, float] = defaultdict(float)
    wall_s = 0.0
    runs = 0
    for command_runs in traced.values():
        share = 1.0 / len(command_runs)
        for wall, path in command_runs:
            spans, counts = load(path)
            run_own, run_calls, run_stacks = self_times(spans)
            for name, seconds in run_own.items():
                own[name] += seconds * share
                calls[name] += run_calls[name] * share
            for stack, seconds in run_stacks.items():
                stacks[stack] += seconds * share
            for name, count in counts.items():
                counters[name] += count * share
            wall_s += wall * share
            runs += 1
    coverage = sum(own.values()) / wall_s
    metrics = _layer_metrics(own, calls, counters)
    metrics.update({
        "serve.handle_ms.p50": 0.0,
        "serve.handle_ms.p99": 0.0,
        "serve.outside_ms.p50": 0.0,
        "serve.engine_ms.p50": 0.0,
        "serve.warmup_s": 0.0,
        "loadgen.late_ms.p99": 0.0,
        "loadgen.cpu_frac": 0.0,
        "store.bytes": store_bytes,
        "bench.trace_overhead_frac": overhead,
        "bench.coverage": coverage,
    })
    _write_stacks(stacks, out)
    report = _table(own, calls, wall_s, "per pass of the command list")
    report.append(f"  {'(outside any span)':22s} {wall_s - sum(own.values()):9.4f}")
    report += _coverage(coverage, "command wall time")
    report.append(f"  trace overhead {overhead:+.1%} of untraced command wall time")
    return {name: (value, runs) for name, value in metrics.items()}, report


def serve_layers(untraced, traced, out: Path):
    """Layer metrics from the traced server (``ServeRun``s from workloads.py)."""
    spans, counters = load(traced.trace_path)
    reference = traced.reference.requests
    begin = min(request.due for request in reference)
    end = max(request.done for request in reference)
    # cli.main is the server's accept loop: it waits for the whole run,
    # so its self time would be idle wall time.  Its children become roots.
    fixed = [span for span in spans if span["start"] < end and span["name"] != "cli.main"]
    own, calls, stacks = self_times(fixed)

    def durations_ms(name: str) -> list[float]:
        return [
            1000.0 * (span["end"] - span["start"])
            for span in fixed
            if span["name"] == name and span["start"] >= begin
        ]

    handle = durations_ms("serve.handle")
    engine = durations_ms(ENGINE_SPAN)
    client = [1000.0 * (request.done - request.sent) for request in reference]
    late = [1000.0 * (r.sent - r.due) for r in untraced.reference.requests]

    metrics = _layer_metrics(own, calls, counters)
    metrics.update({
        "serve.handle_ms.p50": statistics.median(handle),
        "serve.handle_ms.p99": percentile(handle, 0.99),
        "serve.outside_ms.p50": statistics.median(client) - statistics.median(handle),
        "serve.engine_ms.p50": statistics.median(engine) if engine else 0.0,
        "serve.warmup_s": traced.warmup_s,
        "loadgen.late_ms.p99": percentile(late, 0.99),
        "loadgen.cpu_frac": untraced.reference.cpu_s / untraced.reference.wall_s,
        "store.bytes": 0,
        # Each server's latency at reference speed, so that the machine
        # slowing down between the two servers does not count as overhead.
        "bench.trace_overhead_frac": (
            typical_ms(traced.capacity.latencies_ms(), statistics.geometric_mean)
            * traced.pace.scale()
            / (
                typical_ms(untraced.capacity.latencies_ms(), statistics.geometric_mean)
                * untraced.pace.scale()
            )
            - 1.0
        ),
        "bench.coverage": sum(durations_ms("serve.http")) / sum(client),
    })
    _write_stacks(stacks, out)
    wall_s = end - min(span["start"] for span in spans)
    report = _table(own, calls, wall_s, "server boot, warm-up and reference step")
    report += _coverage(metrics["bench.coverage"], "client latency in the reference step")
    report.append(
        f"  trace overhead {metrics['bench.trace_overhead_frac']:+.1%} "
        "of untraced closed-loop latency, each server's scaled by its pace"
    )
    return {name: (value, len(handle)) for name, value in metrics.items()}, report
