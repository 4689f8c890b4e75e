"""Observability discipline: library code times through ``repro.obs``.

PR 3 added the obs layer so every timing measurement flows through one
instrumented, centrally-disableable channel (``obs.span(...)``), with a
single clock (``time.perf_counter_ns`` inside ``repro.obs.spans``).  A
module that reads a process timer directly re-invents that channel: its
measurements are invisible to trace sinks, aren't aggregated into the
metrics registry, and cannot be switched off with the rest of the
instrumentation.  This rule confines raw timer reads to the obs package
itself and to the benchmark harness (where pytest-benchmark owns the
clock).
"""

from __future__ import annotations

import ast

from repro.lint.registry import FileContext, Rule, dotted_name

#: Path prefixes allowed to read process timers directly; everything else
#: must time through ``repro.obs`` spans.  The load generator measures
#: client-observed latency — wall time is its product, like benchmarks.
OBS_ALLOWED = (
    "src/repro/obs/",
    "benchmarks/",
    "src/repro/serve/loadgen.py",
)

#: Process-timer reads: dotted-suffix → offending call.
_TIMER_SUFFIXES = (
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.thread_time",
    "time.thread_time_ns",
)


class ObsDisciplineRule(Rule):
    """Raw process-timer reads are confined to obs/ and benchmarks/."""

    name = "obs-discipline"
    description = (
        "direct time.monotonic()/perf_counter() timing outside repro.obs "
        "and the benchmark harness; wrap the region in obs.span(...) so "
        "the measurement reaches trace sinks and the metrics registry"
    )
    interests = (ast.Call,)

    def applies_to(self, rel_path: str) -> bool:
        return not any(rel_path.startswith(prefix) for prefix in OBS_ALLOWED)

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        assert isinstance(node, ast.Call)
        dotted = dotted_name(node.func)
        if dotted is None:
            return
        for suffix in _TIMER_SUFFIXES:
            if dotted == suffix or dotted.endswith("." + suffix):
                ctx.report(
                    self,
                    node,
                    f"raw timer read {dotted}(): time through "
                    "obs.span(...) instead (raw timers are allowed only "
                    "under src/repro/obs/ and benchmarks/)",
                )
                return
