"""``repro.obs`` — zero-dependency tracing + metrics instrumentation.

The observability layer the perf roadmap reads its wins off of: the
engine, the geodesic memo, the reconstruction kernel, the scraper and the
analysis drivers are instrumented with hierarchical :func:`span` context
managers and typed counters/gauges/histograms.  **Disabled by default**:
every instrumentation point collapses to a single attribute check, spans
are one shared no-op object, and instrumented code produces bit-identical
results with the subsystem on, off, or never exercised.

Typical use::

    from repro import obs

    # library code (always safe, ~free when disabled)
    with obs.span("engine.snapshot", licensee=name) as sp:
        ...
        sp.tag(cache="hit")
    obs.count("engine.snapshot.hit")

    # a test or driver capturing a session
    with obs.capture() as cap:
        run_scraping_funnel(...)
    assert "engine.snapshot" in cap.sink.names()
    assert cap.registry.snapshot()["counters"]["geodesy.memo.hit"] > 0

The CLI exposes the same machinery on every subcommand via
``--trace FILE`` (JSON-lines span tree) and ``--metrics`` (human summary
on stderr).  DESIGN.md §8 documents the architecture and the
``layer.component.event`` naming convention.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro import _lazy_exports
from repro.obs.spans import (
    SpanRecord,
    count,
    disable,
    enable,
    get_registry,
    is_enabled,
    observe,
    set_gauge,
    span,
)
from repro.obs.spans import _restore_state, _swap_state

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.sinks import InMemorySink

# Spans are on every instrumented path, so they load eagerly; the sinks
# (json, pathlib) load only for --trace/--metrics or a capture().
__getattr__, __dir__, _lazy_all = _lazy_exports(
    __name__,
    {
        "repro.obs.metrics": (
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "render_metrics",
        ),
        "repro.obs.sinks": (
            "InMemorySink",
            "JsonLinesSink",
            "SPAN_LINE_KEYS",
            "TextSummarySink",
            "TRACE_SCHEMA_VERSION",
            "read_trace",
            "span_line",
        ),
    },
)

__all__ = [
    *_lazy_all,
    "SpanRecord",
    "Capture",
    "capture",
    "count",
    "disable",
    "enable",
    "get_registry",
    "is_enabled",
    "observe",
    "set_gauge",
    "span",
]


@dataclass(frozen=True)
class Capture:
    """What a :func:`capture` block hands back: its sink and registry."""

    sink: InMemorySink
    registry: MetricsRegistry

    @property
    def spans(self) -> list[SpanRecord]:
        return self.sink.records

    def counters(self) -> dict[str, int]:
        return self.registry.snapshot()["counters"]


@contextmanager
def capture(
    extra_sinks: tuple = (), registry: MetricsRegistry | None = None
) -> Iterator[Capture]:
    """An isolated, self-restoring observation session (for tests).

    Unlike :func:`enable`, this nests safely inside any other session: the
    previous observation state is swapped out wholesale and restored on
    exit, so fixtures and subtests cannot leak spans into each other.
    """
    from repro.obs.sinks import InMemorySink

    previous = _swap_state()
    sink = InMemorySink()
    try:
        active_registry = enable(
            sinks=(sink, *extra_sinks), registry=registry
        )
        yield Capture(sink=sink, registry=active_registry)
    finally:
        disable()
        _restore_state(previous)
