"""Typed process-local metrics: counters, gauges, histograms.

A :class:`MetricsRegistry` owns every instrument created through it and can
render a point-in-time :meth:`~MetricsRegistry.snapshot` (plain dicts, so
sinks and tests can serialise it) or :meth:`~MetricsRegistry.reset` all
values while keeping the instruments themselves alive.

Instrument names follow the project-wide ``layer.component.event``
convention (``engine.snapshot.hit``, ``geodesy.memo.miss``,
``uls.scraper.page.detail``); the registry enforces non-empty dotted names
and rejects re-registering one name under a different instrument type —
``counter("x")`` followed by ``histogram("x")`` is a programming error, not
a silent shadow.

Everything here is deliberately dependency-free and deterministic: no
clocks, no randomness — time only ever enters through
:mod:`repro.obs.spans`, which *observes* durations into histograms.
"""

from __future__ import annotations

from typing import Union

Number = Union[int, float]


def _validate_name(name: str) -> str:
    if not isinstance(name, str) or not name:
        raise ValueError("metric name must be a non-empty string")
    if name != name.strip() or any(not part for part in name.split(".")):
        raise ValueError(
            f"metric name {name!r} must be dotted layer.component.event "
            "segments with no empty parts"
        )
    return name


class Counter:
    """A monotonically increasing count (hits, misses, pages fetched)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self.value += amount

    def reset(self) -> None:
        self.value = 0


class Gauge:
    """A point-in-time value (cache sizes, queue depths)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number | None = None

    def set(self, value: Number) -> None:
        self.value = value

    def reset(self) -> None:
        self.value = None


class Histogram:
    """Streaming summary of observations (count/sum/min/max/mean).

    Stores aggregates only — no per-observation buffer — so a histogram on
    a hot path costs four comparisons and two adds per observation and its
    memory never grows.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: Number) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

    def summary(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Get-or-create home for every instrument of one observation session."""

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- get-or-create accessors --------------------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_unclaimed(name, "counter")
            instrument = self._counters[_validate_name(name)] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_unclaimed(name, "gauge")
            instrument = self._gauges[_validate_name(name)] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            self._check_unclaimed(name, "histogram")
            instrument = self._histograms[_validate_name(name)] = Histogram(name)
        return instrument

    def _check_unclaimed(self, name: str, kind: str) -> None:
        for other_kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if other_kind != kind and name in table:
                raise ValueError(
                    f"metric {name!r} already registered as a {other_kind}; "
                    f"cannot re-register as a {kind}"
                )

    # -- session semantics --------------------------------------------

    def snapshot(self) -> dict:
        """Plain-dict view of every instrument (sorted, JSON-serialisable)."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: h.summary()
                for name, h in sorted(self._histograms.items())
            },
        }

    def reset(self) -> None:
        """Zero every instrument, keeping the instruments registered.

        Held references stay valid across a reset — a caller that cached
        ``registry.counter("x")`` keeps incrementing the same object.
        """
        for table in (self._counters, self._gauges, self._histograms):
            for instrument in table.values():
                instrument.reset()

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)


def render_metrics(registry: MetricsRegistry) -> str:
    """The human metrics summary (the CLI's ``--metrics`` output)."""
    snap = registry.snapshot()
    lines = ["metrics summary:"]
    for name, value in snap["counters"].items():
        lines.append(f"  counter   {name:40s} {value}")
    for name, value in snap["gauges"].items():
        lines.append(f"  gauge     {name:40s} {value}")
    for name, summary in snap["histograms"].items():
        mean = summary["mean"]
        lines.append(
            f"  histogram {name:40s} count={summary['count']}  "
            f"mean={mean:.3f}  min={summary['min']:.3f}  "
            f"max={summary['max']:.3f}"
            if summary["count"]
            else f"  histogram {name:40s} count=0"
        )
    if len(lines) == 1:
        lines.append("  (no metrics recorded)")
    return "\n".join(lines)
