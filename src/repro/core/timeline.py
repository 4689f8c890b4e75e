"""Longitudinal reconstruction (§4): latency and licensing over time.

The paper reconstructs each network on January 1st of every year from 2013
through 2019, plus April 1st 2020, and plots (Fig 1) the end-to-end latency
and (Fig 2) the number of active licenses.  This module produces those
series from raw license records.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.corridor import CorridorSpec
from repro.uls.database import UlsDatabase
from repro.uls.records import License

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.core.engine import CorridorEngine


def yearly_snapshot_dates(
    first_year: int = 2013,
    last_year: int = 2019,
    final_date: dt.date | None = dt.date(2020, 4, 1),
) -> list[dt.date]:
    """The paper's date grid: Jan 1 of each year, then the final date.

    ``final_date=None`` yields the bare yearly grid (no 2020-04-01
    sample) — callers replaying only the annual reconstruction use this.
    """
    if last_year < first_year:
        raise ValueError("last_year must be >= first_year")
    dates = [dt.date(year, 1, 1) for year in range(first_year, last_year + 1)]
    if final_date is not None:
        if dates and final_date <= dates[-1]:
            raise ValueError("final_date must come after the yearly grid")
        dates.append(final_date)
    return dates


def dense_date_grid(
    step: str = "monthly",
    start: dt.date = dt.date(2013, 1, 1),
    end: dt.date = dt.date(2020, 4, 1),
) -> list[dt.date]:
    """A dense, ascending date grid over the study window.

    ``step`` is ``"paper"`` (the eight paper dates), ``"monthly"`` (the
    first of every month) or ``"weekly"`` (every seventh day from
    ``start``).  Dense grids are what the temporal index and the
    engine's snapshot cache make affordable: between consecutive grid
    dates only a handful of licenses change state, so most points cost a
    bisect and a cache hit rather than an active-set scan and a rebuild.
    """
    if end < start:
        raise ValueError("end must not precede start")
    if step == "paper":
        return yearly_snapshot_dates()
    dates: list[dt.date] = []
    if step == "monthly":
        year, month = start.year, start.month
        while (year, month) <= (end.year, end.month):
            first_of_month = dt.date(year, month, 1)
            if start <= first_of_month <= end:
                dates.append(first_of_month)
            month += 1
            if month > 12:
                year, month = year + 1, 1
    elif step == "weekly":
        date = start
        while date <= end:
            dates.append(date)
            date += dt.timedelta(days=7)
    else:
        raise ValueError(f"unknown step {step!r} (paper, monthly, weekly)")
    return dates


@dataclass(frozen=True, slots=True)
class TimelinePoint:
    """One sample of a network's latency trajectory.

    ``latency_ms`` is None when the network has no end-to-end path on that
    date (the network does not appear on the plot for that year, like
    Pierce Broadband before 2020 in Fig 1).
    """

    date: dt.date
    latency_ms: float | None
    tower_count: int | None = None


def latency_timeline(
    database: UlsDatabase,
    corridor: CorridorSpec,
    licensee: str,
    dates: Sequence[dt.date],
    source: str | None = None,
    target: str | None = None,
    engine: CorridorEngine | None = None,
) -> list[TimelinePoint]:
    """The Fig 1 series: end-to-end latency of one licensee over time.

    Runs through a :class:`repro.core.engine.CorridorEngine`, so grid
    points whose active license set is unchanged reuse the stitched
    network and its routes.  Pass ``engine`` to share caches with other
    queries; its corridor must agree with ``corridor``.
    """
    from repro.core.engine import CorridorEngine

    source, target = corridor.resolve_path(source, target)
    if engine is None:
        engine = CorridorEngine(database, corridor)
    elif engine.corridor != corridor:
        raise ValueError("engine.corridor disagrees with the corridor argument")
    return engine.timeline(licensee, dates, source=source, target=target)


@dataclass(frozen=True, slots=True)
class LicenseCountSeries:
    """The Fig 2 series: active license counts for one licensee."""

    licensee: str
    dates: tuple[dt.date, ...]
    counts: tuple[int, ...]

    def as_pairs(self) -> list[tuple[dt.date, int]]:
        return list(zip(self.dates, self.counts))


def active_license_count(licenses: Iterable[License], on_date: dt.date) -> int:
    """Number of licenses active on a date."""
    return sum(1 for lic in licenses if lic.is_active(on_date))


def license_count_timeline(
    database: UlsDatabase,
    licensee: str,
    dates: Sequence[dt.date],
) -> LicenseCountSeries:
    """Active-license counts for ``licensee`` at each date.

    Served from the licensee's :class:`~repro.uls.index.TemporalIndex`:
    each point is a bisect into the cumulative event counts — O(log n)
    per date instead of one ``is_active`` scan over every filing — and
    no license list is materialised.
    """
    index = database.temporal_index(licensee)
    counts = tuple(index.active_count_at(date) for date in dates)
    return LicenseCountSeries(licensee=licensee, dates=tuple(dates), counts=counts)


def grant_cancellation_activity(
    database: UlsDatabase, licensee: str, year: int
) -> tuple[int, int]:
    """(grants, cancellations) filed by ``licensee`` during ``year``.

    §4 uses this to show churn that net counts hide (e.g. National Tower
    Company both granting and cancelling during 2014).
    """
    grants = 0
    cancellations = 0
    for lic in database.licenses_for(licensee):
        if lic.grant_date is not None and lic.grant_date.year == year:
            grants += 1
        if lic.cancellation_date is not None and lic.cancellation_date.year == year:
            cancellations += 1
    return grants, cancellations
