"""Temporal event index over license life-cycle dates.

The longitudinal pipeline (Fig 1/2 timelines, §4 date sweeps, corridor
monitoring) asks the same question over and over: *which licenses are
active on this date?*  Answering it by scanning every license record is
O(n) per date — fine for eight paper dates, quadratic-feeling for the
dense weekly and monthly grids a production pipeline replays constantly.

:class:`TemporalIndex` precomputes the answer's structure once.  Every
license contributes at most two *events* — it becomes active on its grant
date and inactive on the earliest of its cancellation / termination /
expiration dates (the exact half-open ``[grant, end)`` window
:meth:`repro.uls.records.License.is_active` implements).  Sorting the
distinct event dates yields a timeline of *intervals* within which the
active set is constant, so

* ``active_ids_at(date)`` is a ``bisect`` plus a memoised per-interval
  frozenset — O(log n) warm;
* ``active_count_at(date)`` is a ``bisect`` into a cumulative-count
  array — O(log n) always, no set materialised.

The memoised frozenset is the fingerprint in every
:class:`~repro.core.engine.CorridorEngine` snapshot key.
"""

from __future__ import annotations

import datetime as dt
from bisect import bisect_right
from typing import Iterable, Sequence

from repro.uls.records import License

#: Cap on memoised per-interval active sets.  Dense corridor grids touch
#: a few hundred distinct intervals; the cap only guards pathological
#: daily-grid-over-decades callers from unbounded growth.
_INTERVAL_SET_CAP = 1024


def license_interval(lic: License) -> tuple[dt.date, dt.date | None] | None:
    """The half-open ``[start, end)`` window in which ``lic`` is active.

    ``None`` when the license is never active (no grant date, or an end
    date on/before the grant).  ``end`` is ``None`` for licenses active
    indefinitely.  Mirrors :meth:`License.is_active` exactly — property-
    tested in ``tests/test_temporal_index.py``.
    """
    if lic.grant_date is None:
        return None
    end: dt.date | None = None
    for candidate in (
        lic.cancellation_date,
        lic.termination_date,
        lic.expiration_date,
    ):
        if candidate is not None and (end is None or candidate < end):
            end = candidate
    if end is not None and end <= lic.grant_date:
        return None
    return (lic.grant_date, end)


class TemporalIndex:
    """A sorted event index over one set of licenses.

    The index is immutable once built; :class:`~repro.uls.database
    .UlsDatabase` caches one per licensee (plus one database-wide) and
    invalidates them when a license is added.
    """

    __slots__ = (
        "_dates",
        "_added",
        "_removed",
        "_cum_counts",
        "_raw_dates",
        "_raw_ids",
        "_interval_sets",
        "_cursor",
        "event_count",
    )

    def __init__(self, licenses: Iterable[License]) -> None:
        adds: dict[dt.date, list[str]] = {}
        removes: dict[dt.date, list[str]] = {}
        raw: dict[dt.date, set[str]] = {}
        for lic in licenses:
            for candidate in (
                lic.grant_date,
                lic.cancellation_date,
                lic.termination_date,
                lic.expiration_date,
            ):
                if candidate is not None:
                    raw.setdefault(candidate, set()).add(lic.license_id)
            interval = license_interval(lic)
            if interval is None:
                continue
            start, end = interval
            adds.setdefault(start, []).append(lic.license_id)
            if end is not None:
                removes.setdefault(end, []).append(lic.license_id)

        self._dates: list[dt.date] = sorted(set(adds) | set(removes))
        self._added: list[tuple[str, ...]] = []
        self._removed: list[tuple[str, ...]] = []
        self._cum_counts: list[int] = [0]
        count = 0
        events = 0
        for date in self._dates:
            added = tuple(sorted(adds.get(date, ())))
            removed = tuple(sorted(removes.get(date, ())))
            self._added.append(added)
            self._removed.append(removed)
            count += len(added) - len(removed)
            events += len(added) + len(removed)
            self._cum_counts.append(count)

        self._raw_dates: list[dt.date] = sorted(raw)
        self._raw_ids: list[frozenset[str]] = [
            frozenset(raw[date]) for date in self._raw_dates
        ]
        self._interval_sets: dict[int, frozenset[str]] = {}
        # (interval, mutable working set) — the evolution cursor.
        self._cursor: tuple[int, set[str]] = (0, set())
        #: Total activation/deactivation events on the timeline.
        self.event_count: int = events

    # ------------------------------------------------------------------
    # Interval arithmetic
    # ------------------------------------------------------------------

    def interval_of(self, on_date: dt.date) -> int:
        """The index of the constant-active-set interval holding ``on_date``.

        Interval ``i`` is the state after the events at the first ``i``
        event dates have fired; interval 0 precedes every event.
        """
        return bisect_right(self._dates, on_date)

    def active_count_at(self, on_date: dt.date) -> int:
        """How many licenses are active on ``on_date`` (no set built)."""
        return self._cum_counts[self.interval_of(on_date)]

    def active_ids_at(self, on_date: dt.date) -> frozenset[str]:
        """The ids active on ``on_date`` — the snapshot fingerprint.

        Warm calls are a bisect plus a dict hit: per-interval sets are
        memoised, and cold intervals are evolved from the nearest cursor
        instead of rebuilt from scratch.
        """
        return self._interval_set(self.interval_of(on_date))

    def _interval_set(self, target: int) -> frozenset[str]:
        memo = self._interval_sets
        cached = memo.get(target)
        if cached is not None:
            return cached
        origin, state = self._cursor
        if abs(target - origin) >= target:
            origin, working = 0, set()
        else:
            working = set(state)
        if target >= origin:
            for i in range(origin, target):
                working.difference_update(self._removed[i])
                working.update(self._added[i])
        else:
            for i in range(origin - 1, target - 1, -1):
                working.difference_update(self._added[i])
                working.update(self._removed[i])
        frozen = frozenset(working)
        if len(memo) >= _INTERVAL_SET_CAP:
            memo.clear()
        memo[target] = frozen
        self._cursor = (target, working)
        return frozen

    # ------------------------------------------------------------------
    # Raw events
    # ------------------------------------------------------------------

    def event_ids_between(self, start: dt.date, end: dt.date) -> list[str]:
        """Ids with *any* raw life-cycle date in ``(start, end]``, sorted.

        Raw events include every recorded date field — e.g. a termination
        date recorded after an earlier effective cancellation — so this
        is the exact candidate set for transaction-log construction
        (:func:`repro.uls.transactions.transactions_between`).
        """
        if end <= start:
            raise ValueError("window must have positive length")
        lo = bisect_right(self._raw_dates, start)
        hi = bisect_right(self._raw_dates, end)
        ids: set[str] = set()
        for i in range(lo, hi):
            ids.update(self._raw_ids[i])
        return sorted(ids)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def event_dates(self) -> Sequence[dt.date]:
        """The distinct activation/deactivation dates, ascending."""
        return tuple(self._dates)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TemporalIndex(events={self.event_count}, "
            f"intervals={len(self._dates) + 1})"
        )
