"""Property tests for the temporal event index (repro.uls.index).

The index's whole value proposition is that its O(log n) answers are
*exactly* the answers a naive per-license ``is_active`` scan gives, so
the core tests are hypothesis properties over randomly-generated license
life cycles: membership and counts, probed in arbitrary date order.
"""

from __future__ import annotations

import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uls import TemporalIndex, license_interval
from repro.uls.database import UlsDatabase
from tests.conftest import make_license

EPOCH = dt.date(2012, 1, 1)
HORIZON_DAYS = 3000


def _date(offset: int) -> dt.date:
    return EPOCH + dt.timedelta(days=offset)


def _build_licenses(specs):
    """Licenses from (grant, expiration, cancellation, termination) day
    offsets (None = absent).  Dates are set directly so every life-cycle
    shape — including degenerate end-before-grant windows — is covered."""
    licenses = []
    for i, (grant, expiry, cancel, term) in enumerate(specs):
        lic = make_license(f"L{i:04d}", grant=_date(grant) if grant is not None else None)
        lic.expiration_date = _date(expiry) if expiry is not None else None
        lic.cancellation_date = _date(cancel) if cancel is not None else None
        lic.termination_date = _date(term) if term is not None else None
        licenses.append(lic)
    return licenses


def naive_active_ids(licenses, on_date: dt.date) -> frozenset[str]:
    return frozenset(
        lic.license_id for lic in licenses if lic.is_active(on_date)
    )


offset = st.integers(min_value=0, max_value=HORIZON_DAYS)
maybe_offset = st.none() | offset
license_spec = st.tuples(maybe_offset, maybe_offset, maybe_offset, maybe_offset)
license_sets = st.lists(license_spec, min_size=0, max_size=30)
# Probe slightly outside the horizon too, so boundary intervals are hit.
probe = st.integers(min_value=-10, max_value=HORIZON_DAYS + 10)


class TestActiveSetProperties:
    @settings(max_examples=200, deadline=None)
    @given(specs=license_sets, probes=st.lists(probe, min_size=1, max_size=8))
    def test_active_ids_match_naive_scan(self, specs, probes):
        licenses = _build_licenses(specs)
        index = TemporalIndex(licenses)
        for p in probes:
            date = _date(p)
            assert index.active_ids_at(date) == naive_active_ids(licenses, date)

    @settings(max_examples=200, deadline=None)
    @given(specs=license_sets, probes=st.lists(probe, min_size=1, max_size=8))
    def test_active_count_matches_set_size(self, specs, probes):
        index = TemporalIndex(_build_licenses(specs))
        for p in probes:
            date = _date(p)
            assert index.active_count_at(date) == len(index.active_ids_at(date))

    def test_event_date_boundaries_exact(self):
        # The day an end-date lands is already inactive; the grant day is
        # already active — the index must agree with is_active on both.
        lic = make_license("L1", grant=_date(10))
        lic.expiration_date = _date(20)
        index = TemporalIndex([lic])
        assert "L1" not in index.active_ids_at(_date(9))
        assert "L1" in index.active_ids_at(_date(10))
        assert "L1" in index.active_ids_at(_date(19))
        assert "L1" not in index.active_ids_at(_date(20))


class TestLicenseInterval:
    def test_no_grant_is_never_active(self):
        lic = make_license("L1", grant=None)
        assert license_interval(lic) is None

    def test_end_is_earliest_terminator(self):
        lic = make_license("L1", grant=_date(0))
        lic.expiration_date = _date(300)
        lic.cancellation_date = _date(200)
        lic.termination_date = _date(250)
        assert license_interval(lic) == (_date(0), _date(200))

    def test_end_on_or_before_grant_collapses(self):
        lic = make_license("L1", grant=_date(100))
        lic.cancellation_date = _date(100)
        assert license_interval(lic) is None


class TestRawEvents:
    def test_event_ids_between_includes_shadowed_dates(self):
        # A termination recorded *after* an earlier effective cancellation
        # never changes the active set, but it is still a reportable raw
        # event — the candidate set must include it.
        lic = make_license("L1", grant=_date(0))
        lic.cancellation_date = _date(50)
        lic.termination_date = _date(80)
        index = TemporalIndex([lic])
        assert index.event_ids_between(_date(70), _date(90)) == ["L1"]
        assert index.event_ids_between(_date(51), _date(79)) == []

    def test_window_is_half_open(self):
        lic = make_license("L1", grant=_date(10))
        index = TemporalIndex([lic])
        assert index.event_ids_between(_date(9), _date(10)) == ["L1"]
        assert index.event_ids_between(_date(10), _date(11)) == []

    def test_degenerate_window_raises(self):
        index = TemporalIndex([])
        with pytest.raises(ValueError):
            index.event_ids_between(_date(5), _date(5))


class TestEmptyAndIntrospection:
    def test_empty_index(self):
        index = TemporalIndex([])
        assert index.active_ids_at(_date(0)) == frozenset()
        assert index.active_count_at(_date(0)) == 0
        assert index.event_count == 0
        assert index.event_dates == ()

    def test_event_count_and_dates(self):
        a = make_license("L1", grant=_date(0))
        a.expiration_date = _date(10)
        b = make_license("L2", grant=_date(0))
        b.expiration_date = None
        index = TemporalIndex([a, b])
        # Two grants + one expiration = 3 events over 2 distinct dates.
        assert index.event_count == 3
        assert index.event_dates == (_date(0), _date(10))

    def test_memoised_fingerprints_are_identical_objects(self):
        # The engine relies on repeat lookups returning the *same*
        # frozenset object (cached hash, cheap key equality).
        lic = make_license("L1", grant=_date(0))
        index = TemporalIndex([lic])
        assert index.active_ids_at(_date(5)) is index.active_ids_at(_date(6))


class TestDatabaseIntegration:
    def test_database_index_matches_active_on(self):
        licenses = _build_licenses(
            [(0, 500, None, None), (100, None, 300, None), (None, None, None, None)]
        )
        db = UlsDatabase(licenses)
        for p in (0, 50, 99, 100, 299, 300, 400, 600):
            date = _date(p)
            assert frozenset(
                lic.license_id for lic in db.active_on(date)
            ) == db.temporal_index().active_ids_at(date)

    def test_mutation_bumps_generation_and_invalidates(self):
        db = UlsDatabase([make_license("L1", grant=_date(0))])
        before = db.generation
        index = db.temporal_index()
        assert db.temporal_index() is index  # cached
        db.add(make_license("L2", grant=_date(10)))
        assert db.generation == before + 1
        fresh = db.temporal_index()
        assert fresh is not index
        assert "L2" in fresh.active_ids_at(_date(20))

    def test_per_licensee_index(self):
        a = make_license("L1", licensee="Alpha", grant=_date(0))
        b = make_license("L2", licensee="Beta", grant=_date(0))
        db = UlsDatabase([a, b])
        assert db.temporal_index("Alpha").active_ids_at(_date(5)) == {"L1"}
        assert db.temporal_index("Beta").active_ids_at(_date(5)) == {"L2"}
        assert db.temporal_index("Nobody").active_ids_at(_date(5)) == frozenset()

