"""Tests for the ULS license data model."""

from __future__ import annotations

import dataclasses
import datetime as dt
import pickle

import pytest

from repro.geodesy import GeoPoint
from repro.uls.database import UlsDatabase
from repro.uls.records import (
    License,
    MicrowavePath,
    TowerLocation,
    active_licenses,
    format_date,
    licenses_by_licensee,
    parse_date,
    total_filings,
)
from tests.conftest import make_license


class TestTowerLocation:
    def test_location_numbers_start_at_one(self):
        with pytest.raises(ValueError):
            TowerLocation(0, GeoPoint(0.0, 0.0))

    def test_rejects_negative_height(self):
        with pytest.raises(ValueError):
            TowerLocation(1, GeoPoint(0.0, 0.0), structure_height_m=-5.0)

    def test_antenna_height_amsl(self):
        loc = TowerLocation(1, GeoPoint(0.0, 0.0), 200.0, 110.0)
        assert loc.antenna_height_amsl_m == 310.0


class TestMicrowavePath:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            MicrowavePath(1, 1, 1)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            MicrowavePath(1, 1, 2, (0.0,))

    def test_rejects_zero_path_number(self):
        with pytest.raises(ValueError):
            MicrowavePath(0, 1, 2)


class TestLicenseValidation:
    def test_path_must_reference_locations(self):
        with pytest.raises(ValueError, match="undefined"):
            License(
                license_id="L1",
                callsign="W1",
                licensee_name="X",
                locations={1: TowerLocation(1, GeoPoint(0.0, 0.0))},
                paths=[MicrowavePath(1, 1, 2)],
            )

    def test_requires_nonempty_ids(self):
        with pytest.raises(ValueError):
            License(license_id="", callsign="W", licensee_name="X")
        with pytest.raises(ValueError):
            License(license_id="L", callsign="W", licensee_name="")


class TestIsActive:
    def test_pending_license_inactive(self):
        lic = make_license(grant=None)
        assert not lic.is_active(dt.date(2020, 1, 1))

    def test_active_between_grant_and_cancellation(self):
        lic = make_license(
            grant=dt.date(2015, 3, 1), cancellation=dt.date(2018, 6, 1)
        )
        assert not lic.is_active(dt.date(2015, 2, 28))
        assert lic.is_active(dt.date(2015, 3, 1))  # grant day counts
        assert lic.is_active(dt.date(2018, 5, 31))
        assert not lic.is_active(dt.date(2018, 6, 1))  # cancel day does not
        assert not lic.is_active(dt.date(2019, 1, 1))

    def test_termination_also_deactivates(self):
        lic = make_license(termination=dt.date(2017, 1, 1))
        assert lic.is_active(dt.date(2016, 12, 31))
        assert not lic.is_active(dt.date(2017, 1, 1))

    def test_expiration_deactivates(self):
        lic = make_license(grant=dt.date(2010, 1, 1))
        assert lic.is_active(dt.date(2015, 1, 1))
        assert not lic.is_active(dt.date(2030, 1, 1))

    def test_active_filter_helper(self):
        lic1 = make_license("L1", grant=dt.date(2015, 1, 1))
        lic2 = make_license("L2", grant=dt.date(2019, 1, 1))
        active = active_licenses([lic1, lic2], dt.date(2016, 1, 1))
        assert [lic.license_id for lic in active] == ["L1"]


class TestGeometryHelpers:
    def test_path_length_plausible(self):
        lic = make_license(points=((41.75, -88.18), (41.75, -87.58)))
        (length,) = [lic.path_length_m(path) for path in lic.paths]
        # 0.6 degrees of longitude at 41.75N is ~49.8 km.
        assert length == pytest.approx(49_800.0, rel=0.01)

    def test_iter_links_yields_endpoint_objects(self):
        lic = make_license(points=((41.0, -88.0), (41.1, -87.8), (41.2, -87.6)))
        links = list(lic.iter_links())
        assert len(links) == 2
        tx, rx, path = links[0]
        assert tx.location_number == path.tx_location_number

    def test_all_frequencies_sorted(self):
        lic = make_license(frequencies=(11485.0, 10995.0))
        assert lic.all_frequencies_mhz == (10995.0, 11485.0)


class TestDates:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("2020-04-01", dt.date(2020, 4, 1)),
            ("04/01/2020", dt.date(2020, 4, 1)),
            ("", None),
            (None, None),
            ("  ", None),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_date(text) == expected

    def test_format_styles(self):
        date = dt.date(2020, 4, 1)
        assert format_date(date) == "2020-04-01"
        assert format_date(date, "us") == "04/01/2020"
        assert format_date(None) == ""
        with pytest.raises(ValueError):
            format_date(date, "eu")


def test_grouping_and_counts():
    lics = [
        make_license("L1", licensee="A"),
        make_license("L2", licensee="B"),
        make_license("L3", licensee="A"),
    ]
    grouped = licenses_by_licensee(lics)
    assert sorted(grouped) == ["A", "B"]
    assert total_filings(grouped["A"]) == 2


class TestPickling:
    """The explicit pickle state of the record types: every field round-
    trips, and pickled databases keep their content digest."""

    def _full_license(self) -> License:
        lic = make_license(
            license_id="P0001",
            points=((41.75, -88.18), (41.60, -87.80), (41.40, -87.20)),
            cancellation=dt.date(2019, 6, 1),
            termination=dt.date(2019, 7, 1),
            frequencies=(6000.0, 11225.0),
        )
        return dataclasses.replace(
            lic,
            callsign="WQP001",
            contact_email="ops@example.com",
            expiration_date=dt.date(2025, 3, 1),
            locations={
                number: dataclasses.replace(location, site_name=f"site {number}")
                for number, location in lic.locations.items()
            },
        )

    @pytest.mark.parametrize("kind", [TowerLocation, MicrowavePath, License])
    def test_state_covers_every_field(self, kind):
        lic = self._full_license()
        sample = {
            TowerLocation: lic.locations[1],
            MicrowavePath: lic.paths[0],
            License: lic,
        }[kind]
        assert len(sample.__getstate__()) == len(dataclasses.fields(kind))

    def test_round_trip_equality(self):
        lic = self._full_license()
        copy = pickle.loads(pickle.dumps(lic, protocol=pickle.HIGHEST_PROTOCOL))
        assert copy == lic
        assert copy.locations[2] == lic.locations[2]
        assert copy.paths == lic.paths
        bare = make_license(license_id="P0002")
        assert pickle.loads(pickle.dumps(bare)) == bare

    def test_pickled_database_keeps_its_digest(self, scenario):
        database = scenario.database
        copy = pickle.loads(pickle.dumps(database, protocol=pickle.HIGHEST_PROTOCOL))
        assert copy.content_digest() == database.content_digest()
        rebuilt = UlsDatabase(pickle.loads(pickle.dumps(list(database))))
        assert rebuilt.content_digest() == database.content_digest()
