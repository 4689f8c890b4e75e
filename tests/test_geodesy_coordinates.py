"""Tests for FCC coordinate format handling."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geodesy import GeoPoint, format_dms, parse_dms, parse_uls_coordinate
from repro.geodesy.coordinates import coordinate_key


class TestParseDms:
    def test_basic_north(self):
        assert parse_dms("41-44-34.6 N") == pytest.approx(41.742944, abs=1e-6)

    def test_west_is_negative(self):
        assert parse_dms("88-14-22.0 W") == pytest.approx(-88.239444, abs=1e-6)

    def test_south_is_negative(self):
        assert parse_dms("10-30-00.0 S") == pytest.approx(-10.5)

    def test_degree_symbol_separators(self):
        assert parse_dms("41°44'34.6\" N") == pytest.approx(41.742944, abs=1e-6)

    def test_lowercase_hemisphere(self):
        assert parse_dms("41-44-34.6 n") == pytest.approx(41.742944, abs=1e-6)

    @pytest.mark.parametrize(
        "bad",
        ["", "garbage", "41-44 N", "41-61-00.0 N", "41-44-60.0 N", "95-00-00.0 N"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_dms(bad)


class TestFormatDms:
    def test_formats_latitude(self):
        assert format_dms(41.742944, "lat") == "41-44-34.6 N"

    def test_formats_negative_longitude(self):
        assert format_dms(-88.239444, "lon") == "88-14-22.0 W"

    def test_carry_on_rounding(self):
        # 59.96" rounds to 60.0" and must carry into minutes.
        text = format_dms(10.0 + 59.0 / 60.0 + 59.96 / 3600.0, "lat")
        assert text == "11-00-00.0 N"

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            format_dms(10.0, "alt")

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            format_dms(100.0, "lat")

    @given(st.floats(min_value=-89.999, max_value=89.999))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_within_precision(self, value):
        text = format_dms(value, "lat", seconds_decimals=4)
        back = parse_dms(text)
        # 1e-4 arc-second is ~3 mm.
        assert back == pytest.approx(value, abs=1e-7)


class TestUlsCoordinate:
    def test_string_fields(self):
        value = parse_uls_coordinate("41", "44", "34.6", "N")
        assert value == pytest.approx(41.742944, abs=1e-6)

    def test_west(self):
        assert parse_uls_coordinate(88, 14, 22.0, "w") < 0

    def test_rejects_negative_components(self):
        with pytest.raises(ValueError):
            parse_uls_coordinate(-1, 0, 0.0, "N")

    def test_rejects_bad_hemisphere(self):
        with pytest.raises(ValueError):
            parse_uls_coordinate(41, 44, 34.6, "Q")

    def test_rejects_out_of_range_minutes(self):
        with pytest.raises(ValueError):
            parse_uls_coordinate(41, 60, 0.0, "N")

    @pytest.mark.parametrize(
        "fields",
        [
            ("41", "44", "nan"),
            ("41", "44", "inf"),
            ("41", "44", "-inf"),
            ("nan", "44", "34.6"),
            ("inf", "44", "34.6"),
            ("41", "nan", "34.6"),
            ("41", "inf", "34.6"),
            (41, 44, math.nan),
            (41, 44, math.inf),
        ],
    )
    def test_rejects_non_finite_components(self, fields):
        # Rejected here, not later by GeoPoint's "latitude out of range: nan".
        with pytest.raises(ValueError, match="^coordinate components out of range: "):
            parse_uls_coordinate(*fields, "N")


class TestCoordinateKey:
    def test_nearby_points_share_a_neighbourhood(self):
        a = GeoPoint(41.750000, -88.180000)
        b = GeoPoint(41.750010, -88.180010)  # ~1.5 m away
        ka, kb = coordinate_key(a, 30.0), coordinate_key(b, 30.0)
        assert abs(ka[0] - kb[0]) <= 1 and abs(ka[1] - kb[1]) <= 1

    def test_distant_points_differ(self):
        a = GeoPoint(41.75, -88.18)
        b = GeoPoint(41.85, -88.18)  # ~11 km away
        assert coordinate_key(a, 30.0) != coordinate_key(b, 30.0)

    def test_requires_positive_tolerance(self):
        with pytest.raises(ValueError):
            coordinate_key(GeoPoint(0.0, 0.0), 0.0)
