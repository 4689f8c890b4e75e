"""Unit and property tests for the WGS84 geodesic solver."""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.geodesy import (
    EARTH_EQUATORIAL_RADIUS_M,
    EARTH_MEAN_RADIUS_M,
    EARTH_POLAR_RADIUS_M,
    GeoPoint,
    geodesic_azimuth,
    geodesic_destination,
    geodesic_distance,
    geodesic_inverse,
    great_circle_distance,
)
from repro.geodesy.earth import (
    EARTH_FLATTENING,
    LAMBERT_HOP_ERROR_M,
    LAMBERT_MAX_CENTRAL_ANGLE,
    LAMBERT_RELATIVE_ERROR,
    inverse_trig,
    lambert_distance_trig,
    reduced_latitude_trig,
)

JFK = GeoPoint(40.6413, -73.7781)
LHR = GeoPoint(51.4700, -0.4543)
CME = GeoPoint(41.7580, -88.1801)
NY4 = GeoPoint(40.7773, -74.0700)

# Moderate-latitude strategy away from the poles, where geodesics are
# numerically friendly (the corridor's regime).
lat = st.floats(min_value=-70.0, max_value=70.0, allow_nan=False)
lon = st.floats(min_value=-179.0, max_value=179.0, allow_nan=False)


class TestGeoPoint:
    def test_latitude_bounds_enforced(self):
        with pytest.raises(ValueError):
            GeoPoint(91.0, 0.0)
        with pytest.raises(ValueError):
            GeoPoint(-91.0, 0.0)

    def test_longitude_bounds_enforced(self):
        with pytest.raises(ValueError):
            GeoPoint(0.0, 181.0)

    def test_iteration_yields_lat_lon(self):
        assert tuple(GeoPoint(1.5, 2.5)) == (1.5, 2.5)

    def test_rounded_key_is_hashable_and_stable(self):
        point = GeoPoint(41.123456789, -88.987654321)
        assert point.rounded(6) == (41.123457, -88.987654)

    def test_elevation_does_not_change_distance(self):
        a = GeoPoint(41.0, -88.0, elevation_m=0.0)
        b = GeoPoint(41.0, -88.0, elevation_m=350.0)
        assert geodesic_distance(a, b) == 0.0


class TestInverse:
    def test_known_transatlantic_distance(self):
        # GeographicLib gives 5554.93 km for JFK-LHR on WGS84.
        assert geodesic_distance(JFK, LHR) == pytest.approx(5_554_930.0, rel=2e-4)

    def test_corridor_distance_matches_paper(self):
        assert geodesic_distance(CME, NY4) / 1000.0 == pytest.approx(1186.0, abs=0.2)

    def test_zero_for_identical_points(self):
        assert geodesic_distance(CME, CME) == 0.0

    def test_symmetry(self):
        assert geodesic_distance(CME, NY4) == pytest.approx(
            geodesic_distance(NY4, CME), abs=1e-6
        )

    def test_equatorial_degree_length(self):
        a = GeoPoint(0.0, 0.0)
        b = GeoPoint(0.0, 1.0)
        expected = math.radians(1.0) * EARTH_EQUATORIAL_RADIUS_M
        assert geodesic_distance(a, b) == pytest.approx(expected, rel=1e-6)

    def test_meridian_arc_uses_polar_flattening(self):
        # A degree of latitude near the pole is longer than near the
        # equator on an oblate ellipsoid.
        near_equator = geodesic_distance(GeoPoint(0.0, 10.0), GeoPoint(1.0, 10.0))
        near_pole = geodesic_distance(GeoPoint(79.0, 10.0), GeoPoint(80.0, 10.0))
        assert near_pole > near_equator

    def test_azimuth_eastward(self):
        azimuth = geodesic_azimuth(GeoPoint(0.0, 0.0), GeoPoint(0.0, 10.0))
        assert azimuth == pytest.approx(90.0, abs=1e-9)

    def test_azimuth_to_ny_is_roughly_east(self):
        azimuth = geodesic_azimuth(CME, NY4)
        assert 90.0 < azimuth < 100.0

    def test_spherical_vs_ellipsoidal_within_half_percent(self):
        sphere = great_circle_distance(JFK, LHR)
        ellipsoid = geodesic_distance(JFK, LHR)
        assert abs(sphere - ellipsoid) / ellipsoid < 0.005

    def test_nearly_antipodal_falls_back_gracefully(self):
        a = GeoPoint(0.0, 0.0)
        b = GeoPoint(0.3, 179.7)
        distance = geodesic_distance(a, b)
        assert distance == pytest.approx(math.pi * EARTH_MEAN_RADIUS_M, rel=0.01)


#: (start, azimuth, distance, destination) solved by the single-function
#: Vincenty direct solver before it was split into destination_setup and
#: destination_solve.  The split must not move a bit.
DIRECT_PINS = [
    ((41.758, -88.1801), 93.0, 12345.0, (41.75208737036096, -88.03187521354847)),
    ((40.7773, -74.07), 271.5, 1000000.0, (40.406339229384976, -85.88197318055695)),
    ((35.6242, 139.741), 225.0, 5300000.0, (-2.024661660594508, 108.24859425075533)),
    ((-33.87, 151.21), 10.0, 250.0, (-33.86778036429188, 151.2104691790139)),
    ((10.0, 179.9), 90.0, 50000.0, (9.999687605741057, -179.643959702914)),
    ((41.758, -88.1801), 45.0, -7500.0, (41.71023414141803, -88.24382201052009)),
]


class TestDirect:
    @pytest.mark.parametrize("start, azimuth, distance, expected", DIRECT_PINS)
    def test_destination_bit_identical_to_pinned(self, start, azimuth, distance, expected):
        destination = geodesic_destination(GeoPoint(*start), azimuth, distance)
        assert (destination.latitude, destination.longitude) == expected

    def test_destination_roundtrip(self):
        destination = geodesic_destination(CME, 90.0, 10_000.0)
        assert geodesic_distance(CME, destination) == pytest.approx(10_000.0, abs=1e-4)

    def test_zero_distance_is_identity(self):
        destination = geodesic_destination(CME, 45.0, 0.0)
        assert destination.rounded(10) == CME.rounded(10)

    def test_negative_distance_reverses_bearing(self):
        forward = geodesic_destination(CME, 90.0, 5_000.0)
        backward = geodesic_destination(CME, 270.0, -5_000.0)
        assert geodesic_distance(forward, backward) < 0.01

    def test_longitude_normalised(self):
        near_dateline = GeoPoint(10.0, 179.9)
        crossed = geodesic_destination(near_dateline, 90.0, 50_000.0)
        assert -180.0 <= crossed.longitude <= 180.0

    @given(lat, lon, st.floats(0.0, 360.0), st.floats(1.0, 2_000_000.0))
    @settings(max_examples=60, deadline=None)
    def test_direct_inverse_consistency(self, latitude, longitude, azimuth, distance):
        start = GeoPoint(latitude, longitude)
        end = geodesic_destination(start, azimuth, distance)
        measured, initial_azimuth, _ = geodesic_inverse(start, end)
        assert measured == pytest.approx(distance, rel=1e-6, abs=0.01)
        # Azimuth agrees modulo 360 (undefined for coincident points).
        if distance > 10.0:
            delta = (initial_azimuth - azimuth + 180.0) % 360.0 - 180.0
            assert abs(delta) < 1e-3


class TestMetricProperties:
    @given(lat, lon, lat, lon)
    @settings(max_examples=60, deadline=None)
    def test_symmetry_property(self, lat1, lon1, lat2, lon2):
        a, b = GeoPoint(lat1, lon1), GeoPoint(lat2, lon2)
        assert geodesic_distance(a, b) == pytest.approx(
            geodesic_distance(b, a), rel=1e-9, abs=1e-6
        )

    @given(lat, lon, lat, lon, lat, lon)
    @settings(max_examples=40, deadline=None)
    def test_triangle_inequality(self, lat1, lon1, lat2, lon2, lat3, lon3):
        a, b, c = GeoPoint(lat1, lon1), GeoPoint(lat2, lon2), GeoPoint(lat3, lon3)
        ab = geodesic_distance(a, b)
        bc = geodesic_distance(b, c)
        ac = geodesic_distance(a, c)
        assert ac <= ab + bc + 1.0  # 1 m numerical slack

    @given(lat, lon, lat, lon)
    @settings(max_examples=60, deadline=None)
    def test_non_negative_and_bounded(self, lat1, lon1, lat2, lon2):
        distance = geodesic_distance(GeoPoint(lat1, lon1), GeoPoint(lat2, lon2))
        assert 0.0 <= distance <= math.pi * EARTH_EQUATORIAL_RADIUS_M * 1.01


def test_earth_constants_consistent():
    assert EARTH_POLAR_RADIUS_M < EARTH_MEAN_RADIUS_M < EARTH_EQUATORIAL_RADIUS_M


def _both_kernels(start: GeoPoint, end: GeoPoint) -> tuple[float | None, float]:
    """``(Lambert, Vincenty)`` distances of one hop, metres."""
    trig = (*reduced_latitude_trig(start.latitude), *reduced_latitude_trig(end.latitude))
    coordinates = (start.latitude, start.longitude, end.latitude, end.longitude)
    return (
        lambert_distance_trig(*coordinates, *trig),
        inverse_trig(*coordinates, *trig)[0],
    )


class TestLambertKernel:
    """The bounded kernel that decides most calibration comparisons."""

    # Hops from 1 m to a quarter meridian (the kernel's central-angle
    # limit), at any latitude up to ±85°.  A quarter of the stated bound
    # must hold, so the bound keeps a 4× margin over the worst draw.
    @given(
        st.floats(-85.0, 85.0),
        st.floats(-180.0, 180.0),
        st.floats(0.0, 360.0),
        st.floats(1.0, 10_000_000.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_within_a_quarter_of_the_bound(self, latitude, longitude, azimuth, distance):
        start = GeoPoint(latitude, longitude)
        lambert, vincenty = _both_kernels(start, geodesic_destination(start, azimuth, distance))
        assume(lambert is not None)
        assert abs(lambert - vincenty) <= (
            LAMBERT_RELATIVE_ERROR * vincenty + LAMBERT_HOP_ERROR_M
        ) / 4.0

    def test_truncation_error_is_second_order_in_flattening(self):
        # Leaving the equator at 45° the first-order formula falls short by
        # f²/8 ≈ 1.4e-6 of the distance, the worst case over random hops:
        # seven times inside the stated relative bound.
        start = GeoPoint(0.0, 0.0)
        lambert, vincenty = _both_kernels(start, geodesic_destination(start, 45.0, 1e6))
        assert (vincenty - lambert) / vincenty == pytest.approx(
            EARTH_FLATTENING**2 / 8, rel=0.01
        )
        assert EARTH_FLATTENING**2 / 8 < LAMBERT_RELATIVE_ERROR / 7

    def test_corridor_within_bound(self):
        lambert, vincenty = _both_kernels(CME, NY4)
        assert abs(lambert - vincenty) <= LAMBERT_RELATIVE_ERROR * vincenty / 4

    def test_zero_for_identical_points(self):
        assert _both_kernels(CME, CME) == (0.0, 0.0)

    def test_declines_beyond_a_quarter_great_circle(self):
        # JFK–Sydney (~16,000 km) is past the limit: only Vincenty answers.
        lambert, vincenty = _both_kernels(JFK, GeoPoint(-33.9461, 151.1772))
        assert lambert is None
        assert vincenty > 15_000_000.0
        assert LAMBERT_MAX_CENTRAL_ANGLE == pytest.approx(math.pi / 2)
