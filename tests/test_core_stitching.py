"""Tests for endpoint stitching (the object-kernel oracle)."""

from __future__ import annotations

import pytest

from repro.geodesy import GeoPoint, geodesic_destination
from repro.uls.records import TowerLocation
from tests.conftest import make_license
from tests.object_kernel import EndpointStitcher, stitch_licenses

BASE = GeoPoint(41.75, -88.00)


def _loc(point: GeoPoint, number: int = 1, **kwargs) -> TowerLocation:
    return TowerLocation(number, point, **kwargs)


class TestEndpointStitcher:
    def test_merges_endpoints_within_tolerance(self):
        stitcher = EndpointStitcher(30.0)
        nearby = geodesic_destination(BASE, 90.0, 10.0)
        assert stitcher.add_endpoint(_loc(BASE), "L1") == stitcher.add_endpoint(
            _loc(nearby), "L2"
        )

    def test_keeps_distinct_towers_apart(self):
        stitcher = EndpointStitcher(30.0)
        distinct = geodesic_destination(BASE, 90.0, 100.0)
        assert stitcher.add_endpoint(_loc(BASE), "L1") != stitcher.add_endpoint(
            _loc(distinct), "L2"
        )

    def test_tolerance_boundary(self):
        stitcher = EndpointStitcher(30.0)
        at_29 = geodesic_destination(BASE, 0.0, 29.0)
        at_31 = geodesic_destination(BASE, 0.0, 31.0)
        first = stitcher.add_endpoint(_loc(BASE), "L1")
        assert stitcher.add_endpoint(_loc(at_29), "L2") == first
        assert stitcher.add_endpoint(_loc(at_31), "L3") != first

    def test_metadata_enriched_on_merge(self):
        stitcher = EndpointStitcher(30.0)
        stitcher.add_endpoint(_loc(BASE, structure_height_m=50.0), "L1")
        stitcher.add_endpoint(
            _loc(BASE, structure_height_m=120.0, site_name="Aurora #1"), "L2"
        )
        towers, _ = stitcher.towers()
        (tower,) = towers
        assert tower.structure_height_m == 120.0
        assert tower.site_name == "Aurora #1"
        assert tower.license_ids == ("L1", "L2")

    def test_tower_ids_sorted_west_to_east(self):
        stitcher = EndpointStitcher(30.0)
        east = geodesic_destination(BASE, 90.0, 50_000.0)
        stitcher.add_endpoint(_loc(east), "L1")  # added first, but further east
        stitcher.add_endpoint(_loc(BASE), "L2")
        towers, _ = stitcher.towers()
        assert towers[0].point.longitude < towers[1].point.longitude
        assert towers[0].tower_id == "twr-0001"

    def test_ground_elevation_max_merged(self):
        stitcher = EndpointStitcher(30.0)
        stitcher.add_endpoint(_loc(BASE, ground_elevation_m=180.0), "L1")
        stitcher.add_endpoint(_loc(BASE, ground_elevation_m=200.5), "L2")
        towers, _ = stitcher.towers()
        assert towers[0].ground_elevation_m == 200.5

    def test_metadata_independent_of_endpoint_order(self):
        # The numeric fields max-merge, so any arrival order of the same
        # endpoints yields the same tower metadata (site name and anchor
        # stay first-seen by design; here every variant shares both).
        variants = [
            _loc(BASE, ground_elevation_m=150.0, structure_height_m=80.0),
            _loc(BASE, ground_elevation_m=201.0, structure_height_m=50.0),
            _loc(BASE, ground_elevation_m=175.0, structure_height_m=95.0),
            _loc(BASE, ground_elevation_m=120.0, structure_height_m=60.0),
        ]
        import itertools

        results = set()
        for order in itertools.permutations(range(len(variants))):
            stitcher = EndpointStitcher(30.0)
            for position in order:
                stitcher.add_endpoint(variants[position], f"L{position}")
            (tower,), _ = stitcher.towers()
            results.add((tower.ground_elevation_m, tower.structure_height_m))
        assert results == {(201.0, 95.0)}

    def test_requires_positive_tolerance(self):
        with pytest.raises(ValueError):
            EndpointStitcher(0.0)


class TestStitchLicenses:
    def test_chain_of_two_licenses_shares_middle_tower(self):
        middle = geodesic_destination(BASE, 90.0, 40_000.0)
        end = geodesic_destination(BASE, 90.0, 80_000.0)
        lic1 = make_license(
            "L1", points=((BASE.latitude, BASE.longitude), (middle.latitude, middle.longitude))
        )
        lic2 = make_license(
            "L2", points=((middle.latitude, middle.longitude), (end.latitude, end.longitude))
        )
        towers, links = stitch_licenses([lic1, lic2])
        assert len(towers) == 3
        assert len(links) == 2

    def test_duplicate_filings_merge_into_one_link(self):
        far = geodesic_destination(BASE, 90.0, 40_000.0)
        points = ((BASE.latitude, BASE.longitude), (far.latitude, far.longitude))
        lic1 = make_license("L1", points=points, frequencies=(10995.0,))
        lic2 = make_license("L2", points=points, frequencies=(11485.0,))
        towers, links = stitch_licenses([lic1, lic2])
        assert len(towers) == 2
        (link,) = links
        assert link.frequencies_mhz == (10995.0, 11485.0)
        assert link.license_ids == ("L1", "L2")

    def test_link_length_uses_canonical_anchor(self):
        far = geodesic_destination(BASE, 90.0, 40_000.0)
        jittered = geodesic_destination(far, 0.0, 10.0)  # second filing off by 10 m
        lic1 = make_license(
            "L1", points=((BASE.latitude, BASE.longitude), (far.latitude, far.longitude))
        )
        lic2 = make_license(
            "L2",
            points=((BASE.latitude, BASE.longitude), (jittered.latitude, jittered.longitude)),
        )
        _, links = stitch_licenses([lic1, lic2])
        (link,) = links
        assert link.length_m == pytest.approx(40_000.0, abs=1.0)

    def test_degenerate_filing_dropped(self):
        # Both endpoints stitch to the same tower: no link results.
        near = geodesic_destination(BASE, 90.0, 5.0)
        lic = make_license(
            "L1", points=((BASE.latitude, BASE.longitude), (near.latitude, near.longitude))
        )
        towers, links = stitch_licenses([lic])
        assert len(towers) == 1
        assert links == []

    def test_empty_input(self):
        towers, links = stitch_licenses([])
        assert towers == [] and links == []

    def test_deterministic_output_order(self):
        far = geodesic_destination(BASE, 90.0, 40_000.0)
        farther = geodesic_destination(BASE, 90.0, 80_000.0)
        lics = [
            make_license("L1", points=((BASE.latitude, BASE.longitude), (far.latitude, far.longitude))),
            make_license("L2", points=((far.latitude, far.longitude), (farther.latitude, farther.longitude))),
        ]
        first = stitch_licenses(lics)
        second = stitch_licenses(list(reversed(lics)))
        assert [t.point.rounded() for t in first[0]] == [
            t.point.rounded() for t in second[0]
        ]
