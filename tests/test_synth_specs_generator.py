"""Tests for spec validation and the license generator."""

from __future__ import annotations

import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.constants import SPEED_OF_LIGHT
from repro.core.corridor import CorridorSpec, DataCenterSite, chicago_nj_corridor
from repro.core.reconstruction import NetworkReconstructor
from repro.geodesy import GeoPoint, active_memo, geodesic_destination, geodesic_distance
from repro.scenarios.synthetic import _network_spec
from repro.synth import generator
from repro.synth.generator import (
    CalibrationError,
    NetworkBuilder,
    _mw_length_target_m,
    build_network_licenses,
)
from repro.synth.noise import SmoothNoise
from repro.synth.scenario import (
    build_scenario,
    europe2020_scenario,
    tokyo_singapore_scenario,
)
from repro.synth.specs import (
    BranchSpec,
    EraSpec,
    FrequencyProfile,
    NetworkSpec,
)
from repro.synth.towers import ChainLayout

CORRIDOR = chicago_nj_corridor()
FREQS = FrequencyProfile(trunk_bands=(("11GHz", 1.0),))


def _spec(**overrides) -> NetworkSpec:
    defaults = dict(
        name="Unit Test Net",
        callsign_prefix="WQUT",
        seed=99,
        trunk_links=12,
        ny4_target_ms=3.9700,
        frequency_profile=FREQS,
    )
    defaults.update(overrides)
    return NetworkSpec(**defaults)


class TestSpecValidation:
    def test_frequency_profile_validation(self):
        with pytest.raises(ValueError):
            FrequencyProfile(trunk_bands=(("99GHz", 1.0),))
        with pytest.raises(ValueError):
            FrequencyProfile(trunk_bands=())
        with pytest.raises(ValueError):
            FrequencyProfile(trunk_bands=(("6GHz", -1.0),))

    def test_branch_validation(self):
        with pytest.raises(ValueError):
            BranchSpec("NYSE", split_link=0, n_links=5, latency_target_ms=3.9)
        with pytest.raises(ValueError):
            BranchSpec("NYSE", split_link=5, n_links=5, latency_target_ms=3.9,
                       bypass_covered=(7,))

    def test_era_validation(self):
        with pytest.raises(ValueError):
            EraSpec(dt.date(2015, 1, 1), None, 10, coverage=1.0)  # disconnected needs <1
        with pytest.raises(ValueError):
            EraSpec(dt.date(2015, 1, 1), 3.98, 10, coverage=0.5)  # connected needs full

    def test_network_spec_validation(self):
        with pytest.raises(ValueError, match="beyond the trunk"):
            _spec(branches=(BranchSpec("NYSE", split_link=20, n_links=4,
                                       latency_target_ms=3.95),))
        with pytest.raises(ValueError, match="chronological"):
            _spec(eras=(
                EraSpec(dt.date(2016, 1, 1), 3.99, 12),
                EraSpec(dt.date(2015, 1, 1), 3.98, 12),
            ))
        with pytest.raises(ValueError, match="out of range"):
            _spec(trunk_bypass_covered=(40,))
        with pytest.raises(ValueError, match="duplicate branch"):
            _spec(branches=(
                BranchSpec("NYSE", 4, 4, 3.95),
                BranchSpec("NYSE", 6, 4, 3.96),
            ))

    def test_era_boundaries(self):
        spec = _spec(
            eras=(
                EraSpec(dt.date(2015, 1, 10), 3.99, 12),
                EraSpec(dt.date(2016, 2, 10), 3.985, 12),
            ),
            final_era_start=dt.date(2018, 3, 1),
        )
        boundaries = spec.era_boundaries()
        assert boundaries[0][1] == dt.date(2016, 2, 10)
        assert boundaries[1][1] == dt.date(2018, 3, 1)


class TestCalibration:
    def test_latency_target_hit_through_pipeline(self):
        licenses = build_network_licenses(_spec(), CORRIDOR)
        reconstructor = NetworkReconstructor(CORRIDOR)
        network = reconstructor.reconstruct(licenses, dt.date(2020, 4, 1))
        route = network.lowest_latency_route("CME", "NY4")
        assert route.latency_ms == pytest.approx(3.9700, abs=2e-5)
        assert route.tower_count == 13  # trunk_links + 1

    def test_impossible_target_raises(self):
        with pytest.raises(CalibrationError):
            build_network_licenses(_spec(ny4_target_ms=3.90), CORRIDOR)

    def test_mw_length_target_arithmetic(self):
        # 3.9700 ms with 1.7 km of fiber: L = c*t - 1.5*fiber.
        length = _mw_length_target_m(3.9700, 1_700.0)
        assert length == pytest.approx(299_792_458.0 * 3.97e-3 - 2_550.0)

    def test_target_below_fiber_raises(self):
        with pytest.raises(CalibrationError):
            _mw_length_target_m(0.001, 1_000_000.0)

    def test_branch_calibration(self):
        spec = _spec(
            branches=(
                BranchSpec("NASDAQ", split_link=4, n_links=10,
                           latency_target_ms=3.9450, gateway_km=0.45),
            )
        )
        licenses = build_network_licenses(spec, CORRIDOR)
        network = NetworkReconstructor(CORRIDOR).reconstruct(
            licenses, dt.date(2020, 4, 1)
        )
        route = network.lowest_latency_route("CME", "NASDAQ")
        assert route.latency_ms == pytest.approx(3.9450, abs=2e-5)


#: paper2020's bisection, one row per calibrate call in build order:
#: (licensee, calibration_report key, amplitude, length decisions, exact
#: evaluations).  A decision places the towers at one amplitude and
#: compares the chain length with the target, trying the Lambert bound
#: first; an exact evaluation is a decision the bound could not settle,
#: so it summed Vincenty hops.  Any change to the amplitude sequence, the bisection, the chain
#: geometry or the bound moves a row.
PAPER2020_CALIBRATION = (
    ('New Line Networks', 'trunk[103]', 32812.5, 17, 2),
    ('New Line Networks', 'trunk[104]', 24812.5, 15, 2),
    ('New Line Networks', 'trunk[105]', 14312.5, 13, 4),
    ('New Line Networks', 'trunk[0]', 9125.0, 12, 2),
    ('New Line Networks', 'branch[NYSE]', 5437.5, 11, 2),
    ('New Line Networks', 'branch[NASDAQ]', 6937.5, 11, 3),
    ('Pierce Broadband', 'trunk[0]', 9656.25, 14, 4),
    ('Pierce Broadband', 'branch[NYSE]', 25648.4375, 18, 4),
    ('Pierce Broadband', 'branch[NASDAQ]', 16671.875, 17, 4),
    ('Jefferson Microwave', 'trunk[102]', 37203.125, 19, 4),
    ('Jefferson Microwave', 'trunk[103]', 28859.375, 17, 4),
    ('Jefferson Microwave', 'trunk[104]', 27234.375, 17, 4),
    ('Jefferson Microwave', 'trunk[105]', 23906.25, 16, 4),
    ('Jefferson Microwave', 'trunk[0]', 15718.75, 14, 4),
    ('Jefferson Microwave', 'branch[NYSE]', 6562.5, 11, 2),
    ('Jefferson Microwave', 'branch[NASDAQ]', 2750.0, 7, 2),
    ('Blueline Comm', 'trunk[101]', 40968.75, 18, 2),
    ('Blueline Comm', 'trunk[102]', 31421.875, 17, 4),
    ('Blueline Comm', 'trunk[0]', 18531.25, 16, 4),
    ('Blueline Comm', 'branch[NYSE]', 31156.25, 16, 2),
    ('Blueline Comm', 'branch[NASDAQ]', 21968.75, 16, 3),
    ('Webline Holdings', 'trunk[101]', 54640.625, 19, 4),
    ('Webline Holdings', 'trunk[102]', 46437.5, 17, 2),
    ('Webline Holdings', 'trunk[103]', 34828.125, 19, 4),
    ('Webline Holdings', 'trunk[104]', 28546.875, 17, 4),
    ('Webline Holdings', 'trunk[105]', 26343.75, 16, 3),
    ('Webline Holdings', 'trunk[106]', 24906.25, 16, 3),
    ('Webline Holdings', 'trunk[0]', 20125.0, 14, 2),
    ('Webline Holdings', 'branch[NYSE]', 83562.5, 19, 2),
    ('Webline Holdings', 'branch[NASDAQ]', 9500.0, 10, 2),
    ('AQ2AT', 'trunk[101]', 46492.1875, 20, 4),
    ('AQ2AT', 'trunk[0]', 43828.125, 19, 4),
    ('Wireless Internetwork', 'trunk[101]', 78625.0, 18, 2),
    ('Wireless Internetwork', 'trunk[0]', 72921.875, 21, 2),
    ('GTT Americas', 'trunk[101]', 111468.75, 20, 2),
    ('GTT Americas', 'trunk[0]', 95281.25, 20, 2),
    ('SW Networks', 'trunk[101]', 124246.09375, 23, 4),
    ('SW Networks', 'trunk[0]', 130109.375, 23, 2),
    ('National Tower Company', 'trunk[102]', 37750.0, 15, 2),
    ('National Tower Company', 'trunk[103]', 37156.25, 18, 3),
    ('National Tower Company', 'trunk[0]', 34656.25, 18, 3),
)

#: The same rows for europe2020 (~671 km, short hops).
EUROPE2020_CALIBRATION = (
    ('Channel Wave Networks', 'trunk[101]', 24156.25, 16, 3),
    ('Channel Wave Networks', 'trunk[0]', 10000.0, 8, 2),
    ('Rhine Crossing Comm', 'trunk[101]', 24109.375, 17, 4),
    ('Rhine Crossing Comm', 'trunk[0]', 12812.5, 13, 2),
    ('Lowland Relay', 'trunk[101]', 39250.0, 15, 2),
    ('Lowland Relay', 'trunk[0]', 27250.0, 13, 2),
)

#: The same rows for tokyo-singapore (~5,314 km, long hops).
TOKYO_SINGAPORE_CALIBRATION = (
    ('Pacific Rim Relay', 'trunk[101]', 163156.25, 22, 5),
    ('Pacific Rim Relay', 'trunk[0]', 79906.25, 20, 5),
    ('Straits Microwave', 'trunk[101]', 181078.125, 23, 5),
    ('Straits Microwave', 'trunk[0]', 92468.75, 20, 5),
    ('Archipelago Wave', 'trunk[101]', 184562.5, 21, 3),
    ('Archipelago Wave', 'trunk[0]', 128421.875, 23, 6),
)


def _record_calibration(build) -> list[tuple]:
    """Every calibrate call of one scenario build: its key, amplitude,
    decisions (each tries the bounded length first), exact evaluations,
    the memo active during it and the ``synth.calibrate.*`` counters it
    emitted."""
    calls = []
    patch = pytest.MonkeyPatch()
    decisions = [0]
    exact = [0]
    bounded_length = ChainLayout.bounded_length
    exact_length = ChainLayout.exact_length

    def counted_bounded_length(chain_sites):
        decisions[0] += 1
        return bounded_length(chain_sites)

    def counted_exact_length(chain_sites):
        exact[0] += 1
        return exact_length(chain_sites)

    def recorded(calibrate):
        def wrapper(builder, *args, **kwargs):
            decisions[0] = exact[0] = 0
            before = dict(builder.calibration_report)
            memo = active_memo()
            with obs.capture() as cap:
                points = calibrate(builder, *args, **kwargs)
            (key,) = builder.calibration_report.keys() - before.keys()
            calls.append((
                builder.spec.name, key, builder.calibration_report[key],
                decisions[0], exact[0], memo, cap.counters(),
            ))
            return points
        return wrapper

    patch.setattr(ChainLayout, "bounded_length", staticmethod(counted_bounded_length))
    patch.setattr(ChainLayout, "exact_length", staticmethod(counted_exact_length))
    for name in ("calibrate_trunk", "calibrate_branch"):
        patch.setattr(
            generator.NetworkBuilder, name,
            recorded(getattr(generator.NetworkBuilder, name)),
        )
    try:
        build()
    finally:
        patch.undo()
    return calls


class _ScenarioCalibration:
    """Pins one scenario's calibration: amplitudes bit for bit, how many
    comparisons each bisection made and how many needed Vincenty."""

    PINNED: tuple = ()
    build = staticmethod(build_scenario)

    @pytest.fixture(scope="class")
    def calls(self):
        return _record_calibration(self.build)

    def test_bisection_sequence_pinned(self, calls):
        assert tuple(call[:5] for call in calls) == self.PINNED

    def test_no_geodesic_memo_during_build(self, calls):
        # ChainLayout solves without consulting a memo; that is only
        # equivalent to the memoised path because none is installed here.
        assert all(call[5] is None for call in calls)

    def test_counters_split_each_call_once(self, calls):
        for _, _, _, decisions, exact, _, counters in calls:
            assert counters == {
                "synth.calibrate.bounded": decisions - exact,
                "synth.calibrate.exact": exact,
            }


class TestPaper2020Calibration(_ScenarioCalibration):
    PINNED = PAPER2020_CALIBRATION


class TestEurope2020Calibration(_ScenarioCalibration):
    PINNED = EUROPE2020_CALIBRATION
    build = staticmethod(europe2020_scenario)


class TestTokyoSingaporeCalibration(_ScenarioCalibration):
    PINNED = TOKYO_SINGAPORE_CALIBRATION
    build = staticmethod(tokyo_singapore_scenario)


def _exact_only_bisection(layout: ChainLayout, target_m: float, what: str) -> float:
    """The oracle: the bisection with every comparison read off the exact
    chain length."""
    tolerance = generator._CALIBRATION_TOLERANCE_M
    base = layout.length(0.0)
    if base > target_m + tolerance:
        raise CalibrationError(f"{what}: straight chain too long")
    if abs(base - target_m) <= tolerance:
        return 0.0
    high = 2_000.0
    while layout.length(high) < target_m:
        high *= 2.0
        if high > 1_000_000.0:
            raise CalibrationError(f"{what}: target unreachable")
    low = 0.0
    for _ in range(80):
        mid = (low + high) / 2.0
        length = layout.length(mid)
        if abs(length - target_m) <= tolerance:
            return mid
        if length < target_m:
            low = mid
        else:
            high = mid
    return (low + high) / 2.0


def _calibration_outcome(spec: NetworkSpec, corridor) -> dict | str:
    """The builder's calibration report, or the error that stopped it."""
    builder = NetworkBuilder(spec, corridor)
    try:
        builder.build()
    except CalibrationError as error:
        return type(error).__name__
    return builder.calibration_report


class TestBoundedBisection:
    """Bounded lengths only skip work: every decision, and so every
    amplitude, is the exact-only bisection's."""

    @given(
        seed=st.integers(0, 10_000),
        index=st.integers(0, 11),
        links=st.integers(12, 40),
        eras=st.integers(1, 3),
        west_lat=st.floats(-60.0, 60.0),
        west_lon=st.floats(-180.0, 180.0),
        azimuth=st.floats(0.0, 360.0),
        corridor_km=st.floats(250.0, 4_000.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_synthetic_amplitudes_match_exact_only_bisection(
        self, seed, index, links, eras, west_lat, west_lon, azimuth, corridor_km
    ):
        west = GeoPoint(west_lat, west_lon)
        east = geodesic_destination(west, azimuth, corridor_km * 1000.0)
        corridor = CorridorSpec(
            west=DataCenterSite("WDC", west), east=(DataCenterSite("EDC", east),)
        )
        c_bound_ms = geodesic_distance(west, east) / SPEED_OF_LIGHT * 1e3
        spec = _network_spec(index, seed, links, eras, c_bound_ms)

        bounded = _calibration_outcome(spec, corridor)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(generator, "_bisect_amplitude", _exact_only_bisection)
            exact = _calibration_outcome(spec, corridor)
        assert bounded == exact

    def _counted(self, layout: ChainLayout) -> dict:
        base = layout.length(0.0)
        with obs.capture() as cap, pytest.raises(CalibrationError, match="unreachable"):
            generator._bisect_amplitude(layout, base + 1_000.0, "one hop")
        return cap.counters()

    def test_counters_split_a_short_hop_chain(self):
        # A one-hop chain never lengthens: the base is exact, then the
        # nine bracket doublings up to 1000 km are all decided cheaply.
        layout = ChainLayout(CORRIDOR.west.point, CORRIDOR.east[0].point, 1, SmoothNoise(1))
        assert self._counted(layout) == {
            "synth.calibrate.bounded": 9,
            "synth.calibrate.exact": 1,
        }

    def test_hop_past_a_quarter_great_circle_goes_straight_to_vincenty(self):
        tokyo = GeoPoint(35.6242, 139.7410)
        layout = ChainLayout(tokyo, CORRIDOR.east[0].point, 1, SmoothNoise(1))
        assert self._counted(layout) == {
            "synth.calibrate.bounded": 0,
            "synth.calibrate.exact": 10,
        }


class TestStructure:
    def test_bypass_coverage_produces_apa(self):
        from repro.core.apa import apa_percent

        spec = _spec(trunk_bypass_covered=(2, 3, 6, 7, 9))
        licenses = build_network_licenses(spec, CORRIDOR)
        network = NetworkReconstructor(CORRIDOR).reconstruct(
            licenses, dt.date(2020, 4, 1)
        )
        assert apa_percent(network, network.lowest_latency_route("CME", "NY4")) == round(100 * 5 / 12)

    def test_history_eras_activate_in_sequence(self):
        spec = _spec(
            eras=(
                EraSpec(dt.date(2015, 3, 1), None, 12, coverage=0.5, seed_salt=1),
                EraSpec(dt.date(2016, 3, 1), 3.9900, 12, seed_salt=2),
            ),
            final_era_start=dt.date(2019, 1, 15),
        )
        licenses = build_network_licenses(spec, CORRIDOR)
        reconstructor = NetworkReconstructor(CORRIDOR)
        partial = reconstructor.reconstruct(licenses, dt.date(2015, 6, 1))
        assert not partial.is_connected("CME", "NY4")
        era1 = reconstructor.reconstruct(licenses, dt.date(2016, 6, 1))
        assert era1.lowest_latency_route("CME", "NY4").latency_ms == pytest.approx(
            3.9900, abs=2e-5
        )
        final = reconstructor.reconstruct(licenses, dt.date(2020, 1, 1))
        assert final.lowest_latency_route("CME", "NY4").latency_ms == pytest.approx(
            3.9700, abs=2e-5
        )

    def test_license_count_padding(self):
        spec = _spec(
            license_count_targets=((dt.date(2020, 4, 1), 40),),
        )
        licenses = build_network_licenses(spec, CORRIDOR)
        active = [lic for lic in licenses if lic.is_active(dt.date(2020, 4, 1))]
        assert len(active) == 40

    def test_padding_duplicates_do_not_change_latency(self):
        bare = build_network_licenses(_spec(), CORRIDOR)
        padded = build_network_licenses(
            _spec(license_count_targets=((dt.date(2020, 4, 1), 40),)), CORRIDOR
        )
        reconstructor = NetworkReconstructor(CORRIDOR)
        date = dt.date(2020, 4, 1)
        bare_route = reconstructor.reconstruct(bare, date).lowest_latency_route("CME", "NY4")
        padded_route = reconstructor.reconstruct(padded, date).lowest_latency_route("CME", "NY4")
        assert padded_route.latency_ms == pytest.approx(bare_route.latency_ms, abs=1e-9)
        assert padded_route.tower_count == bare_route.tower_count

    def test_impossible_padding_target_raises(self):
        spec = _spec(license_count_targets=((dt.date(2020, 4, 1), 3),))
        with pytest.raises(ValueError, match="already exceed"):
            build_network_licenses(spec, CORRIDOR)

    def test_wind_down_cancels_everything(self):
        spec = _spec(
            wind_down=(dt.date(2017, 1, 1), dt.date(2018, 1, 1)),
            final_era_start=dt.date(2015, 1, 15),
        )
        licenses = build_network_licenses(spec, CORRIDOR)
        assert all(lic.cancellation_date is not None for lic in licenses)
        assert not any(lic.is_active(dt.date(2018, 6, 1)) for lic in licenses)
        assert any(lic.is_active(dt.date(2016, 6, 1)) for lic in licenses)

    def test_paired_licensing_halves_filings(self):
        single = build_network_licenses(_spec(), CORRIDOR)
        paired = build_network_licenses(
            _spec(links_per_license=2, seed=98, callsign_prefix="WQUP",
                  name="Paired Net"), CORRIDOR
        )
        assert len(paired) < len(single)
        # Pairing must not change the reconstructed route.
        reconstructor = NetworkReconstructor(CORRIDOR)
        route = reconstructor.reconstruct(
            paired, dt.date(2020, 4, 1)
        ).lowest_latency_route("CME", "NY4")
        assert route.tower_count == 13

    def test_spur_links_do_not_affect_route(self):
        bare = build_network_licenses(_spec(), CORRIDOR)
        spurred = build_network_licenses(_spec(spur_links=3), CORRIDOR)
        reconstructor = NetworkReconstructor(CORRIDOR)
        date = dt.date(2020, 4, 1)
        bare_route = reconstructor.reconstruct(bare, date).lowest_latency_route("CME", "NY4")
        spur_route = reconstructor.reconstruct(spurred, date).lowest_latency_route("CME", "NY4")
        assert spur_route.latency_ms == pytest.approx(bare_route.latency_ms, abs=1e-6)

    def test_deterministic_generation(self):
        first = build_network_licenses(_spec(), CORRIDOR)
        second = build_network_licenses(_spec(), CORRIDOR)
        assert [lic.license_id for lic in first] == [lic.license_id for lic in second]
        assert all(
            a.locations[1].point.rounded(9) == b.locations[1].point.rounded(9)
            for a, b in zip(first, second)
        )

    def test_calibration_report_populated(self):
        builder = NetworkBuilder(_spec(), CORRIDOR)
        builder.build()
        assert "trunk[0]" in builder.calibration_report
