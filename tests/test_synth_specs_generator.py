"""Tests for spec validation and the license generator."""

from __future__ import annotations

import datetime as dt

import pytest

from repro.core.corridor import chicago_nj_corridor
from repro.core.reconstruction import NetworkReconstructor
from repro.geodesy import active_memo
from repro.synth import generator
from repro.synth.generator import (
    CalibrationError,
    NetworkBuilder,
    _mw_length_target_m,
    build_network_licenses,
)
from repro.synth.scenario import build_scenario
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
#: (licensee, calibration_report key, amplitude, chain length
#: evaluations).  Any change to the amplitude sequence, the bisection or
#: the chain geometry moves a row.
PAPER2020_CALIBRATION = (
    ('New Line Networks', 'trunk[103]', 32812.5, 17),
    ('New Line Networks', 'trunk[104]', 24812.5, 15),
    ('New Line Networks', 'trunk[105]', 14312.5, 13),
    ('New Line Networks', 'trunk[0]', 9125.0, 12),
    ('New Line Networks', 'branch[NYSE]', 5437.5, 11),
    ('New Line Networks', 'branch[NASDAQ]', 6937.5, 11),
    ('Pierce Broadband', 'trunk[0]', 9656.25, 14),
    ('Pierce Broadband', 'branch[NYSE]', 25648.4375, 18),
    ('Pierce Broadband', 'branch[NASDAQ]', 16671.875, 17),
    ('Jefferson Microwave', 'trunk[102]', 37203.125, 19),
    ('Jefferson Microwave', 'trunk[103]', 28859.375, 17),
    ('Jefferson Microwave', 'trunk[104]', 27234.375, 17),
    ('Jefferson Microwave', 'trunk[105]', 23906.25, 16),
    ('Jefferson Microwave', 'trunk[0]', 15718.75, 14),
    ('Jefferson Microwave', 'branch[NYSE]', 6562.5, 11),
    ('Jefferson Microwave', 'branch[NASDAQ]', 2750.0, 7),
    ('Blueline Comm', 'trunk[101]', 40968.75, 18),
    ('Blueline Comm', 'trunk[102]', 31421.875, 17),
    ('Blueline Comm', 'trunk[0]', 18531.25, 16),
    ('Blueline Comm', 'branch[NYSE]', 31156.25, 16),
    ('Blueline Comm', 'branch[NASDAQ]', 21968.75, 16),
    ('Webline Holdings', 'trunk[101]', 54640.625, 19),
    ('Webline Holdings', 'trunk[102]', 46437.5, 17),
    ('Webline Holdings', 'trunk[103]', 34828.125, 19),
    ('Webline Holdings', 'trunk[104]', 28546.875, 17),
    ('Webline Holdings', 'trunk[105]', 26343.75, 16),
    ('Webline Holdings', 'trunk[106]', 24906.25, 16),
    ('Webline Holdings', 'trunk[0]', 20125.0, 14),
    ('Webline Holdings', 'branch[NYSE]', 83562.5, 19),
    ('Webline Holdings', 'branch[NASDAQ]', 9500.0, 10),
    ('AQ2AT', 'trunk[101]', 46492.1875, 20),
    ('AQ2AT', 'trunk[0]', 43828.125, 19),
    ('Wireless Internetwork', 'trunk[101]', 78625.0, 18),
    ('Wireless Internetwork', 'trunk[0]', 72921.875, 21),
    ('GTT Americas', 'trunk[101]', 111468.75, 20),
    ('GTT Americas', 'trunk[0]', 95281.25, 20),
    ('SW Networks', 'trunk[101]', 124246.09375, 23),
    ('SW Networks', 'trunk[0]', 130109.375, 23),
    ('National Tower Company', 'trunk[102]', 37750.0, 15),
    ('National Tower Company', 'trunk[103]', 37156.25, 18),
    ('National Tower Company', 'trunk[0]', 34656.25, 18),
)


class TestPaper2020Calibration:
    @pytest.fixture(scope="class")
    def calls(self):
        """Every calibrate call of a fresh paper2020 build, with the
        length evaluations it made and the memo active during it."""
        calls = []
        patch = pytest.MonkeyPatch()
        evaluations = [0]
        length = ChainLayout.length

        def counted_length(layout, amplitude_m):
            evaluations[0] += 1
            return length(layout, amplitude_m)

        def recorded(calibrate):
            def wrapper(builder, *args, **kwargs):
                evaluations[0] = 0
                before = dict(builder.calibration_report)
                memo = active_memo()
                points = calibrate(builder, *args, **kwargs)
                (key,) = builder.calibration_report.keys() - before.keys()
                calls.append((
                    builder.spec.name, key,
                    builder.calibration_report[key], evaluations[0], memo,
                ))
                return points
            return wrapper

        patch.setattr(ChainLayout, "length", counted_length)
        for name in ("calibrate_trunk", "calibrate_branch"):
            patch.setattr(
                generator.NetworkBuilder, name,
                recorded(getattr(generator.NetworkBuilder, name)),
            )
        try:
            build_scenario()
        finally:
            patch.undo()
        return calls

    def test_bisection_sequence_pinned(self, calls):
        assert tuple(call[:4] for call in calls) == PAPER2020_CALIBRATION

    def test_no_geodesic_memo_during_build(self, calls):
        # ChainLayout solves without consulting a memo; that is only
        # equivalent to the memoised path because none is installed here.
        assert all(call[4] is None for call in calls)


class TestStructure:
    def test_bypass_coverage_produces_apa(self):
        from repro.metrics.apa import apa_percent

        spec = _spec(trunk_bypass_covered=(2, 3, 6, 7, 9))
        licenses = build_network_licenses(spec, CORRIDOR)
        network = NetworkReconstructor(CORRIDOR).reconstruct(
            licenses, dt.date(2020, 4, 1)
        )
        assert apa_percent(network, "CME", "NY4") == round(100 * 5 / 12)

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
