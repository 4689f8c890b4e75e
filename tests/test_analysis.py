"""Tests for the analysis drivers (funnel, figures, ablations, report)."""

from __future__ import annotations

import datetime as dt

import pytest

from repro.analysis.ablations import (
    apa_slack_sweep,
    fiber_mode_comparison,
    fiber_radius_sweep,
    per_tower_overhead_crossover,
    stitch_tolerance_sweep,
)
from repro.analysis.figures import fig3_network_maps, fig5_leo_comparison
from repro.analysis.funnel import run_scraping_funnel
from repro.analysis.report import format_latency_ms, format_table


class TestFunnelDriver:
    def test_stage_sets_nest(self, funnel_result):
        result = funnel_result
        assert set(result.connected_licensees) <= set(result.shortlisted_licensees)
        assert set(result.shortlisted_licensees) <= set(result.candidate_licensees)
        assert result.pages_scraped > 0

    def test_ntc_shortlisted_but_not_connected(self, funnel_result):
        assert "National Tower Company" in funnel_result.shortlisted_licensees
        assert "National Tower Company" not in funnel_result.connected_licensees

    def test_ntc_was_connected_in_2015(self, scenario, engine):
        result = run_scraping_funnel(
            scenario.database,
            scenario.corridor,
            dt.date(2015, 6, 1),
            engine=engine,
        )
        assert "National Tower Company" in result.connected_licensees


class TestFig3Driver:
    def test_writes_both_snapshots(self, scenario, tmp_path):
        artifacts = fig3_network_maps(scenario, output_dir=tmp_path)
        assert len(artifacts) == 2
        for artifact in artifacts:
            assert artifact.svg_path.exists()
            assert artifact.geojson_path.exists()
        # The 2020 network is visibly bigger than the 2016 one (Fig 3).
        assert artifacts[1].tower_count > artifacts[0].tower_count
        assert artifacts[1].link_count > artifacts[0].link_count

    def test_dry_run_without_output_dir(self, scenario):
        artifacts = fig3_network_maps(scenario)
        assert all(a.svg_path is None for a in artifacts)


class TestFig5Driver:
    def test_default_sweep(self):
        points = fig5_leo_comparison()
        assert len(points) == 32
        assert points[0].distance_km == 250.0
        assert all(p.microwave_ms < p.leo_550_ms for p in points)


class TestAblations:
    def test_apa_slack_monotone(self, scenario):
        sweep = apa_slack_sweep(scenario)
        values = [sweep[s] for s in sorted(sweep)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert sweep[1.05] == 54  # the paper's operating point

    def test_fiber_mode_all_inflates_apa(self, scenario):
        comparison = fiber_mode_comparison(scenario)
        assert comparison["all"] > comparison["nearest"]
        assert comparison["nearest"] == 54

    def test_overhead_crossover_at_14us(self, scenario):
        results = per_tower_overhead_crossover(scenario)
        by_overhead = {r.overhead_us: r.leader for r in results}
        assert by_overhead[0.0] == "New Line Networks"
        assert by_overhead[1.0] == "New Line Networks"
        # Paper §3: above ~1.4 µs/tower JM's 22-tower path wins.
        assert by_overhead[2.0] == "Jefferson Microwave"
        assert by_overhead[3.0] == "Jefferson Microwave"

    def test_stitch_tolerance_extremes(self, scenario):
        sweep = stitch_tolerance_sweep(scenario)
        towers_30, connected_30 = sweep[30.0]
        assert connected_30
        # A 1 km tolerance merges bypass towers' neighbours?  No — bypasses
        # sit 4 km off; but towers must not collapse below the trunk count.
        towers_1000, _ = sweep[1000.0]
        assert towers_1000 <= towers_30

    def test_fiber_radius_sweep_monotone(self, scenario):
        sweep = fiber_radius_sweep(scenario, radii_km=(0.3, 1.0, 50.0))
        counts = [sweep[r] for r in sorted(sweep)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        assert sweep[50.0] == 9
        # With almost no fiber reach, no network can touch the exchanges.
        assert sweep[0.3] == 0

    @pytest.mark.parametrize(
        "sweep, knobs",
        [
            pytest.param(fiber_mode_comparison, {}, id="fiber-mode"),
            pytest.param(
                per_tower_overhead_crossover,
                {"overheads_us": (0.0, 2.0)},
                id="per-tower-overhead",
            ),
            pytest.param(
                stitch_tolerance_sweep,
                {"tolerances_m": (1.0, 1000.0)},
                id="stitch-tolerance",
            ),
            pytest.param(
                fiber_radius_sweep, {"radii_km": (0.3, 50.0)}, id="fiber-radius"
            ),
        ],
    )
    def test_reconstruction_sweeps_spare_the_default_engine(
        self, scenario, sweep, knobs
    ):
        # Each knob value runs on its own parameter engine; the
        # scenario's default engine sees no lookup and learns no geodesic.
        engine = scenario.engine()
        stats = engine.stats
        memo = dict(engine._geodesic_memo.entries())
        sweep(scenario, **knobs)
        assert engine.stats == stats
        assert dict(engine._geodesic_memo.entries()) == memo


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(("A", "Name"), [(1, "x"), (22, "longer")])
        lines = text.splitlines()
        assert lines[0].startswith("A ")
        assert all(len(line) == len(lines[0]) for line in lines[1:2])

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(("A",), [(1, 2)])

    def test_format_latency(self):
        assert format_latency_ms(3.961714) == "3.96171"
        assert format_latency_ms(None) == "—"
        assert format_latency_ms(3.9617, 2) == "3.96"
