"""The scenario registry: references, resolution, and the multi-corridor
round-trip contract.

The load-bearing property: *every* registered scenario (and randomized
``synthetic(...)`` instances) must round-trip through funnel → rankings →
timeline with byte-identical output whether computed by a plain loop on a
cold engine, by the analysis drivers, or store-warmed from a prior run's
checkpoint.  The
paper scenario additionally pins its golden Table 1 numbers so the
registry refactor can never drift the default output.
"""

from __future__ import annotations

import inspect
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.figures import fig1_latency_evolution
from repro.analysis.funnel import run_scraping_funnel
from repro.core.engine import CorridorEngine
from repro.core.timeline import yearly_snapshot_dates
from repro.metrics.rankings import rank_connected_networks
from repro.scenarios import (
    ScenarioEntry,
    ScenarioParamError,
    ScenarioRef,
    UnknownScenarioError,
    parse_scenario_ref,
    register_scenario,
    registered_scenarios,
    resolve_scenario,
    scenario_names,
    synthetic_scenario,
)
from repro.scenarios.registry import SYNTHETIC_PARAMS
from repro.serve.payloads import render_payload, rankings_payload
from repro.store import CacheStore
from repro.synth.scenario import europe2020_scenario


class TestScenarioRef:
    def test_bare_name(self):
        ref = parse_scenario_ref("paper2020")
        assert ref == ScenarioRef("paper2020")
        assert ref.canonical == "paper2020"

    def test_params_sorted_into_canonical_form(self):
        a = parse_scenario_ref("synthetic:seed=7,links=20")
        b = parse_scenario_ref("synthetic:links=20,seed=7")
        assert a == b
        assert hash(a) == hash(b)
        assert a.canonical == "synthetic:links=20,seed=7"

    def test_whitespace_stripped(self):
        ref = parse_scenario_ref("  synthetic: seed = 7 , links = 20 ")
        assert ref.params == (("links", "20"), ("seed", "7"))

    @pytest.mark.parametrize(
        "text", ["synthetic:seed", "synthetic:=7", "synthetic:seed=", ""]
    )
    def test_malformed_reference_raises(self, text):
        with pytest.raises(ScenarioParamError):
            parse_scenario_ref(text)

    def test_duplicate_keys_raise(self):
        with pytest.raises(ScenarioParamError, match="duplicate"):
            parse_scenario_ref("synthetic:seed=1,seed=2")

    def test_ref_passthrough(self):
        ref = ScenarioRef("europe2020")
        assert parse_scenario_ref(ref) is ref


class TestRegistry:
    def test_builtins_registered(self):
        assert scenario_names() == (
            "europe2020",
            "paper2020",
            "synthetic",
            "tokyo-singapore",
        )

    def test_concrete_only_excludes_the_generator(self):
        assert scenario_names(concrete_only=True) == (
            "europe2020",
            "paper2020",
            "tokyo-singapore",
        )
        by_name = {entry.name: entry for entry in registered_scenarios()}
        assert not by_name["synthetic"].concrete
        assert by_name["paper2020"].concrete

    def test_resolution_shares_one_scenario_per_reference(
        self, scenario, tmp_path
    ):
        # The whole engine-sharing story rests on this: the registry
        # memo answers every caller of a reference (the test fixtures
        # included) with the *same* object, with or without a store, so
        # there is exactly one warm default engine per scenario per
        # process.
        assert resolve_scenario("paper2020") is scenario
        store = CacheStore(tmp_path)
        try:
            for name in ("paper2020", "europe2020", "tokyo-singapore"):
                first = resolve_scenario(name)
                assert resolve_scenario(ScenarioRef(name)) is first
                assert resolve_scenario(name, store=store) is first
                assert first.engine().store is store
        finally:
            store.detach_all()

    def test_builders_build_afresh(self):
        # The builders are plain functions: the registry owns the only
        # memo, so no second cache can hold a second scenario.
        built = europe2020_scenario()
        assert built is not europe2020_scenario()
        assert built is not resolve_scenario("europe2020")
        assert (
            built.database.content_digest()
            == resolve_scenario("europe2020").database.content_digest()
        )

    def test_synthetic_params_are_the_builders_keywords(self):
        # The registry declares the converters without importing the
        # builder, so the two lists must be kept in step by hand.
        keywords = inspect.signature(synthetic_scenario).parameters
        assert sorted(SYNTHETIC_PARAMS) == sorted(keywords)

    def test_synthetic_spellings_share_one_scenario(self):
        a = resolve_scenario("synthetic:seed=11,networks=1,links=12")
        b = resolve_scenario("synthetic:links=12,seed=11,networks=1")
        assert a is b
        # Values are compared converted, as the builder receives them.
        assert resolve_scenario("synthetic:seed=011,networks=1,links=12") is a

    def test_concurrent_resolvers_share_one_scenario(self):
        # Threads racing on a new reference may each build, but the
        # first to memoise wins and every caller gets its scenario.
        ref = "synthetic:seed=23,networks=1,links=12"
        results = []
        threads = [
            threading.Thread(target=lambda: results.append(resolve_scenario(ref)))
            for _ in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == len(threads)
        assert all(scenario is results[0] for scenario in results)
        assert resolve_scenario(ref) is results[0]

    def test_unknown_name_lists_the_registry(self):
        with pytest.raises(UnknownScenarioError) as excinfo:
            resolve_scenario("atlantis")
        assert "paper2020" in str(excinfo.value)
        assert "tokyo-singapore" in str(excinfo.value)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ScenarioParamError, match="does not accept"):
            resolve_scenario("synthetic:towers=5")

    def test_params_on_parameterless_scenario_rejected(self):
        with pytest.raises(ScenarioParamError, match="does not accept"):
            resolve_scenario("paper2020:seed=1")

    def test_bad_parameter_value_rejected(self):
        with pytest.raises(ScenarioParamError, match="bad value"):
            resolve_scenario("synthetic:seed=many")

    def test_register_replaces_same_name(self):
        paper = resolve_scenario("paper2020")
        europe = resolve_scenario("europe2020")
        entry = ScenarioEntry(
            name="_test_only",
            summary="unit-test entry",
            builder=lambda: paper,
        )
        try:
            register_scenario(entry)
            assert resolve_scenario("_test_only") is paper
            replacement = ScenarioEntry(
                name="_test_only",
                summary="replacement",
                builder=lambda: europe,
            )
            register_scenario(replacement)
            # The replaced entry's memo went with it.
            assert resolve_scenario("_test_only") is europe
        finally:
            from repro.scenarios import registry

            with registry._LOCK:
                registry._REGISTRY.pop("_test_only", None)


class TestSyntheticScenario:
    def test_determinism_same_seed_same_world(self):
        a = synthetic_scenario(seed=5, networks=2, links=14)
        b = synthetic_scenario(seed=5, networks=2, links=14)
        assert a is not b  # the builder memoises nothing
        assert a.database.content_digest() == b.database.content_digest()
        assert a.name == "synthetic-s5-n2-l14"

    def test_networks_are_connected_and_ranked(self):
        scenario = resolve_scenario("synthetic:seed=9,networks=3,links=16")
        rankings = rank_connected_networks(
            scenario.database,
            scenario.corridor,
            scenario.snapshot_date,
            engine=scenario.engine(),
        )
        assert [r.licensee for r in rankings] == [
            "Synthetic Net 01",
            "Synthetic Net 02",
            "Synthetic Net 03",
        ]
        # Calibration targets are strictly increasing with index.
        latencies = [r.latency_ms for r in rankings]
        assert latencies == sorted(latencies)

    def test_decoys_are_filtered_by_the_funnel(self):
        scenario = resolve_scenario(
            "synthetic:seed=13,networks=2,links=14,decoys=8"
        )
        result = run_scraping_funnel(
            scenario.database,
            scenario.corridor,
            scenario.snapshot_date,
            engine=scenario.engine(),
        )
        candidates, shortlisted, connected = result.counts
        assert candidates > connected  # decoys showed up...
        assert connected == 2  # ...but never survive the funnel

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"networks": 0},
            {"networks": 65},
            {"links": 11},
            {"links": 401},
            {"eras": 0},
            {"eras": 7},
            {"decoys": -1},
            {"decoys": 201},
            # Corridor below the 200 km calibration floor.
            {"west_lat": 32.7, "west_lon": -96.8,
             "east_lat": 32.9, "east_lon": -96.5},
            # Coordinates off the globe, rejected before any GeoPoint.
            {"west_lat": 95.0},
            {"east_lat": -90.5},
            {"west_lon": -180.5},
            {"east_lon": 181.0},
        ],
    )
    def test_out_of_range_parameters_rejected(self, kwargs):
        with pytest.raises(ScenarioParamError):
            synthetic_scenario(seed=1, **kwargs)


class TestPaperGoldenPins:
    """The default scenario's output is pinned byte-for-byte forever."""

    def test_table1_golden_numbers(self, scenario, engine):
        rankings = rank_connected_networks(
            scenario.database,
            scenario.corridor,
            scenario.snapshot_date,
            engine=engine,
        )
        top = rankings[0]
        assert top.licensee == "New Line Networks"
        assert f"{top.latency_ms:.5f}" == "3.96172"
        assert top.tower_count == 25
        assert len(rankings) == 9

    def test_cli_table1_default_title_is_unchanged(self, capsys):
        from repro.cli import main

        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Connected networks, CME-NY4\n")
        assert "New Line Networks" in out

    def test_default_resolution_is_the_conftest_scenario(self, scenario):
        assert resolve_scenario("paper2020") is scenario


class TestEuropeTokyoGoldenPins:
    def test_europe_cli_end_to_end(self, capsys):
        from repro.cli import main

        assert main(["table1", "--scenario", "europe2020"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Connected networks, LD4-FR2\n")
        assert "Channel Wave Networks" in out
        assert "2.24600" in out

    def test_tokyo_rankings_golden(self):
        scenario = resolve_scenario("tokyo-singapore")
        rankings = rank_connected_networks(
            scenario.database,
            scenario.corridor,
            scenario.snapshot_date,
            engine=scenario.engine(),
        )
        assert [r.licensee for r in rankings] == [
            "Pacific Rim Relay",
            "Straits Microwave",
            "Archipelago Wave",
        ]
        assert f"{rankings[0].latency_ms:.5f}" == "17.77800"

    def test_unknown_scenario_exits_2(self, capsys):
        from repro.cli import main

        assert main(["table1", "--scenario", "atlantis"]) == 2
        assert "unknown scenario" in capsys.readouterr().err
        # Out-of-range generator parameters are scenario errors too.
        for ref in ("synthetic:links=0", "synthetic:west_lat=95"):
            assert main(["table1", "--scenario", ref]) == 2
            assert capsys.readouterr().err.startswith("scenario error: ")


def _roundtrip_bytes(scenario, engine=None, grid: bool = True) -> tuple:
    """(funnel counts, canonical rankings bytes, timeline latencies).

    With ``grid=False`` the timeline is a plain loop over ``engine``
    instead of the Fig 1 driver.
    """
    engine = engine if engine is not None else scenario.engine()
    funnel = run_scraping_funnel(
        scenario.database,
        scenario.corridor,
        scenario.snapshot_date,
        engine=engine,
    )
    rankings = render_payload(
        rankings_payload(scenario, engine, scenario.snapshot_date)
    )
    dates = yearly_snapshot_dates()
    if grid:
        series = fig1_latency_evolution(scenario, dates=dates)
    else:
        source, target = scenario.corridor.resolve_path(None, None)
        series = {
            name: engine.timeline(name, dates, source=source, target=target)
            for name in scenario.featured_names
        }
    timeline = {
        name: tuple(point.latency_ms for point in points)
        for name, points in series.items()
    }
    return funnel.counts, rankings, timeline


def _serial_bytes(scenario) -> tuple:
    """:func:`_roundtrip_bytes` on a cold engine of its own, with the
    timeline as a plain loop."""
    engine = CorridorEngine(scenario.database, scenario.corridor)
    return _roundtrip_bytes(scenario, engine=engine, grid=False)


@pytest.mark.parametrize("name", ["europe2020", "tokyo-singapore"])
def test_registered_scenarios_roundtrip_serial_vs_grid(name):
    scenario = resolve_scenario(name)
    assert _roundtrip_bytes(scenario) == _serial_bytes(scenario)


def test_paper_roundtrip_serial_vs_grid(scenario):
    assert _roundtrip_bytes(scenario) == _serial_bytes(scenario)


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    seed=st.integers(min_value=0, max_value=49),
    networks=st.integers(min_value=1, max_value=3),
    links=st.integers(min_value=12, max_value=18),
    decoys=st.integers(min_value=0, max_value=6),
)
def test_synthetic_roundtrip_serial_grid_and_store(
    seed, networks, links, decoys
):
    """Randomized synthetic scenarios hold the full determinism contract:
    grid drivers == a plain loop on a cold engine == store-warmed, byte
    for byte."""
    ref = (
        f"synthetic:seed={seed},networks={networks}"
        f",links={links},decoys={decoys}"
    )
    scenario = resolve_scenario(ref)
    serial = _roundtrip_bytes(scenario)
    assert serial == _serial_bytes(scenario)

    with tempfile.TemporaryDirectory() as tmp:
        store_dir = Path(tmp)
        cold = CacheStore(store_dir).attach(
            CorridorEngine(scenario.database, scenario.corridor)
        )
        assert serial == _roundtrip_bytes(scenario, engine=cold)
        cold.checkpoint()
        warmed = CacheStore(store_dir).attach(
            CorridorEngine(scenario.database, scenario.corridor)
        )
        assert serial == _roundtrip_bytes(scenario, engine=warmed)
        # The warm engine really loaded the checkpoint: the snapshots the
        # cold run computed are cache hits, not recomputations.
        assert warmed.stats.snapshot.misses == 0
