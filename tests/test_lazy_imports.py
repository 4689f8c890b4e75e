"""The public API survives lazy loading, and every deferred import resolves.

Package ``__init__``s re-export through PEP 562 ``__getattr__`` tables
and drivers import their dependencies where they use them, so a broken
name would surface only when someone reaches it.  These tests reach every
one: each package's pinned ``__all__`` resolves by ``getattr`` to the
object in its defining module and is listed by ``dir``; unknown names
still raise ``AttributeError``; ``from pkg import *`` binds exactly
``__all__``; the ``repro`` quickstart runs; and every ``from repro...
import name`` inside a function or a ``TYPE_CHECKING`` block names a
module and attribute that exist (a typo in a rarely run CLI handler fails
here, not in a user's shell).
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import importlib.util
import io
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parent.parent / "src"

#: Every package's public names, as they were when each ``__init__``
#: imported its submodules eagerly.
PUBLIC_API = {
    "repro": """
        APA_SLACK_FACTOR CacheStats CorridorEngine CorridorSpec
        FIBER_SPEED GeoPoint HftNetwork LatencyModel
        MAX_FIBER_TAIL_M MICROWAVE_SPEED NetworkReconstructor Route
        SPEED_OF_LIGHT Scenario UlsDatabase UlsPortal UlsScraper
        __version__ alternate_path_availability build_scenario
        chicago_nj_corridor geodesic_distance network_from_yaml
        network_to_yaml paper2020_scenario rank_connected_networks
        reconstruct_all top_networks_per_path
    """,
    "repro.analysis": """
        FunnelResult apa_slack_sweep complementary_pairs
        diff_corridor fiber_mode_comparison fig1_latency_evolution
        fig2_active_licenses fig3_network_maps
        fig4a_link_length_cdfs fig4b_frequency_cdfs
        fig5_leo_comparison format_table joint_analysis
        per_tower_overhead_crossover race_history ranking_stability
        resolve_entities run_scraping_funnel stitch_tolerance_sweep
        table1_connected_networks table2_top_networks table3_apa
    """,
    "repro.core": """
        CacheStats CorridorEngine CorridorSpec DataCenter HftNetwork
        LatencyModel LicenseCountSeries MicrowaveLink
        NetworkReconstructor Route TimelinePoint Tower
        edges_within_latency_bound enumerate_paths_within_bound
        latency_timeline license_count_timeline network_from_yaml
        network_to_yaml reconstruct_all reconstruct_columnar
        yearly_snapshot_dates
    """,
    "repro.design": """
        CandidateSite DesignReport NetworkDesign TrunkDesign
        augment_with_bypasses design_trunk evaluate_design
        generate_site_pool
    """,
    "repro.geodesy": """
        EARTH_EQUATORIAL_RADIUS_M EARTH_FLATTENING
        EARTH_MEAN_RADIUS_M EARTH_POLAR_RADIUS_M GeoPoint
        GeodesicMemo active_memo cross_track_distance
        cumulative_distances format_dms geodesic_azimuth
        geodesic_destination geodesic_distance geodesic_interpolate
        geodesic_inverse great_circle_distance inverse_batch
        inverse_trig nearest_point_index parse_dms
        parse_uls_coordinate polyline_length reduced_latitude_trig
        stretch_factor use_memo
    """,
    "repro.leo": """
        ComparisonPoint Constellation Satellite WalkerShell
        constellation_latency_s fiber_latency_s isl_graph
        leo_lower_bound_s microwave_latency_s sweep_distances
    """,
    "repro.metrics": """
        EmpiricalCdf NetworkRanking WeatherLatencyProfile
        alternate_path_availability alternate_path_frequencies_ghz
        near_optimal_link_lengths_km rank_connected_networks
        route_availability shortest_path_frequencies_ghz
        top_networks_per_path weather_latency_profile
    """,
    "repro.obs": """
        Capture Counter Gauge Histogram InMemorySink JsonLinesSink
        MetricsRegistry SPAN_LINE_KEYS SpanRecord
        TRACE_SCHEMA_VERSION TextSummarySink capture count disable
        enable get_registry is_enabled observe read_trace
        render_metrics set_gauge span span_line
    """,
    "repro.parallel": """
        GridSession GridTaskContext pmap
    """,
    "repro.radio": """
        LinkBudget SyntheticTerrain earth_bulge_m
        effective_path_length_km first_fresnel_radius_m
        free_space_path_loss_db link_availability link_is_up
        rain_attenuation_db rain_exceedance_attenuation_db
        rain_rate_to_kill_link_mm_h required_antenna_height_m
        specific_attenuation_db_per_km
    """,
    "repro.scenarios": """
        ScenarioEntry ScenarioParamError ScenarioRef
        UnknownScenarioError parse_scenario_ref register_scenario
        registered_scenarios resolve_scenario scenario_names
        synthetic_scenario
    """,
    "repro.serve": """
        CorridorQueryService CorridorServer EngineFacade LoadProfile
        LoadReport ServiceError active_server run_load run_server
    """,
    "repro.store": """
        CacheStore STORE_SCHEMA_VERSION StoreEntry default_cache_dir
        store_fingerprint
    """,
    "repro.synth": """
        BranchSpec ChainLayout EraSpec FrequencyProfile
        NetworkBuilder NetworkSpec RainCell Scenario SmoothNoise
        Storm apply_storm build_network_licenses bypass_point
        paper2020_scenario spacing_fractions
    """,
    "repro.uls": """
        ColumnarLicenseStore License MicrowavePath TemporalIndex
        TowerLocation Transaction UlsDatabase UlsPortal UlsScraper
        UlsSearchService ValidationIssue active_licenses
        apply_transactions clean_licenses license_interval
        read_uls_dump snapshot_database transactions_between
        validate_licenses write_uls_dump
    """,
    "repro.viz": """
        network_to_geojson render_network_svg write_cdf_dat
        write_series_dat
    """,
}


def _defined_in(obj, name: str) -> str | None:
    """The non-package ``repro`` module that binds ``name`` to ``obj``."""
    origin = getattr(obj, "__module__", None)
    if isinstance(origin, str) and hasattr(obj, "__qualname__"):
        if getattr(importlib.import_module(origin), name, None) is obj:
            return origin
    # Constants and aliases (``DataCenter = DataCenterSite``): any plain
    # module binding the name to the same object.
    for module_name, module in sorted(sys.modules.items()):
        if (
            module_name.split(".")[0] == "repro"
            and not hasattr(module, "__path__")
            and vars(module).get(name) is obj
        ):
            return module_name
    return None


@pytest.mark.parametrize("package", sorted(PUBLIC_API))
def test_public_names_resolve_to_their_defining_objects(package):
    module = importlib.import_module(package)
    pinned = PUBLIC_API[package].split()
    assert sorted(module.__all__) == sorted(pinned)
    listed = dir(module)
    for name in pinned:
        assert name in listed, name
        if name == "__version__":
            assert isinstance(module.__version__, str)
            continue
        value = getattr(module, name)
        assert _defined_in(value, name) is not None, (package, name)
        # A second lookup is a plain attribute read of the same object.
        assert getattr(module, name) is value


@pytest.mark.parametrize("package", sorted(PUBLIC_API))
def test_unknown_names_raise_attribute_error(package):
    module = importlib.import_module(package)
    assert not hasattr(module, "no_such_public_name")
    with pytest.raises(AttributeError, match="no_such_public_name"):
        getattr(module, "no_such_public_name")


@pytest.mark.parametrize("package", sorted(PUBLIC_API))
def test_star_import_binds_exactly_all(package):
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(PUBLIC_API[package].split())


def test_quickstart_docstring_runs():
    doc = repro.__doc__
    block = doc.split("Quickstart::", 1)[1].split("Repeated queries", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(textwrap.dedent(block), {})
    assert out.getvalue().endswith(" towers\n")
    assert " ms over " in out.getvalue()


def _deferred_imports(tree: ast.Module):
    """``from repro... import`` nodes run after module import: inside a
    function, or under ``if TYPE_CHECKING:``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.If)):
            if isinstance(node, ast.If) and ast.unparse(node.test) != (
                "TYPE_CHECKING"
            ):
                continue
            for inner in ast.walk(node):
                if (
                    isinstance(inner, ast.ImportFrom)
                    and inner.level == 0
                    and (inner.module or "").split(".")[0] == "repro"
                ):
                    yield inner


def test_deferred_imports_name_real_attributes():
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in _deferred_imports(tree):
            module = importlib.import_module(node.module)
            for alias in node.names:
                where = f"{path.relative_to(SRC)}:{node.lineno}"
                # ``from package import submodule`` names a module file.
                found = hasattr(module, alias.name) or (
                    hasattr(module, "__path__")
                    and importlib.util.find_spec(f"{node.module}.{alias.name}")
                )
                assert found, f"{where}: {node.module} has no {alias.name}"


def test_cli_handler_imports_are_covered():
    """The walk above reaches the CLI's rarely run handlers."""
    tree = ast.parse((SRC / "repro" / "cli.py").read_text(encoding="utf-8"))
    modules = {node.module for node in _deferred_imports(tree)}
    assert {
        "repro.analysis.entities",
        "repro.design.trunk",
        "repro.metrics.effective_latency",
        "repro.analysis.funnel",
    } <= modules
