"""Experiment drivers: one entry point per paper table and figure.

Each driver takes a :class:`~repro.synth.scenario.Scenario` (or raw
database + corridor) and returns plain data structures; the benchmark
harness and examples print/persist them.  See DESIGN.md's experiment
index for the table/figure ↔ driver mapping.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.analysis.funnel": ("FunnelResult", "run_scraping_funnel"),
        "repro.analysis.tables": (
            "table1_connected_networks",
            "table2_top_networks",
            "table3_apa",
        ),
        "repro.analysis.figures": (
            "fig1_latency_evolution",
            "fig2_active_licenses",
            "fig3_network_maps",
            "fig4a_link_length_cdfs",
            "fig4b_frequency_cdfs",
            "fig5_leo_comparison",
        ),
        "repro.analysis.ablations": (
            "apa_slack_sweep",
            "fiber_mode_comparison",
            "per_tower_overhead_crossover",
            "stitch_tolerance_sweep",
        ),
        "repro.analysis.entities": (
            "complementary_pairs",
            "joint_analysis",
            "resolve_entities",
        ),
        "repro.analysis.stability": ("ranking_stability",),
        "repro.analysis.flux": ("race_history",),
        "repro.analysis.monitor": ("diff_corridor",),
        "repro.analysis.report": ("format_table",),
    },
)
