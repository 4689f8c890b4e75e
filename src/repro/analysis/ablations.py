"""Ablations over the methodology's modelling choices.

The paper fixes several knobs (5% APA slack, 50 km fiber reach, "last
tower" fiber attachment, zero per-tower overhead, 30 m stitching
tolerance).  These sweeps quantify how sensitive the headline results are
to each — including §3's observation that a per-tower overhead above
~1.4 µs would let Jefferson Microwave (22 towers) overtake New Line
Networks (25 towers) on CME–NY4.

A sweep that varies a reconstruction parameter builds one
parameter-distinct engine per knob value
(:meth:`~repro.core.engine.CorridorEngine.with_params`), so snapshots
computed under different parameterisations can never alias in a shared
cache, and the scenario's own engine is left as it was.  The APA-slack
sweep varies only a *metric* parameter, so it asks the scenario's
default engine for each slack's APA over one snapshot and route.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

from repro import obs
from repro.core.apa import whole_percent
from repro.core.latency import LatencyModel
from repro.metrics.rankings import rank_connected_networks
from repro.synth.scenario import Scenario


def apa_slack_sweep(
    scenario: Scenario,
    licensee: str = "New Line Networks",
    slacks: tuple[float, ...] = (1.01, 1.02, 1.05, 1.10, 1.20),
    on_date: dt.date | None = None,
) -> dict[float, int]:
    """APA (CME–NY4) as a function of the latency-slack factor.

    The slack is a metric knob, not a reconstruction knob: every slack
    value reads the same snapshot and route from the scenario's default
    engine.
    """
    date = on_date or scenario.snapshot_date
    with obs.span("analysis.ablation", sweep="apa-slack", knobs=len(slacks)):
        engine = scenario.engine()
        return {
            slack: whole_percent(
                engine.apa(licensee, date, "CME", "NY4", slack=slack)
            )
            for slack in slacks
        }


def fiber_mode_comparison(
    scenario: Scenario,
    licensee: str = "New Line Networks",
    on_date: dt.date | None = None,
) -> dict[str, int]:
    """APA under the two fiber-attachment readings of §2.3.

    ``"nearest"`` (one tail per data center — "the last tower on each
    side") vs ``"all"`` (tails to every tower within 50 km, under which a
    branch towards one data center doubles as a backup entry into
    another).
    """
    date = on_date or scenario.snapshot_date
    modes = ("nearest", "all")
    with obs.span("analysis.ablation", sweep="fiber-mode", knobs=len(modes)):
        engine = scenario.engine()
        return {
            mode: whole_percent(
                engine.with_params(fiber_mode=mode).apa(licensee, date, "CME", "NY4")
            )
            for mode in modes
        }


@dataclass(frozen=True)
class OverheadCrossover:
    """Rankings under a per-tower overhead."""

    overhead_us: float
    leader: str
    latency_ms: dict[str, float]


def per_tower_overhead_crossover(
    scenario: Scenario,
    overheads_us: tuple[float, ...] = (0.0, 0.5, 1.0, 1.4, 2.0, 3.0),
    licensees: tuple[str, ...] = ("New Line Networks", "Jefferson Microwave"),
    on_date: dt.date | None = None,
) -> list[OverheadCrossover]:
    """§3's what-if: sweep the per-tower repeater overhead.

    JM's shortest path has 22 towers vs NLN's 25; the paper estimates JM
    overtakes NLN once the per-tower cost exceeds ~1.4 µs.
    """
    date = on_date or scenario.snapshot_date
    with obs.span(
        "analysis.ablation", sweep="per-tower-overhead", knobs=len(overheads_us)
    ):
        results = []
        for overhead_us in overheads_us:
            engine = scenario.engine().with_params(
                latency_model=LatencyModel(per_tower_overhead_s=overhead_us * 1e-6)
            )
            latencies = {}
            for name in licensees:
                route = engine.route(name, date, "CME", "NY4")
                if route is not None:
                    latencies[name] = route.latency_ms
            leader = min(latencies, key=latencies.get) if latencies else ""
            results.append(
                OverheadCrossover(
                    overhead_us=overhead_us, leader=leader, latency_ms=latencies
                )
            )
        return results


def stitch_tolerance_sweep(
    scenario: Scenario,
    licensee: str = "New Line Networks",
    tolerances_m: tuple[float, ...] = (1.0, 10.0, 30.0, 100.0, 1000.0),
    on_date: dt.date | None = None,
) -> dict[float, tuple[int, bool]]:
    """(tower count, connected?) as the stitching tolerance varies.

    Too tight and rounding splits physical towers (breaking paths); too
    loose and distinct towers merge (shortening paths artificially).
    """
    date = on_date or scenario.snapshot_date
    with obs.span(
        "analysis.ablation", sweep="stitch-tolerance", knobs=len(tolerances_m)
    ):
        engine = scenario.engine()
        results = {}
        for tolerance in tolerances_m:
            network = engine.with_params(stitch_tolerance_m=tolerance).snapshot(
                licensee, date
            )
            results[tolerance] = (
                network.tower_count,
                network.is_connected("CME", "NY4"),
            )
        return results


def fiber_radius_sweep(
    scenario: Scenario,
    radii_km: tuple[float, ...] = (1.0, 5.0, 25.0, 50.0, 100.0),
    on_date: dt.date | None = None,
) -> dict[float, int]:
    """How many networks stay CME–NY4 connected as the fiber reach shrinks."""
    date = on_date or scenario.snapshot_date
    with obs.span(
        "analysis.ablation", sweep="fiber-radius", knobs=len(radii_km)
    ):
        names = list(scenario.connected_names)
        engine = scenario.engine()
        return {
            radius_km: len(
                rank_connected_networks(
                    scenario.database,
                    scenario.corridor,
                    date,
                    licensees=names,
                    engine=engine.with_params(max_fiber_tail_m=radius_km * 1000.0),
                )
            )
            for radius_km in radii_km
        }
