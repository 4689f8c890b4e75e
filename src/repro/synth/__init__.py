"""Synthetic FCC license data for the Chicago–NJ corridor.

The paper works from real FCC ULS filings; this environment has no network
access, so this subpackage generates a *calibrated* synthetic equivalent:
license histories for every network the paper analyses, with tower
geometry tuned (by bisection against the paper's latency model: MW hops
at c plus fiber tails at 2c/3) so that the latencies the reconstruction
pipeline later measures back out, and the tower counts, APA values,
link-length distributions and frequency mixes, match the published
numbers.

The reconstruction/analysis code never sees the calibration targets — it
measures everything back out of the raw license records.

Entry point: :func:`repro.synth.scenario.paper2020_scenario` (callers
that want the process's shared scenario resolve ``"paper2020"`` through
:func:`repro.scenarios.resolve_scenario`).
"""

from repro.synth.noise import SmoothNoise
from repro.synth.towers import (
    ChainLayout,
    bypass_point,
    spacing_fractions,
)
from repro.synth.specs import (
    BranchSpec,
    EraSpec,
    FrequencyProfile,
    NetworkSpec,
)
from repro.synth.generator import NetworkBuilder, build_network_licenses
from repro.synth.scenario import Scenario, paper2020_scenario
from repro.synth.weather import RainCell, Storm, apply_storm

__all__ = [
    "SmoothNoise",
    "ChainLayout",
    "bypass_point",
    "spacing_fractions",
    "BranchSpec",
    "EraSpec",
    "FrequencyProfile",
    "NetworkSpec",
    "NetworkBuilder",
    "build_network_licenses",
    "Scenario",
    "paper2020_scenario",
    "RainCell",
    "Storm",
    "apply_storm",
]
