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

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.synth.noise": ("SmoothNoise",),
        "repro.synth.towers": (
            "ChainLayout",
            "bypass_point",
            "spacing_fractions",
        ),
        "repro.synth.specs": (
            "BranchSpec",
            "EraSpec",
            "FrequencyProfile",
            "NetworkSpec",
        ),
        "repro.synth.generator": ("NetworkBuilder", "build_network_licenses"),
        "repro.synth.scenario": ("Scenario", "paper2020_scenario"),
        "repro.synth.weather": ("RainCell", "Storm", "apply_storm"),
    },
)
