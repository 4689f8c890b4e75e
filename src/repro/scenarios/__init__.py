"""Scenario registry: named, parameterized corridor scenarios.

``repro.scenarios`` is the one place the rest of the system asks "which
world am I analysing?".  It sits above :mod:`repro.synth` in the layering
DAG: the synth tier builds a :class:`~repro.synth.scenario.Scenario` from
specs, this tier names those builders, parses ``NAME[:k=v,...]`` scenario
references (the CLI ``--scenario`` flag and the serve ``?scenario=``
request param), and caches resolved scenarios so every caller of the same
reference shares one scenario — and therefore one warm default engine.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.scenarios.registry": (
            "ScenarioEntry",
            "ScenarioParamError",
            "ScenarioRef",
            "UnknownScenarioError",
            "parse_scenario_ref",
            "register_scenario",
            "registered_scenarios",
            "resolve_scenario",
            "scenario_names",
        ),
        "repro.scenarios.synthetic": ("synthetic_scenario",),
    },
)
