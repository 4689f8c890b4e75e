"""LEO satellite constellation substrate (Fig 5, §6).

The paper's future outlook compares terrestrial microwave paths against
low-Earth-orbit constellation paths: satellites enjoy line-of-sight
inter-satellite links at c, but every path pays the up/down overhead of a
few hundred kilometres of altitude, so over land microwave wins — while
over oceans (where towers cannot stand) LEO beats fiber.

* :mod:`repro.leo.constellation` — Walker-delta shells, circular-orbit
  geometry, ECEF positions;
* :mod:`repro.leo.isl` — +Grid inter-satellite link topology;
* :mod:`repro.leo.latency` — ground-station attachment, constellation
  routing, and the MW / LEO / fiber comparison model behind Fig 5.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.leo.constellation": (
            "Constellation",
            "Satellite",
            "WalkerShell",
        ),
        "repro.leo.isl": ("isl_graph",),
        "repro.leo.latency": (
            "ComparisonPoint",
            "constellation_latency_s",
            "fiber_latency_s",
            "leo_lower_bound_s",
            "microwave_latency_s",
            "sweep_distances",
        ),
    },
)
