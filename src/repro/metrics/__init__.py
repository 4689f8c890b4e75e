"""Network design metrics from the paper's analyses (§3, §5).

* :mod:`repro.metrics.cdf` — empirical distribution utilities used by the
  Fig 4 plots.
* alternate path availability (Table 1/3) lives in :mod:`repro.core.apa`,
  beside the engine that caches it; it is re-exported here.
* :mod:`repro.metrics.link_lengths` — link-length distributions on
  near-optimal paths (Fig 4a).
* :mod:`repro.metrics.frequencies` — operating-frequency distributions on
  shortest and alternate paths (Fig 4b).
* :mod:`repro.metrics.rankings` — per-path latency rankings (Tables 1/2).
* :mod:`repro.metrics.effective_latency` — weather-weighted effective
  latency and route availability (the §5 thesis, quantified).
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.core.apa": ("alternate_path_availability",),
        "repro.metrics.effective_latency": (
            "WeatherLatencyProfile",
            "route_availability",
            "weather_latency_profile",
        ),
        "repro.metrics.cdf": ("EmpiricalCdf",),
        "repro.metrics.frequencies": (
            "alternate_path_frequencies_ghz",
            "shortest_path_frequencies_ghz",
        ),
        "repro.metrics.link_lengths": ("near_optimal_link_lengths_km",),
        "repro.metrics.rankings": (
            "NetworkRanking",
            "rank_connected_networks",
            "top_networks_per_path",
        ),
    },
)
