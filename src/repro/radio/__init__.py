"""Microwave radio engineering substrate.

§5 of the paper grounds its reliability discussion in standard microwave
propagation engineering: "longer tower-to-tower links and bad weather
conditions increase data loss, and higher frequencies are more susceptible
to weather disruptions" (citing ITU-R P.530 and P.837/838).  This
subpackage implements that machinery:

* :mod:`repro.radio.itu` — ITU-R P.838-style rain specific attenuation and
  P.530-style effective path length / exceedance scaling;
* :mod:`repro.radio.budget` — free-space path loss, link budgets, fade
  margins, Fresnel-zone clearance;
* :mod:`repro.radio.availability` — per-link availability under a rain
  climate, and instantaneous up/down state under a given rain rate;
* :mod:`repro.radio.clearance` — Fresnel/Earth-bulge clearance over
  synthetic terrain: the tower heights hops require.

The weather simulation that drives outage experiments lives in
:mod:`repro.synth.weather`.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.radio.itu": (
            "effective_path_length_km",
            "rain_attenuation_db",
            "rain_exceedance_attenuation_db",
            "specific_attenuation_db_per_km",
        ),
        "repro.radio.budget": (
            "LinkBudget",
            "first_fresnel_radius_m",
            "free_space_path_loss_db",
        ),
        "repro.radio.availability": (
            "link_availability",
            "link_is_up",
            "rain_rate_to_kill_link_mm_h",
        ),
        "repro.radio.clearance": (
            "SyntheticTerrain",
            "earth_bulge_m",
            "required_antenna_height_m",
        ),
    },
)
