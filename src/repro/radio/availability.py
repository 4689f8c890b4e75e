"""Per-link availability and instantaneous outage state.

Combines the link budget (fade margin) with the rain model to answer two
questions the reliability experiments need:

* *climatically*: what fraction of the year is this link down?
* *instantaneously*: given a storm with rain rate R over the hop, is the
  link up right now?
"""

from __future__ import annotations

import math

from repro.radio.budget import LinkBudget
from repro.radio.itu import percent_time_for_attenuation, rain_attenuation_db

#: Default 0.01%-exceedance rain rate for the US Midwest/Northeast
#: corridor (ITU rain zone K is ~42 mm/h; the corridor spans K/N zones).
DEFAULT_RAIN_RATE_001_MM_H = 42.0


def link_availability(
    frequency_ghz: float,
    distance_km: float,
    budget: LinkBudget | None = None,
    rain_rate_001_mm_h: float = DEFAULT_RAIN_RATE_001_MM_H,
) -> float:
    """Fraction of the year the link is up, in [0, 1].

    The outage fraction is the percentage of time rain attenuation exceeds
    the link's clear-air fade margin (P.530 exceedance scaling).  Links
    with non-positive margin are down permanently (availability 0).
    """
    budget = budget or LinkBudget()
    margin = budget.fade_margin_db(frequency_ghz, distance_km)
    if margin <= 0.0:
        return 0.0
    percent_down = percent_time_for_attenuation(
        frequency_ghz, distance_km, rain_rate_001_mm_h, margin
    )
    return 1.0 - percent_down / 100.0


def link_is_up(
    frequency_ghz: float,
    distance_km: float,
    rain_rate_mm_h: float,
    budget: LinkBudget | None = None,
) -> bool:
    """Whether the link survives an instantaneous rain rate over the hop."""
    budget = budget or LinkBudget()
    margin = budget.fade_margin_db(frequency_ghz, distance_km)
    if margin <= 0.0:
        return False
    attenuation = rain_attenuation_db(frequency_ghz, distance_km, rain_rate_mm_h)
    return attenuation <= margin


def rain_rate_to_kill_link_mm_h(
    frequency_ghz: float,
    distance_km: float,
    budget: LinkBudget | None = None,
    max_rate_mm_h: float = 300.0,
) -> float:
    """Smallest rain rate that takes the link down (bisection).

    Returns ``math.inf`` if even ``max_rate_mm_h`` cannot exceed the
    margin (short low-frequency hops are effectively rain-proof), and 0.0
    for links with no margin at all.
    """
    budget = budget or LinkBudget()
    margin = budget.fade_margin_db(frequency_ghz, distance_km)
    if margin <= 0.0:
        return 0.0
    if rain_attenuation_db(frequency_ghz, distance_km, max_rate_mm_h) <= margin:
        return math.inf
    low, high = 0.0, max_rate_mm_h
    for _ in range(60):
        mid = (low + high) / 2.0
        if rain_attenuation_db(frequency_ghz, distance_km, mid) > margin:
            high = mid
        else:
            low = mid
    return (low + high) / 2.0
