"""The paper's speed-of-light latency model (§2.3).

One-way latency is path length divided by propagation speed: (almost) c for
microwave links through air, 2c/3 for the short fiber tails between data
centers and the nearest towers.  Per-tower repetition/regeneration overhead
is *not* part of the paper's estimates but is exposed here as an explicit
knob because §3 discusses how it could reorder the rankings (the JM-vs-NLN
crossover at 1.4 µs per tower), and the ablation bench sweeps it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constants import FIBER_SPEED, MICROWAVE_SPEED, SPEED_OF_LIGHT


@dataclass(frozen=True, slots=True)
class LatencyModel:
    """Propagation-speed model for end-to-end latency estimates.

    Parameters
    ----------
    microwave_speed:
        Signal speed on microwave links, m/s.  Defaults to c.
    fiber_speed:
        Signal speed in fiber, m/s.  Defaults to 2c/3.
    per_tower_overhead_s:
        Added latency per intermediate tower (signal repetition or
        regeneration).  Defaults to 0, the paper's assumption.
    """

    microwave_speed: float = MICROWAVE_SPEED
    fiber_speed: float = FIBER_SPEED
    per_tower_overhead_s: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.microwave_speed <= SPEED_OF_LIGHT:
            raise ValueError("microwave speed must be in (0, c]")
        if not 0.0 < self.fiber_speed <= SPEED_OF_LIGHT:
            raise ValueError("fiber speed must be in (0, c]")
        if self.per_tower_overhead_s < 0.0:
            raise ValueError("per-tower overhead cannot be negative")

    # Fast pickle path (see GeoPoint.__getstate__): every network value
    # in a store entry is its own pickle and carries its latency model.
    def __getstate__(self):
        return (self.microwave_speed, self.fiber_speed, self.per_tower_overhead_s)

    def __setstate__(self, state) -> None:
        set_ = object.__setattr__
        set_(self, "microwave_speed", state[0])
        set_(self, "fiber_speed", state[1])
        set_(self, "per_tower_overhead_s", state[2])

    def microwave_latency_s(self, length_m: float) -> float:
        """Propagation latency of a microwave hop of ``length_m`` metres."""
        if length_m < 0.0:
            raise ValueError("length cannot be negative")
        return length_m / self.microwave_speed

    def fiber_latency_s(self, length_m: float) -> float:
        """Propagation latency of a fiber segment of ``length_m`` metres."""
        if length_m < 0.0:
            raise ValueError("length cannot be negative")
        return length_m / self.fiber_speed

    def link_latency_s(self, length_m: float, medium: str) -> float:
        """Latency of one link; ``medium`` is ``"microwave"`` or ``"fiber"``."""
        if medium == "microwave":
            return self.microwave_latency_s(length_m)
        if medium == "fiber":
            return self.fiber_latency_s(length_m)
        raise ValueError(f"unknown medium: {medium!r}")

    def geodesic_latency_s(self, distance_m: float) -> float:
        """The c-speed lower bound along a geodesic of ``distance_m``.

        This is the paper's "minimum achievable latency" reference (c in
        vacuum/air over the geodesic distance), used for the APA slack
        bound in §5.
        """
        if distance_m < 0.0:
            raise ValueError("distance cannot be negative")
        return distance_m / SPEED_OF_LIGHT

    def tower_overhead_s(self, tower_count: int) -> float:
        """Total repeater overhead of a route with ``tower_count`` towers."""
        if tower_count < 0:
            raise ValueError("tower count cannot be negative")
        return tower_count * self.per_tower_overhead_s


#: The model used throughout the paper's analysis.
PAPER_LATENCY_MODEL = LatencyModel()


def seconds_to_ms(value_s: float) -> float:
    """Seconds to milliseconds (the unit the paper's tables use)."""
    return value_s * 1e3


def seconds_to_us(value_s: float) -> float:
    """Seconds to microseconds (the unit of the paper's latency gaps)."""
    return value_s * 1e6
