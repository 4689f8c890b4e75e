"""Specification model for synthetic HFT networks.

A :class:`NetworkSpec` captures everything the generator needs to build one
licensee's license history:

* final-era geometry: trunk hop count, branch split points, bypass
  coverage, hop-spacing profile, gateway fiber-tail lengths;
* calibration targets: the end-to-end latencies the reconstruction
  pipeline should measure on each corridor path (straight from the
  paper's Tables 1/2);
* frequency profile (trunk and alternate-path band mixes, Fig 4b);
* history: a sequence of eras with their own latency targets (Fig 1),
  license-count targets at snapshot dates (Fig 2), and an optional
  wind-down window (National Tower Company's exit).

The specs *encode design intent*; nothing here is read by the
reconstruction or analysis code, which measures everything back out of the
generated license records.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field

#: Channel plans (centre frequencies, MHz) for the corridor's licensed
#: point-to-point bands.  Channel spacing mirrors the real FCC band plans
#: (59.3 MHz in L6, 40 MHz at 11 GHz, 80 MHz at 18 GHz, 50 MHz at 23 GHz).
CHANNEL_PLANS_MHZ: dict[str, tuple[float, ...]] = {
    "6GHz": (5945.2, 6004.5, 6063.8, 6123.1, 6182.4, 6241.7, 6301.0, 6360.3),
    "11GHz": (10995.0, 11035.0, 11075.0, 11115.0, 11155.0, 11245.0, 11445.0, 11485.0),
    "18GHz": (17765.0, 17845.0, 17925.0, 18005.0, 18085.0, 18165.0),
    "23GHz": (21825.0, 21875.0, 21925.0, 21975.0, 22025.0, 22075.0),
}


@dataclass(frozen=True)
class FrequencyProfile:
    """Band mix for a network's links.

    ``trunk_bands`` and ``alternate_bands`` map band names (keys of
    :data:`CHANNEL_PLANS_MHZ`) to selection weights.  ``channels_per_link``
    is how many distinct channels each link is licensed on.
    """

    trunk_bands: tuple[tuple[str, float], ...]
    alternate_bands: tuple[tuple[str, float], ...] = ()
    channels_per_link: int = 2

    def __post_init__(self) -> None:
        for bands in (self.trunk_bands, self.alternate_bands):
            for band, weight in bands:
                if band not in CHANNEL_PLANS_MHZ:
                    raise ValueError(f"unknown band {band!r}")
                if weight < 0.0:
                    raise ValueError("band weights cannot be negative")
        if not self.trunk_bands:
            raise ValueError("a frequency profile needs trunk bands")
        if self.channels_per_link < 1:
            raise ValueError("channels_per_link must be at least 1")

    @property
    def effective_alternate_bands(self) -> tuple[tuple[str, float], ...]:
        return self.alternate_bands or self.trunk_bands


@dataclass(frozen=True)
class BranchSpec:
    """A branch chain from the trunk towards a second data center.

    ``split_link`` is the number of trunk links between the western
    gateway and the branch tower (the branch leaves the trunk at trunk
    tower index ``split_link``).  ``bypass_covered`` lists the 0-based
    branch link indices that must be covered by bypass towers (for the
    per-path APA targets of Table 3).
    """

    target_dc: str
    split_link: int
    n_links: int
    latency_target_ms: float
    bypass_covered: tuple[int, ...] = ()
    gateway_km: float = 0.6

    def __post_init__(self) -> None:
        if self.split_link < 1:
            raise ValueError("branch must split after at least one trunk link")
        if self.n_links < 1:
            raise ValueError("branch needs at least one link")
        if self.latency_target_ms <= 0.0:
            raise ValueError("latency target must be positive")
        for index in self.bypass_covered:
            if not 0 <= index < self.n_links:
                raise ValueError(f"bypass index {index} out of branch range")


@dataclass(frozen=True)
class EraSpec:
    """One period of a network's history (Fig 1 / Fig 2 shape).

    ``latency_target_ms`` is the CME–NY4 latency the era's trunk should
    measure; ``None`` means the era is a partial build: only the western
    ``coverage`` fraction of trunk links exists, so there is no end-to-end
    path yet.
    """

    start: dt.date
    latency_target_ms: float | None
    n_links: int
    coverage: float = 1.0
    seed_salt: int = 0

    def __post_init__(self) -> None:
        if self.n_links < 2:
            raise ValueError("an era needs at least two links")
        if not 0.0 < self.coverage <= 1.0:
            raise ValueError("coverage must be in (0, 1]")
        if self.latency_target_ms is None and self.coverage >= 1.0:
            raise ValueError("a disconnected era must have coverage < 1")
        if self.latency_target_ms is not None and self.coverage < 1.0:
            raise ValueError("a connected era must have full coverage")


@dataclass(frozen=True)
class NetworkSpec:
    """Complete specification of one synthetic licensee."""

    name: str
    callsign_prefix: str
    seed: int
    trunk_links: int
    ny4_target_ms: float
    frequency_profile: FrequencyProfile
    trunk_bypass_covered: tuple[int, ...] = ()
    branches: tuple[BranchSpec, ...] = ()
    eras: tuple[EraSpec, ...] = ()
    final_era_start: dt.date = dt.date(2019, 1, 15)
    gateway_west_km: float = 0.9
    gateway_east_km: float = 0.8
    spacing_profile: str = "uniform"
    spacing_short_fraction: float = 0.6
    spacing_length_ratio: float = 2.0
    links_per_license: int = 1
    license_count_targets: tuple[tuple[dt.date, int], ...] = ()
    wind_down: tuple[dt.date, dt.date] | None = None
    spur_links: int = 0

    def __post_init__(self) -> None:
        if self.trunk_links < 2:
            raise ValueError("trunk needs at least two links")
        if self.ny4_target_ms <= 0.0:
            raise ValueError("NY4 latency target must be positive")
        for index in self.trunk_bypass_covered:
            if not 0 <= index < self.trunk_links:
                raise ValueError(f"trunk bypass index {index} out of range")
        seen_targets = set()
        for branch in self.branches:
            if branch.split_link >= self.trunk_links:
                raise ValueError(
                    f"branch to {branch.target_dc} splits beyond the trunk"
                )
            if branch.target_dc in seen_targets:
                raise ValueError(f"duplicate branch target {branch.target_dc!r}")
            seen_targets.add(branch.target_dc)
        dates = [era.start for era in self.eras]
        if dates != sorted(dates):
            raise ValueError("eras must be in chronological order")
        if dates and dates[-1] >= self.final_era_start:
            raise ValueError("historic eras must precede the final era")
        if self.links_per_license not in (1, 2):
            raise ValueError("links_per_license must be 1 or 2")
        if self.wind_down is not None and self.wind_down[0] >= self.wind_down[1]:
            raise ValueError("wind-down window must have positive length")
        count_dates = [date for date, _ in self.license_count_targets]
        if count_dates != sorted(count_dates):
            raise ValueError("license count targets must be in date order")

    def era_boundaries(self) -> list[tuple[EraSpec, dt.date | None]]:
        """Each historic era with its end date (next era's start)."""
        boundaries: list[tuple[EraSpec, dt.date | None]] = []
        for index, era in enumerate(self.eras):
            end = (
                self.eras[index + 1].start
                if index + 1 < len(self.eras)
                else self.final_era_start
            )
            boundaries.append((era, end))
        return boundaries
