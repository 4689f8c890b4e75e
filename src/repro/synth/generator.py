"""License-history generation from :class:`NetworkSpec`.

The builder turns a spec into FCC-style license records:

1. **Geometry.**  The final-era trunk runs between gateway towers placed a
   short fiber-tail away from CME and NY4.  Intermediate towers follow the
   geodesic with a smooth lateral offset whose amplitude is *calibrated by
   bisection* until the end-to-end latency (computed with the paper's
   model: MW at c plus fiber tails at 2c/3) hits the spec's target.
   Branch chains towards NYSE/NASDAQ are calibrated the same way given the
   fixed trunk prefix.
2. **Redundancy.**  Bypass towers cover exactly the link indices the spec
   lists: consecutive covered pairs get a two-hop bypass around their
   shared tower; isolated links get a parallel two-hop bypass.  Bypass
   detours are strictly longer than the links they protect, so they never
   alter the shortest path but raise APA.
3. **Frequencies.**  Channels are drawn per-link from the spec's band mix
   (trunk vs alternate), seeded and deterministic.
4. **History.**  Each historic era gets its own calibrated chain whose
   licenses are granted shortly before the era starts and cancelled when
   the next era replaces it; padding licenses (extra channels on existing
   links) bring active-license counts up to the spec's Fig-2 targets; a
   wind-down window spreads cancellation dates over a network's exit.
"""

from __future__ import annotations

import datetime as dt
import math
import random
from dataclasses import dataclass, field

from repro import obs
from repro.constants import FIBER_SPEED, SPEED_OF_LIGHT
from repro.core.corridor import CorridorSpec
from repro.geodesy import GeoPoint, geodesic_destination, geodesic_inverse
from repro.geodesy.path import polyline_length
from repro.synth.noise import SmoothNoise
from repro.synth.specs import (
    CHANNEL_PLANS_MHZ,
    BranchSpec,
    EraSpec,
    FrequencyProfile,
    NetworkSpec,
)
from repro.synth.towers import ChainLayout, bypass_point
from repro.uls.records import License, MicrowavePath, TowerLocation

#: Calibration convergence: stop when the chain length is within this many
#: metres of the target (5 m ≈ 17 ps of latency — far below the tightest
#: inter-network gap in Table 2, which is ~23 m / 0.08 µs).
_CALIBRATION_TOLERANCE_M = 5.0

#: Default lateral amplitude for uncalibrated (partial-era) chains.
_DEFAULT_AMPLITUDE_M = 2_000.0

#: Lateral offsets for bypass towers, metres.
_BYPASS_LATERAL_M = 4_000.0

#: How many days before an era starts its licenses are granted over.
_GRANT_STAGGER_DAYS = 60


class CalibrationError(RuntimeError):
    """Raised when no lateral amplitude can reach the latency target."""


def _along(start: GeoPoint, towards: GeoPoint, distance_m: float) -> GeoPoint:
    _, azimuth, _ = geodesic_inverse(start, towards)
    return geodesic_destination(start, azimuth, distance_m)


def _mw_length_target_m(latency_target_ms: float, fiber_tail_m: float) -> float:
    """The microwave path length that yields the target latency.

    total = L_mw / c + fiber / (2c/3)   =>   L_mw = c·total − 1.5·fiber.
    """
    target_s = latency_target_ms / 1e3
    length = SPEED_OF_LIGHT * (target_s - fiber_tail_m / FIBER_SPEED)
    if length <= 0.0:
        raise CalibrationError(
            f"latency target {latency_target_ms} ms is below the fiber tails alone"
        )
    return length


def _bisect_amplitude(layout: ChainLayout, target_m: float, what: str) -> float:
    """Find the lateral amplitude whose chain length equals ``target_m``.

    Chain length is monotone non-decreasing in amplitude; we double an
    upper bracket until it exceeds the target, then bisect.

    Each step needs the length only to compare it with the target.  The
    towers are placed once per amplitude, and the Lambert length
    (:meth:`ChainLayout.bounded_length`) decides a comparison alone when
    its error bound keeps the exact length on one side; only the rest pay
    for the exact Vincenty sum.  So the decisions, and the amplitude, are
    those of a bisection over exact lengths (DESIGN.md §15).
    """
    exact = bounded = 0

    def length(amplitude_m: float, margin_m: float) -> float:
        """The exact chain length at ``amplitude_m``, or ``-inf``/``+inf``
        when the bounded length proves it lies more than ``margin_m``
        below/above the target: every comparison below reads an infinity
        as it would read the exact length."""
        nonlocal exact, bounded
        sites = layout.sites(amplitude_m)
        estimate = layout.bounded_length(sites)
        if estimate is not None:
            cheap, error = estimate
            if cheap + error < target_m - margin_m:
                bounded += 1
                return -math.inf
            if cheap - error > target_m + margin_m:
                bounded += 1
                return math.inf
        exact += 1
        return layout.exact_length(sites)

    try:
        # An infinite margin: the straight chain is always measured exactly.
        base = length(0.0, math.inf)
        if base > target_m + _CALIBRATION_TOLERANCE_M:
            raise CalibrationError(
                f"{what}: straight chain is already {base / 1000.0:.3f} km, "
                f"longer than the {target_m / 1000.0:.3f} km target"
            )
        if abs(base - target_m) <= _CALIBRATION_TOLERANCE_M:
            return 0.0
        high = 2_000.0
        while length(high, 0.0) < target_m:
            high *= 2.0
            if high > 1_000_000.0:
                raise CalibrationError(f"{what}: target unreachable even at 1000 km amplitude")
        low = 0.0
        for _ in range(80):
            mid = (low + high) / 2.0
            mid_length = length(mid, _CALIBRATION_TOLERANCE_M)
            if abs(mid_length - target_m) <= _CALIBRATION_TOLERANCE_M:
                return mid
            if mid_length < target_m:
                low = mid
            else:
                high = mid
        return (low + high) / 2.0
    finally:
        obs.count("synth.calibrate.exact", exact)
        obs.count("synth.calibrate.bounded", bounded)


@dataclass
class _LicenseDraft:
    locations: list[GeoPoint]
    paths: list[tuple[int, int]]  # (tx index, rx index) into locations
    frequencies: list[tuple[float, ...]]  # per path
    grant: dt.date
    cancellation: dt.date | None
    kind: str


class NetworkBuilder:
    """Builds the full license history for one :class:`NetworkSpec`."""

    def __init__(
        self,
        spec: NetworkSpec,
        corridor: CorridorSpec,
        final_date: dt.date = dt.date(2020, 4, 1),
    ) -> None:
        self.spec = spec
        self.corridor = corridor
        self.final_date = final_date
        self._rng = random.Random(spec.seed)
        self._license_counter = 0
        self.calibration_report: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    def _gateways(self) -> tuple[GeoPoint, GeoPoint]:
        # The trunk runs between the corridor's western anchor and its
        # primary (first-listed) eastern data center.
        west_dc = self.corridor.west.point
        east_dc = self.corridor.east[0].point
        west = _along(west_dc, east_dc, self.spec.gateway_west_km * 1000.0)
        east = _along(east_dc, west_dc, self.spec.gateway_east_km * 1000.0)
        return west, east

    def _trunk_layout(self, n_links: int, salt: int) -> ChainLayout:
        west, east = self._gateways()
        return ChainLayout(
            west,
            east,
            n_links,
            SmoothNoise(self.spec.seed * 1000 + salt),
            profile=self.spec.spacing_profile,
            spacing_seed=self.spec.seed * 77 + salt,
            short_fraction=self.spec.spacing_short_fraction,
            length_ratio=self.spec.spacing_length_ratio,
        )

    def calibrate_trunk(self, n_links: int, target_ms: float, salt: int) -> list[GeoPoint]:
        """Trunk chain whose end-to-end CME–NY4 latency equals ``target_ms``."""
        fiber = (self.spec.gateway_west_km + self.spec.gateway_east_km) * 1000.0
        target_length = _mw_length_target_m(target_ms, fiber)
        layout = self._trunk_layout(n_links, salt)
        amplitude = _bisect_amplitude(
            layout,
            target_length,
            what=f"{self.spec.name} trunk (era salt {salt})",
        )
        self.calibration_report[f"trunk[{salt}]"] = amplitude
        return layout.points(amplitude)

    def _branch_layout(self, branch: BranchSpec, trunk: list[GeoPoint]) -> ChainLayout:
        split_tower = trunk[branch.split_link]
        dc = self.corridor.site(branch.target_dc).point
        gateway = _along(dc, split_tower, branch.gateway_km * 1000.0)
        return ChainLayout(
            split_tower,
            gateway,
            branch.n_links,
            SmoothNoise(self.spec.seed * 1000 + 500 + branch.split_link),
            profile="jittered",
            spacing_seed=self.spec.seed * 99 + branch.split_link,
        )

    def calibrate_branch(
        self, branch: BranchSpec, trunk: list[GeoPoint]
    ) -> list[GeoPoint]:
        """Branch chain calibrated so CME→branch-DC latency hits its target."""
        trunk_prefix = polyline_length(trunk[: branch.split_link + 1])
        fiber = (self.spec.gateway_west_km + branch.gateway_km) * 1000.0
        total_target = _mw_length_target_m(branch.latency_target_ms, fiber)
        branch_target = total_target - trunk_prefix
        if branch_target <= 0.0:
            raise CalibrationError(
                f"{self.spec.name}: trunk prefix alone exceeds the "
                f"{branch.target_dc} latency target"
            )
        layout = self._branch_layout(branch, trunk)
        amplitude = _bisect_amplitude(
            layout,
            branch_target,
            what=f"{self.spec.name} branch to {branch.target_dc}",
        )
        self.calibration_report[f"branch[{branch.target_dc}]"] = amplitude
        return layout.points(amplitude)

    @staticmethod
    def _double_bypass_tower(
        before: GeoPoint, middle: GeoPoint, after: GeoPoint, lateral_m: float
    ) -> GeoPoint:
        """A bypass tower around ``middle``, guaranteed to lengthen the path.

        The tower is ``middle`` displaced ``lateral_m`` perpendicular to
        the before→after chord, on *middle's own side* of the chord.
        Moving the intermediate point further from the chord strictly
        lengthens both legs, so the bypass can never undercut the trunk —
        even when the trunk's lateral jitter exceeds ``lateral_m``
        (placing the tower on the chord itself would shortcut it then).
        """
        _, chord_azimuth, _ = geodesic_inverse(before, after)
        _, to_middle_azimuth, _ = geodesic_inverse(before, middle)
        relative = (to_middle_azimuth - chord_azimuth) % 360.0
        side = 1.0 if 0.0 < relative < 180.0 else -1.0
        return geodesic_destination(
            middle, (chord_azimuth + side * 90.0) % 360.0, lateral_m
        )

    def _bypass_links(
        self, chain: list[GeoPoint], covered: tuple[int, ...], lateral_m: float
    ) -> list[tuple[GeoPoint, GeoPoint]]:
        """Bypass links covering exactly the given chain link indices.

        Consecutive covered links (j, j+1) share a two-hop bypass around
        tower j+1; isolated links get a parallel two-hop bypass.  Either
        way each covered link gains an alternate route that survives its
        removal, and every bypass detour is strictly longer than the
        links it protects.
        """
        links: list[tuple[GeoPoint, GeoPoint]] = []
        ordered = sorted(set(covered))
        index = 0
        while index < len(ordered):
            j = ordered[index]
            if index + 1 < len(ordered) and ordered[index + 1] == j + 1:
                tower = self._double_bypass_tower(
                    chain[j], chain[j + 1], chain[j + 2], lateral_m
                )
                links.append((chain[j], tower))
                links.append((tower, chain[j + 2]))
                index += 2
            else:
                tower = bypass_point(chain[j], chain[j + 1], lateral_m)
                links.append((chain[j], tower))
                links.append((tower, chain[j + 1]))
                index += 1
        return links

    def _spur_links(self, trunk: list[GeoPoint]) -> list[tuple[GeoPoint, GeoPoint]]:
        """Decorative links: a dead-end stub off the trunk plus a fully
        disconnected link south of the corridor (the paper's Fig 3 notes
        both kinds)."""
        links: list[tuple[GeoPoint, GeoPoint]] = []
        if self.spec.spur_links <= 0:
            return links
        anchor = trunk[len(trunk) // 2]
        stub1 = geodesic_destination(anchor, 160.0, 22_000.0)
        links.append((anchor, stub1))
        if self.spec.spur_links >= 2:
            stub2 = geodesic_destination(stub1, 140.0, 18_000.0)
            links.append((stub1, stub2))
        if self.spec.spur_links >= 3:
            lone_a = geodesic_destination(trunk[len(trunk) // 3], 185.0, 60_000.0)
            lone_b = geodesic_destination(lone_a, 95.0, 25_000.0)
            links.append((lone_a, lone_b))
        return links

    # ------------------------------------------------------------------
    # Frequencies
    # ------------------------------------------------------------------

    def _draw_channels(self, bands: tuple[tuple[str, float], ...]) -> tuple[float, ...]:
        names = [band for band, _ in bands]
        weights = [weight for _, weight in bands]
        band = self._rng.choices(names, weights=weights, k=1)[0]
        plan = CHANNEL_PLANS_MHZ[band]
        count = min(self.spec.frequency_profile.channels_per_link, len(plan))
        return tuple(sorted(self._rng.sample(plan, count)))

    def _link_frequencies(self, kind: str) -> tuple[float, ...]:
        profile = self.spec.frequency_profile
        if kind == "bypass":
            return self._draw_channels(profile.effective_alternate_bands)
        return self._draw_channels(profile.trunk_bands)

    # ------------------------------------------------------------------
    # License assembly
    # ------------------------------------------------------------------

    def _next_ids(self) -> tuple[str, str]:
        self._license_counter += 1
        suffix = f"{self._license_counter:05d}"
        return (
            f"L{self.spec.callsign_prefix}{suffix}",
            f"{self.spec.callsign_prefix}{suffix}",
        )

    @property
    def _contact_email(self) -> str:
        slug = self.spec.name.lower().replace(" ", "").replace(".", "")
        return f"licensing@{slug}.example.com"

    def _make_license(self, draft: _LicenseDraft) -> License:
        license_id, callsign = self._next_ids()
        locations = {
            index + 1: TowerLocation(
                location_number=index + 1,
                point=point,
                ground_elevation_m=200.0,
                structure_height_m=90.0,
            )
            for index, point in enumerate(draft.locations)
        }
        paths = [
            MicrowavePath(
                path_number=number + 1,
                tx_location_number=tx + 1,
                rx_location_number=rx + 1,
                frequencies_mhz=frequencies,
            )
            for number, ((tx, rx), frequencies) in enumerate(
                zip(draft.paths, draft.frequencies)
            )
        ]
        return License(
            license_id=license_id,
            callsign=callsign,
            licensee_name=self.spec.name,
            contact_email=self._contact_email,
            grant_date=draft.grant,
            expiration_date=draft.grant + dt.timedelta(days=3650),
            cancellation_date=draft.cancellation,
            locations=locations,
            paths=paths,
        )

    def _grant_date(self, era_start: dt.date) -> dt.date:
        offset = self._rng.randint(5, _GRANT_STAGGER_DAYS)
        return era_start - dt.timedelta(days=offset)

    def _licenses_for_links(
        self,
        links: list[tuple[GeoPoint, GeoPoint]],
        kinds: list[str],
        era_start: dt.date,
        era_end: dt.date | None,
        pair_trunk: bool,
    ) -> list[License]:
        """One license per link — or, when ``pair_trunk`` is set, one
        license per *pair* of adjacent trunk links with the shared tower as
        the transmitter (multi-receiver filings, as some licensees use)."""
        licenses: list[License] = []
        index = 0
        while index < len(links):
            a, b = links[index]
            kind = kinds[index]
            pairable = (
                pair_trunk
                and kind in ("trunk", "branch")
                and index + 1 < len(links)
                and kinds[index + 1] == kind
                and links[index + 1][0] is b
            )
            if pairable:
                _, c = links[index + 1]
                draft = _LicenseDraft(
                    locations=[b, a, c],
                    paths=[(0, 1), (0, 2)],
                    frequencies=[self._link_frequencies(kind) for _ in range(2)],
                    grant=self._grant_date(era_start),
                    cancellation=era_end,
                    kind=kind,
                )
                index += 2
            else:
                draft = _LicenseDraft(
                    locations=[a, b],
                    paths=[(0, 1)],
                    frequencies=[self._link_frequencies(kind)],
                    grant=self._grant_date(era_start),
                    cancellation=era_end,
                    kind=kind,
                )
                index += 1
            licenses.append(self._make_license(draft))
        return licenses

    # ------------------------------------------------------------------
    # Eras
    # ------------------------------------------------------------------

    def _final_era_links(self) -> tuple[list[tuple[GeoPoint, GeoPoint]], list[str]]:
        spec = self.spec
        trunk = self.calibrate_trunk(spec.trunk_links, spec.ny4_target_ms, salt=0)
        links: list[tuple[GeoPoint, GeoPoint]] = list(zip(trunk, trunk[1:]))
        kinds = ["trunk"] * len(links)

        for branch in spec.branches:
            chain = self.calibrate_branch(branch, trunk)
            branch_links = list(zip(chain, chain[1:]))
            links.extend(branch_links)
            kinds.extend(["branch"] * len(branch_links))
            for bypass in self._bypass_links(
                chain, branch.bypass_covered, _BYPASS_LATERAL_M
            ):
                links.append(bypass)
                kinds.append("bypass")

        for bypass in self._bypass_links(
            trunk, spec.trunk_bypass_covered, _BYPASS_LATERAL_M
        ):
            links.append(bypass)
            kinds.append("bypass")

        for spur in self._spur_links(trunk):
            links.append(spur)
            kinds.append("spur")
        return links, kinds

    def _era_links(
        self, era: EraSpec, salt: int
    ) -> tuple[list[tuple[GeoPoint, GeoPoint]], list[str]]:
        if era.latency_target_ms is not None:
            chain = self.calibrate_trunk(era.n_links, era.latency_target_ms, salt)
        else:
            chain = self._trunk_layout(era.n_links, salt).points(_DEFAULT_AMPLITUDE_M)
            keep = max(1, math.ceil(era.coverage * era.n_links))
            chain = chain[: keep + 1]
        links = list(zip(chain, chain[1:]))
        return links, ["trunk"] * len(links)

    # ------------------------------------------------------------------
    # Padding & wind-down
    # ------------------------------------------------------------------

    def _pad_to_targets(self, licenses: list[License]) -> list[License]:
        """Extra channel filings bringing active counts up to Fig-2 targets."""
        padding: list[License] = []
        wind_start = self.spec.wind_down[0] if self.spec.wind_down else None
        previous_date: dt.date | None = None
        for target_date, target_count in self.spec.license_count_targets:
            if wind_start is not None and target_date >= wind_start:
                # Counts inside the wind-down window emerge from the
                # cancellation spread, not from padding.
                continue
            current = sum(
                1 for lic in licenses + padding if lic.is_active(target_date)
            )
            deficit = target_count - current
            if deficit < 0:
                raise ValueError(
                    f"{self.spec.name}: structural licenses ({current}) already "
                    f"exceed the count target ({target_count}) at {target_date}"
                )
            donors = [
                lic
                for lic in licenses
                if lic.is_active(target_date) and lic.paths
            ]
            if deficit and not donors:
                raise ValueError(
                    f"{self.spec.name}: no active links to attach padding to "
                    f"at {target_date}"
                )
            window_start = previous_date or (target_date - dt.timedelta(days=365))
            span = max(1, (target_date - window_start).days)
            for _ in range(deficit):
                donor = self._rng.choice(donors)
                grant = window_start + dt.timedelta(days=self._rng.randint(0, span - 1))
                grant = max(grant, donor.grant_date or grant)
                draft = _LicenseDraft(
                    locations=[
                        donor.locations[number].point
                        for number in sorted(donor.locations)
                    ],
                    paths=[
                        (path.tx_location_number - 1, path.rx_location_number - 1)
                        for path in donor.paths
                    ],
                    frequencies=[
                        self._link_frequencies("trunk") for _ in donor.paths
                    ],
                    grant=grant,
                    cancellation=donor.cancellation_date,
                    kind="padding",
                )
                padding.append(self._make_license(draft))
            previous_date = target_date
        return padding

    def _apply_wind_down(self, licenses: list[License]) -> None:
        if self.spec.wind_down is None:
            return
        start, end = self.spec.wind_down
        span = (end - start).days
        for lic in licenses:
            if lic.cancellation_date is not None and lic.cancellation_date <= start:
                continue
            lic.cancellation_date = start + dt.timedelta(
                days=self._rng.randint(0, span)
            )

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def build(self) -> list[License]:
        """The licensee's complete license history."""
        spec = self.spec
        licenses: list[License] = []
        for era, era_end in spec.era_boundaries():
            links, kinds = self._era_links(era, salt=100 + era.seed_salt)
            licenses.extend(
                self._licenses_for_links(
                    links,
                    kinds,
                    era.start,
                    era_end,
                    pair_trunk=spec.links_per_license == 2,
                )
            )
        final_links, final_kinds = self._final_era_links()
        licenses.extend(
            self._licenses_for_links(
                final_links,
                final_kinds,
                spec.final_era_start,
                None,
                pair_trunk=spec.links_per_license == 2,
            )
        )
        licenses.extend(self._pad_to_targets(licenses))
        self._apply_wind_down(licenses)
        return licenses


def build_network_licenses(
    spec: NetworkSpec,
    corridor: CorridorSpec,
    final_date: dt.date = dt.date(2020, 4, 1),
) -> list[License]:
    """Convenience wrapper: build one spec's license history."""
    return NetworkBuilder(spec, corridor, final_date).build()
