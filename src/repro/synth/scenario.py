"""The ``paper2020`` scenario: the corridor as the paper measured it.

This module pins down one :class:`NetworkSpec` per licensee the paper
analyses, with calibration targets copied from the published tables:

* Table 1 — the nine connected networks's CME–NY4 latencies, APA
  percentages and shortest-path tower counts on 1 April 2020;
* Table 2 — the per-path latencies of the top-3 networks for CME–NYSE and
  CME–NASDAQ (plus §5's quoted WH lags for the WH targets);
* Table 3 — NLN vs WH per-path APA, realised through bypass coverage
  masks;
* Fig 1 / Fig 2 — era timelines and license-count trajectories, including
  National Tower Company's rise and wind-down;
* Fig 4 — hop-spacing profiles (WH's short-hop "mixed" layout) and
  frequency band mixes (WH in the 6 GHz band, NLN at 11 GHz with 6 GHz
  alternates);
* §2.2's scraping funnel — 19 partial builders (≥11 filings, no end-end
  path) and 28 small local decoy licensees (≤10 filings near CME), so the
  geographic search uncovers 57 candidates, 29 survive the filing-count
  shortlist, and 9 are connected in 2020.

Latencies not published in the paper (e.g. Pierce Broadband's CME–NYSE
time) are filled with values consistent with every published constraint
(slower than the printed top-3).
"""

from __future__ import annotations

import datetime as dt
import random
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.corridor import CorridorSpec, chicago_nj_corridor
from repro.geodesy import GeoPoint, geodesic_destination
from repro.uls.database import UlsDatabase
from repro.uls.records import License, MicrowavePath, TowerLocation

if TYPE_CHECKING:
    from repro.synth.specs import FrequencyProfile, NetworkSpec

#: The paper's snapshot date ("as of 1st April, 2020").
SNAPSHOT_DATE = dt.date(2020, 4, 1)

_D = dt.date  # local shorthand for the spec tables below

# ----------------------------------------------------------------------
# Frequency profiles (Fig 4b)
# ----------------------------------------------------------------------

def _frequency_profiles() -> dict[str, FrequencyProfile]:
    """The band mixes of the spec tables below, by name.

    Built on first use by a spec table, not at import: unpickling a
    stored :class:`Scenario` needs no spec type, so a warm command never
    loads :mod:`repro.synth.specs`.
    """
    from repro.synth.specs import FrequencyProfile

    return {
        # NLN runs its trunk at 11 GHz and keeps lower-frequency (6 GHz)
        # channels on alternate paths (§5, Fig 4b).
        "nln": FrequencyProfile(
            trunk_bands=(("11GHz", 1.0),),
            alternate_bands=(("6GHz", 0.30), ("11GHz", 0.70)),
        ),
        # WH runs almost everything in the 6 GHz band (">94% of the
        # frequencies being under 7 GHz").
        "wh": FrequencyProfile(
            trunk_bands=(("6GHz", 0.96), ("11GHz", 0.04)),
            alternate_bands=(("6GHz", 1.0),),
        ),
        "11ghz": FrequencyProfile(trunk_bands=(("11GHz", 1.0),)),
        "mix_11_18": FrequencyProfile(
            trunk_bands=(("11GHz", 0.6), ("18GHz", 0.4))
        ),
        "18ghz": FrequencyProfile(trunk_bands=(("18GHz", 1.0),)),
        "short_hop": FrequencyProfile(
            trunk_bands=(("18GHz", 0.5), ("23GHz", 0.5))
        ),
    }


# ----------------------------------------------------------------------
# The nine connected networks + National Tower Company
# ----------------------------------------------------------------------

def connected_network_specs() -> tuple[NetworkSpec, ...]:
    """Specs for the nine networks of Table 1 (latencies in ms)."""
    from repro.synth.specs import BranchSpec, EraSpec, NetworkSpec

    freqs = _frequency_profiles()
    return (
        NetworkSpec(
            name="New Line Networks",
            callsign_prefix="WQNL",
            seed=11,
            trunk_links=24,
            ny4_target_ms=3.96171,
            frequency_profile=freqs["nln"],
            trunk_bypass_covered=(1, 2, 4, 5, 7, 8, 10, 11, 14, 15, 17, 18, 21),
            branches=(
                BranchSpec(
                    target_dc="NYSE",
                    split_link=20,
                    n_links=6,
                    latency_target_ms=3.93209,
                    bypass_covered=(0, 1, 3),
                    gateway_km=0.7,
                ),
                BranchSpec(
                    target_dc="NASDAQ",
                    split_link=8,
                    n_links=19,
                    latency_target_ms=3.92728,
                    bypass_covered=(4, 5, 8, 9),
                    gateway_km=0.45,
                ),
            ),
            eras=(
                EraSpec(_D(2013, 2, 1), None, 24, coverage=0.3, seed_salt=1),
                EraSpec(_D(2014, 8, 1), None, 24, coverage=0.7, seed_salt=2),
                EraSpec(_D(2015, 12, 20), 3.9900, 24, seed_salt=3),
                EraSpec(_D(2016, 11, 5), 3.9790, 24, seed_salt=4),
                EraSpec(_D(2017, 10, 12), 3.9640, 24, seed_salt=5),
            ),
            final_era_start=_D(2019, 6, 15),
            license_count_targets=(
                (_D(2014, 1, 1), 10),
                (_D(2015, 1, 1), 40),
                (_D(2016, 1, 1), 95),
                (_D(2017, 1, 1), 130),
                (_D(2018, 1, 1), 150),
                (_D(2019, 1, 1), 150),
                (_D(2020, 4, 1), 148),
            ),
            spur_links=3,
        ),
        NetworkSpec(
            name="Pierce Broadband",
            callsign_prefix="WQPB",
            seed=12,
            trunk_links=28,
            ny4_target_ms=3.96209,
            frequency_profile=freqs["11ghz"],
            trunk_bypass_covered=(13, 14),
            branches=(
                BranchSpec("NYSE", split_link=22, n_links=6,
                           latency_target_ms=3.96500, gateway_km=0.7),
                BranchSpec("NASDAQ", split_link=10, n_links=18,
                           latency_target_ms=3.94000, gateway_km=0.45),
            ),
            eras=(
                EraSpec(_D(2019, 7, 10), None, 28, coverage=0.6, seed_salt=1),
            ),
            final_era_start=_D(2020, 2, 15),
            links_per_license=2,
            license_count_targets=((_D(2020, 4, 1), 34),),
        ),
        NetworkSpec(
            name="Jefferson Microwave",
            callsign_prefix="WRJM",
            seed=13,
            trunk_links=21,
            ny4_target_ms=3.96597,
            frequency_profile=freqs["11ghz"],
            trunk_bypass_covered=(1, 2, 4, 5, 7, 8, 10, 11, 13, 14, 16, 17, 19, 20, 18),
            branches=(
                BranchSpec("NYSE", split_link=18, n_links=5,
                           latency_target_ms=3.94021, bypass_covered=(1, 2),
                           gateway_km=0.7),
                BranchSpec("NASDAQ", split_link=6, n_links=20,
                           latency_target_ms=3.92828, bypass_covered=(8, 9),
                           gateway_km=0.45),
            ),
            eras=(
                EraSpec(_D(2014, 6, 1), None, 21, coverage=0.5, seed_salt=1),
                EraSpec(_D(2014, 12, 20), 3.9950, 21, seed_salt=2),
                EraSpec(_D(2015, 12, 10), 3.9850, 21, seed_salt=3),
                EraSpec(_D(2016, 11, 20), 3.9780, 21, seed_salt=4),
                EraSpec(_D(2017, 11, 8), 3.9720, 21, seed_salt=5),
            ),
            final_era_start=_D(2018, 12, 10),
            license_count_targets=(
                (_D(2015, 1, 1), 30),
                (_D(2016, 1, 1), 45),
                (_D(2017, 1, 1), 55),
                (_D(2018, 1, 1), 62),
                (_D(2019, 1, 1), 70),
                (_D(2020, 4, 1), 70),
            ),
        ),
        NetworkSpec(
            name="Blueline Comm",
            callsign_prefix="WQBC",
            seed=14,
            trunk_links=28,
            ny4_target_ms=3.96940,
            frequency_profile=freqs["mix_11_18"],
            branches=(
                BranchSpec("NYSE", split_link=24, n_links=5,
                           latency_target_ms=3.95866, gateway_km=0.7),
                BranchSpec("NASDAQ", split_link=8, n_links=20,
                           latency_target_ms=3.94700, gateway_km=0.45),
            ),
            eras=(
                EraSpec(_D(2014, 3, 15), 4.0100, 28, seed_salt=1),
                EraSpec(_D(2016, 5, 10), 3.9900, 28, seed_salt=2),
            ),
            final_era_start=_D(2018, 4, 20),
            license_count_targets=(
                (_D(2015, 1, 1), 45),
                (_D(2017, 1, 1), 60),
                (_D(2020, 4, 1), 80),
            ),
        ),
        NetworkSpec(
            name="Webline Holdings",
            callsign_prefix="WQWH",
            seed=15,
            trunk_links=26,
            ny4_target_ms=3.97157,
            frequency_profile=freqs["wh"],
            trunk_bypass_covered=(
                0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17,
                19, 21, 22, 23,
            ),
            branches=(
                BranchSpec("NYSE", split_link=21, n_links=4,
                           latency_target_ms=4.04909,
                           bypass_covered=(0, 1, 2, 3), gateway_km=0.7),
                BranchSpec("NASDAQ", split_link=4, n_links=21,
                           latency_target_ms=3.92805,
                           bypass_covered=(0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                                           10, 11, 12, 13, 14, 15),
                           gateway_km=0.45),
            ),
            eras=(
                EraSpec(_D(2012, 7, 1), 4.0300, 26, seed_salt=1),
                EraSpec(_D(2013, 11, 10), 4.0120, 26, seed_salt=2),
                EraSpec(_D(2014, 10, 5), 3.9980, 26, seed_salt=3),
                EraSpec(_D(2015, 11, 15), 3.9870, 26, seed_salt=4),
                EraSpec(_D(2016, 10, 25), 3.9800, 26, seed_salt=5),
                EraSpec(_D(2017, 11, 5), 3.9760, 26, seed_salt=6),
            ),
            final_era_start=_D(2018, 11, 20),
            spacing_profile="mixed",
            spacing_short_fraction=0.62,
            spacing_length_ratio=1.85,
            license_count_targets=(
                (_D(2013, 1, 1), 60),
                (_D(2014, 1, 1), 75),
                (_D(2015, 1, 1), 90),
                (_D(2016, 1, 1), 105),
                (_D(2017, 1, 1), 115),
                (_D(2018, 1, 1), 125),
                (_D(2019, 1, 1), 132),
                (_D(2020, 4, 1), 140),
            ),
        ),
        NetworkSpec(
            name="AQ2AT",
            callsign_prefix="WQAQ",
            seed=16,
            trunk_links=28,
            ny4_target_ms=4.01101,
            frequency_profile=freqs["11ghz"],
            eras=(EraSpec(_D(2016, 9, 1), 4.0250, 28, seed_salt=1),),
            final_era_start=_D(2017, 8, 10),
            license_count_targets=((_D(2018, 1, 1), 45), (_D(2020, 4, 1), 48)),
        ),
        NetworkSpec(
            name="Wireless Internetwork",
            callsign_prefix="WQWI",
            seed=17,
            trunk_links=32,
            ny4_target_ms=4.12246,
            frequency_profile=freqs["18ghz"],
            eras=(EraSpec(_D(2012, 8, 15), 4.1400, 32, seed_salt=1),),
            final_era_start=_D(2014, 6, 1),
            license_count_targets=((_D(2015, 1, 1), 50), (_D(2020, 4, 1), 52)),
        ),
        NetworkSpec(
            name="GTT Americas",
            callsign_prefix="WQGT",
            seed=18,
            trunk_links=27,
            ny4_target_ms=4.24241,
            frequency_profile=freqs["mix_11_18"],
            eras=(EraSpec(_D(2012, 5, 1), 4.2600, 27, seed_salt=1),),
            final_era_start=_D(2013, 9, 15),
            license_count_targets=((_D(2014, 1, 1), 42), (_D(2020, 4, 1), 45)),
        ),
        NetworkSpec(
            name="SW Networks",
            callsign_prefix="WQSW",
            seed=19,
            trunk_links=73,
            ny4_target_ms=4.44530,
            frequency_profile=freqs["short_hop"],
            eras=(EraSpec(_D(2012, 4, 1), 4.4700, 73, seed_salt=1),),
            final_era_start=_D(2013, 7, 1),
            license_count_targets=((_D(2014, 1, 1), 95), (_D(2020, 4, 1), 98)),
        ),
    )


def national_tower_company_spec() -> NetworkSpec:
    """The network that perished (§4): ramped up 2013–2015, wound down
    2016–2017, gone by 2018."""
    from repro.synth.specs import EraSpec, NetworkSpec

    freqs = _frequency_profiles()
    return NetworkSpec(
        name="National Tower Company",
        callsign_prefix="WQNT",
        seed=20,
        trunk_links=30,
        ny4_target_ms=3.9910,
        frequency_profile=freqs["mix_11_18"],
        eras=(
            EraSpec(_D(2012, 9, 1), None, 30, coverage=0.8, seed_salt=1),
            EraSpec(_D(2012, 12, 10), 4.0020, 30, seed_salt=2),
            EraSpec(_D(2014, 3, 5), 3.9960, 30, seed_salt=3),
        ),
        final_era_start=_D(2015, 2, 10),
        license_count_targets=(
            (_D(2013, 1, 1), 120),
            (_D(2014, 1, 1), 135),
            (_D(2015, 1, 1), 160),
            (_D(2016, 1, 1), 160),
        ),
        wind_down=(_D(2016, 3, 1), _D(2017, 9, 30)),
    )


# ----------------------------------------------------------------------
# Partial builders and decoys (the §2.2 funnel)
# ----------------------------------------------------------------------

_PARTIAL_BUILDER_NAMES = (
    "Midwest Relay Partners", "Great Lakes Wave", "Prairie Wireless Transit",
    "Allegheny Microwave", "Keystone Wave Systems", "Heartland Radio Routes",
    "Fox Valley Wireless", "Illiana Tower Links", "Skyline Relay Corp",
    "Apex Route Networks", "Meridian Wave Transport", "Blue Ridge Backhaul",
    "Lakeshore Transmission", "Summit Path Wireless", "Cardinal Relay Group",
    "Pioneer Wave Holdings", "Tri-State Wave Transit", "Susquehanna Links",
    "Eastbound Wireless Ventures",
)

_DECOY_NAMES = tuple(
    f"{city} {suffix}"
    for city, suffix in (
        ("Aurora", "Utility Wireless"), ("Naperville", "Industrial Radio"),
        ("Oswego", "Pipeline Telemetry"), ("Batavia", "Grid Communications"),
        ("Montgomery", "Quarry Wireless"), ("Sugar Grove", "Farm Data Links"),
        ("Plainfield", "Water District Radio"), ("Yorkville", "Municipal Wireless"),
        ("Geneva", "Rail Telemetry"), ("St. Charles", "Logistics Radio"),
        ("Warrenville", "Freight Wireless"), ("Eola", "Substation Links"),
        ("Bristol", "Cooperative Radio"), ("Sandwich", "Elevator Telemetry"),
        ("Plano", "Gravel Wireless"), ("Big Rock", "Irrigation Radio"),
        ("Elburn", "Grain Wireless"), ("Kaneville", "Township Radio"),
        ("Lisle", "Campus Wireless"), ("Wheaton", "Hospital Links"),
        ("Winfield", "Clinic Radio"), ("Downers Grove", "Transit Wireless"),
        ("Westmont", "Depot Radio"), ("Darien", "Utility Telemetry"),
        ("Lemont", "Refinery Wireless"), ("Romeoville", "Terminal Radio"),
        ("Bolingbrook", "Distribution Links"), ("Woodridge", "Parkway Wireless"),
    )
)

_NON_MG_NAMES = (
    ("Chicagoland Broadcast Relay", "TS", "FXO"),
    ("Fox River Paging", "MG", "FB"),
    ("DuPage Public Safety Net", "PW", "FXO"),
    ("Kendall County Roads Radio", "IG", "FX1"),
    ("Aurora Studio Transmitter Link", "AS", "FXO"),
)


def _default_email(name: str) -> str:
    slug = name.lower().replace(" ", "").replace(".", "").replace("-", "")
    return f"ops@{slug}.example.net"


def simple_license(
    license_id: str,
    callsign: str,
    name: str,
    a: GeoPoint,
    b: GeoPoint,
    grant: dt.date,
    cancellation: dt.date | None,
    frequencies: tuple[float, ...],
    radio_service: str = "MG",
    station_class: str = "FXO",
    contact_email: str | None = None,
) -> License:
    return License(
        license_id=license_id,
        callsign=callsign,
        licensee_name=name,
        contact_email=contact_email if contact_email is not None else _default_email(name),
        radio_service_code=radio_service,
        station_class=station_class,
        grant_date=grant,
        expiration_date=grant + dt.timedelta(days=3650),
        cancellation_date=cancellation,
        locations={
            1: TowerLocation(1, a, 200.0, 80.0),
            2: TowerLocation(2, b, 200.0, 80.0),
        },
        paths=[MicrowavePath(1, 1, 2, frequencies)],
    )


#: The hidden single entity of §2.4: two licensees, one network.  Their
#: shared filing-contact domain is the §6 future-work signal; the two
#: halves share the boundary tower, so jointly they form an end-end path.
SPLIT_NETWORK_WEST = "Midwest Relay Partners"
SPLIT_NETWORK_EAST = "Garden State Relay Partners"
SPLIT_NETWORK_EMAIL = "fcc@tradewavegroup.example.com"
_SPLIT_TOTAL_LINKS = 30
_SPLIT_BOUNDARY = 15  # links 0..14 west, 15..29 east


def _split_network_chain(corridor: CorridorSpec) -> list:
    """The full (hidden) Tradewave chain, gateway to gateway."""
    from repro.geodesy.path import offset_point
    from repro.synth.noise import SmoothNoise
    from repro.synth.towers import ChainLayout

    west = corridor.west.point
    east = corridor.east[0].point
    # Gateways ~1.2 km from each data center, towers with mild jitter.
    start = offset_point(west, east, 0.001, 0.0)
    end = offset_point(west, east, 0.999, 0.0)
    return ChainLayout(start, end, _SPLIT_TOTAL_LINKS, SmoothNoise(8181)).points(16_000.0)


def _split_half_licenses(
    corridor: CorridorSpec, name: str, link_range: range, id_prefix: str
) -> list[License]:
    chain = _split_network_chain(corridor)
    licenses = []
    # Seed from a stable digest of the name: hash() is randomised per
    # process (PYTHONHASHSEED), which would make "deterministic" licenses
    # differ across runs.
    rng = random.Random(zlib.crc32(name.encode()) % 10_000)
    for link_index in link_range:
        a, b = chain[link_index], chain[link_index + 1]
        grant = dt.date(2017, 3, 1) + dt.timedelta(days=(link_index * 11) % 300)
        licenses.append(
            simple_license(
                license_id=f"{id_prefix}{link_index:03d}",
                callsign=f"WQ{id_prefix}{link_index:03d}",
                name=name,
                a=a,
                b=b,
                grant=grant,
                cancellation=None,
                frequencies=(10995.0, 11195.0),
                contact_email=SPLIT_NETWORK_EMAIL,
            )
        )
    return licenses


def split_network_west_licenses(corridor: CorridorSpec) -> list[License]:
    """The western half (reaches CME, so it enters the §2.2 funnel)."""
    return _split_half_licenses(
        corridor, SPLIT_NETWORK_WEST, range(0, _SPLIT_BOUNDARY), "TW"
    )


def split_network_east_licenses(corridor: CorridorSpec) -> list[License]:
    """The eastern half (no towers near CME — invisible to the funnel)."""
    return _split_half_licenses(
        corridor,
        SPLIT_NETWORK_EAST,
        range(_SPLIT_BOUNDARY, _SPLIT_TOTAL_LINKS),
        "TE",
    )


def partial_builder_licenses(corridor: CorridorSpec) -> list[License]:
    """Licensees with ≥11 filings that never completed an end-end path.

    Each builds a west-anchored chain covering 30–70% of the corridor;
    they are part of the paper's 29 shortlisted licensees but not the 9
    connected networks.  The first "partial builder" is secretly the
    western half of the split Tradewave network (§2.4's blind spot).
    """
    from repro.synth.noise import SmoothNoise
    from repro.synth.towers import ChainLayout

    cme = corridor.west.point
    ny4 = corridor.east[0].point
    licenses: list[License] = list(split_network_west_licenses(corridor))
    for index, name in enumerate(_PARTIAL_BUILDER_NAMES):
        if name == SPLIT_NETWORK_WEST:
            continue
        seed = 300 + index
        rng = random.Random(seed)
        n_links = rng.randint(24, 34)
        coverage = rng.uniform(0.3, 0.7)
        keep = max(11, int(n_links * coverage))
        start = geodesic_destination(cme, 95.0, rng.uniform(800.0, 6000.0))
        layout = ChainLayout(start, ny4, n_links, SmoothNoise(seed))
        chain = layout.points(rng.uniform(2000.0, 15000.0))[: keep + 1]
        grant_year = rng.randint(2012, 2018)
        cancelled = rng.random() < 0.35
        for link_index, (a, b) in enumerate(zip(chain, chain[1:])):
            grant = dt.date(grant_year, 1, 1) + dt.timedelta(
                days=rng.randint(0, 700)
            )
            cancellation = (
                grant + dt.timedelta(days=rng.randint(400, 1800))
                if cancelled
                else None
            )
            licenses.append(
                simple_license(
                    license_id=f"LP{index:02d}{link_index:03d}",
                    callsign=f"WQP{index:02d}{link_index:03d}",
                    name=name,
                    a=a,
                    b=b,
                    grant=grant,
                    cancellation=cancellation,
                    frequencies=(10995.0, 11195.0),
                )
            )
    return licenses


def decoy_licenses(corridor: CorridorSpec) -> list[License]:
    """Small MG/FXO licensees near the western anchor with ≤10 filings
    (not HFT networks)."""
    from repro.synth.towers import perturb

    cme = corridor.west.point
    licenses: list[License] = []
    for index, name in enumerate(_DECOY_NAMES):
        rng = random.Random(600 + index)
        n_filings = rng.randint(1, 10)
        hub = geodesic_destination(
            cme, rng.uniform(0.0, 360.0), rng.uniform(500.0, 8000.0)
        )
        for filing in range(n_filings):
            remote = geodesic_destination(
                hub, rng.uniform(0.0, 360.0), rng.uniform(2000.0, 20000.0)
            )
            grant = dt.date(rng.randint(2008, 2019), rng.randint(1, 12), 15)
            licenses.append(
                simple_license(
                    license_id=f"LD{index:02d}{filing:02d}",
                    callsign=f"WQD{index:02d}{filing:02d}",
                    name=name,
                    a=perturb(hub, 600 + index * 31 + filing),
                    b=remote,
                    grant=grant,
                    cancellation=None,
                    frequencies=(6063.8,) if filing % 2 else (10995.0,),
                )
            )
    return licenses


def non_mg_licenses(corridor: CorridorSpec) -> list[License]:
    """Licensees near the western anchor filtered out by the MG/FXO site
    search."""
    cme = corridor.west.point
    licenses: list[License] = []
    for index, (name, service, klass) in enumerate(_NON_MG_NAMES):
        rng = random.Random(700 + index)
        hub = geodesic_destination(cme, rng.uniform(0.0, 360.0), rng.uniform(1000.0, 9000.0))
        remote = geodesic_destination(hub, rng.uniform(0.0, 360.0), 12_000.0)
        licenses.append(
            simple_license(
                license_id=f"LX{index:02d}",
                callsign=f"WQX{index:02d}",
                name=name,
                a=hub,
                b=remote,
                grant=dt.date(2015, 6, 1),
                cancellation=None,
                frequencies=(6525.0,),
                radio_service=service,
                station_class=klass,
            )
        )
    return licenses


# ----------------------------------------------------------------------
# Scenario assembly
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """A corridor plus its full synthetic ULS database.

    ``name`` identifies the scenario in the registry
    (:mod:`repro.scenarios`), CLI output paths and serve routing.
    ``featured`` / ``spotlight`` parameterise which licensees the
    timeline figures and the APA / weather / map defaults focus on; when
    unset they fall back to the connected networks (so any corridor
    works without per-scenario tuning).
    """

    corridor: CorridorSpec
    database: UlsDatabase
    snapshot_date: dt.date
    connected_names: tuple[str, ...]
    name: str = "paper2020"
    featured: tuple[str, ...] | None = None
    spotlight: tuple[str, ...] | None = None

    @property
    def featured_names(self) -> tuple[str, ...]:
        """The networks of the Fig 1 / Fig 2 timelines."""
        if self.featured is not None:
            return self.featured
        return self.connected_names

    @property
    def spotlight_names(self) -> tuple[str, ...]:
        """The licensee pair the APA / weather / map workloads default to
        (the paper's NLN-vs-WH §5 comparison for ``paper2020``)."""
        if self.spotlight is not None:
            return self.spotlight
        return self.featured_names[:2]

    @property
    def primary_path(self) -> tuple[str, str]:
        """The corridor's first (source, target) pair — the pair every
        driver ranks on when no explicit path is requested."""
        return self.corridor.paths[0]

    def engine(self, **params) -> "CorridorEngine":
        """The scenario's :class:`~repro.core.engine.CorridorEngine`.

        With no arguments, returns one shared default-parameter engine per
        scenario — every analysis driver and CLI subcommand that calls
        this reuses its snapshot/route/geodesic caches, and it is the
        engine :func:`repro.scenarios.resolve_scenario` attaches a store
        to.  With parameter overrides (``latency_model``,
        ``stitch_tolerance_m``, ``max_fiber_tail_m``, ``fiber_mode``),
        returns a *fresh* parameter-distinct engine that never persists:
        sweeps must never share cache entries across parameterisations.
        """
        from repro.core.engine import CorridorEngine

        if params:
            return CorridorEngine(self.database, self.corridor, **params)
        cached = self.__dict__.get("_default_engine")
        if cached is None:
            cached = CorridorEngine(self.database, self.corridor)
            object.__setattr__(self, "_default_engine", cached)
        return cached

    def __getstate__(self) -> dict:
        """Pickle without the default engine (its caches persist as their
        own store entry, and its lock cannot be pickled)."""
        state = self.__dict__.copy()
        state.pop("_default_engine", None)
        return state


#: The five networks of the paper's Figs 1 and 2.
PAPER_FEATURED_NAMES = (
    "National Tower Company",
    "Webline Holdings",
    "Jefferson Microwave",
    "Pierce Broadband",
    "New Line Networks",
)

#: The §5 deep-dive pair (Table 3 APA, weather, map defaults).
PAPER_SPOTLIGHT_NAMES = ("New Line Networks", "Webline Holdings")


def build_scenario(
    specs: tuple[NetworkSpec, ...] | None = None,
    include_funnel_extras: bool = True,
    corridor: CorridorSpec | None = None,
    name: str = "paper2020",
    featured: tuple[str, ...] | None = None,
    spotlight: tuple[str, ...] | None = None,
) -> Scenario:
    """Build a scenario from specs (defaults to the paper's networks).

    Passing a different ``corridor`` (e.g.
    :func:`repro.core.corridor.london_frankfurt_corridor`) with matching
    specs builds a scenario for any two-anchor corridor; the funnel
    extras (partial builders, decoys, non-MG licensees) generalise to any
    corridor — they anchor on ``corridor.west`` — but represent the §2.2
    Chicago funnel, so other corridors may disable them.

    The generator (and its tower and noise models) loads here, on the
    build path: unpickling a stored :class:`Scenario` never needs it.
    """
    from repro.synth.generator import NetworkBuilder

    corridor = corridor or chicago_nj_corridor()
    if specs is None:
        specs = connected_network_specs() + (national_tower_company_spec(),)
        if featured is None:
            featured = PAPER_FEATURED_NAMES
        if spotlight is None:
            spotlight = PAPER_SPOTLIGHT_NAMES
    database = UlsDatabase()
    connected: list[str] = []
    for spec in specs:
        builder = NetworkBuilder(spec, corridor, SNAPSHOT_DATE)
        database.extend(builder.build())
        if spec.wind_down is None:
            connected.append(spec.name)
    if include_funnel_extras:
        database.extend(partial_builder_licenses(corridor))
        database.extend(split_network_east_licenses(corridor))
        database.extend(decoy_licenses(corridor))
        database.extend(non_mg_licenses(corridor))
    return Scenario(
        corridor=corridor,
        database=database,
        snapshot_date=SNAPSHOT_DATE,
        connected_names=tuple(connected),
        name=name,
        featured=featured,
        spotlight=spotlight,
    )


def paper2020_scenario() -> Scenario:
    """Build the calibrated corridor scenario (fully deterministic).

    Builds afresh on every call; resolve ``"paper2020"`` through
    :func:`repro.scenarios.resolve_scenario` to share the process's one
    scenario and its warm default engine.
    """
    return build_scenario()


def europe_network_specs() -> tuple[NetworkSpec, ...]:
    """Synthetic networks for the London–Frankfurt corridor.

    LD4–FR2 is ~671 km (c-bound 2.2393 ms).  The tooling is identical to
    the Chicago corridor; these specs exist to exercise
    corridor-agnosticism (no published ULS-style data exists for Europe).
    """
    from repro.synth.specs import EraSpec, NetworkSpec

    freqs = _frequency_profiles()
    return (
        NetworkSpec(
            name="Channel Wave Networks",
            callsign_prefix="GBCW",
            seed=41,
            trunk_links=13,
            ny4_target_ms=2.2460,  # target on the corridor's primary path
            frequency_profile=freqs["11ghz"],
            trunk_bypass_covered=(2, 3, 7, 8),
            eras=(EraSpec(_D(2015, 5, 1), 2.2600, 13, seed_salt=1),),
            final_era_start=_D(2018, 3, 1),
            gateway_west_km=0.7,
            gateway_east_km=0.6,
        ),
        NetworkSpec(
            name="Rhine Crossing Comm",
            callsign_prefix="DERC",
            seed=42,
            trunk_links=16,
            ny4_target_ms=2.2488,
            frequency_profile=freqs["wh"],
            trunk_bypass_covered=(0, 1, 4, 5, 8, 9, 12, 13),
            eras=(EraSpec(_D(2014, 9, 1), 2.2650, 16, seed_salt=1),),
            final_era_start=_D(2017, 6, 1),
            gateway_west_km=0.7,
            gateway_east_km=0.6,
            spacing_profile="mixed",
        ),
        NetworkSpec(
            name="Lowland Relay",
            callsign_prefix="NLLR",
            seed=43,
            trunk_links=15,
            ny4_target_ms=2.2710,
            frequency_profile=freqs["18ghz"],
            eras=(EraSpec(_D(2016, 2, 1), 2.2900, 15, seed_salt=1),),
            final_era_start=_D(2019, 4, 1),
            gateway_west_km=0.7,
            gateway_east_km=0.6,
        ),
    )


def europe2020_scenario() -> Scenario:
    """Build a London–Frankfurt scenario (corridor-agnosticism demo)."""
    from repro.core.corridor import london_frankfurt_corridor

    return build_scenario(
        specs=europe_network_specs(),
        include_funnel_extras=False,
        corridor=london_frankfurt_corridor(),
        name="europe2020",
        spotlight=("Channel Wave Networks", "Rhine Crossing Comm"),
    )


def asia_network_specs() -> tuple[NetworkSpec, ...]:
    """Synthetic networks for the Tokyo–Singapore corridor.

    TY3–SG1 is ~5,314 km (c-bound 17.7243 ms) — an order of magnitude
    longer than the paper's corridor, mostly over water, in the regime
    where the Fig 5 LEO bound overtakes terrestrial microwave.  Hop
    spacing (~45–55 km) matches the other corridors; targets sit 0.3–0.7%
    above the c-bound like the paper's fastest networks.
    """
    from repro.synth.specs import EraSpec, NetworkSpec

    freqs = _frequency_profiles()
    return (
        NetworkSpec(
            name="Pacific Rim Relay",
            callsign_prefix="JPPR",
            seed=51,
            trunk_links=104,
            ny4_target_ms=17.7780,
            frequency_profile=freqs["11ghz"],
            trunk_bypass_covered=tuple(range(2, 104, 4)),
            eras=(EraSpec(_D(2016, 3, 1), 17.9200, 104, seed_salt=1),),
            final_era_start=_D(2019, 1, 15),
            gateway_west_km=0.8,
            gateway_east_km=0.7,
        ),
        NetworkSpec(
            name="Straits Microwave",
            callsign_prefix="SGSM",
            seed=52,
            trunk_links=112,
            ny4_target_ms=17.7960,
            frequency_profile=freqs["wh"],
            trunk_bypass_covered=tuple(range(0, 112, 2)),
            eras=(EraSpec(_D(2015, 8, 1), 17.9500, 112, seed_salt=1),),
            final_era_start=_D(2018, 6, 1),
            gateway_west_km=0.8,
            gateway_east_km=0.7,
            spacing_profile="mixed",
        ),
        NetworkSpec(
            name="Archipelago Wave",
            callsign_prefix="IDAW",
            seed=53,
            trunk_links=96,
            ny4_target_ms=17.8420,
            frequency_profile=freqs["mix_11_18"],
            eras=(EraSpec(_D(2017, 2, 1), 17.9900, 96, seed_salt=1),),
            final_era_start=_D(2019, 9, 1),
            gateway_west_km=0.8,
            gateway_east_km=0.7,
        ),
    )


def tokyo_singapore_scenario() -> Scenario:
    """Build a Tokyo–Singapore long-haul scenario."""
    from repro.core.corridor import tokyo_singapore_corridor

    return build_scenario(
        specs=asia_network_specs(),
        include_funnel_extras=False,
        corridor=tokyo_singapore_corridor(),
        name="tokyo-singapore",
        spotlight=("Pacific Rim Relay", "Straits Microwave"),
    )
