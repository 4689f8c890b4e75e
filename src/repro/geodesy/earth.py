"""WGS84 Earth model and geodesic computations.

Implements the classical Vincenty (1975) solutions of the inverse and direct
geodesic problems on the WGS84 ellipsoid, with a spherical great-circle
fallback for the nearly-antipodal cases where Vincenty's inverse iteration
does not converge.  Accuracy of the inverse solution is well under a
millimetre for corridor-scale distances, far beyond what the latency
analysis needs (1 microsecond of light travel ~ 300 m).  A cheaper
distance-only kernel, Andoyer–Lambert, carries a stated error bound
against the Vincenty inverse, for callers that only need to know which
side of a threshold a length lies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from repro.geodesy import memo as _memo_module

#: WGS84 semi-major axis (equatorial radius), metres.
EARTH_EQUATORIAL_RADIUS_M = 6_378_137.0

#: WGS84 flattening.
EARTH_FLATTENING = 1.0 / 298.257223563

#: WGS84 semi-minor axis (polar radius), metres.
EARTH_POLAR_RADIUS_M = EARTH_EQUATORIAL_RADIUS_M * (1.0 - EARTH_FLATTENING)

#: Mean Earth radius (IUGG), metres — used by the spherical fallback.
EARTH_MEAN_RADIUS_M = 6_371_008.8

_VINCENTY_MAX_ITERATIONS = 200
_VINCENTY_CONVERGENCE = 1e-12

#: Relative error bound ε of :func:`lambert_distance_trig` against
#: :func:`inverse_trig`.  The Andoyer–Lambert formula drops the terms of
#: order f², which measure at most f²/8 ≈ 1.4e-6 of the distance; ε keeps
#: a 7× margin over that (DESIGN.md §15, "Bounded chain lengths").
LAMBERT_RELATIVE_ERROR = 1e-5

#: Absolute term of the same bound, metres per hop.  It covers what
#: :func:`inverse_trig` itself leaves: its iteration stops at a 1e-12 rad
#: longitude step (≤ a·1e-12 ≈ 6.4 µm of distance) and its coincident-point
#: guard reads points up to ~0.2 µm apart as 0.
LAMBERT_HOP_ERROR_M = 1e-4

#: Largest central angle, radians, that :func:`lambert_distance_trig`
#: measures.  Below a quarter great circle :func:`inverse_trig` never falls
#: back to its spherical branch (that needs a nearly antipodal pair), and
#: the half-angle forms stay well conditioned (1 + cos σ ≥ 1).
LAMBERT_MAX_CENTRAL_ANGLE = math.pi / 2


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """A point on the Earth's surface (WGS84 latitude/longitude, degrees).

    ``elevation_m`` carries the ground/structure elevation when known; it
    participates in equality but not in distance computations (the paper's
    latency model is purely horizontal).
    """

    latitude: float
    longitude: float
    elevation_m: float = 0.0

    def __post_init__(self) -> None:
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError(f"latitude out of range: {self.latitude!r}")
        if not -180.0 <= self.longitude <= 180.0:
            raise ValueError(f"longitude out of range: {self.longitude!r}")

    def distance_to(self, other: "GeoPoint") -> float:
        """Geodesic distance to ``other`` in metres."""
        return geodesic_distance(self, other)

    def azimuth_to(self, other: "GeoPoint") -> float:
        """Initial geodesic azimuth towards ``other``, degrees clockwise from north."""
        return geodesic_azimuth(self, other)

    def destination(self, azimuth_deg: float, distance_m: float) -> "GeoPoint":
        """The point reached by travelling ``distance_m`` along ``azimuth_deg``."""
        return geodesic_destination(self, azimuth_deg, distance_m)

    def rounded(self, decimals: int = 6) -> tuple[float, float]:
        """A hashable (lat, lon) key rounded to ``decimals`` places."""
        return (round(self.latitude, decimals), round(self.longitude, decimals))

    def __iter__(self) -> Iterator[float]:
        yield self.latitude
        yield self.longitude

    # Fast pickle path: snapshot exports (repro.store) carry hundreds of
    # points per entry, and the generic frozen-dataclass __setstate__
    # walks dataclasses.fields() per instance.  Same semantics —
    # validation is skipped on unpickle either way.
    def __getstate__(self):
        return (self.latitude, self.longitude, self.elevation_m)

    def __setstate__(self, state) -> None:
        set_ = object.__setattr__
        set_(self, "latitude", state[0])
        set_(self, "longitude", state[1])
        set_(self, "elevation_m", state[2])


def great_circle_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Spherical (haversine) distance in metres on the mean-radius sphere."""
    phi1, phi2 = math.radians(a.latitude), math.radians(b.latitude)
    dphi = phi2 - phi1
    dlam = math.radians(b.longitude - a.longitude)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_MEAN_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def geodesic_inverse(a: GeoPoint, b: GeoPoint) -> tuple[float, float, float]:
    """Solve the WGS84 inverse geodesic problem.

    Returns ``(distance_m, initial_azimuth_deg, final_azimuth_deg)`` from
    ``a`` to ``b``.  Falls back to the spherical solution for the rare
    nearly-antipodal pairs where Vincenty's iteration fails to converge
    (irrelevant on the Chicago–NJ corridor but kept for robustness).

    When a :class:`repro.geodesy.memo.GeodesicMemo` is installed (see
    :func:`repro.geodesy.memo.use_memo`), solutions are served from and
    recorded into it; memoised results are bit-identical to fresh ones.
    """
    memo = _memo_module.active_memo()
    if memo is not None:
        key = (a.latitude, a.longitude, b.latitude, b.longitude)
        cached = memo.lookup(key)
        if cached is not None:
            return cached
        solution = _geodesic_inverse_uncached(a, b)
        memo.store(key, solution)
        return solution
    return _geodesic_inverse_uncached(a, b)


def _geodesic_inverse_uncached(a: GeoPoint, b: GeoPoint) -> tuple[float, float, float]:
    """The memo-free Vincenty inverse kernel."""
    sin_u1, cos_u1 = reduced_latitude_trig(a.latitude)
    sin_u2, cos_u2 = reduced_latitude_trig(b.latitude)
    return inverse_trig(
        a.latitude, a.longitude, b.latitude, b.longitude, sin_u1, cos_u1, sin_u2, cos_u2
    )


def reduced_latitude_trig(lat_deg: float) -> tuple[float, float]:
    """``(sin U, cos U)`` of the reduced latitude of ``lat_deg``.

    This is the per-point half of Vincenty's inverse formula: a caller
    that measures many pairs over the same points (a column kernel, a
    polyline) computes it once per point instead of once per pair end.
    """
    u = math.atan((1.0 - EARTH_FLATTENING) * math.tan(math.radians(lat_deg)))
    return (math.sin(u), math.cos(u))


def inverse_trig(
    lat1: float,
    lon1: float,
    lat2: float,
    lon2: float,
    sin_u1: float,
    cos_u1: float,
    sin_u2: float,
    cos_u2: float,
) -> tuple[float, float, float]:
    """Vincenty inverse with precomputed reduced-latitude trig.

    The one inverse kernel: :func:`geodesic_inverse`, the columnar batch
    (:mod:`repro.geodesy.batch`) and tower-chain synthesis all solve
    through it.  Points whose coordinates agree to 12 decimals are
    coincident (distance 0); nearly-antipodal pairs fall back to the
    spherical solution.
    """
    # lint: disable=float-eq (coincident-point guard: coordinates equal
    # after rounding to 12 decimals, i.e. GeoPoint.rounded(12) equality)
    if round(lat1, 12) == round(lat2, 12) and round(lon1, 12) == round(lon2, 12):
        return (0.0, 0.0, 0.0)

    f = EARTH_FLATTENING
    a_ax = EARTH_EQUATORIAL_RADIUS_M
    b_ax = EARTH_POLAR_RADIUS_M

    big_l = math.radians(lon2 - lon1)
    lam = big_l
    for _ in range(_VINCENTY_MAX_ITERATIONS):
        sin_lam, cos_lam = math.sin(lam), math.cos(lam)
        sin_sigma = math.sqrt(
            (cos_u2 * sin_lam) ** 2 + (cos_u1 * sin_u2 - sin_u1 * cos_u2 * cos_lam) ** 2
        )
        # lint: disable=float-eq (Vincenty's coincident-point guard: sqrt
        # of a sum of squares is exactly 0.0 only for identical points)
        if sin_sigma == 0.0:
            return (0.0, 0.0, 0.0)
        cos_sigma = sin_u1 * sin_u2 + cos_u1 * cos_u2 * cos_lam
        sigma = math.atan2(sin_sigma, cos_sigma)
        sin_alpha = cos_u1 * cos_u2 * sin_lam / sin_sigma
        cos_sq_alpha = 1.0 - sin_alpha**2
        # lint: disable=float-eq (exact equatorial-geodesic case; guards a
        # division by cos_sq_alpha that only an exact 0.0 would break)
        if cos_sq_alpha == 0.0:
            cos_2sigma_m = 0.0  # equatorial geodesic
        else:
            cos_2sigma_m = cos_sigma - 2.0 * sin_u1 * sin_u2 / cos_sq_alpha
        c = f / 16.0 * cos_sq_alpha * (4.0 + f * (4.0 - 3.0 * cos_sq_alpha))
        lam_prev = lam
        lam = big_l + (1.0 - c) * f * sin_alpha * (
            sigma
            + c * sin_sigma * (cos_2sigma_m + c * cos_sigma * (-1.0 + 2.0 * cos_2sigma_m**2))
        )
        if abs(lam - lam_prev) < _VINCENTY_CONVERGENCE:
            break
    else:
        # Nearly antipodal: Vincenty does not converge.  Use the spherical
        # solution, which is accurate to ~0.5% — acceptable for a fallback.
        a = GeoPoint(lat1, lon1)
        b = GeoPoint(lat2, lon2)
        dist = great_circle_distance(a, b)
        az_fwd = _spherical_azimuth(a, b)
        az_back = (_spherical_azimuth(b, a) + 180.0) % 360.0
        return (dist, az_fwd, az_back)

    u_sq = cos_sq_alpha * (a_ax**2 - b_ax**2) / b_ax**2
    big_a = 1.0 + u_sq / 16384.0 * (4096.0 + u_sq * (-768.0 + u_sq * (320.0 - 175.0 * u_sq)))
    big_b = u_sq / 1024.0 * (256.0 + u_sq * (-128.0 + u_sq * (74.0 - 47.0 * u_sq)))
    delta_sigma = (
        big_b
        * sin_sigma
        * (
            cos_2sigma_m
            + big_b
            / 4.0
            * (
                cos_sigma * (-1.0 + 2.0 * cos_2sigma_m**2)
                - big_b
                / 6.0
                * cos_2sigma_m
                * (-3.0 + 4.0 * sin_sigma**2)
                * (-3.0 + 4.0 * cos_2sigma_m**2)
            )
        )
    )
    distance = b_ax * big_a * (sigma - delta_sigma)

    az_fwd = math.degrees(
        math.atan2(cos_u2 * math.sin(lam), cos_u1 * sin_u2 - sin_u1 * cos_u2 * math.cos(lam))
    )
    az_back = math.degrees(
        math.atan2(cos_u1 * math.sin(lam), -sin_u1 * cos_u2 + cos_u1 * sin_u2 * math.cos(lam))
    )
    return (distance, az_fwd % 360.0, az_back % 360.0)


def lambert_distance_trig(
    lat1: float,
    lon1: float,
    lat2: float,
    lon2: float,
    sin_u1: float,
    cos_u1: float,
    sin_u2: float,
    cos_u2: float,
) -> float | None:
    """Andoyer–Lambert distance, metres, with precomputed reduced-latitude trig.

    A distance-only kernel, first order in the flattening f: the central
    angle σ between the reduced latitudes, corrected by
    ``a·(σ − f/2·(X + Y))``.  One evaluation costs a sin/cos pair, a
    square root and an arctangent, against Vincenty's iteration.  Its
    distance ``d`` is within ``LAMBERT_RELATIVE_ERROR·d +
    LAMBERT_HOP_ERROR_M`` of :func:`inverse_trig`'s.  Returns ``None``
    above :data:`LAMBERT_MAX_CENTRAL_ANGLE`, where only the exact kernel
    answers.
    """
    lam = math.radians(lon2 - lon1)
    sin_lam, cos_lam = math.sin(lam), math.cos(lam)
    sin_sigma = math.sqrt(
        (cos_u2 * sin_lam) ** 2 + (cos_u1 * sin_u2 - sin_u1 * cos_u2 * cos_lam) ** 2
    )
    cos_sigma = sin_u1 * sin_u2 + cos_u1 * cos_u2 * cos_lam
    sigma = math.atan2(sin_sigma, cos_sigma)
    if sigma > LAMBERT_MAX_CENTRAL_ANGLE:
        return None
    # lint: disable=float-eq (coincident-point guard, as in inverse_trig:
    # sqrt of a sum of squares is exactly 0.0 only for identical points)
    if sin_sigma == 0.0:
        return 0.0
    # With P, Q the half sum and half difference of the reduced latitudes,
    # sin P·cos Q = (sin U1 + sin U2)/2 and cos P·sin Q = (sin U2 − sin U1)/2;
    # cos²(σ/2) = (1 + cos σ)/2 and sin²(σ/2) = sin²σ / (2(1 + cos σ)) are
    # the cancellation-free half-angle forms for short hops.
    one_plus_cos = 1.0 + cos_sigma
    x = (sigma - sin_sigma) * (sin_u1 + sin_u2) ** 2 / (2.0 * one_plus_cos)
    y = (sigma + sin_sigma) * (sin_u2 - sin_u1) ** 2 * one_plus_cos / (2.0 * sin_sigma**2)
    return EARTH_EQUATORIAL_RADIUS_M * (sigma - EARTH_FLATTENING / 2.0 * (x + y))


def _spherical_azimuth(a: GeoPoint, b: GeoPoint) -> float:
    phi1, phi2 = math.radians(a.latitude), math.radians(b.latitude)
    dlam = math.radians(b.longitude - a.longitude)
    y = math.sin(dlam) * math.cos(phi2)
    x = math.cos(phi1) * math.sin(phi2) - math.sin(phi1) * math.cos(phi2) * math.cos(dlam)
    return math.degrees(math.atan2(y, x)) % 360.0


def geodesic_distance(a: GeoPoint, b: GeoPoint) -> float:
    """WGS84 geodesic distance between ``a`` and ``b`` in metres."""
    return geodesic_inverse(a, b)[0]


def geodesic_azimuth(a: GeoPoint, b: GeoPoint) -> float:
    """Initial azimuth (degrees clockwise from north) of the geodesic a→b."""
    return geodesic_inverse(a, b)[1]


def geodesic_destination(start: GeoPoint, azimuth_deg: float, distance_m: float) -> GeoPoint:
    """Solve the WGS84 direct geodesic problem (Vincenty direct formula).

    Returns the point reached by travelling ``distance_m`` metres from
    ``start`` along the initial bearing ``azimuth_deg``.
    """
    # lint: disable=float-eq (exact zero-distance request returns the start
    # point; sub-epsilon distances must still move through the formula)
    if distance_m == 0.0:
        return GeoPoint(start.latitude, start.longitude)
    if distance_m < 0.0:
        return geodesic_destination(start, (azimuth_deg + 180.0) % 360.0, -distance_m)
    setup = destination_setup(start.latitude, start.longitude, azimuth_deg)
    return GeoPoint(*destination_solve(setup, distance_m))


#: The distance-invariant half of one Vincenty direct problem; see
#: :func:`destination_setup`.
DestinationSetup = tuple[float, ...]


def destination_setup(lat_deg: float, lon_deg: float, azimuth_deg: float) -> DestinationSetup:
    """Everything the direct problem from one (start, azimuth) needs
    before the distance is known.

    That is the reduced latitude, the azimuth trig, the geodesic's
    equatorial azimuth and Vincenty's A/B series coefficients.  A caller
    that solves several distances from the same start and azimuth builds
    this once and passes it to :func:`destination_solve` per distance.
    """
    f = EARTH_FLATTENING
    b_ax = EARTH_POLAR_RADIUS_M
    a_ax = EARTH_EQUATORIAL_RADIUS_M

    alpha1 = math.radians(azimuth_deg)
    u1 = math.atan((1.0 - f) * math.tan(math.radians(lat_deg)))
    sigma1 = math.atan2(math.tan(u1), math.cos(alpha1))
    sin_alpha = math.cos(u1) * math.sin(alpha1)
    cos_sq_alpha = 1.0 - sin_alpha**2
    u_sq = cos_sq_alpha * (a_ax**2 - b_ax**2) / b_ax**2
    big_a = 1.0 + u_sq / 16384.0 * (4096.0 + u_sq * (-768.0 + u_sq * (320.0 - 175.0 * u_sq)))
    big_b = u_sq / 1024.0 * (256.0 + u_sq * (-128.0 + u_sq * (74.0 - 47.0 * u_sq)))
    c = f / 16.0 * cos_sq_alpha * (4.0 + f * (4.0 - 3.0 * cos_sq_alpha))
    return (
        b_ax * big_a,
        big_b,
        2.0 * sigma1,
        math.sin(u1),
        math.cos(u1),
        math.sin(alpha1),
        math.cos(alpha1),
        sin_alpha**2,
        c,
        (1.0 - c) * f * sin_alpha,
        math.radians(lon_deg),
    )


def destination_solve(setup: DestinationSetup, distance_m: float) -> tuple[float, float]:
    """``(latitude, longitude)`` in degrees, ``distance_m > 0`` metres
    along the geodesic that ``setup`` describes.

    Longitude is normalised into [-180, 180).
    """
    (
        b_big_a, big_b, two_sigma1, sin_u1, cos_u1,
        sin_alpha1, cos_alpha1, sin_sq_alpha, c, lon_coefficient, lon1,
    ) = setup
    sigma_0 = distance_m / b_big_a
    sigma = sigma_0
    for _ in range(_VINCENTY_MAX_ITERATIONS):
        cos_2sigma_m = math.cos(two_sigma1 + sigma)
        sin_sigma, cos_sigma = math.sin(sigma), math.cos(sigma)
        delta_sigma = (
            big_b
            * sin_sigma
            * (
                cos_2sigma_m
                + big_b
                / 4.0
                * (
                    cos_sigma * (-1.0 + 2.0 * cos_2sigma_m**2)
                    - big_b
                    / 6.0
                    * cos_2sigma_m
                    * (-3.0 + 4.0 * sin_sigma**2)
                    * (-3.0 + 4.0 * cos_2sigma_m**2)
                )
            )
        )
        sigma_prev = sigma
        sigma = sigma_0 + delta_sigma
        if abs(sigma - sigma_prev) < _VINCENTY_CONVERGENCE:
            break

    sin_sigma, cos_sigma = math.sin(sigma), math.cos(sigma)
    cos_2sigma_m = math.cos(two_sigma1 + sigma)

    tmp = sin_u1 * sin_sigma - cos_u1 * cos_sigma * cos_alpha1
    lat2 = math.atan2(
        sin_u1 * cos_sigma + cos_u1 * sin_sigma * cos_alpha1,
        (1.0 - EARTH_FLATTENING) * math.sqrt(sin_sq_alpha + tmp**2),
    )
    lam = math.atan2(
        sin_sigma * sin_alpha1,
        cos_u1 * cos_sigma - sin_u1 * sin_sigma * cos_alpha1,
    )
    big_l = lam - lon_coefficient * (
        sigma + c * sin_sigma * (cos_2sigma_m + c * cos_sigma * (-1.0 + 2.0 * cos_2sigma_m**2))
    )
    lon2 = lon1 + big_l

    lon_deg = math.degrees(lon2)
    # Normalise into [-180, 180].
    lon_deg = (lon_deg + 180.0) % 360.0 - 180.0
    return (math.degrees(lat2), lon_deg)
