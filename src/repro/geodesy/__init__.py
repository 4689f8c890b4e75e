"""Geodesy substrate: WGS84 geodesics, coordinate formats, polyline geometry.

The paper relies on geodesic ("shortest path on Earth's surface") distances
between license endpoints and data centers.  This subpackage provides that
machinery from scratch (the original study used geopandas/shapely; neither
is available here).

Public API
----------

``GeoPoint``
    An immutable latitude/longitude pair with convenience geometry methods.
``geodesic_distance``, ``geodesic_azimuth``
    WGS84 inverse problem (Vincenty, with a great-circle fallback for the
    nearly-antipodal inputs where Vincenty fails to converge).
``geodesic_destination``
    WGS84 direct problem.
``geodesic_interpolate``
    Points along the geodesic between two endpoints.
``parse_dms``, ``format_dms``
    FCC ULS coordinate format (degrees-minutes-seconds with hemisphere).
``polyline_length``, ``cumulative_distances``, ``stretch_factor``
    Polyline geometry over sequences of points.
``GeodesicMemo``, ``use_memo``, ``active_memo``
    Opt-in bounded memoisation of the Vincenty inverse hot path (installed
    by :class:`repro.core.engine.CorridorEngine` around reconstruction).
``inverse_trig``, ``reduced_latitude_trig``
    The Vincenty inverse kernel with the per-point reduced-latitude trig
    split out, so callers measuring many pairs over shared points compute
    it once per point.
``inverse_batch``
    Batch evaluation over coordinate columns (the columnar kernel's
    geodesic substrate), bit-identical to the scalar path and able to
    consult/feed a :class:`GeodesicMemo` in bulk.
"""

from repro.geodesy.earth import (
    EARTH_EQUATORIAL_RADIUS_M,
    EARTH_FLATTENING,
    EARTH_MEAN_RADIUS_M,
    EARTH_POLAR_RADIUS_M,
    GeoPoint,
    geodesic_azimuth,
    geodesic_destination,
    geodesic_distance,
    geodesic_inverse,
    great_circle_distance,
    inverse_trig,
    reduced_latitude_trig,
)
from repro.geodesy.batch import inverse_batch
from repro.geodesy.coordinates import (
    format_dms,
    parse_dms,
    parse_uls_coordinate,
)
from repro.geodesy.memo import (
    GeodesicMemo,
    active_memo,
    use_memo,
)
from repro.geodesy.path import (
    cross_track_distance,
    cumulative_distances,
    geodesic_interpolate,
    nearest_point_index,
    polyline_length,
    stretch_factor,
)

__all__ = [
    "EARTH_EQUATORIAL_RADIUS_M",
    "EARTH_FLATTENING",
    "EARTH_MEAN_RADIUS_M",
    "EARTH_POLAR_RADIUS_M",
    "GeoPoint",
    "geodesic_azimuth",
    "geodesic_destination",
    "geodesic_distance",
    "geodesic_inverse",
    "great_circle_distance",
    "GeodesicMemo",
    "active_memo",
    "use_memo",
    "inverse_batch",
    "inverse_trig",
    "reduced_latitude_trig",
    "format_dms",
    "parse_dms",
    "parse_uls_coordinate",
    "cross_track_distance",
    "cumulative_distances",
    "geodesic_interpolate",
    "nearest_point_index",
    "polyline_length",
    "stretch_factor",
]
