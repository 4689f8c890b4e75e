"""Coordinate format conversions for FCC ULS data.

FCC license filings quote tower coordinates in degrees-minutes-seconds with
an explicit hemisphere letter (e.g. ``41-44-34.6 N``), and the ULS weekly
dumps split the same value across separate fields.  This module converts
between those representations and decimal degrees.
"""

from __future__ import annotations

import math
import re

from repro.geodesy.earth import GeoPoint

_DMS_RE = re.compile(
    r"""^\s*
    (?P<deg>\d{1,3})\s*[-°\s]\s*
    (?P<min>\d{1,2})\s*[-'\s]\s*
    (?P<sec>\d{1,2}(?:\.\d+)?)\s*["]?\s*
    (?P<hemi>[NSEW])
    \s*$""",
    re.VERBOSE | re.IGNORECASE,
)


def parse_dms(text: str) -> float:
    """Parse a DMS coordinate string such as ``"41-44-34.6 N"``.

    Returns decimal degrees; southern and western hemispheres are negative.

    >>> round(parse_dms("41-44-34.6 N"), 6)
    41.742944
    >>> parse_dms("88-14-22.0 W") < 0
    True
    """
    match = _DMS_RE.match(text)
    if match is None:
        raise ValueError(f"unparseable DMS coordinate: {text!r}")
    degrees = int(match.group("deg"))
    minutes = int(match.group("min"))
    seconds = float(match.group("sec"))
    if minutes >= 60 or seconds >= 60.0:
        raise ValueError(f"minutes/seconds out of range in {text!r}")
    hemi = match.group("hemi").upper()
    value = degrees + minutes / 60.0 + seconds / 3600.0
    if hemi in ("S", "W"):
        value = -value
    limit = 90.0 if hemi in ("N", "S") else 180.0
    if value < -limit or value > limit:
        raise ValueError(f"coordinate out of range in {text!r}")
    return value


def format_dms(value: float, kind: str, seconds_decimals: int = 1) -> str:
    """Format decimal degrees as an FCC-style DMS string.

    ``kind`` is ``"lat"`` or ``"lon"`` and selects the hemisphere letters.

    >>> format_dms(41.742944, "lat")
    '41-44-34.6 N'
    """
    if kind == "lat":
        hemi = "N" if value >= 0.0 else "S"
        limit = 90.0
    elif kind == "lon":
        hemi = "E" if value >= 0.0 else "W"
        limit = 180.0
    else:
        raise ValueError(f"kind must be 'lat' or 'lon', got {kind!r}")
    if abs(value) > limit:
        raise ValueError(f"coordinate out of range: {value!r}")

    magnitude = abs(value)
    degrees = int(magnitude)
    rem_minutes = (magnitude - degrees) * 60.0
    minutes = int(rem_minutes)
    seconds = (rem_minutes - minutes) * 60.0
    seconds = round(seconds, seconds_decimals)
    # Carry rounding overflow (e.g. 59.96" -> 60.0").
    if seconds >= 60.0:
        seconds -= 60.0
        minutes += 1
    if minutes >= 60:
        minutes -= 60
        degrees += 1
    return f"{degrees}-{minutes:02d}-{seconds:0{3 + seconds_decimals}.{seconds_decimals}f} {hemi}"


def parse_uls_coordinate(
    degrees: int | str,
    minutes: int | str,
    seconds: float | str,
    direction: str,
) -> float:
    """Convert split ULS dump coordinate fields into decimal degrees.

    The ULS ``LO`` record stores latitude/longitude as separate
    degrees/minutes/seconds/direction columns; all arrive as strings.
    A non-finite component (``nan``, ``inf``) is out of range.
    """
    if not all(math.isfinite(float(part)) for part in (degrees, minutes, seconds)):
        raise ValueError(
            "coordinate components out of range: "
            f"{degrees!r}, {minutes!r}, {seconds!r} must be finite"
        )
    deg = int(degrees)
    minute = int(minutes)
    sec = float(seconds)
    if deg < 0 or minute < 0 or sec < 0.0:
        raise ValueError("ULS coordinate components must be non-negative")
    if minute >= 60 or sec >= 60.0:
        raise ValueError("minutes/seconds out of range")
    direction = direction.strip().upper()
    if direction not in ("N", "S", "E", "W"):
        raise ValueError(f"bad hemisphere: {direction!r}")
    value = deg + minute / 60.0 + sec / 3600.0
    if direction in ("S", "W"):
        value = -value
    return value


def coordinate_key(point: GeoPoint, tolerance_m: float = 30.0) -> tuple[int, int]:
    """A grid key that collides for points within roughly ``tolerance_m``.

    Used as a fast pre-filter for endpoint stitching: candidate towers are
    bucketed on this key (plus the 8 neighbouring cells) before the exact
    geodesic distance test.  One degree of latitude is ~111.32 km.
    """
    if tolerance_m <= 0.0:
        raise ValueError("tolerance must be positive")
    cell_deg_lat = tolerance_m / 111_320.0
    cos_lat = max(0.01, math.cos(math.radians(point.latitude)))
    cell_deg_lon = tolerance_m / (111_320.0 * cos_lat)
    return (
        int(point.latitude // cell_deg_lat),
        int(point.longitude // cell_deg_lon),
    )
