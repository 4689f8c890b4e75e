"""Batch evaluation of the Vincenty inverse problem over coordinate columns.

The columnar reconstruction kernel (:mod:`repro.core.columnar`) measures
geodesics over *columns* of coordinates — every filed path pair of a
license store, every in-range data-center/tower pair of a fiber pass —
rather than object-by-object.  Solving those pairs one
:func:`repro.geodesy.earth.geodesic_inverse` call at a time repays the
per-call overhead (GeoPoint attribute access, reduced-latitude trig)
thousands of times per batch.

:func:`inverse_batch` amortises that overhead: the reduced-latitude trig
(``U = atan((1-f)·tan(φ))``) is computed once per *point*, then every
``(i, j)`` index pair is solved by
:func:`repro.geodesy.earth.inverse_trig`, the same kernel the scalar
:func:`~repro.geodesy.earth.geodesic_inverse` calls — batch solutions are
bit-identical to scalar ones (pinned in ``tests/test_columnar.py``).

When a :class:`~repro.geodesy.memo.GeodesicMemo` is passed, the batch
consults it pair-by-pair before solving and feeds every fresh solution
back, with exactly the lookup/store (and therefore hit/miss/LRU)
semantics of the scalar memoised path.
"""

from __future__ import annotations

from typing import Sequence

from repro.geodesy.earth import inverse_trig, reduced_latitude_trig
from repro.geodesy.memo import GeodesicMemo, InverseSolution


def inverse_batch(
    lats: Sequence[float],
    lons: Sequence[float],
    pairs: Sequence[tuple[int, int]],
    memo: GeodesicMemo | None = None,
) -> list[InverseSolution]:
    """Solve the inverse problem for every ``(i, j)`` index pair.

    ``lats``/``lons`` are parallel coordinate columns (decimal degrees);
    each pair indexes into them.  Reduced-latitude trig is computed once
    per point.  With ``memo``, every pair is looked up before solving and
    every fresh solution is stored — one bulk consult-and-feed pass with
    the scalar path's exact hit/miss accounting and LRU order.

    Returns solutions in pair order, each ``(distance_m,
    initial_azimuth_deg, final_azimuth_deg)``, bit-identical to
    :func:`repro.geodesy.earth.geodesic_inverse` on the same inputs.
    """
    if len(lats) != len(lons):
        raise ValueError("lats and lons must be parallel columns")
    trig = [reduced_latitude_trig(lat) for lat in lats]
    solutions: list[InverseSolution] = []
    for i, j in pairs:
        lat1, lon1 = lats[i], lons[i]
        lat2, lon2 = lats[j], lons[j]
        if memo is not None:
            key = (lat1, lon1, lat2, lon2)
            cached = memo.lookup(key)
            if cached is not None:
                solutions.append(cached)
                continue
        sin_u1, cos_u1 = trig[i]
        sin_u2, cos_u2 = trig[j]
        solution = inverse_trig(
            lat1, lon1, lat2, lon2, sin_u1, cos_u1, sin_u2, cos_u2
        )
        if memo is not None:
            memo.store(key, solution)
        solutions.append(solution)
    return solutions
