"""Column-kernel reconstruction: the one reconstruction path (§2.3).

Every network :class:`repro.core.reconstruction.NetworkReconstructor`
and :class:`repro.core.engine.CorridorEngine` build comes out of
:func:`reconstruct_columnar`, over the flat columns of a
:class:`repro.uls.columnar.ColumnarLicenseStore`.  It restates the
paper's per-object tool — cluster license endpoints into towers, merge
links per tower pair, attach data-center fiber tails — and its output
contract is **byte identity** with that object kernel: every tower, link
and fiber tail, ids, ordering and floats included.  The object kernel
lives on as the test oracle (``tests/object_kernel.py``), and
``tests/test_columnar.py`` property-tests the identity.

What makes the columnar path fast where the object path is slow:

* **Endpoint stitching** probes the same tolerance grid with the same
  cell-scan order, but measures probe distances out of the store's
  precomputed Vincenty solution table instead of re-iterating Vincenty
  per probe (the inline :func:`repro.geodesy.batch.inverse_trig` kernel
  covers the rare out-of-table pair, bit-identically).
* **Link merging** reads path endpoint indices and flattened frequency
  spans straight out of integer/float columns.
* **Fiber conversion** prunes the data-center × tower cross product
  with a conservative spherical bound (skip only when the haversine
  distance exceeds the tail limit by >2 % — far beyond the WGS84 vs
  sphere discrepancy, so no in-range tail can be lost) and solves the
  survivors in one :func:`repro.geodesy.batch.inverse_batch` call that
  consults and feeds the engine's installed
  :class:`~repro.geodesy.memo.GeodesicMemo` in bulk.

The kernel emits ``kernel.columnar.*`` obs counters (probe/solution/
prune totals) inside ``core.stitch``/``core.fiber`` spans.
"""

from __future__ import annotations

import datetime as dt
import math

from repro import obs
from repro.core.corridor import CorridorSpec
from repro.core.latency import LatencyModel
from repro.core.network import FiberTail, HftNetwork, MicrowaveLink, Tower
from repro.geodesy import EARTH_MEAN_RADIUS_M
from repro.geodesy.batch import inverse_batch, inverse_trig
from repro.geodesy.memo import active_memo
from repro.uls.columnar import CELL_STRIDE, ColumnarLicenseStore

#: Safety margin on the spherical fiber prefilter: a pair is skipped
#: only when the haversine distance exceeds the tail limit by 2 % plus a
#: metre.  The WGS84-geodesic/haversine discrepancy is bounded well
#: under 0.6 %, so no pair within the exact limit is ever skipped.
_FIBER_PRUNE_MARGIN = 1.02

#: The stitch grid's 3x3 neighbourhood as packed-cell offsets, in the
#: object kernel's exact scan order (lat-delta outer, lon-delta inner).
_CELL_OFFSETS = tuple(
    d_lat * CELL_STRIDE + d_lon for d_lat in (-1, 0, 1) for d_lon in (-1, 0, 1)
)


def reconstruct_columnar(
    store: ColumnarLicenseStore,
    licensee: str,
    on_date: dt.date,
    corridor: CorridorSpec,
    latency_model: LatencyModel,
    stitch_tolerance_m: float,
    max_fiber_tail_m: float,
    fiber_mode: str,
) -> HftNetwork:
    """Build ``licensee``'s network on ``on_date`` from flat columns.

    Byte-identical to the object kernel over the same records and
    parameters (towers, links, tails, and all metadata).
    """
    if stitch_tolerance_m <= 0.0:
        raise ValueError("tolerance must be positive")
    if max_fiber_tail_m < 0.0:
        raise ValueError("max tail length cannot be negative")
    if fiber_mode not in ("nearest", "all"):
        raise ValueError(f"unknown fiber attachment mode: {fiber_mode!r}")

    obs.count("kernel.columnar.snapshot")
    active = store.active_rows(licensee, on_date)
    # Out-of-table pairs solved this call, keyed like the store's table
    # (packed uid pairs; shared by probes and links).
    extra: dict[int, tuple] = {}
    with obs.span("core.stitch", licensee=licensee, licenses=len(active)):
        towers, links, tower_anchor = _stitch_columnar(
            store, active, stitch_tolerance_m, extra
        )
    with obs.span("core.fiber", licensee=licensee, towers=len(towers)):
        tails = _fiber_columnar(
            store, towers, tower_anchor, corridor, max_fiber_tail_m, fiber_mode
        )
    return HftNetwork(
        licensee=licensee,
        as_of=on_date,
        towers=towers,
        links=links,
        fiber_tails=tails,
        data_centers=corridor.data_centers,
        latency_model=latency_model,
    )


def _stitch_columnar(
    store: ColumnarLicenseStore,
    active: list[int],
    tolerance_m: float,
    extra: dict,
) -> tuple[list[Tower], list[MicrowaveLink], dict[str, int]]:
    """Grid bucketing + cluster assignment + link merging over columns.

    Replicates the object kernel's endpoint stitcher exactly: the same
    ``coordinate_key`` cell arithmetic, the same fixed 3x3 cell-scan
    order, per-cell insertion order, first anchor within tolerance wins,
    anchor/site-name first-seen and elevation/height max-merged.
    """
    ep_lat, ep_lon = store.ep_lat, store.ep_lon
    ep_sin_u, ep_cos_u = store.ep_sin_u, store.ep_cos_u
    ep_ground, ep_height = store.ep_ground, store.ep_height
    ep_site, ep_license_id = store.ep_site, store.ep_license_id
    ep_uid, n_coords = store.ep_uid, store.n_coords
    ep_cell = store.cells_for(tolerance_m)
    solutions = store.solutions
    row_ep_start, row_ep_end = store.row_ep_start, store.row_ep_end

    anchor_rows: list[int] = []
    cluster_ground: list[float] = []
    cluster_height: list[float] = []
    cluster_site: list[str] = []
    cluster_licenses: list[set[str]] = []
    grid: dict[int, list[int]] = {}
    grid_get = grid.get
    ep_cluster: dict[int, int] = {}

    probes = 0
    table_misses = 0

    for row in active:
        for ep in range(row_ep_start[row], row_ep_end[row]):
            uid = ep_uid[ep]
            center = ep_cell[ep]
            found = -1
            for offset in _CELL_OFFSETS:
                bucket = grid_get(center + offset)
                if not bucket:
                    continue
                for cluster in bucket:
                    anchor = anchor_rows[cluster]
                    probes += 1
                    anchor_uid = ep_uid[anchor]
                    if uid == anchor_uid:
                        # Bitwise-equal coordinates: the geodesic is
                        # exactly 0.0, within any positive tolerance.
                        found = cluster
                        break
                    key = uid * n_coords + anchor_uid
                    solution = solutions.get(key)
                    if solution is None:
                        solution = extra.get(key)
                        if solution is None:
                            solution = inverse_trig(
                                ep_lat[ep], ep_lon[ep],
                                ep_lat[anchor], ep_lon[anchor],
                                ep_sin_u[ep], ep_cos_u[ep],
                                ep_sin_u[anchor], ep_cos_u[anchor],
                            )
                            extra[key] = solution
                            table_misses += 1
                    if solution[0] <= tolerance_m:
                        found = cluster
                        break
                if found >= 0:
                    break
            license_id = ep_license_id[ep]
            if found < 0:
                found = len(anchor_rows)
                anchor_rows.append(ep)
                cluster_ground.append(ep_ground[ep])
                cluster_height.append(ep_height[ep])
                cluster_site.append(ep_site[ep])
                cluster_licenses.append({license_id})
                grid.setdefault(center, []).append(found)
            else:
                cluster_licenses[found].add(license_id)
                # Prefer the richest metadata seen for the tower (the
                # object kernel's deterministic max-merge).
                if not cluster_site[found] and ep_site[ep]:
                    cluster_site[found] = ep_site[ep]
                if ep_height[ep] > cluster_height[found]:
                    cluster_height[found] = ep_height[ep]
                if ep_ground[ep] > cluster_ground[found]:
                    cluster_ground[found] = ep_ground[ep]
            ep_cluster[ep] = found

    # Finalise clusters into geography-sorted towers (stable sort: ties
    # keep cluster creation order, as the object kernel's does).
    order = sorted(
        range(len(anchor_rows)),
        key=lambda i: (ep_lon[anchor_rows[i]], ep_lat[anchor_rows[i]]),
    )
    towers: list[Tower] = []
    cluster_tower_id: list[str] = [""] * len(anchor_rows)
    tower_anchor: dict[str, int] = {}
    for rank, cluster in enumerate(order, start=1):
        tower_id = f"twr-{rank:04d}"
        cluster_tower_id[cluster] = tower_id
        anchor = anchor_rows[cluster]
        tower_anchor[tower_id] = anchor
        towers.append(
            Tower(
                tower_id=tower_id,
                point=store.ep_point[anchor],
                ground_elevation_m=cluster_ground[cluster],
                structure_height_m=cluster_height[cluster],
                site_name=cluster_site[cluster],
                license_ids=tuple(sorted(cluster_licenses[cluster])),
            )
        )

    # Link merging: one link per tower pair, union of frequencies and
    # license ids across filings.
    path_tx, path_rx = store.path_tx, store.path_rx
    freq_start, freq_mhz = store.path_freq_start, store.freq_mhz
    license_ids = store.license_ids
    merged: dict[tuple[str, str], tuple[set, set]] = {}
    for row in active:
        row_license = license_ids[row]
        for path in range(store.row_path_start[row], store.row_path_end[row]):
            tx_id = cluster_tower_id[ep_cluster[path_tx[path]]]
            rx_id = cluster_tower_id[ep_cluster[path_rx[path]]]
            if tx_id == rx_id:
                # Both endpoints stitched to one tower: degenerate filing.
                continue
            key = (tx_id, rx_id) if tx_id < rx_id else (rx_id, tx_id)
            entry = merged.get(key)
            if entry is None:
                entry = (set(), set())
                merged[key] = entry
            entry[0].update(freq_mhz[freq_start[path]:freq_start[path + 1]])
            entry[1].add(row_license)

    links: list[MicrowaveLink] = []
    for key in sorted(merged):
        tower_a, tower_b = key
        anchor_a = tower_anchor[tower_a]
        anchor_b = tower_anchor[tower_b]
        pair = ep_uid[anchor_a] * n_coords + ep_uid[anchor_b]
        solution = solutions.get(pair)
        if solution is None:
            solution = extra.get(pair)
            if solution is None:
                solution = inverse_trig(
                    ep_lat[anchor_a], ep_lon[anchor_a],
                    ep_lat[anchor_b], ep_lon[anchor_b],
                    ep_sin_u[anchor_a], ep_cos_u[anchor_a],
                    ep_sin_u[anchor_b], ep_cos_u[anchor_b],
                )
                extra[pair] = solution
                table_misses += 1
        frequencies, filed_by = merged[key]
        links.append(
            MicrowaveLink(
                tower_a=tower_a,
                tower_b=tower_b,
                length_m=solution[0],
                frequencies_mhz=tuple(sorted(frequencies)),
                license_ids=tuple(sorted(filed_by)),
            )
        )
    obs.count("kernel.columnar.stitch.probes", probes)
    obs.count("kernel.columnar.solutions.fallback", table_misses)
    return towers, links, tower_anchor


def _fiber_columnar(
    store: ColumnarLicenseStore,
    towers: list[Tower],
    tower_anchor: dict[str, int],
    corridor: CorridorSpec,
    max_tail_m: float,
    mode: str,
) -> list[FiberTail]:
    """Fiber tails over columns: spherical prune, then one bulk solve.

    Replicates the object kernel's fiber attachment exactly — every
    surviving pair is measured with the same Vincenty inverse (through
    the installed geodesic memo, in the same data-center-major order),
    the same
    ``0 < length <= max_tail_m`` filter, sorting and ``nearest``
    truncation.
    """
    ep_lat_rad, ep_lon_rad = store.ep_lat_rad, store.ep_lon_rad
    ep_cos_phi = store.ep_cos_phi
    prune_limit = max_tail_m * _FIBER_PRUNE_MARGIN + 1.0
    sin, asin, sqrt = math.sin, math.asin, math.sqrt
    two_r = 2.0 * EARTH_MEAN_RADIUS_M

    # Prefilter pass: collect surviving (data center, tower) pairs in the
    # object kernel's iteration order, indexing a compact coordinate set.
    coords_lat: list[float] = []
    coords_lon: list[float] = []
    coord_index: dict[tuple[float, float], int] = {}
    pairs: list[tuple[int, int]] = []
    survivors: list[tuple[int, Tower]] = []  # (dc position, tower)
    pruned = 0

    data_centers = list(corridor.data_centers)
    for dc_pos, dc in enumerate(data_centers):
        dc_point = dc.point
        dc_key = (dc_point.latitude, dc_point.longitude)
        dc_idx = coord_index.get(dc_key)
        if dc_idx is None:
            dc_idx = len(coords_lat)
            coord_index[dc_key] = dc_idx
            coords_lat.append(dc_point.latitude)
            coords_lon.append(dc_point.longitude)
        dc_lat_rad = math.radians(dc_point.latitude)
        dc_lon_rad = math.radians(dc_point.longitude)
        dc_cos = math.cos(dc_lat_rad)
        for tower in towers:
            point = tower.point
            row = tower_anchor[tower.tower_id]
            # Inline haversine prefilter (repro.uls.columnar._haversine_m).
            sin_dphi = sin((ep_lat_rad[row] - dc_lat_rad) / 2.0)
            sin_dlam = sin((ep_lon_rad[row] - dc_lon_rad) / 2.0)
            h = sin_dphi * sin_dphi + dc_cos * ep_cos_phi[row] * sin_dlam * sin_dlam
            if two_r * asin(min(1.0, sqrt(h))) > prune_limit:
                pruned += 1
                continue
            tower_key = (point.latitude, point.longitude)
            tower_idx = coord_index.get(tower_key)
            if tower_idx is None:
                tower_idx = len(coords_lat)
                coord_index[tower_key] = tower_idx
                coords_lat.append(point.latitude)
                coords_lon.append(point.longitude)
            pairs.append((dc_idx, tower_idx))
            survivors.append((dc_pos, tower))

    # One bulk solve through the engine's installed memo: identical
    # lookup/store order to the object kernel's per-pair calls.
    solved = inverse_batch(coords_lat, coords_lon, pairs, memo=active_memo())

    per_dc: list[list[FiberTail]] = [[] for _ in data_centers]
    for (dc_pos, tower), solution in zip(survivors, solved):
        length = solution[0]
        if 0.0 < length <= max_tail_m:
            per_dc[dc_pos].append(
                FiberTail(
                    data_center=data_centers[dc_pos].name,
                    tower_id=tower.tower_id,
                    length_m=length,
                )
            )
    tails: list[FiberTail] = []
    for in_range in per_dc:
        in_range.sort(key=lambda tail: (tail.length_m, tail.tower_id))
        if mode == "nearest":
            in_range = in_range[:1]
        tails.extend(in_range)
    tails.sort(key=lambda tail: (tail.data_center, tail.length_m, tail.tower_id))
    obs.count("kernel.columnar.fiber.pruned", pruned)
    obs.count("kernel.columnar.fiber.measured", len(pairs))
    return tails
