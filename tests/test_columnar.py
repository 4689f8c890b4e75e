"""Columnar kernel: element-wise identity to the object kernel.

The load-bearing property of the one reconstruction path
(:func:`repro.core.columnar.reconstruct_columnar` over a
:class:`repro.uls.columnar.ColumnarLicenseStore`): for ANY license set,
date and parameterisation, its output equals the object kernel's
(``tests/object_kernel.py``, the oracle) — every tower, link and fiber
tail, ids, ordering and floats included.  Alongside the property, this
module pins the supporting contracts: the batch geodesy kernels are
bit-identical to the scalar path, the store is cached per database
generation (and rebuilt, never pickled, across process boundaries), and
the engine, the reconstructor and the CLI all agree with the oracle.
"""

from __future__ import annotations

import datetime as dt
import itertools
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.columnar import reconstruct_columnar
from repro.core.corridor import chicago_nj_corridor
from repro.core.engine import CorridorEngine
from repro.core.network import HftNetwork
from repro.core.reconstruction import NetworkReconstructor
from repro.geodesy import GeoPoint, geodesic_inverse
from repro.geodesy.batch import inverse_batch, inverse_trig, reduced_latitude_trig
from repro.geodesy.memo import GeodesicMemo, use_memo
from repro.uls.database import UlsDatabase

from tests import object_kernel
from tests.conftest import make_license

_LICENSEES = (
    "New Line Networks",
    "Webline Holdings",
    "Jefferson Microwave",
    "Pierce Broadband",
    "National Tower Company",
    "Midwest Relay Partners",
)


def _assert_networks_equal(columnar: HftNetwork, obj: HftNetwork) -> None:
    """Element-wise equality: ids, ordering, metadata and floats."""
    assert columnar.licensee == obj.licensee
    assert columnar.as_of == obj.as_of
    assert list(columnar.towers) == list(obj.towers)  # ids, in order
    assert columnar.towers == obj.towers
    assert list(columnar.links) == list(obj.links)
    assert list(columnar.fiber_tails) == list(obj.fiber_tails)


def _reconstruct_both(
    database: UlsDatabase, recon: NetworkReconstructor, licensee: str, on_date: dt.date
) -> tuple[HftNetwork, HftNetwork]:
    columnar = reconstruct_columnar(
        database.columnar_store(),
        licensee,
        on_date,
        corridor=recon.corridor,
        latency_model=recon.latency_model,
        stitch_tolerance_m=recon.stitch_tolerance_m,
        max_fiber_tail_m=recon.max_fiber_tail_m,
        fiber_mode=recon.fiber_mode,
    )
    obj = object_kernel.reconstruct_licensee(recon, database, licensee, on_date)
    return columnar, obj


# ----------------------------------------------------------------------
# Property: columnar == object, element-wise
# ----------------------------------------------------------------------


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    licensee=st.sampled_from(_LICENSEES),
    on_date=st.dates(dt.date(2010, 1, 1), dt.date(2020, 12, 31)),
)
def test_columnar_matches_object_over_scenario(scenario, licensee, on_date):
    recon = NetworkReconstructor(scenario.corridor)
    columnar, obj = _reconstruct_both(scenario.database, recon, licensee, on_date)
    _assert_networks_equal(columnar, obj)


# Randomised license sets: coordinates cluster around a handful of bases
# with jitters from exactly-coincident (0.0: the uid zero-distance fast
# path) through tens of metres (in-tolerance stitch probes) to ~450 m
# (cross-cell probes; beyond the solution table at large tolerances, so
# the inline Vincenty fallback is exercised too).
_BASES = ((41.75, -88.18), (41.60, -87.80), (41.20, -86.40), (40.72, -74.18))
_JITTER = (0.0, 1.0e-4, -1.0e-4, 2.7e-4, 4.0e-3)

_POINT = st.builds(
    lambda base, d_lat, d_lon: (base[0] + d_lat, base[1] + d_lon),
    st.sampled_from(_BASES),
    st.sampled_from(_JITTER),
    st.sampled_from(_JITTER),
)

_CHAIN = st.lists(_POINT, min_size=1, max_size=4)


@settings(max_examples=30, deadline=None)
@given(
    chains=st.lists(_CHAIN, min_size=1, max_size=5),
    tolerance=st.sampled_from([10.0, 30.0, 100.0, 500.0]),
    tail=st.sampled_from([0.0, 10_000.0, 50_000.0]),
    mode=st.sampled_from(["nearest", "all"]),
    on_date=st.dates(dt.date(2014, 1, 1), dt.date(2021, 1, 1)),
)
def test_columnar_matches_object_on_random_networks(
    chains, tolerance, tail, mode, on_date
):
    database = UlsDatabase()
    database.extend(
        make_license(
            license_id=f"L{index:04d}",
            licensee="Prop Networks",
            points=tuple(chain),
        )
        for index, chain in enumerate(chains)
    )
    recon = NetworkReconstructor(
        chicago_nj_corridor(),
        stitch_tolerance_m=tolerance,
        max_fiber_tail_m=tail,
        fiber_mode=mode,
    )
    columnar, obj = _reconstruct_both(database, recon, "Prop Networks", on_date)
    _assert_networks_equal(columnar, obj)


# ----------------------------------------------------------------------
# Degenerate cases
# ----------------------------------------------------------------------


def _small_database() -> UlsDatabase:
    database = UlsDatabase()
    database.extend(
        [
            make_license(license_id="L0001"),
            # A degenerate path: tx and rx at the identical coordinate.
            make_license(
                license_id="L0002",
                points=((41.75, -88.18), (41.75, -88.18)),
            ),
            # A single location, no paths at all.
            make_license(license_id="L0003", points=((41.90, -87.90),)),
        ]
    )
    return database


@pytest.mark.parametrize(
    "licensee, on_date",
    [
        ("Test Networks LLC", dt.date(2020, 4, 1)),  # all three active
        ("Test Networks LLC", dt.date(2014, 1, 1)),  # before every grant
        ("No Such Networks", dt.date(2020, 4, 1)),  # unknown licensee
    ],
)
def test_degenerate_cases_match_object(licensee, on_date):
    recon = NetworkReconstructor(chicago_nj_corridor())
    columnar, obj = _reconstruct_both(_small_database(), recon, licensee, on_date)
    _assert_networks_equal(columnar, obj)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"stitch_tolerance_m": 0.0}, "tolerance must be positive"),
        ({"stitch_tolerance_m": -5.0}, "tolerance must be positive"),
        ({"max_fiber_tail_m": -1.0}, "max tail length cannot be negative"),
        ({"fiber_mode": "bogus"}, "unknown fiber attachment mode: 'bogus'"),
    ],
)
def test_columnar_validation_matches_object_messages(overrides, message):
    """The columnar kernel rejects bad parameters with the object
    kernel's messages."""
    database = _small_database()
    params = {
        "stitch_tolerance_m": 30.0,
        "max_fiber_tail_m": 10_000.0,
        "fiber_mode": "nearest",
    }
    params.update(overrides)
    recon = NetworkReconstructor(chicago_nj_corridor(), **params)
    on_date = dt.date(2020, 4, 1)
    with pytest.raises(ValueError, match=message):
        recon.reconstruct_licensee(database, "Test Networks LLC", on_date)
    with pytest.raises(ValueError, match=message):
        object_kernel.reconstruct_licensee(
            recon, database, "Test Networks LLC", on_date
        )


# ----------------------------------------------------------------------
# Store invariants
# ----------------------------------------------------------------------


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    licensee=st.sampled_from(_LICENSEES),
    on_date=st.dates(dt.date(2010, 1, 1), dt.date(2020, 12, 31)),
)
def test_store_fingerprint_equals_object_scan(scenario, licensee, on_date):
    """The store's active rows are exactly the is_active scan's."""
    store = scenario.database.columnar_store()
    active = {store.license_ids[row] for row in store.active_rows(licensee, on_date)}
    assert active == object_kernel.scan_fingerprint(
        scenario.database, licensee, on_date
    )


def test_store_cached_per_generation():
    database = _small_database()
    store = database.columnar_store()
    assert database.columnar_store() is store
    assert store.generation == database.generation

    database.add(make_license(license_id="L0099"))
    rebuilt = database.columnar_store()
    assert rebuilt is not store  # a mutation invalidates the store
    assert rebuilt.generation == database.generation
    assert "L0099" in rebuilt.license_ids


def test_store_rebuilt_after_pickle_not_shipped():
    """Workers rebuild their own store from the shipped records."""
    database = _small_database()
    original = database.columnar_store()
    shipped = pickle.loads(pickle.dumps(database))
    assert shipped._columnar_store is None  # derived columns not pickled
    rebuilt = shipped.columnar_store()
    assert rebuilt.license_ids == original.license_ids
    on_date = dt.date(2020, 4, 1)
    assert rebuilt.active_rows("Test Networks LLC", on_date) == original.active_rows(
        "Test Networks LLC", on_date
    )


def test_cells_for_cached_per_tolerance():
    store = _small_database().columnar_store()
    cells = store.cells_for(30.0)
    assert store.cells_for(30.0) is cells
    assert len(cells) == len(store.ep_lat)
    assert store.cells_for(100.0) is not cells


def test_uid_and_solution_table_invariants(scenario):
    """Equal uids ⟺ bitwise-equal coordinates; keys are packed pairs of
    distinct uids; every stored solution is bit-identical to the scalar
    kernel on the same pair, in the same direction."""
    store = scenario.database.columnar_store()
    coord_of: dict[int, tuple[float, float]] = {}
    representative: dict[int, int] = {}
    for row, uid in enumerate(store.ep_uid):
        coord = (store.ep_lat[row], store.ep_lon[row])
        assert coord_of.setdefault(uid, coord) == coord
        representative.setdefault(uid, row)
    assert len(coord_of) == store.n_coords
    # Distinct uids carry distinct coordinates.
    assert len(set(coord_of.values())) == store.n_coords

    n = store.n_coords
    for key, solution in itertools.islice(store.solutions.items(), 64):
        uid_a, uid_b = divmod(key, n)
        assert uid_a != uid_b and uid_a < n and uid_b < n
        scalar = geodesic_inverse(
            store.ep_point[representative[uid_a]],
            store.ep_point[representative[uid_b]],
        )
        assert solution == scalar  # bit-identical, not approximately equal


# ----------------------------------------------------------------------
# Batch geodesy: bit-identity to the scalar kernel
# ----------------------------------------------------------------------

_BATCH_COORDS = [
    (41.8, -87.6),
    (40.7, -74.0),
    (41.8, -87.6),  # duplicate of row 0: the coincident-point guard
    (0.0, 0.0),  # equatorial geodesic (cos²α == 0 branch)
    (0.0, 179.99),
    (-41.79, 92.41),  # nearly antipodal to row 0: spherical fallback
]


def test_inverse_batch_bit_identical_to_scalar():
    lats = [lat for lat, _ in _BATCH_COORDS]
    lons = [lon for _, lon in _BATCH_COORDS]
    pairs = [
        (i, j) for i in range(len(lats)) for j in range(len(lats)) if i != j
    ]
    solutions = inverse_batch(lats, lons, pairs)
    for (i, j), solution in zip(pairs, solutions):
        scalar = geodesic_inverse(GeoPoint(lats[i], lons[i]), GeoPoint(lats[j], lons[j]))
        assert solution == scalar


def test_inverse_trig_matches_scalar_per_pair():
    a, b = (41.75, -88.18), (40.72, -74.18)
    sin_u1, cos_u1 = reduced_latitude_trig(a[0])
    sin_u2, cos_u2 = reduced_latitude_trig(b[0])
    solution = inverse_trig(a[0], a[1], b[0], b[1], sin_u1, cos_u1, sin_u2, cos_u2)
    assert solution == geodesic_inverse(GeoPoint(*a), GeoPoint(*b))
    # Coincident points short-circuit to the exact zero solution.
    zero = inverse_trig(a[0], a[1], a[0], a[1], sin_u1, cos_u1, sin_u1, cos_u1)
    assert zero == (0.0, 0.0, 0.0)


def test_inverse_batch_memo_semantics():
    """The batch consults and feeds a memo with the scalar accounting."""
    memo = GeodesicMemo(maxsize=64)
    lats = [41.8, 40.7]
    lons = [-87.6, -74.0]
    solutions = inverse_batch(lats, lons, [(0, 1), (0, 1), (1, 0)], memo=memo)
    assert solutions[0] == solutions[1]
    assert memo.hits == 1 and memo.misses == 2  # repeat pair hit in-batch
    # The scalar path hits entries the batch stored, bit-identically.
    with use_memo(memo):
        scalar = geodesic_inverse(GeoPoint(41.8, -87.6), GeoPoint(40.7, -74.0))
    assert scalar == solutions[0]
    assert memo.hits == 2


def test_inverse_batch_rejects_ragged_columns():
    with pytest.raises(ValueError):
        inverse_batch([41.8], [-87.6, -74.0], [(0, 0)])


# ----------------------------------------------------------------------
# Engine, reconstructor and CLI against the object kernel
# ----------------------------------------------------------------------


def test_engine_kernels_produce_equal_snapshots(scenario):
    engine = CorridorEngine(scenario.database, scenario.corridor)
    recon = NetworkReconstructor(scenario.corridor)
    for licensee, on_date in (
        ("New Line Networks", dt.date(2020, 4, 1)),
        ("Pierce Broadband", dt.date(2019, 6, 1)),
    ):
        _assert_networks_equal(
            engine.snapshot(licensee, on_date),
            object_kernel.reconstruct_licensee(
                recon, scenario.database, licensee, on_date
            ),
        )


def test_scan_fingerprint_equal_across_kernels(scenario):
    """Index-resolved fingerprints equal the object kernel's scan."""
    engine = CorridorEngine(scenario.database, scenario.corridor)
    for on_date in (dt.date(2016, 1, 1), dt.date(2020, 4, 1)):
        for licensee in _LICENSEES:
            assert engine.active_fingerprint(
                licensee, on_date
            ) == object_kernel.scan_fingerprint(scenario.database, licensee, on_date)


def test_snapshot_from_licenses_equal_across_kernels(scenario):
    """The explicit-license-set path (funnel, entity pooling) too."""
    pooled = list(
        scenario.database.licenses_for("New Line Networks")
    ) + list(scenario.database.licenses_for("Webline Holdings"))
    on_date = dt.date(2020, 4, 1)
    columnar = CorridorEngine(
        scenario.database, scenario.corridor
    ).snapshot_from_licenses(pooled, on_date, licensee="Pooled Entity")
    obj = object_kernel.reconstruct(
        NetworkReconstructor(scenario.corridor), pooled, on_date, "Pooled Entity"
    )
    _assert_networks_equal(columnar, obj)


def test_columnar_kernel_emits_obs_counters():
    database = _small_database()
    with obs.capture() as cap:
        engine = CorridorEngine(database, chicago_nj_corridor())
        engine.snapshot("Test Networks LLC", dt.date(2020, 4, 1))
        counters = cap.counters()
    assert counters["kernel.columnar.store.build"] >= 1
    assert counters["kernel.columnar.snapshot"] == 1
    assert counters["kernel.columnar.stitch.probes"] >= 0  # key present
    assert "kernel.columnar.fiber.pruned" in counters


def test_cli_stdout_identical_under_object_kernel(scenario, capsys, monkeypatch):
    """``table1`` prints the same bytes when every cold build of a fresh
    shared engine runs the object kernel instead."""
    from repro.cli import main

    assert main(["table1"]) == 0
    columnar_out = capsys.readouterr().out

    def object_from_store(recon, store, licensee, on_date):
        start, end = store.span(licensee)
        licenses = [
            scenario.database.get(store.license_ids[row]) for row in range(start, end)
        ]
        return object_kernel.reconstruct(recon, licenses, on_date, licensee)

    monkeypatch.setattr(
        NetworkReconstructor, "reconstruct_from_store", object_from_store
    )
    # The CLI resolves the same cached scenario; give it an engine with
    # empty caches so every snapshot is a cold build.
    monkeypatch.setitem(
        vars(scenario),
        "_default_engine",
        CorridorEngine(scenario.database, scenario.corridor),
    )
    assert main(["table1"]) == 0
    assert capsys.readouterr().out == columnar_out
    assert "New Line Networks" in columnar_out
