"""Network reconstruction from license records (§2.3).

This is the paper's tool: given the license filings of a licensee and a
date, produce the licensee's network as of that date.  A license
contributes its links iff it was granted and not cancelled/terminated on
the date; links are stitched into towers, fiber tails connect the corridor
data centers to towers within 50 km, and the result is an
:class:`~repro.core.network.HftNetwork` ready for routing and metrics.

:class:`NetworkReconstructor` holds one corridor and one set of
reconstruction parameters.  Every network it builds comes out of the
columnar kernel (:func:`repro.core.columnar.reconstruct_columnar`) over a
:class:`~repro.uls.columnar.ColumnarLicenseStore`: the database's cached
per-generation store, or a throwaway one over an explicit license list.
"""

from __future__ import annotations

import datetime as dt
from typing import TYPE_CHECKING, Iterable

from repro.constants import MAX_FIBER_TAIL_M, STITCH_TOLERANCE_M
from repro.core.corridor import CorridorSpec
from repro.core.latency import LatencyModel
from repro.core.network import HftNetwork
from repro.uls.database import UlsDatabase
from repro.uls.records import License

if TYPE_CHECKING:
    from repro.uls.columnar import ColumnarLicenseStore


def network_name(licenses: list[License], licensee: str | None) -> str:
    """The name of the network ``licenses`` form: ``licensee`` if given,
    else the records' single licensee name (``"(empty)"`` for none)."""
    if licensee is not None:
        return licensee
    names = {lic.licensee_name for lic in licenses}
    if len(names) > 1:
        raise ValueError(
            "licenses span multiple licensees; pass licensee= explicitly "
            f"(found {sorted(names)})"
        )
    return next(iter(names)) if names else "(empty)"


class NetworkReconstructor:
    """Reconstructs :class:`HftNetwork` snapshots from license filings.

    Parameters
    ----------
    corridor:
        The data centers to attach fiber tails to.
    latency_model:
        Propagation model; defaults to the paper's (c in air, 2c/3 fiber,
        no per-tower overhead).
    stitch_tolerance_m:
        Endpoint clustering tolerance.
    max_fiber_tail_m:
        Maximum data-center-to-tower fiber length (paper: 50 km).
    fiber_mode:
        ``"nearest"`` (paper's "last tower on each side": one tail per
        data center) or ``"all"`` (a tail to every in-range tower).
    """

    def __init__(
        self,
        corridor: CorridorSpec,
        latency_model: LatencyModel | None = None,
        stitch_tolerance_m: float = STITCH_TOLERANCE_M,
        max_fiber_tail_m: float = MAX_FIBER_TAIL_M,
        fiber_mode: str = "nearest",
    ) -> None:
        self.corridor = corridor
        self.latency_model = latency_model or LatencyModel()
        self.stitch_tolerance_m = stitch_tolerance_m
        self.max_fiber_tail_m = max_fiber_tail_m
        self.fiber_mode = fiber_mode

    def params(self) -> dict:
        """The reconstruction parameters as constructor keywords."""
        return {
            "latency_model": self.latency_model,
            "stitch_tolerance_m": self.stitch_tolerance_m,
            "max_fiber_tail_m": self.max_fiber_tail_m,
            "fiber_mode": self.fiber_mode,
        }

    def reconstruct_from_store(
        self, store: ColumnarLicenseStore, licensee: str, on_date: dt.date
    ) -> HftNetwork:
        """``licensee``'s network on ``on_date`` from a license store.

        The columnar kernel loads here, on the first reconstruction: a
        process whose snapshots all come from a store never imports it.
        """
        from repro.core.columnar import reconstruct_columnar

        return reconstruct_columnar(
            store,
            licensee,
            on_date,
            corridor=self.corridor,
            latency_model=self.latency_model,
            stitch_tolerance_m=self.stitch_tolerance_m,
            max_fiber_tail_m=self.max_fiber_tail_m,
            fiber_mode=self.fiber_mode,
        )

    def reconstruct(
        self,
        licenses: Iterable[License],
        on_date: dt.date,
        licensee: str | None = None,
    ) -> HftNetwork:
        """Build the network formed by ``licenses`` active on ``on_date``.

        ``licensee`` defaults to the (single) licensee name found in the
        records; passing records of several licensees without naming the
        network is an error, because mixing filings across entities is a
        methodological decision the paper explicitly leaves to future work
        (§2.4).
        """
        from repro.uls.columnar import ColumnarLicenseStore

        license_list = list(licenses)
        licensee = network_name(license_list, licensee)
        store = ColumnarLicenseStore({licensee: license_list})
        return self.reconstruct_from_store(store, licensee, on_date)

    def reconstruct_licensee(
        self, database: UlsDatabase, licensee: str, on_date: dt.date
    ) -> HftNetwork:
        """Reconstruct one licensee's network from a database."""
        return self.reconstruct_from_store(
            database.columnar_store(), licensee, on_date
        )

    def connected_networks(
        self,
        database: UlsDatabase,
        on_date: dt.date,
        source: str,
        target: str,
        licensees: Iterable[str] | None = None,
    ) -> list[HftNetwork]:
        """Networks with an end-to-end path between two data centers.

        This implements the paper's "connected networks" notion (§3): a
        licensee counts iff its active licenses form an end-end path
        between ``source`` and ``target`` on ``on_date``.
        """
        names = list(licensees) if licensees is not None else database.licensee_names()
        connected = []
        for name in names:
            network = self.reconstruct_licensee(database, name, on_date)
            if network.is_connected(source, target):
                connected.append(network)
        return connected


def reconstruct_all(
    database: UlsDatabase,
    corridor: CorridorSpec,
    on_date: dt.date,
    latency_model: LatencyModel | None = None,
) -> dict[str, HftNetwork]:
    """Reconstruct every licensee's network at ``on_date``.

    Returns a name → network mapping (networks may be empty or
    disconnected; callers filter with :meth:`HftNetwork.is_connected`).
    The work is routed through a :class:`repro.core.engine.CorridorEngine`,
    so the bulk reconstruction benefits from the geodesic memo.
    """
    from repro.core.engine import CorridorEngine

    engine = CorridorEngine(database, corridor, latency_model=latency_model)
    return {
        name: engine.snapshot(name, on_date)
        for name in database.licensee_names()
    }
