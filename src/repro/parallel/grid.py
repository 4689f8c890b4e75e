"""Grid sessions: the in-process engine routing every analysis driver uses.

The analysis drivers all map over the same two shapes of work item —
*(licensee × date)* cells of the reconstruction grid and *knob values* of
a parameter sweep — and they all need the same routing around the loop.
:class:`GridSession` packages it once:

* **Engine routing.**  A task mapped with ``params=None`` runs against
  the session's parent engine; a task mapped with parameter overrides
  runs against one parameter-distinct sibling per override set
  (:meth:`~repro.core.engine.CorridorEngine.with_params`), built on first
  use and kept for the session, so snapshots computed under different
  knobs can never alias.
* **A lazy scraper.**  Tasks that read ``ctx.scraper`` share one
  :class:`~repro.uls.scraper.UlsScraper` over the session's database:
  the caller's, or one built on first use.

Every item runs in this process, in order, against the caller's own
objects: exactly the loop a hand-written driver would run.  The paper's
grids are small (~60 licensees × a few hundred dates), and on the 2-CPU
reference host no command got faster with a process pool, so there is
none (DESIGN.md §9).

Task functions are callables ``fn(ctx, item)``; ``ctx`` is a
:class:`GridTaskContext` carrying the routed engine and the session's
scraper.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from repro import obs
from repro.core.engine import CorridorEngine

#: A normalised override set: None (parent params) or sorted key/value
#: pairs — hashable and order-independent.
ParamsKey = tuple | None


def _normalise_overrides(overrides: Mapping | None) -> ParamsKey:
    if not overrides:
        return None
    return tuple(sorted(overrides.items()))


class GridTaskContext:
    """What a grid task function receives: its engine and the scraper."""

    __slots__ = ("engine", "_session")

    def __init__(self, engine: CorridorEngine, session: "GridSession") -> None:
        self.engine = engine
        self._session = session

    @property
    def database(self):
        return self.engine.database

    @property
    def scraper(self):
        """The session's scraper (built on first use)."""
        return self._session.scraper


class GridSession:
    """One mapping session over one parent engine (and its database).

    Parameters
    ----------
    engine:
        The parent :class:`~repro.core.engine.CorridorEngine`; default
        parameter tasks run against it.
    scraper:
        Optional :class:`~repro.uls.scraper.UlsScraper` every task
        shares (the funnel passes its own, seeded from the store, so its
        page counts cover every stage); by default one is built over the
        engine's database on first use.
    """

    #: Where tasks run; always this process.
    backend = "serial"

    def __init__(self, engine: CorridorEngine, *, scraper=None) -> None:
        self.engine = engine
        self._scraper = scraper
        self._siblings: dict[tuple, CorridorEngine] = {}

    def engine_for(self, key: ParamsKey) -> CorridorEngine:
        """The engine a task with override set ``key`` runs against:
        the parent for ``None``, else this session's sibling for ``key``."""
        if key is None:
            return self.engine
        sibling = self._siblings.get(key)
        if sibling is None:
            sibling = self.engine.with_params(**dict(key))
            self._siblings[key] = sibling
        return sibling

    @property
    def scraper(self):
        if self._scraper is None:
            from repro.uls.portal import UlsPortal
            from repro.uls.scraper import UlsScraper

            self._scraper = UlsScraper(UlsPortal(self.engine.database))
        return self._scraper

    def map(
        self,
        fn: Callable,
        items: Sequence,
        *,
        params: Mapping | Callable | None = None,
        label: str = "grid",
    ) -> list:
        """``[fn(ctx, item) for item in items]`` with routed engines.

        ``params`` selects the engine per item: ``None`` (parent
        engine), a mapping of reconstruction overrides applied to every
        item, or a callable ``item -> mapping | None``.
        """
        items = list(items)
        overrides = params if callable(params) else lambda item: params
        with obs.span("parallel.grid", label=label, items=len(items)):
            return [
                fn(
                    GridTaskContext(
                        self.engine_for(_normalise_overrides(overrides(item))),
                        self,
                    ),
                    item,
                )
                for item in items
            ]

    def close(self) -> None:
        """Drop the session's siblings (the parent engine is the caller's)."""
        self._siblings.clear()

    def __enter__(self) -> "GridSession":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.close()
        return False
