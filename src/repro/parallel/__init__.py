"""Grid sessions for the analysis drivers, and the load generator's pool.

* :mod:`repro.parallel.grid` — :class:`GridSession`, which runs every
  analysis grid in-process and routes each task to its engine: the
  parent engine for default parameters, one sibling engine per override
  set.
* :mod:`repro.parallel.executor` — :func:`pmap`, an ordered map with up
  to ``jobs`` calls in flight on threads, for I/O-bound fan-out (the
  load generator's HTTP clients).

Pool/process construction anywhere else in ``src/repro`` is rejected by
the ``parallel-discipline`` lint rule.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.parallel.executor": ("pmap",),
        "repro.parallel.grid": ("GridSession", "GridTaskContext"),
    },
)
