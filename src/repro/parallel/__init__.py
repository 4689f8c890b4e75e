"""The load generator's thread pool.

* :mod:`repro.parallel.executor` — :func:`pmap`, an ordered map with up
  to ``jobs`` calls in flight on threads, for I/O-bound fan-out (the
  load generator's HTTP clients).

The analysis drivers are plain loops over their engine in this process
(DESIGN.md §9).  Pool/process construction anywhere else in
``src/repro`` is rejected by the ``parallel-discipline`` lint rule.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {"repro.parallel.executor": ("pmap",)},
)
