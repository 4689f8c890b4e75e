"""repro.serve: the corridor analytics service.

A long-running HTTP/JSON query server over ONE shared warm
:class:`~repro.core.engine.CorridorEngine` — the "millions of users"
tier.  Layers, bottom up:

* :mod:`repro.serve.payloads` — pure payload builders shared with the
  CLI's ``--format json`` (parity by construction);
* :mod:`repro.serve.facade`   — lock-scoped, request-coalescing access
  to the shared engine;
* :mod:`repro.serve.service`  — validation, routing, structured errors;
* :mod:`repro.serve.server`   — the threaded stdlib HTTP adapter;
* :mod:`repro.serve.loadgen`  — the load harness behind
  ``hftnetview loadgen``, whose client fleet is the one thread pool.

See DESIGN.md §13 for the facade/coalescing protocol.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.serve.facade": ("EngineFacade",),
        "repro.serve.loadgen": ("LoadProfile", "LoadReport", "run_load"),
        "repro.serve.server": (
            "CorridorServer",
            "active_server",
            "run_server",
        ),
        "repro.serve.service": ("CorridorQueryService", "ServiceError"),
    },
)
