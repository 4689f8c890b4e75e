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
* :mod:`repro.serve.loadgen`  — the ``repro.parallel``-powered load
  harness behind ``hftnetview loadgen``.

See DESIGN.md §13 for the facade/coalescing protocol.
"""

from repro.serve.facade import EngineFacade
from repro.serve.loadgen import LoadProfile, LoadReport, run_load
from repro.serve.server import CorridorServer, active_server, run_server
from repro.serve.service import CorridorQueryService, ServiceError

__all__ = [
    "CorridorQueryService",
    "CorridorServer",
    "EngineFacade",
    "LoadProfile",
    "LoadReport",
    "ServiceError",
    "active_server",
    "run_load",
    "run_server",
]
