"""Run one ``python -m repro`` invocation with a span at every layer boundary.

Usage, from the repository root with ``PYTHONPATH=src``::

    python benchmarks/e2e/traced_main.py TRACE.jsonl SPAWNED_AT table1 --jobs 2

``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before it
started this process; the interval up to the first line here is recorded
as the ``python.startup`` span.  The script then times ``import
repro.cli`` and calls ``repro.cli.main(argv)``.  Every function listed in
``layers.py`` is wrapped as its module is first imported, so the traced
process imports exactly the modules the plain one does.  A method is
wrapped by patching its class attribute; a module-level function is
patched in its defining module and in every loaded ``repro`` module that
already holds it under some name.  ``repro.obs`` stays disabled.

Spans are kept in memory and written to TRACE.jsonl when ``main``
returns.  A server stopped with SIGINT or SIGTERM drains its requests,
returns from ``main`` and then writes.  Each line is one span,
``{"id", "parent", "rid", "name", "start", "end"}``, in
``time.monotonic()`` seconds (system-wide on Linux, so the load
generator's timestamps line up with the server's).  ``parent`` is 0 for
a root span, and every span under one root shares its ``rid``: one
request in the server, one phase of a CLI process.  The last line is
``{"counters": {...}}`` from ``layers.counters``.
"""

from __future__ import annotations

import functools
import importlib.machinery
import itertools
import json
import signal
import sys
import threading
import time

import layers


class Tracer:
    """Span records for every thread, kept in memory until exit."""

    def __init__(self) -> None:
        self.records: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._rids = itertools.count(1)

    def add_root(self, name: str, start: float, end: float) -> None:
        self.records.append((next(self._ids), 0, next(self._rids), name, start, end))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent, rid = stack[-1] if stack else (0, next(self._rids))
            span_id = next(self._ids)
            stack.append((span_id, rid))
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                self.records.append((span_id, parent, rid, name, start, end))

        return traced

    def write(self, path: str, counts: dict) -> None:
        line = '{"id":%d,"parent":%d,"rid":%d,"name":"%s","start":%r,"end":%r}\n'
        with open(path, "w", encoding="utf-8") as out:
            out.writelines(line % record for record in self.records)
            out.write(json.dumps({"counters": counts}) + "\n")


class _PatchingLoader:
    """Run the real loader, then apply this module's patches."""

    def __init__(self, loader, patches: list) -> None:
        self._loader = loader
        self._patches = patches

    def create_module(self, spec):
        return self._loader.create_module(spec)

    def exec_module(self, module) -> None:
        self._loader.exec_module(module)
        for patch in self._patches:
            patch(module)


class _PatchOnImport:
    """A meta-path finder that hands listed modules a patching loader."""

    def __init__(self, patches: dict[str, list]) -> None:
        self._patches = patches

    def find_spec(self, fullname, path=None, target=None):
        if fullname not in self._patches:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path, target)
        if spec is not None:
            spec.loader = _PatchingLoader(spec.loader, self._patches.pop(fullname))
        return spec


def _wrap(tracer: Tracer, span: str, qualname: str, module) -> None:
    owner = module
    *classes, attr = qualname.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    original = getattr(owner, attr)
    wrapped = tracer.wrap(span, original)
    setattr(owner, attr, wrapped)
    if classes:
        return
    for name, consumer in list(sys.modules.items()):
        if name.startswith("repro.") and consumer is not module:
            for key in [k for k, v in vars(consumer).items() if v is original]:
                setattr(consumer, key, wrapped)


def _trace_leader_compute(tracer: Tracer, module) -> None:
    facade = module.EngineFacade
    coalesced = facade.coalesced

    def traced(self, key, compute):
        return coalesced(self, key, tracer.wrap(layers.ENGINE_SPAN, compute))

    facade.coalesced = traced


def _collect(name: str, bucket: list, module) -> None:
    cls = getattr(module, name)
    init = cls.__init__

    @functools.wraps(init)
    def collect(self, *args, **kwargs):
        init(self, *args, **kwargs)
        bucket.append(self)

    cls.__init__ = collect


def install(tracer: Tracer) -> dict[str, list]:
    """Arrange the patches; return the instance lists ``layers.counters`` reads."""
    patches: dict[str, list] = {}
    for span, module, qualname in layers.SPANS:
        patches.setdefault(module, []).append(
            functools.partial(_wrap, tracer, span, qualname)
        )
    patches.setdefault("repro.serve.facade", []).append(
        functools.partial(_trace_leader_compute, tracer)
    )
    instances: dict[str, list] = {}
    for module, name in layers.COUNTED:
        patches.setdefault(module, []).append(
            functools.partial(_collect, name, instances.setdefault(name, []))
        )
    sys.meta_path.insert(0, _PatchOnImport(patches))
    return instances


def main() -> int:
    started = time.monotonic()
    trace_path, spawned_at, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.add_root("python.startup", spawned_at, started)
    instances = install(tracer)
    start = time.monotonic()
    import repro.cli

    tracer.add_root("cli.import", start, time.monotonic())
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        return repro.cli.main(argv)
    finally:
        tracer.write(trace_path, layers.counters(instances))


if __name__ == "__main__":
    raise SystemExit(main())
