"""Every name the traced benchmark run patches resolves in ``src/repro``.

``benchmarks/e2e/traced_main.py`` wraps each ``layers.SPANS`` function,
collects each ``layers.COUNTED`` class and wraps
``EngineFacade.coalesced(key, compute)``, all looked up by name as
their modules are imported.  A rename in ``src/repro`` breaks the traced
run, and only the slow end-to-end smoke test would notice; these checks
read ``layers.py`` and look each name up.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

_LAYERS_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("e2e_layers", _LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load_layers()

#: ``repro.parallel`` was deleted; the harness still lists it until the
#: benchmark change in ROADMAP item 1 drops those rows.
_GONE = pytest.mark.skip(
    reason="repro.parallel was deleted; ROADMAP item 1 drops its harness rows"
)


def _rows(rows, module_at: int):
    return [
        pytest.param(*row, marks=_GONE)
        if row[module_at].startswith("repro.parallel.")
        else row
        for row in rows
    ]


@pytest.mark.parametrize("span, module, qualname", _rows(layers.SPANS, 1))
def test_span_target_resolves(span, module, qualname):
    owner = importlib.import_module(module)
    for attr in qualname.split("."):
        owner = getattr(owner, attr)
    assert callable(owner), (span, module, qualname)


@pytest.mark.parametrize("module, name", _rows(layers.COUNTED, 0))
def test_counted_class_resolves(module, name):
    assert inspect.isclass(getattr(importlib.import_module(module), name))


def test_counters_read_live_instances(tmp_path, engine):
    from repro.serve.facade import EngineFacade
    from repro.serve.service import ResponseBodyCache
    from repro.store import CacheStore

    counts = layers.counters(
        {
            "CorridorEngine": [engine],
            "CacheStore": [CacheStore(tmp_path)],
            "EngineFacade": [EngineFacade(engine)],
            "ResponseBodyCache": [ResponseBodyCache()],
            "GridSession": [],
        }
    )
    assert counts["body_hits"] == counts["coalesce_leaders"] == 0


def test_leader_compute_hook_resolves():
    from repro.serve.facade import EngineFacade

    params = list(inspect.signature(EngineFacade.coalesced).parameters)
    assert params == ["self", "key", "compute"]
