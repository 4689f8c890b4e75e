"""networkx and process pools stay off the hot path, each command imports
only what it runs, and derived routing state stays off disk.

Routing, connectivity and APA run the stdlib Dijkstra in
:mod:`repro.core.network`; networkx is imported only inside the analyses
that build a full graph.  Every command runs in one process, so nothing
on the hot path needs ``multiprocessing`` or ``concurrent.futures``
either.  A fresh interpreter must therefore get through ``import repro``,
``import repro.cli`` and the benchmarked commands without loading any of
them.

Package ``__init__``s re-export lazily and the CLI imports each
command's driver in its handler, so ``import repro`` loads no submodule,
``import repro.cli`` and ``--help`` load only the CLI, and a warm command
(a store primed in a temp dir) loads only the ``repro`` modules on its
allowlist below: no ``yaml``, spec types, generator, synthetic builder,
renderer or radio model.

A routed :class:`HftNetwork` must pickle (store entries) without its
cached adjacency or graph.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core.timeline import yearly_snapshot_dates

ROOT = Path(__file__).resolve().parent.parent

_PROBE = textwrap.dedent(
    """
    import contextlib, io, sys

    def check(stage):
        for name in ("networkx", "multiprocessing", "concurrent.futures"):
            assert name not in sys.modules, f"{name} loaded by {stage}"

    import repro
    check("import repro")
    import repro.cli
    check("import repro.cli")
    for argv in (
        ["table1"],
        ["funnel"],
        ["compare"],
        ["timeline", "--step", "weekly"],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            assert repro.cli.main(argv) == 0, argv
        check(" ".join(argv))
    """
)


def _run_probe(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("REPRO_CACHE_DIR", None)
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )


def test_hot_commands_never_import_networkx():
    result = _run_probe(_PROBE)
    assert result.returncode == 0, result.stderr[-2000:]


_NEVER_ON_HOT_PATH = ("networkx", "multiprocessing", "concurrent.futures")

_STARTUP_PROBE = textwrap.dedent(
    """
    import sys

    def loaded():
        return sorted(m for m in sys.modules if m.split(".")[0] == "repro")

    def check(stage, allowed):
        extra = [m for m in loaded() if m not in allowed]
        assert not extra, f"{stage} loaded {extra}"
        for name in %r:
            assert name not in sys.modules, f"{name} loaded by {stage}"

    import repro
    check("import repro", {"repro"})
    import repro.cli
    check("import repro.cli", {"repro", "repro.cli"})
    try:
        repro.cli.main(["--help"])
    except SystemExit as stop:
        assert stop.code == 0, stop.code
    check("--help", {"repro", "repro.cli"})
    """
) % (_NEVER_ON_HOT_PATH,)


def test_import_and_help_load_only_the_cli():
    result = _run_probe(_STARTUP_PROBE)
    assert result.returncode == 0, result.stderr[-2000:]


#: What every warm analysis command loads: the CLI, the store, the
#: scenario registry and the engine with the types its entries unpickle.
_WARM_BASE = frozenset(
    """
    repro repro.cli repro.constants
    repro.core repro.core.apa repro.core.corridor repro.core.engine
    repro.core.latency repro.core.network repro.core.reconstruction
    repro.core.timeline
    repro.geodesy repro.geodesy.earth repro.geodesy.memo
    repro.obs repro.obs.metrics repro.obs.spans
    repro.scenarios repro.scenarios.registry
    repro.store repro.store.cachestore repro.store.fingerprint
    repro.store.layout
    repro.synth repro.synth.scenario
    repro.uls repro.uls.database repro.uls.index repro.uls.records
    """.split()
)

#: Modules no warm command may load, whatever its allowlist says: only a
#: build needs the spec types, the generator or the synthetic builder.
_WARM_FORBIDDEN = frozenset(
    """
    repro.scenarios.synthetic repro.synth.generator repro.synth.specs
    """.split()
)

#: Per command, the ``repro`` modules a warm run may load beyond the base.
_WARM_ALLOWED = {
    "table1": """
        repro.analysis repro.analysis.report repro.analysis.tables
        repro.metrics repro.metrics.rankings
    """,
    "timeline --step weekly": """
        repro.analysis repro.analysis.figures repro.analysis.report
    """,
    # compare sets each corridor against the LEO shell lower bounds.
    "compare": """
        repro.analysis repro.analysis.compare repro.analysis.report
        repro.leo repro.leo.latency
        repro.metrics repro.metrics.rankings
    """,
    # Only the funnel reads (cached) portal pages.
    "funnel": """
        repro.analysis repro.analysis.funnel
        repro.geodesy.coordinates
        repro.uls.portal repro.uls.scraper repro.uls.search
    """,
}

_WARM_PROBE = textwrap.dedent(
    """
    import contextlib, io, json, sys
    import repro.cli

    with contextlib.redirect_stdout(io.StringIO()):
        status = repro.cli.main(sys.argv[1:])
    print(json.dumps({
        "status": status,
        "repro": sorted(m for m in sys.modules if m.split(".")[0] == "repro"),
        "others": [m for m in ("yaml", *%r) if m in sys.modules],
    }))
    """
) % (_NEVER_ON_HOT_PATH,)


@pytest.fixture(scope="module")
def primed_store(tmp_path_factory):
    """A store that every command of ``_WARM_ALLOWED`` has filled."""
    store = tmp_path_factory.mktemp("warm-store")
    prime = textwrap.dedent(
        """
        import contextlib, io, sys
        import repro.cli

        for command in sys.argv[2:]:
            with contextlib.redirect_stdout(io.StringIO()):
                argv = [*command.split(), "--cache-dir", sys.argv[1]]
                assert repro.cli.main(argv) == 0, command
        """
    )
    result = _run_probe(prime, str(store), *_WARM_ALLOWED)
    assert result.returncode == 0, result.stderr[-2000:]
    return store


@pytest.mark.parametrize("command", sorted(_WARM_ALLOWED))
def test_warm_command_loads_only_its_modules(primed_store, command):
    result = _run_probe(
        _WARM_PROBE, *command.split(), "--cache-dir", str(primed_store)
    )
    assert result.returncode == 0, result.stderr[-2000:]
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["status"] == 0
    assert report["others"] == []
    allowed = _WARM_BASE | frozenset(_WARM_ALLOWED[command].split())
    assert sorted(set(report["repro"]) - allowed) == []
    assert sorted(set(report["repro"]) & _WARM_FORBIDDEN) == []


def test_routed_network_pickles_without_derived_state(scenario):
    on_date = yearly_snapshot_dates()[-1]
    network = scenario.engine().snapshot("New Line Networks", on_date)
    route = network.lowest_latency_route("CME", "NY4")
    assert route is not None
    network.graph  # build the networkx view too
    assert {"_adjacency", "graph"} <= network.__dict__.keys()

    shipped = pickle.loads(pickle.dumps(network))
    assert "_adjacency" not in shipped.__dict__
    assert "graph" not in shipped.__dict__
    assert shipped.data_centers == network.data_centers
    assert shipped.latency_model == network.latency_model
    assert repr(shipped.lowest_latency_route("CME", "NY4")) == repr(route)


def test_redated_view_shares_adjacency(scenario):
    dates = yearly_snapshot_dates()
    network = scenario.engine().snapshot("New Line Networks", dates[-1])
    network.lowest_latency_route("CME", "NY4")
    view = network.with_as_of(dates[-2])
    assert view is not network
    assert view.__dict__["_adjacency"] is network.__dict__["_adjacency"]
