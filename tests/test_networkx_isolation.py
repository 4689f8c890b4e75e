"""networkx and process pools stay off the hot path, and derived routing
state stays off disk.

Routing, connectivity and APA run the stdlib Dijkstra in
:mod:`repro.core.network`; networkx is imported only inside the analyses
that build a full graph.  Every command runs in one process, so nothing
on the hot path needs ``multiprocessing`` or ``concurrent.futures``
either.  A fresh interpreter must therefore get through ``import repro``,
``import repro.cli`` and the benchmarked commands (at ``--jobs 4``, which
has no effect) without loading any of them.  A routed
:class:`HftNetwork` must pickle (store entries) without its cached
adjacency or graph.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

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
            assert repro.cli.main([*argv, "--jobs", "4"]) == 0, argv
        check(" ".join(argv))
    """
)


def test_hot_commands_never_import_networkx():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("REPRO_CACHE_DIR", None)
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr[-2000:]


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
