"""Whole-program flow analysis: graph building, effect propagation, the
four program rules, the findings cache, and the ``lint graph`` CLI.

Fixture trees are written under ``tmp_path`` with their own flow roots and
rule options, so every assertion is hermetic; the determinism tests run
the CLI against *this* repository in subprocesses with different
``PYTHONHASHSEED`` values and demand byte-identical output.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.lint import LintConfig, lint_paths
from repro.lint.flow.cache import FlowCache
from repro.lint.flow.program import build_program_analysis, module_name_for
from repro.lint.flow.report import render_graph_json, render_why
from repro.lint.flow.summary import summarize_source

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_tree(tmp_path: Path, files: dict[str, str]) -> None:
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")


def flow_config(tmp_path: Path, **rule_options) -> LintConfig:
    options = {"flow": {"roots": ["src/pkg"]}}
    options.update(rule_options)
    return LintConfig(root=tmp_path, rule_options=options)


def analysis_for(tmp_path: Path, files: dict[str, str], **rule_options):
    write_tree(tmp_path, files)
    return build_program_analysis(flow_config(tmp_path, **rule_options))


def summarize(source: str, module: str = "pkg.mod"):
    tree = ast.parse(textwrap.dedent(source))
    return summarize_source("src/pkg/mod.py", module, tree)


class TestModuleSummary:
    def test_direct_effects_extracted(self):
        summary = summarize(
            """
            import random
            import time

            _CACHE = {}

            def leaf(out):
                global _CACHE
                _CACHE = {}
                out.append(1)
                random.random()
                time.time()
                open("x")
            """
        )
        leaf = next(fn for fn in summary.functions if fn.qual == "leaf")
        kinds = {(kind, detail) for kind, detail, _line in leaf.effects}
        assert ("global-write", "pkg.mod._CACHE") in kinds
        assert ("arg-mutate", "out") in kinds
        assert ("rng", "random.random") in kinds
        assert ("clock", "time.time") in kinds
        assert ("io", "open") in kinds

    def test_cross_module_alias_write(self):
        summary = summarize(
            """
            from pkg import settings as cfg

            def flip():
                cfg.MODE = "fast"
            """
        )
        flip = next(fn for fn in summary.functions if fn.qual == "flip")
        assert ["global-write", "pkg.settings.MODE", 5] in flip.effects

    def test_function_local_import_alias_write(self):
        summary = summarize(
            """
            def flip():
                from pkg import settings as cfg

                cfg.MODE = "fast"
            """
        )
        flip = next(fn for fn in summary.functions if fn.qual == "flip")
        assert any(
            kind == "global-write" and detail == "pkg.settings.MODE"
            for kind, detail, _line in flip.effects
        )

    def test_json_round_trip(self):
        summary = summarize(
            """
            from pkg.util import helper

            class Box:
                def get(self, key="k"):
                    return helper(self.data[key])

            def top():
                box = Box()
                return box.get()
            """
        )
        from repro.lint.flow.summary import ModuleSummary

        clone = ModuleSummary.from_dict(
            json.loads(json.dumps(summary.to_dict()))
        )
        assert clone.to_dict() == summary.to_dict()

    def test_module_name_for(self):
        assert (
            module_name_for("src/pkg", "src/pkg/sub/mod.py") == "pkg.sub.mod"
        )
        assert module_name_for("src/pkg", "src/pkg/__init__.py") == "pkg"
        assert module_name_for("src/pkg", "src/other/mod.py") is None


CYCLIC_PKG = {
    "src/pkg/__init__.py": "",
    "src/pkg/a.py": """
        from pkg.b import pong

        def ping(n):
            if n:
                return pong(n - 1)
            return 0

        def _dead_helper():
            return 1
        """,
    "src/pkg/b.py": """
        def pong(n):
            from pkg.a import ping

            return ping(n)
        """,
}


class TestProgramGraph:
    def test_mutual_recursion_is_one_component(self, tmp_path):
        analysis = analysis_for(tmp_path, CYCLIC_PKG)
        components = analysis.graph.strongly_connected_components()
        cyclic = [c for c in components if len(c) > 1]
        assert cyclic == [("pkg.a.ping", "pkg.b.pong")]

    def test_reachability_and_chain(self, tmp_path):
        analysis = analysis_for(tmp_path, CYCLIC_PKG)
        reach = analysis.graph.reachable(["pkg.a.ping"])
        assert "pkg.b.pong" in reach
        chain = analysis.graph.shortest_chain(["pkg.a.ping"], "pkg.b.pong")
        assert chain == ["pkg.a.ping", "pkg.b.pong"]

    def test_reexport_through_package_init(self, tmp_path):
        analysis = analysis_for(
            tmp_path,
            {
                "src/pkg/__init__.py": "from pkg.impl import work\n",
                "src/pkg/impl.py": """
                    def work():
                        return 1
                    """,
                "src/pkg/user.py": """
                    from pkg import work

                    def run():
                        return work()
                    """,
            },
        )
        assert "pkg.impl.work" in analysis.graph.call_edges["pkg.user.run"]

    def test_lazy_reexport_resolves_without_an_import_edge(self, tmp_path):
        analysis = analysis_for(
            tmp_path,
            {
                "src/pkg/__init__.py": """
                    def _lazy_exports(package, exports):
                        return None, None, []

                    __getattr__, __dir__, __all__ = _lazy_exports(
                        __name__, {"pkg.impl": ("work",)}
                    )
                    """,
                "src/pkg/impl.py": """
                    from pkg import _lazy_exports

                    def work():
                        return 1
                    """,
                "src/pkg/user.py": """
                    from pkg import work

                    def run():
                        return work()
                    """,
            },
        )
        assert "pkg.impl.work" in analysis.graph.call_edges["pkg.user.run"]
        # Resolved on first attribute access, not at import: no edge from
        # the package to its submodule, so no cycle through the helper.
        assert analysis.graph.module_imports["pkg"] == ()
        assert analysis.graph.import_cycles() == []

    def test_annotated_receiver_resolves_to_class(self, tmp_path):
        analysis = analysis_for(
            tmp_path,
            {
                "src/pkg/__init__.py": "",
                "src/pkg/store.py": """
                    class Store:
                        def flush(self):
                            return 1
                    """,
                "src/pkg/user.py": """
                    from pkg.store import Store

                    def run(store: Store):
                        return store.flush()
                    """,
            },
        )
        assert analysis.graph.call_edges["pkg.user.run"] == (
            "pkg.store.Store.flush",
        )

    def test_unannotated_receiver_falls_back_to_every_method(self, tmp_path):
        analysis = analysis_for(
            tmp_path,
            {
                "src/pkg/__init__.py": "",
                "src/pkg/one.py": """
                    class A:
                        def flush(self):
                            return 1
                    """,
                "src/pkg/two.py": """
                    class B:
                        def flush(self):
                            return 2
                    """,
                "src/pkg/user.py": """
                    def run(thing):
                        return thing.flush()
                    """,
            },
        )
        assert analysis.graph.call_edges["pkg.user.run"] == (
            "pkg.one.A.flush",
            "pkg.two.B.flush",
        )

    def test_import_cycle_detected(self, tmp_path):
        analysis = analysis_for(
            tmp_path,
            {
                "src/pkg/__init__.py": "",
                "src/pkg/x.py": "from pkg import y\n",
                "src/pkg/y.py": "from pkg import x\n",
            },
        )
        assert analysis.graph.import_cycles() == [("pkg.x", "pkg.y")]


class TestEffectPropagation:
    def test_effects_reach_the_boundary_through_a_chain(self, tmp_path):
        analysis = analysis_for(
            tmp_path,
            {
                "src/pkg/__init__.py": "",
                "src/pkg/mod.py": """
                    import time

                    def api():
                        return _middle()

                    def _middle():
                        return _leaf()

                    def _leaf():
                        return time.time()
                    """,
            },
        )
        summary = analysis.effects["pkg.mod.api"]
        assert summary.direct == ()
        assert summary.origins("clock") == (
            ("pkg.mod._leaf", "time.time", 11),
        )

    def test_cycle_members_share_effects(self, tmp_path):
        analysis = analysis_for(
            tmp_path,
            {
                "src/pkg/__init__.py": "",
                "src/pkg/mod.py": """
                    import random

                    def even(n):
                        return n == 0 or odd(n - 1)

                    def odd(n):
                        random.random()
                        return n != 0 and even(n - 1)
                    """,
            },
        )
        for fqn in ("pkg.mod.even", "pkg.mod.odd"):
            assert "rng" in analysis.effects[fqn].transitive

    def test_callback_reference_propagates_effects(self, tmp_path):
        analysis = analysis_for(
            tmp_path,
            {
                "src/pkg/__init__.py": "",
                "src/pkg/mod.py": """
                    def run(items):
                        return map(_mutate, items)

                    def _mutate(acc):
                        acc.append(1)
                    """,
            },
        )
        assert "arg-mutate" in analysis.effects["pkg.mod.run"].transitive


def run_flow_lint(
    tmp_path: Path,
    files: dict[str, str],
    *,
    enabled: tuple[str, ...],
    cache: FlowCache | None = None,
    **rule_options,
):
    write_tree(tmp_path, files)
    config = LintConfig(
        root=tmp_path,
        enabled=enabled,
        rule_options={"flow": {"roots": ["src/pkg"]}, **rule_options},
    )
    return lint_paths(
        [tmp_path / "src/pkg"],
        config=config,
        use_baseline=False,
        cache=cache,
    )


SHARED_STATE_PKG = {
    "src/pkg/__init__.py": "",
    "src/pkg/state.py": """
        COUNTER = 0

        def bump():
            global COUNTER
            COUNTER += 1
        """,
    "src/pkg/worker.py": """
        from pkg.state import bump

        def _task(chunk):
            bump()
            return chunk
        """,
}


class TestSharedStateRule:
    OPTIONS = {"shared-state": {"roots": ["pkg.worker._task"], "allowed": []}}

    def test_worker_reachable_global_write_flagged(self, tmp_path):
        result = run_flow_lint(
            tmp_path,
            SHARED_STATE_PKG,
            enabled=("shared-state",),
            **self.OPTIONS,
        )
        assert [f.rule for f in result.findings] == ["shared-state"]
        finding = result.findings[0]
        assert finding.path == "src/pkg/state.py"
        assert "pkg.state.COUNTER" in finding.message
        assert "pkg.worker._task" in finding.message

    def test_allowlisted_global_ok(self, tmp_path):
        result = run_flow_lint(
            tmp_path,
            SHARED_STATE_PKG,
            enabled=("shared-state",),
            **{
                "shared-state": {
                    "roots": ["pkg.worker._task"],
                    "allowed": ["pkg.state.COUNTER"],
                }
            },
        )
        assert result.findings == []

    def test_unreachable_global_write_ok(self, tmp_path):
        files = dict(SHARED_STATE_PKG)
        files["src/pkg/worker.py"] = """
            def _task(chunk):
                return chunk
            """
        result = run_flow_lint(
            tmp_path, files, enabled=("shared-state",), **self.OPTIONS
        )
        assert result.findings == []

    def test_pragma_suppresses_program_finding(self, tmp_path):
        files = dict(SHARED_STATE_PKG)
        files["src/pkg/state.py"] = """
            COUNTER = 0

            def bump():
                global COUNTER
                COUNTER += 1  # lint: disable=shared-state (test fixture)
            """
        result = run_flow_lint(
            tmp_path, files, enabled=("shared-state",), **self.OPTIONS
        )
        assert result.findings == []
        assert result.suppressed == 1


class TestTransitiveDeterminismRule:
    FILES = {
        "src/pkg/__init__.py": "",
        "src/pkg/mod.py": """
            import time

            def api():
                return _leaf()

            def _leaf():
                return time.time()
            """,
    }

    def test_flagged_at_public_boundary_not_leaf(self, tmp_path):
        result = run_flow_lint(
            tmp_path, self.FILES, enabled=("transitive-determinism",)
        )
        assert [f.rule for f in result.findings] == ["transitive-determinism"]
        finding = result.findings[0]
        assert "api" in finding.message
        assert "pkg.mod._leaf" in finding.message
        # The finding sits on the public def, not on the leaf call.
        assert finding.line == 4

    def test_direct_leaf_not_double_flagged(self, tmp_path):
        files = {
            "src/pkg/__init__.py": "",
            "src/pkg/mod.py": """
                import time

                def api():
                    return time.time()
                """,
        }
        result = run_flow_lint(
            tmp_path, files, enabled=("transitive-determinism",)
        )
        # The per-file wall-clock rule owns direct reads.
        assert result.findings == []

    def test_minimal_public_boundary_owns_the_finding(self, tmp_path):
        files = {
            "src/pkg/__init__.py": "",
            "src/pkg/mod.py": """
                import random

                def outer():
                    return inner()

                def inner():
                    return _leaf()

                def _leaf():
                    return random.random()
                """,
        }
        result = run_flow_lint(
            tmp_path, files, enabled=("transitive-determinism",)
        )
        assert [(f.rule, f.line) for f in result.findings] == [
            ("transitive-determinism", 7)
        ]


class TestLayeringRule:
    def test_upward_import_flagged(self, tmp_path):
        result = run_flow_lint(
            tmp_path,
            {
                "src/pkg/__init__.py": "",
                "src/pkg/low.py": "from pkg import high\n",
                "src/pkg/high.py": "",
            },
            enabled=("layering",),
            **{"layering": {"layers": [["pkg.low"], ["pkg.high"]]}},
        )
        assert [f.rule for f in result.findings] == ["layering"]
        assert result.findings[0].path == "src/pkg/low.py"
        assert "pkg.high" in result.findings[0].message

    def test_downward_import_ok(self, tmp_path):
        result = run_flow_lint(
            tmp_path,
            {
                "src/pkg/__init__.py": "",
                "src/pkg/low.py": "",
                "src/pkg/high.py": "from pkg import low\n",
            },
            enabled=("layering",),
            **{"layering": {"layers": [["pkg.low"], ["pkg.high"]]}},
        )
        assert result.findings == []

    def test_import_cycle_flagged_even_within_a_tier(self, tmp_path):
        result = run_flow_lint(
            tmp_path,
            {
                "src/pkg/__init__.py": "",
                "src/pkg/x.py": "from pkg import y\n",
                "src/pkg/y.py": "from pkg import x\n",
            },
            enabled=("layering",),
            **{"layering": {"layers": [["pkg"]]}},
        )
        assert [f.rule for f in result.findings] == ["layering"]
        assert "import cycle" in result.findings[0].message


class TestServeTierFixtures:
    """The serve tier (PR 8): above the analysis tiers, below the CLI."""

    LAYERS = {
        "layering": {
            "layers": [["pkg.analysis"], ["pkg.serve"], ["pkg.cli"]]
        }
    }

    def test_serve_importing_cli_flagged(self, tmp_path):
        result = run_flow_lint(
            tmp_path,
            {
                "src/pkg/__init__.py": "",
                "src/pkg/analysis.py": "",
                "src/pkg/serve.py": "from pkg import cli\n",
                "src/pkg/cli.py": "",
            },
            enabled=("layering",),
            **self.LAYERS,
        )
        assert [f.rule for f in result.findings] == ["layering"]
        assert result.findings[0].path == "src/pkg/serve.py"
        assert "pkg.cli" in result.findings[0].message

    def test_cli_embeds_serve_and_serve_uses_analysis(self, tmp_path):
        result = run_flow_lint(
            tmp_path,
            {
                "src/pkg/__init__.py": "",
                "src/pkg/analysis.py": "",
                "src/pkg/serve.py": "from pkg import analysis\n",
                "src/pkg/cli.py": "from pkg import serve\n",
            },
            enabled=("layering",),
            **self.LAYERS,
        )
        assert result.findings == []

    SERVER_STATE_PKG = {
        "src/pkg/__init__.py": "",
        "src/pkg/server.py": """
            _ACTIVE_SERVER = None

            def run_server():
                global _ACTIVE_SERVER
                _ACTIVE_SERVER = object()
            """,
        "src/pkg/cli.py": """
            from pkg.server import run_server

            def _cmd_serve():
                run_server()
            """,
    }

    def test_server_session_global_needs_allowlisting(self, tmp_path):
        result = run_flow_lint(
            tmp_path,
            self.SERVER_STATE_PKG,
            enabled=("shared-state",),
            **{"shared-state": {"roots": ["pkg.cli._cmd_*"], "allowed": []}},
        )
        assert [f.rule for f in result.findings] == ["shared-state"]
        assert "pkg.server._ACTIVE_SERVER" in result.findings[0].message
        assert "pkg.cli._cmd_serve" in result.findings[0].message

    def test_allowlisted_server_session_global_ok(self, tmp_path):
        result = run_flow_lint(
            tmp_path,
            self.SERVER_STATE_PKG,
            enabled=("shared-state",),
            **{
                "shared-state": {
                    "roots": ["pkg.cli._cmd_*"],
                    "allowed": ["pkg.server._ACTIVE_SERVER"],
                }
            },
        )
        assert result.findings == []

    def test_repo_config_wires_the_serve_tier(self):
        from repro.lint.config import (
            DEFAULT_LAYERS,
            DEFAULT_SHARED_STATE_ALLOWED,
            load_config,
        )

        tiers = list(DEFAULT_LAYERS)
        serve_index = tiers.index(("repro.serve",))
        cli_index = next(
            index for index, tier in enumerate(tiers) if "repro.cli" in tier
        )
        assert serve_index == cli_index - 1
        assert "repro.serve.server._ACTIVE_SERVER" in DEFAULT_SHARED_STATE_ALLOWED

        # pyproject.toml mirrors the defaults, entry for entry.
        config = load_config(root=REPO_ROOT)
        assert ("repro.serve",) in tuple(config.layering_layers())
        assert (
            "repro.serve.server._ACTIVE_SERVER" in config.shared_state_allowed()
        )
        assert "src/repro/serve/loadgen.py" in config.obs_allowed_paths()

    def test_repo_config_wires_the_scenarios_tier(self):
        """The scenario registry is tiered between synth and metrics.

        ``repro.scenarios`` imports the synth builders and is imported by
        analysis/serve/cli, so it must sit strictly above the synth tier
        and strictly below analysis — in both the baked-in defaults and
        the pyproject mirror (they must stay in lockstep).
        """
        from repro.lint.config import (
            DEFAULT_LAYERS,
            DEFAULT_SHARED_STATE_ALLOWED,
            load_config,
        )

        tiers = list(DEFAULT_LAYERS)
        scenarios_index = tiers.index(("repro.scenarios",))
        synth_index = next(
            index for index, tier in enumerate(tiers) if "repro.synth" in tier
        )
        analysis_index = next(
            index for index, tier in enumerate(tiers) if "repro.analysis" in tier
        )
        assert synth_index < scenarios_index < analysis_index
        assert (
            "repro.scenarios.registry._REGISTRY" in DEFAULT_SHARED_STATE_ALLOWED
        )

        config = load_config(root=REPO_ROOT)
        assert tuple(config.layering_layers()) == tuple(DEFAULT_LAYERS)
        assert tuple(config.shared_state_allowed()) == tuple(
            DEFAULT_SHARED_STATE_ALLOWED
        )

    def test_registry_style_upward_import_flagged(self, tmp_path):
        """A registry-shaped mid-tier module importing upward is caught."""
        files = {
            "src/pkg/__init__.py": "",
            "src/pkg/synth.py": "def build():\n    return 1\n",
            "src/pkg/scenarios.py": """
                from pkg.analysis import drive

                def resolve():
                    return drive()
                """,
            "src/pkg/analysis.py": """
                def drive():
                    return 2
                """,
        }
        result = run_flow_lint(
            tmp_path,
            files,
            enabled=("layering",),
            **{
                "layering": {
                    "layers": [
                        ["pkg.synth"],
                        ["pkg.scenarios"],
                        ["pkg.analysis"],
                    ]
                }
            },
        )
        assert [f.rule for f in result.findings] == ["layering"]
        assert "pkg.analysis" in result.findings[0].message


class TestDeadCodeRule:
    def test_unreachable_private_function_flagged(self, tmp_path):
        result = run_flow_lint(
            tmp_path, CYCLIC_PKG, enabled=("dead-code",)
        )
        assert [f.rule for f in result.findings] == ["dead-code"]
        assert "_dead_helper" in result.findings[0].message

    def test_test_reference_keeps_private_function_alive(self, tmp_path):
        files = dict(CYCLIC_PKG)
        files["tests/test_a.py"] = """
            from pkg.a import _dead_helper

            def test_helper():
                assert _dead_helper() == 1
            """
        result = run_flow_lint(
            tmp_path,
            files,
            enabled=("dead-code",),
            **{"dead-code": {"references": ["tests"]}},
        )
        assert result.findings == []

    def test_getattr_string_keeps_method_alive(self, tmp_path):
        result = run_flow_lint(
            tmp_path,
            {
                "src/pkg/__init__.py": "",
                "src/pkg/mod.py": """
                    class Handler:
                        def _on_start(self):
                            return 1

                    def dispatch(handler, event):
                        return getattr(handler, "_on_" + event, None)

                    def boot(handler):
                        return dispatch(handler, "_on_start")
                    """,
            },
            enabled=("dead-code",),
            **{"dead-code": {"references": []}},
        )
        assert result.findings == []

    def test_decorated_private_function_is_a_root(self, tmp_path):
        result = run_flow_lint(
            tmp_path,
            {
                "src/pkg/__init__.py": "",
                "src/pkg/mod.py": """
                    def register(fn):
                        return fn

                    @register
                    def _plugin():
                        return 1
                    """,
            },
            enabled=("dead-code",),
            **{"dead-code": {"references": []}},
        )
        assert result.findings == []


class TestFlowCache:
    ENABLED = ("shared-state", "dead-code", "wall-clock")
    OPTIONS = {
        "shared-state": {"roots": ["pkg.worker._task"], "allowed": []},
        "dead-code": {"references": []},
    }

    def test_warm_run_equals_cold_run(self, tmp_path):
        cache = FlowCache(tmp_path / ".lint-cache.json")
        cold = run_flow_lint(
            tmp_path,
            SHARED_STATE_PKG,
            enabled=self.ENABLED,
            cache=cache,
            **self.OPTIONS,
        )
        assert (tmp_path / ".lint-cache.json").is_file()
        warm = run_flow_lint(
            tmp_path,
            SHARED_STATE_PKG,
            enabled=self.ENABLED,
            cache=FlowCache(tmp_path / ".lint-cache.json"),
            **self.OPTIONS,
        )
        assert warm.findings == cold.findings
        assert warm.suppressed == cold.suppressed
        assert warm.files == cold.files

    def test_content_change_invalidates(self, tmp_path):
        cache_path = tmp_path / ".lint-cache.json"
        run_flow_lint(
            tmp_path,
            SHARED_STATE_PKG,
            enabled=self.ENABLED,
            cache=FlowCache(cache_path),
            **self.OPTIONS,
        )
        files = dict(SHARED_STATE_PKG)
        files["src/pkg/worker.py"] = """
            import time
            from pkg.state import bump

            def _task(chunk):
                bump()
                return time.time()
            """
        result = run_flow_lint(
            tmp_path,
            files,
            enabled=self.ENABLED,
            cache=FlowCache(cache_path),
            **self.OPTIONS,
        )
        assert sorted({f.rule for f in result.findings}) == [
            "shared-state",
            "wall-clock",
        ]

    def test_config_change_invalidates(self, tmp_path):
        cache_path = tmp_path / ".lint-cache.json"
        run_flow_lint(
            tmp_path,
            SHARED_STATE_PKG,
            enabled=self.ENABLED,
            cache=FlowCache(cache_path),
            **self.OPTIONS,
        )
        result = run_flow_lint(
            tmp_path,
            SHARED_STATE_PKG,
            enabled=self.ENABLED,
            cache=FlowCache(cache_path),
            **{
                "shared-state": {
                    "roots": ["pkg.worker._task"],
                    "allowed": ["pkg.state.COUNTER"],
                },
                "dead-code": {"references": []},
            },
        )
        assert [f.rule for f in result.findings] == []

    def test_corrupt_cache_degrades_to_cold(self, tmp_path):
        cache_path = tmp_path / ".lint-cache.json"
        cache_path.write_text("{not json", encoding="utf-8")
        result = run_flow_lint(
            tmp_path,
            SHARED_STATE_PKG,
            enabled=self.ENABLED,
            cache=FlowCache(cache_path),
            **self.OPTIONS,
        )
        assert [f.rule for f in result.findings] == ["shared-state"]


def _run_cli(args: list[str], *, hashseed: str) -> str:
    env = {
        "PYTHONPATH": str(REPO_ROOT / "src"),
        "PATH": "/usr/bin:/bin",
        "PYTHONHASHSEED": hashseed,
    }
    completed = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


class TestGraphCli:
    def test_graph_json_byte_identical_across_hash_seeds(self):
        args = ["lint", "graph", "--format", "json", "--effects", "--no-cache"]
        first = _run_cli(args, hashseed="1")
        second = _run_cli(args, hashseed="4242")
        assert first == second
        document = json.loads(first)
        assert document["schema"] == 1
        assert document["counts"]["modules"] > 50
        assert document["import_cycles"] == []

    def test_check_cycles_passes_on_this_repo(self):
        _run_cli(
            ["lint", "graph", "--check-cycles", "--no-cache"], hashseed="0"
        )

    def test_why_renders_an_entry_chain(self, tmp_path):
        analysis = analysis_for(
            tmp_path,
            SHARED_STATE_PKG,
            **{"shared-state": {"roots": ["pkg.worker._task"], "allowed": []}},
        )
        text = render_why(analysis, "pkg.state.bump")
        assert "pkg.worker._task -> pkg.state.bump" in text
        assert "global-write: pkg.state.COUNTER" in text

    def test_why_unknown_function_suggests(self, tmp_path):
        analysis = analysis_for(tmp_path, SHARED_STATE_PKG)
        text = render_why(analysis, "no.such.function")
        assert "unknown function" in text

    def test_render_json_stable_under_dict_order(self, tmp_path):
        analysis = analysis_for(tmp_path, CYCLIC_PKG)
        assert render_graph_json(analysis) == render_graph_json(analysis)
