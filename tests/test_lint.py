"""The lint subsystem's infrastructure: driver, pragmas, reporters,
configuration — and the meta-test that the repository itself lints
clean."""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    JSON_SCHEMA_VERSION,
    LintConfig,
    SYNTAX_RULE,
    instantiate,
    lint_file,
    lint_paths,
    load_config,
    registered_rules,
    render_json,
    render_text,
)
from repro.lint.config import LintConfigError, find_project_root
from repro.lint.pragmas import parse_pragmas

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_module(tmp_path: Path, source: str, name: str = "mod.py") -> Path:
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def run_lint(tmp_path: Path, source: str, **config_kwargs):
    path = write_module(tmp_path, source)
    config = LintConfig(root=tmp_path, **config_kwargs)
    return lint_file(path, instantiate(), config)


# ----------------------------------------------------------------------
# Registry and driver
# ----------------------------------------------------------------------

class TestRegistry:
    def test_all_expected_rules_registered(self):
        names = set(registered_rules())
        assert {
            "hash-seed",
            "unseeded-rng",
            "wall-clock",
            "cache-discipline",
            "float-eq",
            "mutable-default",
            "broad-except",
            "unit-suffix",
        } <= names

    def test_every_rule_has_description_and_interests(self):
        for rule_cls in registered_rules().values():
            assert rule_cls.description
            assert rule_cls.interests

    def test_unknown_rule_name_raises(self):
        with pytest.raises(KeyError):
            instantiate(["no-such-rule"])


class TestDriver:
    def test_clean_file_has_no_findings(self, tmp_path):
        assert run_lint(tmp_path, "x = 1\n") == []

    def test_syntax_error_is_a_finding_not_a_crash(self, tmp_path):
        findings = run_lint(tmp_path, "def broken(:\n    pass\n")
        assert len(findings) == 1
        assert findings[0].rule == SYNTAX_RULE
        assert findings[0].line == 1

    def test_findings_are_root_relative_and_sorted(self, tmp_path):
        source = """
            import random
            a = random.random()
            b = random.random()
        """
        findings = run_lint(tmp_path, source)
        assert [f.rule for f in findings] == ["unseeded-rng", "unseeded-rng"]
        assert findings[0].path == "mod.py"
        assert findings[0].line < findings[1].line

    def test_missing_path_raises(self, tmp_path):
        config = LintConfig(root=tmp_path)
        with pytest.raises(FileNotFoundError):
            lint_paths([tmp_path / "nope"], config=config)

    def test_directory_expansion_dedupes(self, tmp_path):
        write_module(tmp_path, "x = 1\n", name="a.py")
        write_module(tmp_path, "y = 2\n", name="b.py")
        config = LintConfig(root=tmp_path)
        result = lint_paths([tmp_path, tmp_path / "a.py"], config=config)
        assert result.files == ["a.py", "b.py"]


# ----------------------------------------------------------------------
# Pragmas
# ----------------------------------------------------------------------

class TestPragmas:
    def test_same_line_pragma_suppresses(self, tmp_path):
        source = """
            import random
            a = random.random()  # lint: disable=unseeded-rng (test fixture)
        """
        assert run_lint(tmp_path, source) == []

    def test_comment_block_pragma_covers_next_code_line(self, tmp_path):
        source = """
            import random
            # lint: disable=unseeded-rng (justification spanning a block
            # of several comment lines before the offending statement)
            a = random.random()
        """
        assert run_lint(tmp_path, source) == []

    def test_pragma_only_suppresses_named_rule(self, tmp_path):
        source = """
            import random
            a = random.random()  # lint: disable=wall-clock (wrong rule)
        """
        findings = run_lint(tmp_path, source)
        assert [f.rule for f in findings] == ["unseeded-rng"]

    def test_disable_all(self, tmp_path):
        source = """
            import random
            a = random.random()  # lint: disable=all
        """
        assert run_lint(tmp_path, source) == []

    def test_pragma_in_string_literal_is_inert(self, tmp_path):
        source = '''
            import random
            note = "# lint: disable=unseeded-rng"
            a = random.random()
        '''
        findings = run_lint(tmp_path, source)
        assert [f.rule for f in findings] == ["unseeded-rng"]

    def test_multiple_rules_one_pragma(self):
        pragmas = parse_pragmas(
            "x = 1  # lint: disable=float-eq, unit-suffix extra words\n"
        )
        assert pragmas[1] == frozenset({"float-eq", "unit-suffix"})


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------

class TestReporters:
    def _result(self, tmp_path):
        path = write_module(
            tmp_path, "import random\na = random.random()\n"
        )
        config = LintConfig(root=tmp_path)
        return lint_paths([path], config=config)

    def test_text_report_has_location_and_summary(self, tmp_path):
        report = render_text(self._result(tmp_path))
        assert "mod.py:2:5: unseeded-rng:" in report
        assert report.endswith(
            "1 finding(s) in 1 file(s) (0 pragma-suppressed)"
        )

    def test_json_schema_is_stable(self, tmp_path):
        document = json.loads(render_json(self._result(tmp_path)))
        assert document["version"] == JSON_SCHEMA_VERSION == 2
        assert set(document) == {"version", "findings", "summary"}
        assert set(document["summary"]) == {
            "files", "rules", "findings", "suppressed", "ok",
        }
        (finding,) = document["findings"]
        assert set(finding) == {"path", "line", "column", "rule", "message"}
        assert finding["path"] == "mod.py"
        assert document["summary"]["ok"] is False


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------

class TestConfig:
    def test_defaults_without_pyproject(self, tmp_path):
        config = load_config(root=tmp_path)
        assert config.enabled is None
        assert config.default_paths == ("src/repro",)

    def test_pyproject_overrides(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            textwrap.dedent(
                """
                [tool.repro.lint]
                enable = ["float-eq"]
                default_paths = ["pkg"]

                [tool.repro.lint.float-eq]
                paths = ["pkg/numeric/"]
                """
            )
        )
        config = load_config(root=tmp_path)
        assert config.enabled == ("float-eq",)
        assert config.default_paths == ("pkg",)
        assert config.float_eq_paths() == ("pkg/numeric/",)

    def test_bad_enable_raises(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro.lint]\nenable = 'float-eq'\n"
        )
        with pytest.raises(LintConfigError):
            load_config(root=tmp_path)

    def test_unknown_scalar_key_raises(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro.lint]\nbasline = 'typo.json'\n"
        )
        with pytest.raises(LintConfigError):
            load_config(root=tmp_path)

    def test_misspelt_rule_section_raises(self, tmp_path):
        # `float_eq` for `float-eq` would leave float-eq on its default
        # paths without a word.
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro.lint.float_eq]\npaths = ['pkg/']\n"
        )
        with pytest.raises(LintConfigError, match="float_eq.*known rules: .*float-eq"):
            load_config(root=tmp_path)

    def test_unknown_enabled_rule_raises(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro.lint]\nenable = ['float-eq', 'float-eqq']\n"
        )
        with pytest.raises(LintConfigError, match=r"enable: \['float-eqq'\]"):
            load_config(root=tmp_path)

    def test_enabled_subset_only_runs_those_rules(self, tmp_path):
        source = """
            import random
            a = random.random()
            if 0.5 == a:
                pass
        """
        path = write_module(tmp_path, source)
        config = LintConfig(
            root=tmp_path,
            enabled=("float-eq",),
            rule_options={"float-eq": {"paths": ["mod.py"]}},
        )
        result = lint_paths([path], config=config)
        assert [f.rule for f in result.findings] == ["float-eq"]

    def test_find_project_root_walks_up(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        nested = tmp_path / "a" / "b"
        nested.mkdir(parents=True)
        assert find_project_root(nested) == tmp_path


# ----------------------------------------------------------------------
# The repository itself
# ----------------------------------------------------------------------

#: A tmp project with one violation of every registered rule: the
#: path-scoped rules (float-eq, layering) are configured onto ``pkg``.
VIOLATING_PROJECT = {
    "pyproject.toml": """
        [tool.repro.lint]
        default_paths = ["pkg"]

        [tool.repro.lint.float-eq]
        paths = ["pkg/"]

        [tool.repro.lint.layering]
        layers = [["pkg.low"], ["pkg.high"]]
        """,
    "pkg/__init__.py": "",
    "pkg/high.py": "from pkg import low\n",
    "pkg/low.py": """
        import random
        import time

        from pkg import high

        seed = random.Random(hash("name"))
        draw = random.random()
        now = time.time()
        tick = time.perf_counter()
        network = reconstruct_all(licenses)
        exact = draw == 0.5
        total = span_m + span_km


        def handler(items=[]):
            try:
                from pkg.high import late
            except Exception:
                return items
        """,
}


def write_project(root: Path, files: dict[str, str]) -> None:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")


def run_cli(cwd: Path, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )


class TestRepositoryLintsClean:
    def test_src_repro_lints_clean(self):
        """The acceptance meta-test: the shipped tree has zero findings."""
        config = load_config(root=REPO_ROOT)
        result = lint_paths(config=config)
        assert result.findings == [], render_text(result)

    def test_injected_violation_fails_cli(self, tmp_path):
        """One violation of every rule in a scratch project exits
        non-zero with a file:line finding per rule (via the real CLI)."""
        write_project(tmp_path, VIOLATING_PROJECT)
        process = run_cli(tmp_path)
        assert process.returncode == 1, process.stdout + process.stderr
        flagged = {
            line.split(": ")[1]
            for line in process.stdout.splitlines()
            if line.startswith("pkg/")
        }
        assert flagged == set(registered_rules())
        assert "pkg/low.py:7:" in process.stdout  # hash-seed
        assert "pkg/low.py:18:" in process.stdout  # function-local import
        assert "pkg/high.py:1:1: layering: import cycle" in process.stdout

    def test_cli_writes_no_file(self, tmp_path):
        write_project(tmp_path, VIOLATING_PROJECT)
        before = sorted(tmp_path.rglob("*"))
        assert run_cli(tmp_path).returncode == 1
        assert run_cli(tmp_path, "--format", "json").returncode == 1
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "pyproject",
        [
            "[tool.repro.lint]\nenable = ['float-eqq']\n",
            "[tool.repro.lint]\nenable = 'float-eq'\n",
            "[tool.repro.lint.float_eq]\npaths = ['pkg/']\n",
            "[tool.repro.lint\n",
        ],
    )
    def test_cli_config_error_is_one_line_exit_2(self, tmp_path, pyproject):
        write_project(tmp_path, {"pyproject.toml": pyproject, "pkg/mod.py": "x = 1\n"})
        process = run_cli(tmp_path, "pkg")
        assert process.returncode == 2
        assert "Traceback" not in process.stderr
        (line,) = process.stderr.splitlines()
        assert line.startswith("lint: config error: ")
        assert process.stdout == ""

    def test_cli_lints_clean_tree_exit_zero(self):
        process = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "src/repro/lint"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert process.returncode == 0, process.stdout + process.stderr

    def test_cli_json_format(self):
        process = subprocess.run(
            [
                sys.executable, "-m", "repro", "lint", "--format", "json",
                "src/repro/lint",
            ],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert process.returncode == 0
        document = json.loads(process.stdout)
        assert document["version"] == JSON_SCHEMA_VERSION
