"""``repro.lint`` — the project's AST-based static-analysis subsystem.

Enforces, at review time, the invariants the reproduction's headline
numbers rest on.  Every rule reads one file's AST at a time:

* **determinism** — no ``hash()``-derived RNG seeds, no module-level
  ``random.*``, no wall-clock reads (rules ``hash-seed``, ``unseeded-rng``,
  ``wall-clock``);
* **cache discipline** — reconstruction goes through
  :class:`repro.core.engine.CorridorEngine`, never a privately constructed
  kernel (rule ``cache-discipline``);
* **float safety** — no ``==``/``!=`` against float literals in the
  numeric kernels (rule ``float-eq``);
* **API hygiene** — no mutable default arguments, no bare/broad excepts
  (rules ``mutable-default``, ``broad-except``);
* **unit safety** — no additive mixing of ``_m``/``_km`` or
  ``_s``/``_ms``/``_us`` identifiers (rule ``unit-suffix``);
* **timing discipline** — process timers only inside ``repro.obs``
  (rule ``obs-discipline``);
* **layering** — imports point down the tier table and module-body
  imports form no cycle (rule ``layering``).

Entry points: :func:`lint_paths` (library), ``hftnetview lint`` (CLI),
``scripts/check.sh`` (CI gate).  Suppression: inline
``# lint: disable=rule`` pragmas with a justification (see
:mod:`repro.lint.pragmas`).  Configuration: ``[tool.repro.lint]`` in
pyproject.toml (see :mod:`repro.lint.config`).
"""

from repro.lint.config import LintConfig, LintConfigError, load_config
from repro.lint.driver import (
    SYNTAX_RULE,
    LintResult,
    lint_file,
    lint_paths,
)
from repro.lint.findings import Finding
from repro.lint.registry import (
    FileContext,
    Rule,
    instantiate,
    register,
    registered_rules,
)
from repro.lint.reporters import JSON_SCHEMA_VERSION, render_json, render_text

__all__ = [
    "FileContext",
    "Finding",
    "JSON_SCHEMA_VERSION",
    "LintConfig",
    "LintConfigError",
    "LintResult",
    "Rule",
    "SYNTAX_RULE",
    "instantiate",
    "lint_file",
    "lint_paths",
    "load_config",
    "register",
    "registered_rules",
    "render_json",
    "render_text",
]
