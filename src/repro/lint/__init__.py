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
:mod:`repro.lint.pragmas`).  There is no configuration: the rules are
:data:`repro.lint.rules.RULES`, and a path-scoped rule keeps its scope as
a constant in its own module.
"""

from repro.lint.driver import (
    SYNTAX_RULE,
    LintResult,
    find_project_root,
    lint_file,
    lint_paths,
)
from repro.lint.findings import Finding
from repro.lint.registry import FileContext, Rule
from repro.lint.reporters import JSON_SCHEMA_VERSION, render_json, render_text
from repro.lint.rules import RULES

__all__ = [
    "FileContext",
    "Finding",
    "JSON_SCHEMA_VERSION",
    "LintResult",
    "RULES",
    "Rule",
    "SYNTAX_RULE",
    "find_project_root",
    "lint_file",
    "lint_paths",
    "render_json",
    "render_text",
]
