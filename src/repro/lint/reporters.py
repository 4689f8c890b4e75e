"""Finding reporters: the human text format and the stable JSON schema.

The JSON schema is versioned and covered by a schema-stability test —
downstream tooling (CI annotations, dashboards) may rely on the exact key
set, so widening it requires a version bump, and narrowing it is a breaking
change.
"""

from __future__ import annotations

import json

from repro.lint.driver import LintResult

#: Version of the JSON report schema (bump on any key change; version 2
#: dropped the ``baselined`` list and count with the baseline file).
JSON_SCHEMA_VERSION = 2


def render_text(result: LintResult) -> str:
    """The terminal report: one ``path:line:col: rule message`` per finding."""
    lines = [
        f"{finding.location()}: {finding.rule}: {finding.message}"
        for finding in result.findings
    ]
    lines.append(
        f"{len(result.findings)} finding(s) in {len(result.files)} file(s)"
        f" ({result.suppressed} pragma-suppressed)"
    )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """The machine report (schema v2, key set frozen by tests)."""
    document = {
        "version": JSON_SCHEMA_VERSION,
        "findings": [finding.as_dict() for finding in result.findings],
        "summary": {
            "files": len(result.files),
            "rules": list(result.rules),
            "findings": len(result.findings),
            "suppressed": result.suppressed,
            "ok": result.ok,
        },
    }
    return json.dumps(document, indent=2, sort_keys=True)
