"""The on-disk lint cache: content-hash keyed, JSON, atomic.

Warm ``hftnetview lint`` reruns should not re-parse a 100-file tree that
did not change.  The cache stores, per file and keyed by the sha256 of its
bytes:

* the raw (pre-suppression) per-file findings under the active
  rule/config fingerprint,
* the parsed pragma table (so suppression replays without tokenizing),
* the flow :class:`~repro.lint.flow.summary.ModuleSummary` (so the
  program graph rebuilds without re-parsing),
* for dead-code reference files, the identifier set.

Plus one whole-tree entry: the program-stage findings keyed by a
fingerprint over every flow/reference file digest, so a fully-warm run
skips the graph build outright.

Invalidation is pure content hashing — no mtimes, no clocks — so the
cache file itself is deterministic and the warm path returns byte-for-
byte the findings the cold path would compute.  A missing, corrupt or
version-skewed cache file degrades to a cold run, never to an error.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro.lint.findings import Finding
from repro.lint.flow.summary import ModuleSummary

#: Bump when the cached shapes change; skewed files are discarded whole.
CACHE_VERSION = 4


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def config_fingerprint(rule_names: list[str], config) -> str:
    """A stable key over everything that can change findings."""
    payload = {
        "rules": sorted(rule_names),
        "options": config.rule_options,
        "flow_roots": list(config.flow_roots()),
        "version": CACHE_VERSION,
    }
    return digest_text(json.dumps(payload, sort_keys=True, default=str))


def _finding_to_list(finding: Finding) -> list:
    return [
        finding.path, finding.line, finding.column,
        finding.rule, finding.message,
    ]


def _finding_from_list(raw: list) -> Finding:
    return Finding(
        path=str(raw[0]),
        line=int(raw[1]),
        column=int(raw[2]),
        rule=str(raw[3]),
        message=str(raw[4]),
    )


class FlowCache:
    """Load-once / save-once view of the cache file (see module docstring)."""

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self._files: dict[str, dict] = {}
        self._program: dict = {}
        self._dirty = False
        self._load()

    # -- persistence ----------------------------------------------------

    def _load(self) -> None:
        try:
            raw = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if not isinstance(raw, dict) or raw.get("version") != CACHE_VERSION:
            return
        files = raw.get("files")
        program = raw.get("program")
        if isinstance(files, dict):
            self._files = files
        if isinstance(program, dict):
            self._program = program

    def save(self) -> None:
        """Atomically write the cache if anything changed."""
        if not self._dirty:
            return
        payload = {
            "version": CACHE_VERSION,
            "files": self._files,
            "program": self._program,
        }
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        tmp = self.path.with_name(self.path.name + ".tmp")
        try:
            tmp.write_text(text, encoding="utf-8")
            os.replace(tmp, self.path)
        except OSError:
            # A read-only tree is not a lint failure.
            try:
                tmp.unlink()
            except OSError:
                pass
        self._dirty = False

    def _entry(self, rel_path: str, digest: str) -> dict | None:
        entry = self._files.get(rel_path)
        if isinstance(entry, dict) and entry.get("digest") == digest:
            return entry
        return None

    def _fresh_entry(self, rel_path: str, digest: str) -> dict:
        entry = self._files.get(rel_path)
        if not isinstance(entry, dict) or entry.get("digest") != digest:
            entry = {"digest": digest}
            self._files[rel_path] = entry
        return entry

    # -- per-file findings + pragmas -------------------------------------

    def get_file_results(
        self, rel_path: str, digest: str, key: str
    ) -> tuple[list[Finding], dict[int, frozenset[str]]] | None:
        """Cached (raw findings, pragmas) or None on any mismatch."""
        entry = self._entry(rel_path, digest)
        if entry is None:
            return None
        findings = entry.get("findings", {}).get(key)
        pragmas = entry.get("pragmas")
        if findings is None or pragmas is None:
            return None
        try:
            return (
                [_finding_from_list(raw) for raw in findings],
                {
                    int(line): frozenset(rules)
                    for line, rules in pragmas.items()
                },
            )
        except (TypeError, ValueError, KeyError, IndexError):
            return None

    def put_file_results(
        self,
        rel_path: str,
        digest: str,
        key: str,
        findings: list[Finding],
        pragmas: dict[int, frozenset[str]],
    ) -> None:
        entry = self._fresh_entry(rel_path, digest)
        # One findings list per fingerprint would grow unboundedly as the
        # config evolves; keep only the active key.
        entry["findings"] = {
            key: [_finding_to_list(finding) for finding in findings]
        }
        entry["pragmas"] = {
            str(line): sorted(rules) for line, rules in pragmas.items()
        }
        self._dirty = True

    # -- flow summaries ---------------------------------------------------

    def get_summary(self, rel_path: str, digest: str) -> ModuleSummary | None:
        entry = self._entry(rel_path, digest)
        if entry is None or "summary" not in entry:
            return None
        try:
            return ModuleSummary.from_dict(entry["summary"])
        except (TypeError, ValueError, KeyError):
            return None

    def put_summary(
        self, rel_path: str, digest: str, summary: ModuleSummary
    ) -> None:
        entry = self._fresh_entry(rel_path, digest)
        entry["summary"] = summary.to_dict()
        self._dirty = True

    # -- dead-code reference identifiers ---------------------------------

    def get_identifiers(self, rel_path: str, digest: str) -> list[str] | None:
        entry = self._entry(rel_path, digest)
        if entry is None or "idents" not in entry:
            return None
        idents = entry["idents"]
        if isinstance(idents, list):
            return [str(name) for name in idents]
        return None

    def put_identifiers(
        self, rel_path: str, digest: str, names: list[str]
    ) -> None:
        entry = self._fresh_entry(rel_path, digest)
        entry["idents"] = sorted(set(names))
        self._dirty = True

    # -- whole-tree program findings --------------------------------------

    def get_program_findings(self, fingerprint: str) -> list[Finding] | None:
        if self._program.get("fingerprint") != fingerprint:
            return None
        findings = self._program.get("findings")
        if not isinstance(findings, list):
            return None
        try:
            return [_finding_from_list(raw) for raw in findings]
        except (TypeError, ValueError, IndexError):
            return None

    def put_program_findings(
        self, fingerprint: str, findings: list[Finding]
    ) -> None:
        self._program = {
            "fingerprint": fingerprint,
            "findings": [_finding_to_list(finding) for finding in findings],
        }
        self._dirty = True
