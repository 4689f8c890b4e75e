"""Regenerate the benchmark's output goldens from the current tree.

    python benchmarks/e2e/goldens.py

Writes ``golden/cli/*.txt``, the stdout of each fixed CLI command, and
``golden/serve.json``, the sha256 of the body each pinned URL returns:
the first 20 ``serve-miss`` URLs of a key stream whose seed no workload
uses.  Run it only when an output change is intended, and review the
diff.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from workloads import CLI_GOLDEN, COMMANDS, GOLDEN, KeyStream, Server, fetch, run_repro

MISS_GOLDEN_SEED = 20200401
MISS_GOLDEN_COUNT = 20


def main() -> int:
    commands = dict(COMMANDS)
    (GOLDEN / "cli").mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=GOLDEN.parent) as scratch:
        out = Path(scratch)
        for name, file in CLI_GOLDEN.items():
            if name == "timeline_jobs2":
                continue  # shares the --jobs 1 golden
            child = run_repro(list(commands[name]), out)
            if child.returncode != 0:
                print(f"{name} failed: {child.stderr_tail()}", file=sys.stderr)
                return 1
            (GOLDEN / "cli" / file).write_bytes(child.stdout)
        keys = KeyStream(MISS_GOLDEN_SEED)
        server = Server(out)
        try:
            digests = {}
            for url in (keys[i] for i in range(MISS_GOLDEN_COUNT)):
                status, body = fetch(server.address, url)
                if status != 200:
                    print(f"{url} answered {status}", file=sys.stderr)
                    return 1
                digests[url] = hashlib.sha256(body).hexdigest()
        finally:
            server.stop()
    (GOLDEN / "serve.json").write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
