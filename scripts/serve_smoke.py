"""Serve smoke gate: boot a warm server, load it, diff it against the CLI.

Run from the repository root by ``scripts/check.sh``:

    PYTHONPATH=src python scripts/serve_smoke.py --requests 50 --clients 4

Three checks, in order:

1. A warm :class:`CorridorServer` on an ephemeral loopback port survives
   a seeded loadgen mix (every endpoint, concurrent clients) with zero
   errors.
2. The served ``/rankings`` and ``/apa`` bodies are byte-identical to
   ``python -m repro table1 --format json`` and ``table3 --format json``,
   each run in a fresh subprocess — the golden parity contract, checked
   on a live socket of an engine the load mix has warmed.  Then
   ``/rankings?date=A`` and ``?date=B``, two dates with the same active
   license sets: B must be a body-cache hit (the cached body with B's
   date spliced in) and byte-identical to ``table1 --format json
   --date B``.
3. A structured fault (``/rankings?date=zzz``) comes back as 400 JSON
   and the server still answers ``/healthz`` afterwards.

Exit status is non-zero (with a message on stderr) on any failure, so
the shell gate needs no output parsing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import urllib.error
import urllib.request


def fail(message: str) -> None:
    print(f"serve_smoke: {message}", file=sys.stderr)
    raise SystemExit(1)


#: Two ``paper2020`` dates five days apart on which no license is
#: granted or lapses, so the body cache serves the second from the first.
SHARED_DATES = ("2018-02-06", "2018-02-11")


def check_parity(served: bytes, endpoint: str, command: str, *extra: str) -> None:
    """Fail unless ``served`` is ``command --format json``'s stdout."""
    argv = [command, "--format", "json", *extra]
    cli = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    if cli.returncode != 0:
        fail(f"CLI {command} failed: {cli.stderr.decode()}")
    shown = " ".join(argv)
    if served != cli.stdout:
        fail(f"{endpoint} body differs from `{shown}` stdout")
    print(f"serve_smoke: {endpoint} == {shown} (byte parity)")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=50)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    from repro.serve import CorridorServer, LoadProfile, run_load

    profile = LoadProfile(
        requests=args.requests, clients=args.clients, seed=args.seed
    )
    with CorridorServer() as server:
        report = run_load(server.url, profile)
        if report.errors:
            fail(f"loadgen saw {report.errors} errors: {report.describe()}")
        print(f"serve_smoke: {report.describe()}")

        def get(path: str) -> bytes:
            with urllib.request.urlopen(server.url + path, timeout=60) as response:
                return response.read()

        def body_hits() -> int:
            return json.loads(get("/stats"))["body_cache"]["hits"]

        for endpoint, command in (("/rankings", "table1"), ("/apa", "table3")):
            check_parity(get(endpoint), endpoint, command)

        get(f"/rankings?date={SHARED_DATES[0]}")
        hits = body_hits()
        served = get(f"/rankings?date={SHARED_DATES[1]}")
        if body_hits() != hits + 1:
            fail(f"/rankings?date={SHARED_DATES[1]} was not a body-cache hit")
        check_parity(
            served,
            f"/rankings?date={SHARED_DATES[1]}",
            "table1",
            "--date",
            SHARED_DATES[1],
        )

        try:
            urllib.request.urlopen(server.url + "/rankings?date=zzz", timeout=60)
            fail("malformed date was not rejected")
        except urllib.error.HTTPError as error:
            if error.code != 400:
                fail(f"malformed date got {error.code}, wanted 400")
            body = json.loads(error.read().decode("utf-8"))
            if body.get("error", {}).get("code") != "bad-date":
                fail(f"unexpected fault payload: {body}")
        with urllib.request.urlopen(server.url + "/healthz", timeout=60) as response:
            if json.load(response).get("status") != "ok":
                fail("server unhealthy after structured fault")
        print("serve_smoke: structured 400 served, server still healthy")


if __name__ == "__main__":
    main()
