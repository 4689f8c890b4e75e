"""Content-addressed keys for the persistent cache store.

An on-disk entry is only reusable when *everything* that shaped the
cached values is unchanged.  The fingerprint therefore hashes:

- the database **content digest** (:meth:`repro.uls.database.UlsDatabase
  .content_digest`) — any license added/changed bumps the generation and
  changes the digest, invalidating every persisted entry for that
  database;
- the engine's **reconstruction parameters** (``params_key``) — entries
  under different stitch tolerances, fiber modes, latency models, etc.
  must never be confused;
- the **store schema version** — the on-disk payload envelope;
- the **code version** — a manual guard bumped whenever the pickled
  payload classes (`EngineCacheExport`, networks, routes, memo entries)
  change shape.

Fingerprints are plain sha256 hexdigests, used verbatim as entry file
names, so the store is content-addressed: concurrent writers publishing
the same fingerprint are by construction publishing equivalent payloads.
"""

from __future__ import annotations

import hashlib

#: On-disk payload envelope version.  Bump when the pickled dict layout
#: (not the cached values) changes; old entries become stale misses.
STORE_SCHEMA_VERSION = 1

#: Manual guard over the *pickled value* classes.  Bump whenever
#: ``EngineCacheExport`` or anything reachable from it (networks, routes,
#: geodesic solutions) changes in a way that would make an old
#: pickle wrong or unreadable.
CODE_VERSION = "2026.10"


def store_fingerprint(content_digest: str, params_key: tuple) -> str:
    """The entry key for one (database, params) combination."""
    hasher = hashlib.sha256()
    for part in (
        content_digest,
        repr(params_key),
        str(STORE_SCHEMA_VERSION),
        CODE_VERSION,
    ):
        hasher.update(part.encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()
