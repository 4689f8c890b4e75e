"""Content-addressed keys for the persistent cache store.

An on-disk entry is only reusable when *everything* that shaped the
stored value is unchanged.  Every fingerprint therefore hashes:

- the entry **kind** (``"engine"``, ``"scenario"`` or ``"scrape"``),
  so no two kinds can alias;
- what the value was computed *from*: for an engine entry, the database
  **content digest** (:meth:`repro.uls.database.UlsDatabase
  .content_digest` — any license added/changed bumps the generation and
  changes the digest) plus the engine's **reconstruction parameters**
  (``params_key``); for a scenario entry, the canonical scenario
  reference; for a scrape entry, the content digest of the database
  the portal renders its pages from;
- the **store schema version** — the on-disk payload envelope;
- the **source digest** (:func:`source_digest`) — a hash of every
  ``repro`` source file, so editing the code that builds or pickles a
  value (a synth constant, a network class) orphans every entry it
  could have shaped.  No manual version bump can go stale.

Fingerprints are plain sha256 hexdigests, used verbatim as entry file
names, so the store is content-addressed: concurrent writers publishing
the same fingerprint are by construction publishing equivalent payloads.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from pathlib import Path

#: On-disk payload version.  Bump when the pickled envelope or an entry
#: body's layout (not the cached values) changes: entries then live under
#: a new ``v<schema>`` directory, and the old directory is never read.
#: Version 2 added the engine entry's APA values.
STORE_SCHEMA_VERSION = 2

#: The ``repro`` package directory whose sources key every entry.
_PACKAGE_ROOT = Path(__file__).resolve().parent.parent


@lru_cache(maxsize=1)
def source_digest() -> str:
    """A sha256 over the path and bytes of every ``repro`` source file.

    Computed once per process (~5 ms for the whole package).  Files are
    visited in sorted relative-path order, so the digest depends only on
    the tree's contents.
    """
    hasher = hashlib.sha256()
    for path in sorted(_PACKAGE_ROOT.rglob("*.py")):
        hasher.update(path.relative_to(_PACKAGE_ROOT).as_posix().encode("utf-8"))
        hasher.update(b"\x00")
        hasher.update(path.read_bytes())
        hasher.update(b"\x00")
    return hasher.hexdigest()


def _fingerprint(*parts: str) -> str:
    hasher = hashlib.sha256()
    for part in (*parts, str(STORE_SCHEMA_VERSION), source_digest()):
        hasher.update(part.encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


def store_fingerprint(content_digest: str, params_key: tuple) -> str:
    """The engine-entry key for one (database, params) combination."""
    return _fingerprint("engine", content_digest, repr(params_key))


def scenario_fingerprint(canonical_ref: str) -> str:
    """The scenario-entry key for one canonical scenario reference."""
    return _fingerprint("scenario", canonical_ref)


def scrape_fingerprint(content_digest: str) -> str:
    """The scrape-entry key for the portal pages of one database."""
    return _fingerprint("scrape", content_digest)
