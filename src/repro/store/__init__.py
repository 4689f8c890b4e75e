"""Persistent cache tier: disk-backed warm starts for corridor engines.

An engine's cache contents travel as an ``EngineCacheExport``
(``export_cache_state`` / ``seed_cache_state``).  A :class:`CacheStore`
persists those exports under content-addressed fingerprints —
(database content digest, reconstruction params, kernel, schema
version, code version) — so a cold CLI run or a restarted
``repro.serve`` server boots from the previous run's warm state instead
of rebuilding it.

See DESIGN.md §14 for the store layout, key derivation, and
invalidation rules.
"""

from repro.store.cachestore import CacheStore, StoreEntry
from repro.store.fingerprint import (
    CODE_VERSION,
    STORE_SCHEMA_VERSION,
    store_fingerprint,
)
from repro.store.layout import default_cache_dir

__all__ = [
    "CacheStore",
    "StoreEntry",
    "CODE_VERSION",
    "STORE_SCHEMA_VERSION",
    "store_fingerprint",
    "default_cache_dir",
]
