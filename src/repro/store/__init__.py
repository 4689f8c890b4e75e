"""Persistent cache tier: disk-backed warm starts.

A :class:`CacheStore` persists three kinds of entry under
content-addressed fingerprints — engine cache exports
(``export_cache_state`` / ``seed_cache_state``), keyed by database
content digest and reconstruction params; built scenarios, keyed by
canonical scenario reference; and the scraper's parsed portal pages,
keyed by database content digest — each also keyed by the store schema
version and a digest of the ``repro`` sources.  So a cold CLI run or a
restarted ``repro.serve`` server boots from the previous run's warm
state instead of rebuilding it.

See DESIGN.md §14 for the store layout, key derivation, and
invalidation rules.
"""

from repro.store.cachestore import CacheStore, StoreEntry
from repro.store.fingerprint import STORE_SCHEMA_VERSION, store_fingerprint
from repro.store.layout import default_cache_dir

__all__ = [
    "CacheStore",
    "StoreEntry",
    "STORE_SCHEMA_VERSION",
    "store_fingerprint",
    "default_cache_dir",
]
