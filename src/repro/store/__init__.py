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

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.store.cachestore": ("CacheStore", "StoreEntry"),
        "repro.store.fingerprint": (
            "STORE_SCHEMA_VERSION",
            "store_fingerprint",
        ),
        "repro.store.layout": ("default_cache_dir",),
    },
)
