"""FCC Universal Licensing System (ULS) substrate.

The paper reconstructs HFT networks from FCC microwave license filings
retrieved through the ULS web portal.  This subpackage provides an
in-process equivalent:

* :mod:`repro.uls.records` — the license data model (licenses, tower
  locations, microwave paths, frequencies, life-cycle dates);
* :mod:`repro.uls.database` — an indexed in-memory license store;
* :mod:`repro.uls.index` — the temporal event index: O(log n) active-set
  lookups and ``diff(d1, d2)`` deltas over license life-cycle dates;
* :mod:`repro.uls.columnar` — flat column-oriented license storage (one
  store per database generation) backing the columnar reconstruction
  kernel;
* :mod:`repro.uls.search` — the four search interfaces the paper uses
  (geographic, site-based, licensee-name, license-detail);
* :mod:`repro.uls.dumpio` — reader/writer for the pipe-delimited ULS
  weekly-dump format (``HD``/``EN``/``LO``/``PA``/``FR`` records);
* :mod:`repro.uls.portal` — a web-portal simulator that renders license
  search results and license detail pages as HTML;
* :mod:`repro.uls.scraper` — the scraping client that parses those pages,
  exercising the same code path as scraping the real portal;
* :mod:`repro.uls.transactions` — incremental updates: transaction logs
  between snapshots (the weekly-file layer of a production pipeline);
* :mod:`repro.uls.validation` — data-quality scrubbing before geometry.
"""

from repro.uls.records import (
    License,
    MicrowavePath,
    TowerLocation,
    active_licenses,
)
from repro.uls.columnar import ColumnarLicenseStore
from repro.uls.database import UlsDatabase
from repro.uls.index import TemporalIndex, license_interval
from repro.uls.search import UlsSearchService
from repro.uls.dumpio import read_uls_dump, write_uls_dump
from repro.uls.portal import UlsPortal
from repro.uls.scraper import UlsScraper
from repro.uls.transactions import (
    Transaction,
    apply_transactions,
    snapshot_database,
    transactions_between,
)
from repro.uls.validation import ValidationIssue, clean_licenses, validate_licenses

__all__ = [
    "License",
    "MicrowavePath",
    "TowerLocation",
    "active_licenses",
    "UlsDatabase",
    "ColumnarLicenseStore",
    "TemporalIndex",
    "license_interval",
    "UlsSearchService",
    "read_uls_dump",
    "write_uls_dump",
    "UlsPortal",
    "UlsScraper",
    "Transaction",
    "apply_transactions",
    "snapshot_database",
    "transactions_between",
    "ValidationIssue",
    "clean_licenses",
    "validate_licenses",
]
