"""Per-rule fixture snippets: each rule catches its known violations and
stays quiet on the idioms the codebase actually uses."""

from __future__ import annotations

import textwrap
from pathlib import Path
from typing import Sequence

import pytest

from repro.lint import Rule, lint_file, lint_paths
from repro.lint.rules.cache import CacheDisciplineRule
from repro.lint.rules.determinism import HashSeedRule, UnseededRngRule, WallClockRule
from repro.lint.rules.floats import FloatEqualityRule
from repro.lint.rules.hygiene import BroadExceptRule, MutableDefaultRule
from repro.lint.rules.layering import LAYERS
from repro.lint.rules.obs import OBS_ALLOWED, ObsDisciplineRule
from repro.lint.rules.units import UnitSuffixRule


def findings_for(
    root: Path,
    source: str,
    *,
    rules: Sequence[Rule],
    name: str = "mod.py",
) -> list:
    """Findings of ``rules`` on ``source`` written at ``root / name``.

    ``name`` is the project-root-relative path the path-scoped rules see,
    so a fixture is in or out of a rule's scope by where it is written.
    """
    path = root / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_file(path, rules, root)


def rule_names(findings) -> list[str]:
    return [finding.rule for finding in findings]


class TestHashSeed:
    def test_hash_seed_in_random_flagged(self, tmp_path):
        source = """
            import random
            rng = random.Random(hash(name) % 10_000)
        """
        assert rule_names(findings_for(tmp_path, source, rules=[HashSeedRule()])) == [
            "hash-seed"
        ]

    def test_hash_seed_keyword_argument_flagged(self, tmp_path):
        source = """
            import random
            rng = random.Random(x=hash(name))
        """
        assert rule_names(findings_for(tmp_path, source, rules=[HashSeedRule()])) == [
            "hash-seed"
        ]

    def test_hash_in_seed_call_flagged(self, tmp_path):
        source = """
            rng.seed(hash(key))
        """
        assert rule_names(findings_for(tmp_path, source, rules=[HashSeedRule()])) == [
            "hash-seed"
        ]

    def test_stable_digest_seed_ok(self, tmp_path):
        source = """
            import random
            import zlib
            rng = random.Random(zlib.crc32(name.encode()) % 10_000)
        """
        assert findings_for(tmp_path, source, rules=[HashSeedRule()]) == []

    def test_hash_outside_seeding_ok(self, tmp_path):
        source = """
            key = hash((a, b))
        """
        assert findings_for(tmp_path, source, rules=[HashSeedRule()]) == []


class TestUnseededRng:
    def test_module_level_random_flagged(self, tmp_path):
        source = """
            import random
            x = random.random()
            y = random.randint(1, 6)
            random.shuffle(items)
        """
        assert rule_names(
            findings_for(tmp_path, source, rules=[UnseededRngRule()])
        ) == ["unseeded-rng"] * 3

    def test_unseeded_random_instance_flagged(self, tmp_path):
        source = """
            import random
            rng = random.Random()
        """
        assert rule_names(
            findings_for(tmp_path, source, rules=[UnseededRngRule()])
        ) == ["unseeded-rng"]

    def test_seeded_instance_ok(self, tmp_path):
        source = """
            import random
            rng = random.Random(42)
            x = rng.random()
            rng.shuffle(items)
        """
        assert findings_for(tmp_path, source, rules=[UnseededRngRule()]) == []


class TestWallClock:
    def test_now_and_today_flagged(self, tmp_path):
        source = """
            import datetime as dt
            a = dt.datetime.now()
            b = dt.date.today()
        """
        assert rule_names(
            findings_for(tmp_path, source, rules=[WallClockRule()])
        ) == ["wall-clock"] * 2

    def test_time_time_flagged(self, tmp_path):
        source = """
            import time
            t = time.time()
        """
        assert rule_names(
            findings_for(tmp_path, source, rules=[WallClockRule()])
        ) == ["wall-clock"]

    def test_explicit_dates_ok(self, tmp_path):
        source = """
            import datetime as dt
            snapshot = dt.date(2020, 4, 1)
            parsed = dt.date.fromisoformat("2020-04-01")
        """
        assert findings_for(tmp_path, source, rules=[WallClockRule()]) == []

    def test_process_timers_flagged_outside_obs_paths(self, tmp_path):
        source = """
            import time
            a = time.perf_counter()
            b = time.perf_counter_ns()
            c = time.monotonic_ns()
        """
        assert rule_names(
            findings_for(tmp_path, source, rules=[WallClockRule()])
        ) == ["wall-clock"] * 3

    def test_process_timers_exempt_inside_obs_allowed_paths(self, tmp_path):
        source = """
            import time
            started = time.perf_counter_ns()
        """
        assert (
            findings_for(
                tmp_path,
                source,
                name="src/repro/obs/spans.py",
                rules=[WallClockRule()],
            )
            == []
        )

    def test_absolute_clock_not_exempt_inside_obs_paths(self, tmp_path):
        source = """
            import time
            t = time.time()
        """
        assert rule_names(
            findings_for(
                tmp_path,
                source,
                name="src/repro/obs/spans.py",
                rules=[WallClockRule()],
            )
        ) == ["wall-clock"]


class TestCacheDiscipline:
    def test_kernel_construction_flagged_outside_allowed(self, tmp_path):
        source = """
            from repro.core.reconstruction import NetworkReconstructor
            kernel = NetworkReconstructor(corridor)
        """
        findings = findings_for(
            tmp_path, source,
            rules=[CacheDisciplineRule()],
        )
        assert rule_names(findings) == ["cache-discipline"]
        assert "CorridorEngine" in findings[0].message

    def test_reconstruct_all_call_flagged(self, tmp_path):
        source = """
            from repro.core import reconstruct_all
            networks = reconstruct_all(database, corridor, date)
        """
        assert rule_names(
            findings_for(
                tmp_path, source,
                rules=[CacheDisciplineRule()],
            )
        ) == ["cache-discipline"]

    def test_allowed_file_is_exempt(self, tmp_path):
        source = """
            kernel = NetworkReconstructor(corridor)
        """
        assert findings_for(
            tmp_path, source, name="src/repro/core/engine.py",
            rules=[CacheDisciplineRule()],
        ) == []

    def test_annotation_reference_ok(self, tmp_path):
        source = """
            from __future__ import annotations
            from repro.core.reconstruction import NetworkReconstructor

            def f(reconstructor: NetworkReconstructor | None = None) -> None:
                pass
        """
        assert findings_for(
            tmp_path, source,
            rules=[CacheDisciplineRule()],
        ) == []


class TestActiveOnDiscipline:
    """active_on(...) is confined to the uls layer."""

    def test_active_on_flagged_outside_allowed(self, tmp_path):
        source = """
            def count(db, date):
                return len(db.active_on(date))
        """
        findings = findings_for(
            tmp_path, source, name="src/repro/analysis/driver.py",
            rules=[CacheDisciplineRule()],
        )
        assert rule_names(findings) == ["cache-discipline"]
        assert "temporal_index" in findings[0].message

    def test_active_on_allowed_under_uls(self, tmp_path):
        source = """
            def count(db, date):
                return len(db.active_on(date))
        """
        assert findings_for(
            tmp_path, source, name="src/repro/uls/database.py",
            rules=[CacheDisciplineRule()],
        ) == []

    def test_active_on_flagged_in_engine(self, tmp_path):
        """The engine keys snapshots through the temporal index too."""
        source = """
            def fingerprint(db, date):
                return frozenset(l.license_id for l in db.active_on(date))
        """
        assert rule_names(findings_for(
            tmp_path, source, name="src/repro/core/engine.py",
            rules=[CacheDisciplineRule()],
        )) == ["cache-discipline"]

    def test_attribute_reference_without_call_ok(self, tmp_path):
        source = """
            def probe(db):
                return db.active_on  # bound method, not a scan
        """
        assert findings_for(
            tmp_path, source, name="src/repro/analysis/driver.py",
            rules=[CacheDisciplineRule()],
        ) == []

    def test_temporal_index_lookup_ok(self, tmp_path):
        source = """
            def count(db, date):
                return db.temporal_index().active_count_at(date)
        """
        assert findings_for(
            tmp_path, source, name="src/repro/analysis/driver.py",
            rules=[CacheDisciplineRule()],
        ) == []

    def test_default_prefixes_apply_without_options(self, tmp_path):
        source = """
            def count(db, date):
                return len(db.active_on(date))
        """
        findings = findings_for(
            tmp_path, source, name="src/repro/metrics/thing.py",
            rules=[CacheDisciplineRule()],
        )
        assert rule_names(findings) == ["cache-discipline"]


class TestColumnarStoreDiscipline:
    """ColumnarLicenseStore(...) is confined to the uls layer and the
    reconstruction kernel."""

    def test_store_construction_flagged_outside_allowed(self, tmp_path):
        source = """
            from repro.uls import ColumnarLicenseStore

            def fast_path(db):
                return ColumnarLicenseStore({"X": db.licenses_for("X")})
        """
        findings = findings_for(
            tmp_path, source, name="src/repro/analysis/driver.py",
            rules=[CacheDisciplineRule()],
        )
        assert rule_names(findings) == ["cache-discipline"]
        assert "columnar_store()" in findings[0].message

    def test_store_construction_allowed_under_uls(self, tmp_path):
        source = """
            def build(groups, generation):
                return ColumnarLicenseStore(groups, generation=generation)
        """
        assert findings_for(
            tmp_path, source, name="src/repro/uls/database.py",
            rules=[CacheDisciplineRule()],
        ) == []

    def test_store_construction_allowed_in_reconstruction(self, tmp_path):
        source = """
            def ephemeral(licensee, license_list):
                return ColumnarLicenseStore({licensee: license_list})
        """
        assert findings_for(
            tmp_path, source, name="src/repro/core/reconstruction.py",
            rules=[CacheDisciplineRule()],
        ) == []

    def test_cached_accessor_ok_anywhere(self, tmp_path):
        source = """
            def fast_path(db):
                return db.columnar_store()
        """
        assert findings_for(
            tmp_path, source, name="src/repro/analysis/driver.py",
            rules=[CacheDisciplineRule()],
        ) == []


class TestPersistentStoreDiscipline:
    """Raw store-layout access is confined to src/repro/store/."""

    def test_write_entry_flagged_outside_store_package(self, tmp_path):
        source = """
            from repro.store.layout import write_entry

            def publish(cache_dir, fingerprint, payload):
                return write_entry(cache_dir, fingerprint, payload)
        """
        findings = findings_for(
            tmp_path, source, name="src/repro/analysis/driver.py",
            rules=[CacheDisciplineRule()],
        )
        assert rule_names(findings) == ["cache-discipline"]
        assert "CacheStore" in findings[0].message

    def test_read_and_quarantine_flagged_outside_store_package(self, tmp_path):
        source = """
            def peek(cache_dir, fingerprint):
                data = read_entry(cache_dir, fingerprint)
                if data is None:
                    quarantine_entry(cache_dir, fingerprint)
                return data
        """
        assert rule_names(
            findings_for(
                tmp_path, source, name="src/repro/serve/service.py",
                rules=[CacheDisciplineRule()],
            )
        ) == ["cache-discipline"] * 2

    def test_layout_calls_allowed_under_store_package(self, tmp_path):
        source = """
            def load(cache_dir, fingerprint):
                data = read_entry(cache_dir, fingerprint)
                if data is None:
                    quarantine_entry(cache_dir, fingerprint)
                return data
        """
        assert findings_for(
            tmp_path, source, name="src/repro/store/cachestore.py",
            rules=[CacheDisciplineRule()],
        ) == []

    def test_cachestore_api_ok_anywhere(self, tmp_path):
        source = """
            from repro.store import CacheStore

            def warm(engine, cache_dir):
                store = CacheStore(cache_dir)
                store.load_into(engine)
                return store.save_from(engine)
        """
        assert findings_for(
            tmp_path, source, name="src/repro/analysis/driver.py",
            rules=[CacheDisciplineRule()],
        ) == []

    def test_attribute_reference_without_call_ok(self, tmp_path):
        source = """
            from repro.store import layout

            def probe():
                return layout.write_entry  # reference, not a write
        """
        assert findings_for(
            tmp_path, source, name="src/repro/analysis/driver.py",
            rules=[CacheDisciplineRule()],
        ) == []

    def test_default_prefixes_apply_without_options(self, tmp_path):
        source = """
            def publish(cache_dir, fingerprint, payload):
                return write_entry(cache_dir, fingerprint, payload)
        """
        assert rule_names(
            findings_for(
                tmp_path, source, name="src/repro/metrics/thing.py",
                rules=[CacheDisciplineRule()],
            )
        ) == ["cache-discipline"]


class TestFloatEq:
    def test_float_literal_equality_flagged_in_scope(self, tmp_path):
        source = """
            if distance == 0.0:
                pass
            if 1.5 != ratio:
                pass
        """
        assert rule_names(
            findings_for(
                tmp_path, source, name="src/repro/geodesy/kernel.py",
                rules=[FloatEqualityRule()],
            )
        ) == ["float-eq"] * 2

    def test_negative_literal_flagged(self, tmp_path):
        source = """
            if offset == -1.0:
                pass
        """
        assert rule_names(
            findings_for(
                tmp_path, source, name="src/repro/geodesy/kernel.py",
                rules=[FloatEqualityRule()],
            )
        ) == ["float-eq"]

    def test_out_of_scope_file_ignored(self, tmp_path):
        source = """
            if distance == 0.0:
                pass
        """
        assert findings_for(
            tmp_path, source, name="src/repro/viz/driver.py",
            rules=[FloatEqualityRule()],
        ) == []

    def test_ordering_comparisons_and_int_literals_ok(self, tmp_path):
        source = """
            if distance < 0.0 or count == 0 or distance >= 1.5:
                pass
        """
        assert findings_for(
            tmp_path, source, name="src/repro/geodesy/kernel.py",
            rules=[FloatEqualityRule()],
        ) == []


class TestHygiene:
    def test_mutable_defaults_flagged(self, tmp_path):
        source = """
            def f(items=[], table={}, tags=set()):
                pass
        """
        assert rule_names(
            findings_for(tmp_path, source, rules=[MutableDefaultRule()])
        ) == ["mutable-default"] * 3

    def test_none_default_ok(self, tmp_path):
        source = """
            def f(items=None, name="x", count=0, point=(1, 2)):
                pass
        """
        assert findings_for(tmp_path, source, rules=[MutableDefaultRule()]) == []

    def test_constructor_defaults_flagged(self, tmp_path):
        source = """
            def f(items=list(), table=dict(), tags=set()):
                pass
        """
        assert rule_names(
            findings_for(tmp_path, source, rules=[MutableDefaultRule()])
        ) == ["mutable-default"] * 3

    def test_dotted_constructor_defaults_flagged(self, tmp_path):
        source = """
            import collections

            def f(
                table=collections.defaultdict(list),
                queue=collections.deque(),
                counts=collections.Counter(),
            ):
                pass
        """
        assert rule_names(
            findings_for(tmp_path, source, rules=[MutableDefaultRule()])
        ) == ["mutable-default"] * 3

    def test_immutable_constructor_defaults_ok(self, tmp_path):
        source = """
            import decimal

            def f(zero=decimal.Decimal(0), empty=tuple(), label=str()):
                pass
        """
        assert findings_for(tmp_path, source, rules=[MutableDefaultRule()]) == []

    def test_bare_and_broad_except_flagged(self, tmp_path):
        source = """
            try:
                work()
            except:
                pass
            try:
                work()
            except Exception:
                pass
        """
        assert rule_names(
            findings_for(tmp_path, source, rules=[BroadExceptRule()])
        ) == ["broad-except"] * 2

    def test_specific_except_ok(self, tmp_path):
        source = """
            try:
                work()
            except (ValueError, KeyError) as error:
                raise RuntimeError("context") from error
        """
        assert findings_for(tmp_path, source, rules=[BroadExceptRule()]) == []


class TestUnitSuffix:
    def test_additive_mix_flagged(self, tmp_path):
        source = """
            total = trunk_km + tail_m
        """
        findings = findings_for(tmp_path, source, rules=[UnitSuffixRule()])
        assert rule_names(findings) == ["unit-suffix"]
        assert "'_km'" in findings[0].message and "'_m'" in findings[0].message

    def test_comparison_mix_flagged(self, tmp_path):
        source = """
            if overhead_us > budget_ms:
                pass
        """
        assert rule_names(
            findings_for(tmp_path, source, rules=[UnitSuffixRule()])
        ) == ["unit-suffix"]

    def test_augmented_assignment_mix_flagged(self, tmp_path):
        source = """
            length_m += extension_km
        """
        assert rule_names(
            findings_for(tmp_path, source, rules=[UnitSuffixRule()])
        ) == ["unit-suffix"]

    def test_same_unit_and_cross_dimension_ok(self, tmp_path):
        source = """
            total_m = trunk_m + tail_m
            rate = distance_km + 5.0
            weird = latency_ms + distance_km  # different dimensions: allowed
        """
        assert findings_for(tmp_path, source, rules=[UnitSuffixRule()]) == []

    def test_conversion_via_division_ok(self, tmp_path):
        source = """
            geodesic_km = corridor.geodesic_m(a, b) / 1000.0
            total_km = geodesic_km + bypass_km
        """
        assert findings_for(tmp_path, source, rules=[UnitSuffixRule()]) == []

    def test_call_results_carry_units(self, tmp_path):
        source = """
            stretch = corridor.geodesic_m(a, b) - route.length_km
        """
        assert rule_names(
            findings_for(tmp_path, source, rules=[UnitSuffixRule()])
        ) == ["unit-suffix"]

    def test_ms_not_mistaken_for_s(self, tmp_path):
        source = """
            total_ms = latency_ms + overhead_ms
        """
        assert findings_for(tmp_path, source, rules=[UnitSuffixRule()]) == []


class TestObsDiscipline:
    def test_monotonic_timing_flagged(self, tmp_path):
        source = """
            import time
            start = time.monotonic()
            elapsed = time.monotonic() - start
        """
        findings = findings_for(tmp_path, source, rules=[ObsDisciplineRule()])
        assert rule_names(findings) == ["obs-discipline", "obs-discipline"]
        assert "obs.span" in findings[0].message

    def test_perf_counter_ns_flagged(self, tmp_path):
        source = """
            import time
            t0 = time.perf_counter_ns()
        """
        assert rule_names(
            findings_for(tmp_path, source, rules=[ObsDisciplineRule()])
        ) == ["obs-discipline"]

    def test_obs_package_is_exempt(self, tmp_path):
        source = """
            import time
            t0 = time.perf_counter_ns()
        """
        assert findings_for(
            tmp_path, source, name="src/repro/obs/spans.py",
            rules=[ObsDisciplineRule()],
        ) == []

    def test_benchmarks_are_exempt(self, tmp_path):
        source = """
            import time
            t0 = time.monotonic()
        """
        assert findings_for(
            tmp_path, source, name="benchmarks/test_bench_obs.py",
            rules=[ObsDisciplineRule()],
        ) == []

    def test_loadgen_is_exempt(self, tmp_path):
        """Client-observed latency is the load generator's product."""
        source = """
            import time
            t0 = time.perf_counter()
        """
        assert findings_for(
            tmp_path, source, name="src/repro/serve/loadgen.py",
            rules=[ObsDisciplineRule()],
        ) == []

    def test_span_timing_ok(self, tmp_path):
        source = """
            from repro import obs

            with obs.span("engine.snapshot", licensee=name):
                network = build()
        """
        assert findings_for(tmp_path, source, rules=[ObsDisciplineRule()]) == []

    def test_pragma_suppresses(self, tmp_path):
        source = """
            import time
            t0 = time.monotonic()  # lint: disable=obs-discipline
        """
        assert findings_for(tmp_path, source, rules=[ObsDisciplineRule()]) == []


def layering_findings(tmp_path: Path, files: dict[str, str]) -> list:
    """``layering`` findings of one lint run over a fixture ``src/repro``.

    The fixture modules take real tier names (``repro.geodesy`` is tier 1,
    ``repro.core`` tier 3, see :data:`LAYERS`); ``repro.pkg`` is untiered.
    """
    files = {"src/repro/__init__.py": "", **files}
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    result = lint_paths([tmp_path / "src/repro"], root=tmp_path)
    return [f for f in result.findings if f.rule == "layering"]


class TestLayeringRule:
    def test_upward_import_flagged(self, tmp_path):
        findings = layering_findings(
            tmp_path,
            {
                "src/repro/geodesy.py": "from repro import core\n",
                "src/repro/core.py": "",
            },
        )
        assert rule_names(findings) == ["layering"]
        assert findings[0].path == "src/repro/geodesy.py"
        assert findings[0].message == (
            "layering violation: repro.geodesy (tier 1, repro.geodesy) "
            "imports repro.core (tier 3, repro.core); dependencies must "
            "point at the same or a lower tier"
        )

    def test_downward_import_ok(self, tmp_path):
        assert layering_findings(
            tmp_path,
            {
                "src/repro/geodesy.py": "",
                "src/repro/core.py": "from repro import geodesy\n",
            },
        ) == []

    def test_function_local_upward_import_flagged(self, tmp_path):
        """A handler-local import still points the dependency upward."""
        findings = layering_findings(
            tmp_path,
            {
                "src/repro/geodesy.py": """
                    def handler():
                        from repro.core import drive

                        return drive()
                    """,
                "src/repro/core.py": "def drive():\n    return 1\n",
            },
        )
        assert [(f.path, f.line, f.rule) for f in findings] == [
            ("src/repro/geodesy.py", 3, "layering")
        ]
        assert "imports repro.core (tier 3" in findings[0].message

    def test_relative_upward_import_flagged(self, tmp_path):
        findings = layering_findings(
            tmp_path,
            {
                "src/repro/geodesy/__init__.py": "from ..core import drive\n",
                "src/repro/core.py": "def drive():\n    return 1\n",
            },
        )
        assert [(f.path, f.line) for f in findings] == [
            ("src/repro/geodesy/__init__.py", 1)
        ]

    def test_import_cycle_flagged_even_within_a_tier(self, tmp_path):
        findings = layering_findings(
            tmp_path,
            {
                "src/repro/core/__init__.py": "",
                "src/repro/core/x.py": "from repro.core import y\n",
                "src/repro/core/y.py": "from repro.core import x\n",
            },
        )
        assert rule_names(findings) == ["layering"]
        assert "import cycle" in findings[0].message

    def test_import_cycle_detected(self, tmp_path):
        findings = layering_findings(
            tmp_path,
            {
                "src/repro/pkg/__init__.py": "",
                "src/repro/pkg/a.py": "import os\nfrom repro.pkg import b\n",
                "src/repro/pkg/b.py": "from repro.pkg.c import run\n",
                "src/repro/pkg/c.py": "import repro.pkg.a\n\ndef run():\n    pass\n",
            },
        )
        assert [(f.path, f.line, f.message) for f in findings] == [
            (
                "src/repro/pkg/a.py",
                2,
                "import cycle: repro.pkg.a -> repro.pkg.b -> repro.pkg.c "
                "-> repro.pkg.a",
            )
        ]

    def test_function_local_import_breaks_a_cycle(self, tmp_path):
        assert layering_findings(
            tmp_path,
            {
                "src/repro/pkg/__init__.py": "",
                "src/repro/pkg/x.py": "from repro.pkg import y\n",
                "src/repro/pkg/y.py": "def late():\n    from repro.pkg import x\n",
            },
        ) == []

    def test_one_run_reports_tier_local_and_cycle(self, tmp_path):
        """Module-body and function-local tier violations and a
        cross-module cycle, each at its own file:line."""
        findings = layering_findings(
            tmp_path,
            {
                "src/repro/geodesy.py": """
                    from repro import core

                    def handler():
                        from repro import uls
                    """,
                "src/repro/core.py": "from repro import geodesy\n",
                "src/repro/uls.py": "",
            },
        )
        assert [(f.location(), f.rule) for f in findings] == [
            ("src/repro/core.py:1:1", "layering"),
            ("src/repro/geodesy.py:2:1", "layering"),
            ("src/repro/geodesy.py:5:5", "layering"),
        ]
        assert findings[0].message == (
            "import cycle: repro.core -> repro.geodesy -> repro.core"
        )
        assert "imports repro.core" in findings[1].message
        assert "imports repro.uls" in findings[2].message

    def test_pragma_suppresses_a_cycle(self, tmp_path):
        assert layering_findings(
            tmp_path,
            {
                "src/repro/pkg/__init__.py": "",
                "src/repro/pkg/x.py": (
                    "from repro.pkg import y  # lint: disable=layering (fixture)\n"
                ),
                "src/repro/pkg/y.py": "from repro.pkg import x\n",
            },
        ) == []


class TestServeTierFixtures:
    """The serve tier: above the analysis tiers, below the CLI."""

    def test_serve_importing_cli_flagged(self, tmp_path):
        findings = layering_findings(
            tmp_path,
            {
                "src/repro/analysis.py": "",
                "src/repro/serve.py": "from repro import cli\n",
                "src/repro/cli.py": "",
            },
        )
        assert rule_names(findings) == ["layering"]
        assert findings[0].path == "src/repro/serve.py"
        assert "repro.cli" in findings[0].message

    def test_cli_embeds_serve_and_serve_uses_analysis(self, tmp_path):
        assert layering_findings(
            tmp_path,
            {
                "src/repro/analysis.py": "",
                "src/repro/serve.py": "from repro import analysis\n",
                "src/repro/cli.py": "from repro import serve\n",
            },
        ) == []

    def test_repo_config_wires_the_serve_tier(self):
        tiers = list(LAYERS)
        serve_index = tiers.index(("repro.serve",))
        cli_index = next(
            index for index, tier in enumerate(tiers) if "repro.cli" in tier
        )
        assert serve_index == cli_index - 1
        assert "src/repro/serve/loadgen.py" in OBS_ALLOWED

    def test_repo_config_wires_the_scenarios_tier(self):
        """The scenario registry is tiered between synth and metrics.

        ``repro.scenarios`` imports the synth builders and is imported by
        analysis/serve/cli, so it must sit strictly above the synth tier
        and strictly below analysis.
        """
        tiers = list(LAYERS)
        scenarios_index = tiers.index(("repro.scenarios",))
        synth_index = next(
            index for index, tier in enumerate(tiers) if "repro.synth" in tier
        )
        analysis_index = next(
            index for index, tier in enumerate(tiers) if "repro.analysis" in tier
        )
        assert synth_index < scenarios_index < analysis_index

    def test_registry_style_upward_import_flagged(self, tmp_path):
        """A registry-shaped mid-tier module importing upward is caught."""
        findings = layering_findings(
            tmp_path,
            {
                "src/repro/synth.py": "def build():\n    return 1\n",
                "src/repro/scenarios.py": """
                    from repro.analysis import drive

                    def resolve():
                        return drive()
                    """,
                "src/repro/analysis.py": """
                    def drive():
                        return 2
                    """,
            },
        )
        assert rule_names(findings) == ["layering"]
        assert "repro.analysis" in findings[0].message


#: One violating snippet per path-scoped rule.
_SNIPPETS = {
    "float-eq": (FloatEqualityRule, "exact = draw == 0.5\n"),
    "cache-kernel": (CacheDisciplineRule, "network = reconstruct_all(db)\n"),
    "cache-active-on": (CacheDisciplineRule, "ids = db.active_on(date)\n"),
    "cache-columnar": (CacheDisciplineRule, "store = ColumnarLicenseStore(groups)\n"),
    "cache-store": (CacheDisciplineRule, "data = read_entry(cache_dir, key)\n"),
    "obs-discipline": (
        ObsDisciplineRule, "import time\nt0 = time.perf_counter()\n"
    ),
}

#: (snippet, root-relative path, whether the snippet is a finding there).
#: Each scope constant gets a row per entry, so emptying it or dropping an
#: entry fails; its neighbours are rows too, so widening it to a sibling
#: or a parent prefix fails.
_SCOPE_CASES = [
    # FLOAT_EQ_PATHS: the numeric kernels only.
    ("float-eq", "src/repro/geodesy/mod.py", True),
    ("float-eq", "src/repro/core/latency.py", True),
    ("float-eq", "src/repro/metrics/mod.py", True),
    ("float-eq", "src/repro/core/routing.py", False),
    ("float-eq", "src/repro/viz/mod.py", False),
    ("float-eq", "src/repro/mod.py", False),
    # CACHE_ALLOWED: the engine and the kernel build the kernel.
    ("cache-kernel", "src/repro/core/engine.py", False),
    ("cache-kernel", "src/repro/core/reconstruction.py", False),
    ("cache-kernel", "src/repro/core/columnar.py", True),
    ("cache-kernel", "src/repro/analysis/mod.py", True),
    # ACTIVE_ON_ALLOWED: the uls layer scans.
    ("cache-active-on", "src/repro/uls/database.py", False),
    ("cache-active-on", "src/repro/core/engine.py", True),
    ("cache-active-on", "src/repro/analysis/mod.py", True),
    ("cache-active-on", "src/repro/mod.py", True),
    # COLUMNAR_ALLOWED: the uls layer and the reconstructor build stores.
    ("cache-columnar", "src/repro/uls/database.py", False),
    ("cache-columnar", "src/repro/core/reconstruction.py", False),
    ("cache-columnar", "src/repro/core/engine.py", True),
    ("cache-columnar", "src/repro/core/columnar.py", True),
    ("cache-columnar", "src/repro/analysis/mod.py", True),
    # STORE_ALLOWED: the store package touches entry files.
    ("cache-store", "src/repro/store/layout.py", False),
    ("cache-store", "src/repro/core/engine.py", True),
    ("cache-store", "src/repro/serve/mod.py", True),
    ("cache-store", "src/repro/mod.py", True),
    # OBS_ALLOWED: obs, the benchmarks and the load generator time.
    ("obs-discipline", "src/repro/obs/spans.py", False),
    ("obs-discipline", "benchmarks/test_bench_mod.py", False),
    ("obs-discipline", "src/repro/serve/loadgen.py", False),
    ("obs-discipline", "src/repro/serve/service.py", True),
    ("obs-discipline", "src/repro/core/engine.py", True),
    ("obs-discipline", "src/repro/mod.py", True),
]


@pytest.mark.parametrize(
    ("snippet", "name", "flagged"),
    _SCOPE_CASES,
    ids=[f"{snippet}:{name}" for snippet, name, _ in _SCOPE_CASES],
)
def test_rule_scope(tmp_path, snippet, name, flagged):
    """Each scope constant puts a path in or out of its rule's reach."""
    rule_cls, source = _SNIPPETS[snippet]
    findings = findings_for(tmp_path, source, rules=[rule_cls()], name=name)
    assert rule_names(findings) == ([rule_cls.name] if flagged else [])
