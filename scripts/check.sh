#!/usr/bin/env bash
# Tier-1 gate: syntax, static analysis, then the full test suite — twice.
#
# The second pytest pass runs with --ff (failed-first): anything the
# first pass failed runs again at the *front* of the collection, in a
# fresh process.  A test that genuinely fails, fails twice; a test that
# only failed (or only passed) because an earlier test warmed a
# process-wide cache — the lru-cached scenario, the shared
# CorridorEngine, an obs session leaking out of a fixture — changes
# verdict between the passes and is exposed as ordering-dependent.
# Finally, the engine-equivalence property tests re-run standalone
# (cached results must match the object-kernel oracle exactly, even in a
# fresh interpreter), and so do the scraper equivalence (the one-pass
# page parser must read every rendered page as the html.parser oracle does)
# and the routing equivalence (the stdlib Dijkstra must route and score
# APA exactly as the networkx oracle does).
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# Fast syntax gate: every file must at least compile.
python -m compileall -q src

# Project linter (repro.lint): determinism, cache discipline, float and
# unit safety, obs timing discipline, and layering (tier order plus no
# module-body import cycle).  Fails on any finding not covered by an
# inline pragma.  Writes no file.
python -m repro lint

# Import gate: `--help` must load no repro module but the CLI itself.
# Package __init__s re-export lazily and each handler imports its own
# driver, so a new eager import anywhere on the startup path shows here.
extra_imports=$(python -X importtime -m repro --help 2>&1 >/dev/null \
    | awk -F'|' 'NR > 1 { gsub(/ /, "", $3); print $3 }' \
    | grep -E '^repro\.' | grep -vxE 'repro\.(cli|__main__)' || true)
if [ -n "$extra_imports" ]; then
    echo "check.sh: 'python -m repro --help' imports beyond the CLI:" \
         $extra_imports >&2
    exit 1
fi

# Full suite, then the ordering-independence pass.
python -m pytest -q
python -m pytest -q --ff

# Engine, scraper and routing equivalence, each in a fresh interpreter.
python -m pytest -x -q tests/test_engine.py
python -m pytest -x -q tests/test_scraper_equivalence.py
python -m pytest -x -q tests/test_routing_equivalence.py

# Serve gate: a warm corridor analytics server must survive a seeded
# concurrent loadgen mix with zero errors, serve /rankings and /apa
# byte-identical to `table1 --format json` and `table3 --format json`,
# and keep answering after a structured 400
# (see scripts/serve_smoke.py for the full contract).
python scripts/serve_smoke.py --requests 50 --clients 4

# Persistent-store gate: the on-disk cache store (repro.store) may only
# change speed, never bytes.  For each driver, three runs must agree:
# truly cold (no store), cold-with-store (first --cache-dir run,
# populating), and warm (second --cache-dir run, loading what the first
# published).  Each command gets its own store so a cache populated by
# one driver can't mask another's cold path.  `compare` attaches one
# store to three scenarios' engines.
store_dir=".repro-store-check"
out_dir=$(mktemp -d)
trap 'rm -rf "$out_dir"' EXIT

# store_runs LABEL ARGS...: run ARGS with no store, cold with a fresh
# store and warm on it; fail unless both store runs print the no-store
# stdout.  The warm run's --metrics report is left in $out_dir/metrics.
store_runs() {
    local label=$1
    shift
    python -m repro "$@" > "$out_dir/none"
    python -m repro "$@" --cache-dir "$store_dir" > "$out_dir/cold"
    python -m repro "$@" --cache-dir "$store_dir" --metrics \
        > "$out_dir/warm" 2> "$out_dir/metrics"
    if ! diff "$out_dir/none" "$out_dir/cold"; then
        echo "check.sh: '$label' differs between no-store and cold-with-store" >&2
        exit 1
    fi
    if ! diff "$out_dir/none" "$out_dir/warm"; then
        echo "check.sh: '$label' differs between no-store and store-warmed" >&2
        exit 1
    fi
}

for cmd in funnel timeline table1 table3 compare; do
    rm -rf "$store_dir"
    store_runs "$cmd" "$cmd"
    # The engine entry holds every route and APA value table1 and table3
    # read: the warm run decides no link and searches no route.
    if [ "$cmd" = table1 ] || [ "$cmd" = table3 ]; then
        decided=$(awk '$1 == "counter" && $2 == "metrics.apa.bounded" {print $3}' "$out_dir/metrics")
        routed=$(awk '$1 == "histogram" && $2 == "span.core.routing.us" {print $3}' "$out_dir/metrics")
        if [ -n "$decided" ] || [ -n "$routed" ]; then
            echo "check.sh: warm '$cmd' reports metrics.apa.bounded ${decided:-none} and span.core.routing ${routed:-none}, want neither" >&2
            exit 1
        fi
    fi
    # A cold funnel publishes every entry it reads: the warm run misses
    # no entry and fetches no detail page.
    if [ "$cmd" = funnel ]; then
        misses=$(awk '$1 == "counter" && $2 == "store.miss" {print $3}' "$out_dir/metrics")
        pages=$(awk '$1 == "counter" && $2 == "uls.scraper.page.detail" {print $3}' "$out_dir/metrics")
        if [ "${misses:-0}" != 0 ] || [ "${pages:-0}" != 0 ]; then
            echo "check.sh: warm 'funnel' missed ${misses:-0} entries and fetched ${pages:-0} detail pages, want 0 and 0" >&2
            exit 1
        fi
    fi
done

# Multi-scenario gate: the store contract above must hold for *every*
# registered corridor, not just the paper's.  Per-scenario fingerprints
# share one store directory without cross-talk, so each scenario's
# drivers fill and read one store.  The parameterized reference
# round-trips its params through a scenario entry.
for scenario in europe2020 tokyo-singapore synthetic:seed=7,networks=12; do
    rm -rf "$store_dir"
    for cmd in funnel timeline table1; do
        store_runs "$cmd --scenario $scenario" "$cmd" --scenario "$scenario"
    done
done
rm -rf "$store_dir"
