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
# unit safety, obs timing discipline, plus the whole-program flow rules
# (shared-state, transitive-determinism, layering, dead-code).  Fails on
# any finding not covered by an inline pragma or the committed baseline
# (lint-baseline.json).  Starts cold (no cache file) so the cache gate
# below has a known-cold first run.
rm -f .lint-cache.json
python -m repro lint

# Layering gate: the module import graph must stay a DAG (the layering
# rule orders the tiers; this catches any cycle, tiered or not).
python -m repro lint graph --check-cycles > /dev/null

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

# Incremental-lint gate: the warm (cached) run and a cache-free run must
# report byte-identical findings — the content-hash cache may only skip
# work, never change the answer.  The first lint above left a fully
# populated .lint-cache.json, so this diff is warm-vs-cold.
if ! diff <(python -m repro lint --format json) \
          <(python -m repro lint --no-cache --format json); then
    echo "check.sh: cached lint output differs from cache-free lint" >&2
    exit 1
fi

# Full suite, then the ordering-independence pass.
python -m pytest -q
python -m pytest -q --ff

# Engine, scraper and routing equivalence, each in a fresh interpreter.
python -m pytest -x -q tests/test_engine.py
python -m pytest -x -q tests/test_scraper_equivalence.py
python -m pytest -x -q tests/test_routing_equivalence.py

# --jobs gate: the flag is accepted and has no effect (every command
# runs in one process), so analysis output must be byte-identical at any
# N.  "timeline" covers the Fig 1/2 grid.
for cmd in funnel timeline table1; do
    if ! diff <(python -m repro "$cmd" --jobs 1) \
              <(python -m repro "$cmd" --jobs 4); then
        echo "check.sh: '$cmd' output differs between --jobs 1 and --jobs 4" >&2
        exit 1
    fi
done

# Serve gate: a warm corridor analytics server must survive a seeded
# concurrent loadgen mix with zero errors, serve /rankings byte-identical
# to `table1 --format json`, and keep answering after a structured 400
# (see scripts/serve_smoke.py for the full contract).
python scripts/serve_smoke.py --requests 50 --clients 4

# Persistent-store gate: the on-disk cache store (repro.store) may only
# change speed, never bytes.  For each driver and fan-out width, three
# runs must agree: truly cold (no store), cold-with-store (first
# --cache-dir run, populating), and warm (second --cache-dir run,
# loading what the first published).  Each command gets its own store
# so a cache populated by one driver can't mask another's cold path.
# `compare` attaches one store to three scenarios' engines.
store_dir=".repro-store-check"
for cmd in funnel timeline table1 compare; do
    for jobs in 1 4; do
        rm -rf "$store_dir"
        if ! diff <(python -m repro "$cmd" --jobs "$jobs") \
                  <(python -m repro "$cmd" --jobs "$jobs" --cache-dir "$store_dir"); then
            echo "check.sh: '$cmd' --jobs $jobs differs between no-store and cold-with-store" >&2
            exit 1
        fi
        if ! diff <(python -m repro "$cmd" --jobs "$jobs") \
                  <(python -m repro "$cmd" --jobs "$jobs" --cache-dir "$store_dir"); then
            echo "check.sh: '$cmd' --jobs $jobs differs between no-store and store-warmed" >&2
            exit 1
        fi
    done
    # A store a --jobs 1 run filled serves a --jobs 4 run unchanged.
    rm -rf "$store_dir"
    python -m repro "$cmd" --jobs 1 --cache-dir "$store_dir" > /dev/null
    if ! diff <(python -m repro "$cmd" --jobs 4) \
              <(python -m repro "$cmd" --jobs 4 --cache-dir "$store_dir"); then
        echo "check.sh: '$cmd' --jobs 4 on a --jobs 1-filled store differs from no-store" >&2
        exit 1
    fi
    # A cold --jobs 4 funnel publishes every entry it reads: on that
    # store a second run misses no entry and fetches no detail page.
    if [ "$cmd" = funnel ]; then
        rm -rf "$store_dir"
        python -m repro funnel --jobs 4 --cache-dir "$store_dir" > /dev/null
        metrics=$(python -m repro funnel --jobs 4 --cache-dir "$store_dir" --metrics 2>&1 >/dev/null)
        misses=$(awk '$1 == "counter" && $2 == "store.miss" {print $3}' <<< "$metrics")
        pages=$(awk '$1 == "counter" && $2 == "uls.scraper.page.detail" {print $3}' <<< "$metrics")
        if [ "${misses:-0}" != 0 ] || [ "${pages:-0}" != 0 ]; then
            echo "check.sh: 'funnel --jobs 4' on a --jobs 4-filled store missed ${misses:-0} entries and fetched ${pages:-0} detail pages, want 0 and 0" >&2
            exit 1
        fi
    fi
done
rm -rf "$store_dir"

# Multi-scenario gate: every determinism contract above must hold for
# *every* registered corridor, not just the paper's.  For each scenario
# and driver: --jobs 1 vs --jobs 4 must agree, and a store-warmed rerun
# must agree with a no-store run (per-scenario fingerprints may share
# one store directory without cross-talk).
# The parameterized reference round-trips its params through a scenario
# entry.
for scenario in europe2020 tokyo-singapore synthetic:seed=7,networks=12; do
    rm -rf "$store_dir"
    for cmd in funnel timeline table1; do
        if ! diff <(python -m repro "$cmd" --scenario "$scenario" --jobs 1) \
                  <(python -m repro "$cmd" --scenario "$scenario" --jobs 4); then
            echo "check.sh: '$cmd --scenario $scenario' differs between --jobs 1 and --jobs 4" >&2
            exit 1
        fi
        if ! diff <(python -m repro "$cmd" --scenario "$scenario") \
                  <(python -m repro "$cmd" --scenario "$scenario" --cache-dir "$store_dir"); then
            echo "check.sh: '$cmd --scenario $scenario' differs between no-store and cold-with-store" >&2
            exit 1
        fi
        if ! diff <(python -m repro "$cmd" --scenario "$scenario") \
                  <(python -m repro "$cmd" --scenario "$scenario" --cache-dir "$store_dir"); then
            echo "check.sh: '$cmd --scenario $scenario' differs between no-store and store-warmed" >&2
            exit 1
        fi
    done
done
rm -rf "$store_dir"

# The hybrid corridor comparison must run end-to-end over every
# registered corridor (warm engines from the gates above keep it cheap).
python -m repro compare > /dev/null
