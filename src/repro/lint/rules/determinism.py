"""Determinism rules: the pipeline must be a pure function of its inputs.

Every headline artefact (Table 1/2 latencies, the Fig 1/2 timelines) is
regenerated from the synthetic scenario; the reproduction's claims are
only checkable if two runs — on different machines, different days,
different ``PYTHONHASHSEED`` values — produce byte-identical results.
Three constructs break that silently:

* ``hash()``-derived RNG seeds — string hashing is randomised per process
  since Python 3.3, so ``random.Random(hash(name))`` generates different
  "deterministic" data in every interpreter;
* the module-level ``random.*`` API and unseeded ``random.Random()`` —
  global hidden state, seeded from the OS;
* wall-clock reads (``datetime.now()``, ``date.today()``, ``time.time()``)
  — the paper's analyses are pinned to its snapshot dates, never to today.
"""

from __future__ import annotations

import ast

from repro.lint.registry import FileContext, Rule, call_name, dotted_name
from repro.lint.rules.obs import OBS_ALLOWED

#: random-module functions that drive the hidden global RNG.
_MODULE_RNG_FUNCTIONS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gammavariate",
        "gauss", "getrandbits", "lognormvariate", "normalvariate",
        "paretovariate", "randbytes", "randint", "random", "randrange",
        "sample", "seed", "shuffle", "triangular", "uniform",
        "vonmisesvariate", "weibullvariate",
    }
)

#: Callables that seed an RNG from their first argument.
_SEEDING_CALLS = frozenset({"Random", "seed", "SmoothNoise", "default_rng"})

#: Wall-clock reads: dotted-suffix → offending call.
_WALL_CLOCK_SUFFIXES = (
    "datetime.now",
    "datetime.today",
    "datetime.utcnow",
    "date.today",
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
)

#: The process-timer subset of the wall-clock vocabulary.  These are the
#: legitimate clock of the obs layer (``repro.obs.spans`` times spans with
#: ``perf_counter_ns``) and of the benchmark harness, so — mirroring the
#: obs-discipline rule's confinement — they are exempt inside
#: :data:`~repro.lint.rules.obs.OBS_ALLOWED`.  Absolute wall-clock reads
#: (``datetime.now`` & co.) stay banned everywhere.
_PROCESS_TIMER_SUFFIXES = frozenset(
    {
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
    }
)

def _contains_hash_call(node: ast.AST) -> ast.Call | None:
    """The first ``hash(...)`` call anywhere inside ``node``, if any."""
    for child in ast.walk(node):
        if (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Name)
            and child.func.id == "hash"
        ):
            return child
    return None


class HashSeedRule(Rule):
    """No RNG seeds derived from the builtin ``hash()``."""

    name = "hash-seed"
    description = (
        "RNG seeded from hash(): string hashing is per-process randomised "
        "(PYTHONHASHSEED), so the 'deterministic' stream differs every run"
    )
    interests = (ast.Call,)

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        assert isinstance(node, ast.Call)
        if call_name(node) not in _SEEDING_CALLS:
            return
        for arg in (*node.args, *(kw.value for kw in node.keywords)):
            offender = _contains_hash_call(arg)
            if offender is not None:
                ctx.report(
                    self,
                    offender,
                    "RNG seed derived from hash(); use a stable digest "
                    "such as zlib.crc32(text.encode())",
                )
                return


class UnseededRngRule(Rule):
    """No module-level ``random.*`` usage and no unseeded ``Random()``."""

    name = "unseeded-rng"
    description = (
        "module-level random.* or unseeded random.Random(): hidden global "
        "state seeded from the OS breaks reproducibility"
    )
    interests = (ast.Call,)

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        assert isinstance(node, ast.Call)
        dotted = dotted_name(node.func)
        if dotted is not None and dotted.startswith("random."):
            member = dotted.split(".", 1)[1]
            if member in _MODULE_RNG_FUNCTIONS:
                ctx.report(
                    self,
                    node,
                    f"module-level random.{member}() uses the hidden global "
                    "RNG; construct a seeded random.Random(seed) instead",
                )
                return
        if call_name(node) == "Random" and not node.args and not node.keywords:
            ctx.report(
                self,
                node,
                "unseeded random.Random() is seeded from the OS; pass an "
                "explicit integer seed",
            )


class WallClockRule(Rule):
    """No wall-clock reads inside the analysis pipeline."""

    name = "wall-clock"
    description = (
        "datetime.now()/date.today()/time.time(): analyses are pinned to "
        "scenario snapshot dates, never the machine clock"
    )
    interests = (ast.Call,)

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        assert isinstance(node, ast.Call)
        dotted = dotted_name(node.func)
        if dotted is None:
            return
        for suffix in _WALL_CLOCK_SUFFIXES:
            if dotted == suffix or dotted.endswith("." + suffix):
                if suffix in _PROCESS_TIMER_SUFFIXES and any(
                    ctx.rel_path.startswith(prefix)
                    for prefix in OBS_ALLOWED
                ):
                    # Process timers are the obs layer's own clock; the
                    # obs-discipline rule governs them elsewhere.
                    return
                ctx.report(
                    self,
                    node,
                    f"wall-clock read {dotted}(): pass dates/times in "
                    "explicitly (scenario snapshot dates)",
                )
                return
